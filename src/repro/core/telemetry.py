"""Structured run telemetry for the solver engine.

Every top-level solve call (batch, streaming re-optimisation, portfolio,
k-BGP reduction, guided iteration, multilevel) threads one
:class:`Telemetry` object through its engine runs.  It records three
kinds of data:

* **Spans** — a tree of named wall-clock intervals.  A stage entered
  twice under the same parent *accumulates* into one span (duration sums,
  count increments), so ensembles and portfolios stay readable.
* **Counters** — named numeric facts attached to the span they were
  observed in (ensemble size, grid cells, beam escalations, …).
* **Member records** — one :class:`MemberRecord` per decomposition-tree
  ensemble member: DP cost, mapped cost, per-phase seconds and the DP
  state counters that :class:`repro.hgpt.dp.DPStats` used to hold.

Spans are the one timing model.  Everything here is a plain picklable
dataclass: process-pool workers return their member records (with their
``dp``/``repair`` seconds) and the parent folds those seconds into its
spans, so parallel runs report the same phase breakdown as serial ones.
A whole run serialises to a JSON *run report* (:class:`RunReport`) that
the CLI (``repro solve --report out.json``) and the benchmark harness
persist; reports round-trip losslessly through JSON.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "MemberRecord",
    "MemberFailure",
    "Telemetry",
    "RunReport",
    "active_spans",
    "mark_active",
    "add_span_observer",
    "remove_span_observer",
]

#: Thread ident -> stack of open span names, maintained by
#: :meth:`Telemetry.span`.  The sampling profiler
#: (:mod:`repro.obs.profile`) reads this from its sampler thread to
#: attribute stack samples to the telemetry span the sampled thread was
#: inside — which is why it lives at module level rather than on one
#: collector instance: ``sys._current_frames`` is process-wide too.
_ACTIVE_SPANS: Dict[int, List[str]] = {}


#: Process-wide span observers, notified on every :meth:`Telemetry.span`
#: enter and exit of every collector in the process — the same scope as
#: :data:`_ACTIVE_SPANS`, so a profiler wrapped around any call (a
#: portfolio of several runs, a multilevel solve) sees all of its spans.
_SPAN_OBSERVERS: List[Callable[[str, str, float], None]] = []


def add_span_observer(observer: Callable[[str, str, float], None]) -> None:
    """Register ``observer(event, name, seconds)`` span callbacks.

    ``event`` is ``"enter"`` (``seconds == 0.0``) or ``"exit"``
    (``seconds`` = the block's duration).  Used by the profiler's stage
    resource monitor to bracket RSS/CPU/tracemalloc per stage.  Observer
    exceptions are swallowed — observability must never fail a solve.
    """
    _SPAN_OBSERVERS.append(observer)


def remove_span_observer(observer: Callable[[str, str, float], None]) -> None:
    """Unregister a span observer (no-op when absent)."""
    try:
        _SPAN_OBSERVERS.remove(observer)
    except ValueError:
        pass


def _notify(event: str, name: str, seconds: float) -> None:
    for obs in tuple(_SPAN_OBSERVERS):
        try:
            obs(event, name, seconds)
        except Exception:
            pass


def active_spans() -> Dict[int, str]:
    """Innermost open span name per thread ident (profiler attribution).

    Safe to call from any thread: iterates over a point-in-time copy,
    skipping threads whose stack empties mid-iteration.
    """
    out: Dict[int, str] = {}
    for ident, stack in list(_ACTIVE_SPANS.items()):
        if stack:
            out[ident] = stack[-1]
    return out


@contextmanager
def mark_active(name: str) -> Iterator[None]:
    """Tag the calling thread as "inside ``name``" for the profiler only.

    A zero-cost sibling of :meth:`Telemetry.span` for code that times
    itself some other way (``solve_member`` writes its phase seconds to
    a picklable :class:`MemberRecord`): no Span node is created and
    nothing shows up in reports, but stack samples taken while the block
    runs are attributed to ``name``.  Works identically in pool workers,
    where no Telemetry instance exists at all.
    """
    ident = threading.get_ident()
    _ACTIVE_SPANS.setdefault(ident, []).append(name)
    try:
        yield
    finally:
        stack = _ACTIVE_SPANS.get(ident)
        if stack:
            stack.pop()
            if not stack:
                _ACTIVE_SPANS.pop(ident, None)


@dataclass
class Span:
    """One node of the span tree.

    Attributes
    ----------
    name:
        Span label (stage spans use the canonical names ``trees``,
        ``quantize``, ``dp``, ``repair``, ``refine``).
    seconds:
        Accumulated wall-clock time across all entries.
    count:
        Number of times the span was entered.
    counters:
        Named numeric facts recorded while this span was current.
    children:
        Nested spans, in first-entry order.
    """

    name: str
    seconds: float = 0.0
    count: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def child(self, name: str) -> "Span":
        """Find-or-create the child span called ``name``."""
        for c in self.children:
            if c.name == name:
                return c
        c = Span(name)
        self.children.append(c)
        return c

    def iter_named(self, name: str) -> Iterator["Span"]:
        """Yield every descendant called ``name``, depth-first."""
        for c in self.children:
            if c.name == name:
                yield c
            yield from c.iter_named(name)

    def lookup(self, name: str) -> Optional["Span"]:
        """Depth-first search for the first descendant called ``name``."""
        return next(self.iter_named(name), None)

    def find_all(self, name: str) -> List["Span"]:
        """All descendants called ``name`` (depth-first order)."""
        return list(self.iter_named(name))

    def total_child_seconds(self) -> float:
        """Sum of the direct children's accumulated seconds.

        ``report show`` derives self time as
        ``max(0, seconds - total_child_seconds())``; the clamp matters
        because pool runs fold summed worker time into child spans,
        which can exceed the parent's wall-clock measurement.
        """
        return sum(c.seconds for c in self.children)

    def add(self, name: str, seconds: float, count: int = 1) -> "Span":
        """Accumulate externally measured time under child ``name``.

        Used by the engine to fold per-worker phase timings (measured in
        the worker process) into the parent's span tree.
        """
        c = self.child(name)
        c.seconds += float(seconds)
        c.count += int(count)
        return c

    def to_dict(self) -> dict:
        """JSON-ready nested-dict view of this span subtree."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "count": self.count,
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            seconds=float(data["seconds"]),
            count=int(data["count"]),
            counters={k: float(v) for k, v in data.get("counters", {}).items()},
            children=[cls.from_dict(c) for c in data.get("children", [])],
        )


@dataclass
class MemberRecord:
    """Per-ensemble-member diagnostics (picklable; workers return these).

    The ``dp_*`` counters mirror the member's
    :class:`repro.hgpt.dp.DPStats` totals, accumulated across beam
    escalations; ``beam_escalations`` counts how often the beam had to
    widen before the DP found a feasible state; ``attempts`` is which
    solve attempt produced this record (1 = first try, >1 = the member
    was retried by the resilience layer).

    The record is the only carrier of a member's DP facts across the
    process boundary: the process that receives it publishes the
    ``repro_dp_*`` and ``repro_incremental_subtree_*`` metrics from it
    (:func:`repro.core.engine.publish_member_metrics`).
    """

    index: int
    method: Optional[str] = None
    dp_cost: float = 0.0
    mapped_cost: float = 0.0
    dp_seconds: float = 0.0
    repair_seconds: float = 0.0
    beam_escalations: int = 0
    attempts: int = 1
    dp_nodes: int = 0
    dp_states_total: int = 0
    dp_states_max: int = 0
    dp_merges: int = 0
    dp_tiles: int = 0
    dp_bound_pruned: int = 0
    dp_table_peak_bytes: int = 0
    dp_memo_hits: int = 0
    dp_memo_misses: int = 0

    def to_dict(self) -> dict:
        """JSON-ready flat-dict view of this record."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MemberRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(**data)


@dataclass
class MemberFailure:
    """One ensemble member's terminal failure (all retry attempts spent).

    Attributes
    ----------
    index:
        Member index within the run's telemetry (same numbering as
        :class:`MemberRecord.index`).
    kind:
        Failure class: ``crash`` (the pool worker died), ``timeout``
        (the member deadline expired), or ``error`` (the solve raised).
    attempts:
        How many attempts were made before giving up.
    message:
        The last attempt's exception message, truncated.
    traceback_digest:
        Short BLAKE2b digest of the last attempt's traceback text, so
        identical failure signatures can be grouped across runs without
        shipping whole tracebacks into reports.
    """

    index: int
    kind: str
    attempts: int
    message: str = ""
    traceback_digest: str = ""

    def to_dict(self) -> dict:
        """JSON-ready flat-dict view of this failure."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MemberFailure":
        """Rebuild a failure record from :meth:`to_dict` output."""
        return cls(**data)


class Telemetry:
    """Collector threaded through the engine stages.

    Parameters
    ----------
    path:
        Name of the solve path this telemetry belongs to (``batch``,
        ``streaming``, ``portfolio``, ``kbgp``, ``guided``); becomes the
        root span's name and the report's ``path`` field.
    """

    def __init__(self, path: str = "run"):
        self.root = Span(path)
        self._stack: List[Span] = [self.root]
        self.members: List[MemberRecord] = []
        self.failures: List[MemberFailure] = []

    @property
    def path(self) -> str:
        """Solve-path label (the root span's name)."""
        return self.root.name

    @property
    def current(self) -> Span:
        """The innermost open span (the root when none is open)."""
        return self._stack[-1]

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Open (or re-enter) the child span ``name`` and time the block."""
        sp = self.current.child(name)
        self._stack.append(sp)
        ident = threading.get_ident()
        _ACTIVE_SPANS.setdefault(ident, []).append(name)
        _notify("enter", name, 0.0)
        start = time.perf_counter()
        try:
            yield sp
        finally:
            elapsed = time.perf_counter() - start
            sp.seconds += elapsed
            sp.count += 1
            self._stack.pop()
            stack = _ACTIVE_SPANS.get(ident)
            if stack:
                stack.pop()
                if not stack:
                    _ACTIVE_SPANS.pop(ident, None)
            _notify("exit", name, elapsed)

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` on the current span."""
        counters = self.current.counters
        counters[name] = counters.get(name, 0.0) + float(value)

    def add_seconds(self, name: str, seconds: float, count: int = 1) -> None:
        """Fold externally measured time in as a child of the current span."""
        self.current.add(name, seconds, count)

    def record_member(self, member: MemberRecord) -> None:
        """Append one ensemble-member record."""
        self.members.append(member)

    def record_failure(self, failure: MemberFailure) -> None:
        """Append one terminal member-failure record (degraded runs)."""
        self.failures.append(failure)

    @property
    def degraded(self) -> bool:
        """Whether any ensemble member was lost past its retry budget."""
        return bool(self.failures)

    def find_spans(self, name: str) -> List[Span]:
        """All spans called ``name`` anywhere in the tree (root included)."""
        hits = [self.root] if self.root.name == name else []
        hits.extend(self.root.find_all(name))
        return hits

    def report(
        self,
        config: Optional[dict] = None,
        cost: Optional[float] = None,
        **meta: object,
    ) -> "RunReport":
        """Freeze the collected data into a serialisable :class:`RunReport`."""
        return RunReport(
            path=self.path,
            config=config,
            cost=cost,
            spans=self.root,
            members=list(self.members),
            meta=dict(meta),
            failures=list(self.failures),
            degraded=self.degraded,
        )


@dataclass
class RunReport:
    """One run's structured report: spans + counters + member records.

    Serialises with :meth:`to_json` and reconstructs losslessly with
    :meth:`from_json` (asserted by the telemetry tests); the schema is
    documented in ``docs/algorithms.md``.
    """

    path: str
    config: Optional[dict]
    cost: Optional[float]
    spans: Span
    members: List[MemberRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    failures: List[MemberFailure] = field(default_factory=list)
    degraded: bool = False
    #: Profiler payload when the run was profiled: sample counts per
    #: span, collapsed stacks, per-stage RSS/CPU/tracemalloc deltas
    #: (:attr:`repro.obs.profile.ProfileSession.profile`, stamped by the
    #: caller that profiled the solve).  ``None`` for unprofiled runs.
    profile: Optional[dict] = None

    #: v2 added ``degraded`` + ``failures``; v3 added ``profile``
    #: (absent in older reports, which still load — all default to
    #: "nothing failed / not profiled").
    SCHEMA_VERSION = 3

    def to_dict(self) -> dict:
        """JSON-ready dict view of the whole report (versioned schema)."""
        return {
            "schema_version": self.SCHEMA_VERSION,
            "path": self.path,
            "config": self.config,
            "cost": self.cost,
            "spans": self.spans.to_dict(),
            "members": [m.to_dict() for m in self.members],
            "meta": self.meta,
            "failures": [f.to_dict() for f in self.failures],
            "degraded": self.degraded,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` output."""
        return cls(
            path=data["path"],
            config=data.get("config"),
            cost=data.get("cost"),
            spans=Span.from_dict(data["spans"]),
            members=[MemberRecord.from_dict(m) for m in data.get("members", [])],
            meta=dict(data.get("meta", {})),
            failures=[
                MemberFailure.from_dict(f) for f in data.get("failures", [])
            ],
            degraded=bool(data.get("degraded", False)),
            profile=data.get("profile"),
        )

    def to_json(self, indent: int = 2) -> str:
        """Serialise the report to a JSON string (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Parse a report back from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
