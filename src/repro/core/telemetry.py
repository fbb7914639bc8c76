"""Structured run telemetry for the solver engine.

Every top-level solve call (batch, streaming re-optimisation, portfolio,
k-BGP reduction, guided iteration, multilevel) threads one
:class:`Telemetry` object through its engine runs, and the collector's
``run_id`` is that call's one correlation id.  It records three kinds
of data:

* **Spans** — a tree of named intervals, each timed in wall-clock
  seconds and in CPU seconds of the thread that ran it.  A stage
  entered twice under the same parent *accumulates* into one span
  (durations sum, count increments), so ensembles and portfolios stay
  readable.
* **Counters** — named numeric facts attached to the span they were
  observed in (ensemble size, grid cells, beam escalations, …).
* **Member records** — one :class:`MemberRecord` per decomposition-tree
  ensemble member: DP cost, mapped cost, per-phase seconds and the DP
  state counters that :class:`repro.hgpt.dp.DPStats` used to hold.

Spans are the one timing model.  Everything here is a plain picklable
dataclass: each ensemble member is timed by the spans of its own
collector, wherever it ran, and the parent merges that span tree into
its own (:meth:`Span.merge`), so parallel runs report the same phase
breakdown as serial ones.  A whole run serialises to a JSON *run
report* (:class:`RunReport`) that the CLI (``repro solve --report
out.json``) and the benchmark harness persist; reports round-trip
losslessly through JSON.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "MemberRecord",
    "MemberFailure",
    "Telemetry",
    "RunReport",
    "active_spans",
    "new_run_id",
]


def new_run_id() -> str:
    """Fresh 12-hex-digit correlation id (unique per run, not per seed)."""
    return uuid.uuid4().hex[:12]


#: Thread ident -> stack of open span names, maintained by
#: :meth:`Telemetry.span`.  The sampling profiler
#: (:mod:`repro.obs.profile`) reads this from its sampler thread to
#: attribute stack samples to the telemetry span the sampled thread was
#: inside — which is why it lives at module level rather than on one
#: collector instance: ``sys._current_frames`` is process-wide too.
_ACTIVE_SPANS: Dict[int, List[str]] = {}


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
    cpu_seconds:
        Accumulated CPU time of the thread that ran each entry
        (``time.thread_time``), so a sampler or any other thread in the
        process is not charged to the span.  Pool members measure it in
        their worker, and :meth:`merge` sums it like ``seconds``.
    count:
        Number of times the span was entered.
    counters:
        Named numeric facts recorded while this span was current.
    children:
        Nested spans, in first-entry order.
    """

    name: str
    seconds: float = 0.0
    cpu_seconds: float = 0.0
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

    def add(
        self, name: str, seconds: float, count: int = 1, cpu_seconds: float = 0.0
    ) -> "Span":
        """Accumulate externally measured time under child ``name``."""
        c = self.child(name)
        c.seconds += float(seconds)
        c.cpu_seconds += float(cpu_seconds)
        c.count += int(count)
        return c

    def merge(self, other: "Span") -> None:
        """Accumulate ``other``'s children into the same-named children.

        Wall and CPU seconds, counts and counters add up by name,
        recursively; a name this span has not seen yet is appended, so
        first-entry order is kept.  The engine merges each ensemble
        member's span tree (timed wherever the member ran) into the
        run's current span.
        """
        for theirs in other.children:
            mine = self.add(
                theirs.name, theirs.seconds, theirs.count, theirs.cpu_seconds
            )
            for key, value in theirs.counters.items():
                mine.counters[key] = mine.counters.get(key, 0.0) + value
            mine.merge(theirs)

    def to_dict(self) -> dict:
        """JSON-ready nested-dict view of this span subtree."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "cpu_seconds": self.cpu_seconds,
            "count": self.count,
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a span subtree from :meth:`to_dict` output.

        ``cpu_seconds`` loads as 0.0 from reports older than schema v5.
        """
        return cls(
            name=data["name"],
            seconds=float(data["seconds"]),
            cpu_seconds=float(data.get("cpu_seconds", 0.0)),
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
    was retried by the resilience layer); ``pid`` is the id of the
    process that solved the member (0 in reports older than schema v4).

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
    pid: int = 0

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

    Attributes
    ----------
    run_id:
        The run's correlation id (:func:`new_run_id`).  Every engine run
        folded into this collector shares it, so one top-level call has
        one id: its results, its report's ``meta["run_id"]``, the
        trace's ``otherData.run_id`` and its persisted
        ``<path>_<run_id>.json``.
    """

    def __init__(self, path: str = "run"):
        self.run_id = new_run_id()
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
        """Open (or re-enter) the child span ``name`` and time the block.

        The block is timed twice: wall-clock (``perf_counter``) into
        ``seconds`` and this thread's CPU time (``thread_time``) into
        ``cpu_seconds``.
        """
        sp = self.current.child(name)
        self._stack.append(sp)
        ident = threading.get_ident()
        _ACTIVE_SPANS.setdefault(ident, []).append(name)
        start = time.perf_counter()
        cpu_start = time.thread_time()
        try:
            yield sp
        finally:
            sp.cpu_seconds += time.thread_time() - cpu_start
            sp.seconds += time.perf_counter() - start
            sp.count += 1
            self._stack.pop()
            stack = _ACTIVE_SPANS.get(ident)
            if stack:
                stack.pop()
                if not stack:
                    _ACTIVE_SPANS.pop(ident, None)

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` on the current span."""
        counters = self.current.counters
        counters[name] = counters.get(name, 0.0) + float(value)

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
    #: span, span shares, hot frames and collapsed stacks
    #: (:attr:`repro.obs.profile.ProfileSession.profile`, stamped by the
    #: caller that profiled the solve).  ``None`` for unprofiled runs.
    profile: Optional[dict] = None

    #: v2 added ``degraded`` + ``failures``; v3 added ``profile``; v4
    #: added ``members[].pid``; v5 added ``spans[].cpu_seconds`` (absent
    #: in older reports, which still load — all default to "nothing
    #: failed / not profiled / pid 0 / 0.0 CPU seconds").
    SCHEMA_VERSION = 5

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
