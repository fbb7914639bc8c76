"""Process-local metrics registry with Prometheus text exposition.

Three metric kinds, all thread-safe and dependency-free:

* :class:`Counter` — monotonically increasing totals (DP solves, flow
  calls, online arrivals/migrations, …).
* :class:`Gauge` — last-written values (live task count, loads).
* :class:`Histogram` — bounded cumulative-bucket distributions for
  latencies and size counters (``reoptimize()`` seconds, DP states per
  solve).  Bucket edges are fixed at registration; observations above
  the last edge land in the implicit ``+Inf`` bucket.

All families support Prometheus-style labels: ``family.labels(k=v)``
returns (find-or-create) the child series for that label combination.
:meth:`MetricsRegistry.render` emits the classic text exposition format
(``# HELP`` / ``# TYPE`` / sample lines), suitable for a ``/metrics``
endpoint or for dumping next to a run report.

The library instruments its hot paths against the default registry
(:func:`get_registry`): the engine, the flow substrate, the cache and
the online placer all publish here.  Metrics are *process-local* and no
registry state crosses a process boundary.  What an ensemble member
solved in a pool worker contributes travels home on its
:class:`repro.core.telemetry.MemberRecord`, and the receiving process
publishes the ``repro_dp_*`` / ``repro_incremental_subtree_*`` metrics
from it (:func:`repro.core.engine.publish_member_metrics`), so those
totals are the same for serial and parallel runs.
:meth:`MetricsRegistry.snapshot` gives a picklable, JSON-safe dump of
the registry (benchmark sessions write it next to their results).
"""

from __future__ import annotations

import math
import os
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_BYTE_BUCKETS",
]

#: Default bucket edges for latency histograms (seconds, exponential).
DEFAULT_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Default bucket edges for size/count histograms (powers of four).
DEFAULT_SIZE_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)

#: Default bucket edges for byte-sized histograms (4 KiB .. 1 GiB).
DEFAULT_BYTE_BUCKETS = (
    4096, 16384, 65536, 262144, 1048576, 4194304,
    16777216, 67108864, 268435456, 1073741824,
)


def _format_value(v: float) -> str:
    """Render a sample value the way Prometheus expects."""
    if math.isinf(v):
        return "+Inf" if v > 0 else "-Inf"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _format_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class _Family:
    """Base class: one named metric family with labelled child series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[Tuple[str, str], ...], object] = {}

    def labels(self, **labelvalues: str):
        """Find-or-create the child series for this label combination."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple((k, str(labelvalues[k])) for k in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _default_child(self):
        """The unlabelled series (only valid when the family has no labels)."""
        if self.labelnames:
            raise ValueError(f"{self.name}: labelled family needs .labels(...)")
        return self.labels()

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _series(self) -> List[Tuple[Tuple[Tuple[str, str], ...], object]]:
        with self._lock:
            return sorted(self._children.items())

    def render(self) -> List[str]:
        """Prometheus text-format lines for this family."""
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {self.help}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, child in self._series():
            lines.extend(self._render_child(key, child))
        return lines

    def _render_child(self, key, child) -> List[str]:  # pragma: no cover
        raise NotImplementedError


class _CounterValue:
    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self.value += float(amount)


class Counter(_Family):
    """Monotonically increasing total (optionally labelled)."""

    kind = "counter"

    def _make_child(self) -> _CounterValue:
        return _CounterValue()

    def inc(self, amount: float = 1.0, **labelvalues: str) -> None:
        """Increment the (labelled) series by ``amount`` (must be >= 0)."""
        child = self.labels(**labelvalues) if labelvalues else self._default_child()
        child.inc(amount)

    def value(self, **labelvalues: str) -> float:
        """Current total of the (labelled) series."""
        child = self.labels(**labelvalues) if labelvalues else self._default_child()
        return child.value

    def _render_child(self, key, child) -> List[str]:
        return [f"{self.name}{_format_labels(key)} {_format_value(child.value)}"]


class _GaugeValue:
    __slots__ = ("_lock", "value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += float(amount)


class Gauge(_Family):
    """Last-written value (can go up and down)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeValue:
        return _GaugeValue()

    def set(self, value: float, **labelvalues: str) -> None:
        """Set the (labelled) series to ``value``."""
        child = self.labels(**labelvalues) if labelvalues else self._default_child()
        child.set(value)

    def inc(self, amount: float = 1.0, **labelvalues: str) -> None:
        """Add ``amount`` (may be negative) to the (labelled) series."""
        child = self.labels(**labelvalues) if labelvalues else self._default_child()
        child.inc(amount)

    def value(self, **labelvalues: str) -> float:
        """Current value of the (labelled) series."""
        child = self.labels(**labelvalues) if labelvalues else self._default_child()
        return child.value

    def _render_child(self, key, child) -> List[str]:
        return [f"{self.name}{_format_labels(key)} {_format_value(child.value)}"]


class _HistogramValue:
    __slots__ = ("_lock", "edges", "bucket_counts", "sum", "count")

    def __init__(self, edges: Tuple[float, ...]) -> None:
        self._lock = threading.Lock()
        self.edges = edges
        self.bucket_counts = [0] * (len(edges) + 1)  # last = +Inf overflow
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        from bisect import bisect_left

        idx = bisect_left(self.edges, value)
        with self._lock:
            self.bucket_counts[idx] += 1
            self.sum += float(value)
            self.count += 1

    def cumulative(self) -> List[int]:
        out, running = [], 0
        for c in self.bucket_counts:
            running += c
            out.append(running)
        return out


class Histogram(_Family):
    """Bounded cumulative-bucket distribution (Prometheus semantics).

    ``buckets`` are the finite upper edges; an observation lands in the
    first bucket whose edge is >= the value (``le`` semantics), with an
    implicit ``+Inf`` bucket catching the overflow.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help, labelnames)
        edges = tuple(sorted(float(b) for b in buckets))
        if not edges:
            raise ValueError(f"{name}: need at least one bucket edge")
        if len(set(edges)) != len(edges):
            raise ValueError(f"{name}: duplicate bucket edges {edges}")
        self.buckets = edges

    def _make_child(self) -> _HistogramValue:
        return _HistogramValue(self.buckets)

    def observe(self, value: float, **labelvalues: str) -> None:
        """Record one observation in the (labelled) series."""
        child = self.labels(**labelvalues) if labelvalues else self._default_child()
        child.observe(value)

    def snapshot(self, **labelvalues: str) -> Dict[str, object]:
        """Dict view: per-edge cumulative counts plus sum/count."""
        child = self.labels(**labelvalues) if labelvalues else self._default_child()
        cum = child.cumulative()
        return {
            "buckets": {
                **{edge: cum[i] for i, edge in enumerate(self.buckets)},
                float("inf"): cum[-1],
            },
            "sum": child.sum,
            "count": child.count,
        }

    def quantile(self, q: float, **labelvalues: str) -> float:
        """Estimate the ``q``-quantile (0..1) of the (labelled) series.

        Classic bucketed estimator: find the bucket holding the target
        rank, then interpolate linearly within its edges.  The first
        bucket interpolates from 0.0; ranks landing in the implicit
        ``+Inf`` overflow bucket clamp to the last finite edge (there is
        no upper bound to interpolate toward).  Returns ``nan`` when the
        series has no observations.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        child = self.labels(**labelvalues) if labelvalues else self._default_child()
        cum = child.cumulative()
        total = cum[-1]
        if total == 0:
            return float("nan")
        rank = q * total
        for i, edge in enumerate(self.buckets):
            if cum[i] >= rank:
                lo = 0.0 if i == 0 else self.buckets[i - 1]
                below = 0 if i == 0 else cum[i - 1]
                in_bucket = cum[i] - below
                if in_bucket == 0:  # pragma: no cover - cum[i] >= rank > below
                    return float(edge)
                frac = (rank - below) / in_bucket
                return float(lo + (edge - lo) * min(max(frac, 0.0), 1.0))
        return float(self.buckets[-1])

    def _render_child(self, key, child) -> List[str]:
        lines = []
        cum = child.cumulative()
        for i, edge in enumerate(self.buckets):
            labels = key + (("le", _format_value(edge)),)
            lines.append(f"{self.name}_bucket{_format_labels(labels)} {cum[i]}")
        labels = key + (("le", "+Inf"),)
        lines.append(f"{self.name}_bucket{_format_labels(labels)} {cum[-1]}")
        lines.append(f"{self.name}_sum{_format_labels(key)} {_format_value(child.sum)}")
        lines.append(f"{self.name}_count{_format_labels(key)} {child.count}")
        return lines


#: Content type of :meth:`MetricsRegistry.render` output (Prometheus
#: text exposition), as ``repro serve`` sends it on ``GET /metrics``.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsRegistry:
    """Named collection of metric families with text exposition.

    Registration is idempotent: asking for an existing name returns the
    existing family (so instrumented modules can declare their metrics
    at call sites without import-order coupling); re-registering under a
    different kind raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _register(self, cls, name: str, help: str, **kwargs) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            family = cls(name, help, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Find-or-create the counter family ``name``."""
        return self._register(Counter, name, help, labelnames=labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        """Find-or-create the gauge family ``name``."""
        return self._register(Gauge, name, help, labelnames=labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        """Find-or-create the histogram family ``name``."""
        return self._register(
            Histogram, name, help, labelnames=labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Family]:
        """The family called ``name`` (``None`` if never registered)."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[_Family]:
        """All registered families, sorted by name."""
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

    def render(self) -> str:
        """Prometheus text exposition of every family."""
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def reset(self) -> None:
        """Clear every family's series in place (tests only).

        Families stay registered, so a handle a module bound at import
        keeps counting into this registry after a reset.  Library code
        never calls this.
        """
        with self._lock:
            families = list(self._families.values())
        for family in families:
            with family._lock:
                family._children.clear()

    def snapshot(self) -> Dict[str, object]:
        """Picklable point-in-time dump of every family and series.

        The format is plain lists/dicts/floats so it survives both
        pickling and a round-trip through JSON (label keys become lists
        of ``[name, value]`` pairs)::

            {"pid": 1234, "families": [
                {"name": ..., "kind": "counter"|"gauge"|"histogram",
                 "help": ..., "labelnames": [...],
                 "buckets": [...],            # histograms only
                 "series": [[[["k","v"], ...], value_or_hist_dict], ...]},
            ]}

        Counter/gauge series carry a float; histogram series carry
        ``{"bucket_counts": [...], "sum": ..., "count": ...}`` (raw
        per-bucket counts, *not* cumulative).
        """
        fams: List[Dict[str, object]] = []
        for family in self.families():
            entry: Dict[str, object] = {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
            series = []
            for key, child in family._series():
                if isinstance(family, Histogram):
                    value: object = {
                        "bucket_counts": list(child.bucket_counts),
                        "sum": float(child.sum),
                        "count": int(child.count),
                    }
                else:
                    value = float(child.value)
                series.append([[list(kv) for kv in key], value])
            entry["series"] = series
            fams.append(entry)
        return {"pid": os.getpid(), "families": fams}


_DEFAULT_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the library instruments against."""
    return _DEFAULT_REGISTRY
