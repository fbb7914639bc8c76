"""Observability: metrics, trace export, report tooling, profiling.

Turns the engine's write-only telemetry into operator-facing artifacts:

* :mod:`repro.obs.metrics` — process-local counters / gauges / bounded
  histograms with Prometheus text exposition; the engine, flow, cache
  and online hot paths publish here.
* :mod:`repro.obs.trace` — run reports → Chrome trace-event JSON with
  one member lane per process that solved members (view in Perfetto).
* :mod:`repro.obs.report` — pretty rendering and regression-gating
  diffs behind the ``repro report`` CLI family.
* :mod:`repro.obs.profile` — continuous sampling profiler with
  telemetry-span attribution and collapsed-stack output (``repro solve
  --profile``).  Wall and CPU seconds per stage live in every report's
  span tree, profiled or not.

See ``docs/observability.md`` for the metrics catalog and workflows.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.profile import (
    ProfileConfig,
    ProfileSession,
    SamplingProfiler,
)
from repro.obs.report import (
    ReportDiff,
    StageDelta,
    diff_reports,
    load_report,
    render_report,
)
from repro.obs.trace import report_to_trace, write_trace

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "ProfileConfig",
    "ProfileSession",
    "SamplingProfiler",
    "report_to_trace",
    "write_trace",
    "load_report",
    "render_report",
    "diff_reports",
    "ReportDiff",
    "StageDelta",
]
