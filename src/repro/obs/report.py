"""Run-report analysis: pretty rendering and regression-gating diffs.

The ``repro report`` CLI family is a thin wrapper over two functions:

* :func:`render_report` — human-readable view of one report: the span
  tree with total/self/CPU seconds (self time via
  :meth:`repro.core.telemetry.Span.total_child_seconds`), span counters,
  and a per-member summary table.
* :func:`diff_reports` — structured comparison of two reports: cost
  delta plus per-stage (root-child span) time deltas, with
  :meth:`ReportDiff.regressions` implementing the ``--fail-above PCT``
  gate the CLI and ``tools/bench_regress.py`` exit on.

Percentage deltas are relative to the *baseline* (first) report; a
stage absent from the baseline but present in the fresh report counts
as a regression at any threshold (new time appeared from nowhere),
while a stage that disappeared is reported but never gates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Union

from repro.core.telemetry import RunReport, Span
from repro.errors import InvalidInputError

__all__ = [
    "load_report",
    "render_report",
    "StageDelta",
    "ReportDiff",
    "diff_reports",
]

#: A stage absent from the baseline gates only when its fresh time
#: exceeds this floor — zero-duration skeleton stages must not trip it.
MIN_NEW_STAGE_SECONDS = 1e-6


def load_report(path: Union[str, Path]) -> RunReport:
    """Read a run report from a JSON file.

    Raises :class:`repro.errors.InvalidInputError` naming ``path`` when
    the file is not JSON or not a run report, so a broken file is an
    input error (CLI exit 2), never a diff regression (exit 1).
    """
    try:
        return RunReport.from_json(Path(path).read_text())
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InvalidInputError(
            f"{path} is not a run report ({type(exc).__name__}: {exc})"
        ) from None


def _render_span(span: Span, depth: int, lines: List[str]) -> None:
    self_seconds = max(0.0, span.seconds - span.total_child_seconds())
    counters = ""
    if span.counters:
        counters = "  [" + ", ".join(
            f"{k}={v:g}" for k, v in sorted(span.counters.items())
        ) + "]"
    lines.append(
        f"{'  ' * depth}{span.name:<{max(1, 24 - 2 * depth)}s} "
        f"{span.seconds * 1e3:9.2f} ms  self {self_seconds * 1e3:9.2f} ms  "
        f"cpu {span.cpu_seconds * 1e3:9.2f} ms  ({span.count}x){counters}"
    )
    for child in span.children:
        _render_span(child, depth + 1, lines)


def _member_latency_line(report: RunReport) -> str:
    """p50/p99 member solve latency via the bucketed histogram estimator.

    The member dp+repair seconds are folded into a
    :class:`repro.obs.metrics.Histogram` with the default latency
    buckets and read back through :meth:`Histogram.quantile` — the same
    estimator a Prometheus ``histogram_quantile`` would apply to the
    live ``repro_dp_seconds`` series, so report numbers and dashboards
    agree about what "p99" means.
    """
    from repro.obs.metrics import Histogram

    hist = Histogram("member_seconds")
    for m in report.members:
        hist.observe(m.dp_seconds + m.repair_seconds)
    p50, p99 = hist.quantile(0.5), hist.quantile(0.99)
    return f"latency (dp+repair): p50 {p50 * 1e3:.1f} ms  p99 {p99 * 1e3:.1f} ms"


def _render_profile(profile: dict, lines: List[str]) -> None:
    """Append the profile section (profiled runs, schema v3+) to ``lines``."""
    lines.append("")
    lines.append(
        f"profile: {profile.get('samples', 0)} samples @ "
        f"{profile.get('hz', 0):g} Hz over "
        f"{profile.get('duration_seconds', 0.0):.2f} s"
    )
    shares = profile.get("span_shares") or {}
    if shares:
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        lines.append(
            "  span shares: "
            + "  ".join(f"{name} {share:.0%}" for name, share in ranked)
        )


def render_report(report: RunReport) -> str:
    """Pretty multi-line rendering of one run report."""
    lines: List[str] = []
    header = f"run report: path={report.path}"
    if report.cost is not None:
        header += f"  cost={report.cost:.6g}"
    run_id = report.meta.get("run_id")
    if run_id:
        header += f"  run_id={run_id}"
    if report.degraded:
        header += "  DEGRADED"
    lines.append(header)
    lines.append("")
    lines.append("spans (total / self / cpu / entries):")
    _render_span(report.spans, 1, lines)
    if report.members:
        lines.append("")
        lines.append(
            f"members ({len(report.members)}): "
            "index  method        dp_cost  mapped_cost  dp_ms  repair_ms  "
            "states_max  escalations"
        )
        for m in report.members:
            lines.append(
                f"  {m.index:>5d}  {str(m.method):<12s}  {m.dp_cost:8.4g}  "
                f"{m.mapped_cost:10.4g}  {m.dp_seconds * 1e3:6.1f}  "
                f"{m.repair_seconds * 1e3:8.1f}  {m.dp_states_max:>10d}  "
                f"{m.beam_escalations:>11d}"
            )
        best = min(report.members, key=lambda m: m.mapped_cost)
        lines.append(f"  winner: member {best.index} ({best.method})")
        lines.append("  " + _member_latency_line(report))
    if report.failures:
        lines.append("")
        lines.append(
            f"failed members ({len(report.failures)}): "
            "index  kind     attempts  message"
        )
        for f in report.failures:
            lines.append(
                f"  {f.index:>5d}  {f.kind:<7s}  {f.attempts:>8d}  "
                f"{f.message or '-'}"
            )
    if report.profile:
        _render_profile(report.profile, lines)
    extra_meta = {k: v for k, v in sorted(report.meta.items()) if k != "run_id"}
    if extra_meta:
        lines.append("")
        lines.append("meta: " + json.dumps(extra_meta, sort_keys=True, default=str))
    return "\n".join(lines)


@dataclass
class StageDelta:
    """One stage's time comparison between baseline and fresh reports."""

    name: str
    baseline_seconds: Optional[float]
    fresh_seconds: Optional[float]

    @property
    def delta_pct(self) -> Optional[float]:
        """Relative change in percent (``None`` when undefined).

        Undefined when the stage is missing on either side or the
        baseline is zero seconds.
        """
        if self.baseline_seconds is None or self.fresh_seconds is None:
            return None
        if self.baseline_seconds <= 0.0:
            return None
        return (
            (self.fresh_seconds - self.baseline_seconds)
            / self.baseline_seconds
            * 100.0
        )

    def exceeds(self, threshold_pct: float) -> bool:
        """Whether this stage gates at ``threshold_pct`` percent."""
        if self.baseline_seconds is None and self.fresh_seconds is not None:
            return self.fresh_seconds > MIN_NEW_STAGE_SECONDS
        pct = self.delta_pct
        if pct is None:
            return False
        return pct > threshold_pct


@dataclass
class ReportDiff:
    """Structured two-report comparison (cost + per-stage times)."""

    baseline_cost: Optional[float]
    fresh_cost: Optional[float]
    stages: List[StageDelta] = field(default_factory=list)

    @property
    def cost_delta_pct(self) -> Optional[float]:
        """Relative cost change in percent (``None`` when undefined)."""
        if self.baseline_cost is None or self.fresh_cost is None:
            return None
        if self.baseline_cost == 0.0:
            return None
        return (self.fresh_cost - self.baseline_cost) / abs(self.baseline_cost) * 100.0

    def regressions(self, threshold_pct: float) -> List[str]:
        """Names of gated dimensions exceeding ``threshold_pct`` percent.

        Cost regressions gate on *any* increase beyond the threshold;
        stage times gate via :meth:`StageDelta.exceeds`.
        """
        failed = [s.name for s in self.stages if s.exceeds(threshold_pct)]
        pct = self.cost_delta_pct
        if pct is not None and pct > threshold_pct:
            failed.insert(0, "cost")
        return failed

    def render(self, threshold_pct: Optional[float] = None) -> str:
        """Aligned text table of the comparison (CLI output)."""

        def fmt_secs(v: Optional[float]) -> str:
            return f"{v * 1e3:10.2f}" if v is not None else "         -"

        def fmt_pct(v: Optional[float]) -> str:
            return f"{v:+8.1f}%" if v is not None else "        -"

        lines = ["stage            baseline_ms    fresh_ms     delta"]
        for s in self.stages:
            flag = ""
            if threshold_pct is not None and s.exceeds(threshold_pct):
                flag = "  << REGRESSION"
            lines.append(
                f"{s.name:<14s} {fmt_secs(s.baseline_seconds)}  "
                f"{fmt_secs(s.fresh_seconds)}  {fmt_pct(s.delta_pct)}{flag}"
            )
        cost_line = (
            f"{'cost':<14s} {self.baseline_cost if self.baseline_cost is not None else '-':>11}  "
            f"{self.fresh_cost if self.fresh_cost is not None else '-':>10}  "
            f"{fmt_pct(self.cost_delta_pct)}"
        )
        if (
            threshold_pct is not None
            and self.cost_delta_pct is not None
            and self.cost_delta_pct > threshold_pct
        ):
            cost_line += "  << REGRESSION"
        lines.append(cost_line)
        return "\n".join(lines)


def diff_reports(baseline: RunReport, fresh: RunReport) -> ReportDiff:
    """Compare two run reports stage-by-stage.

    Stages are the root span's direct children (the engine's canonical
    ``trees``/``quantize``/``dp``/``repair``/``refine`` skeleton, plus
    whatever custom stages a caller added), matched by name; baseline
    order first, fresh-only stages appended.
    """
    base_stages = {c.name: c.seconds for c in baseline.spans.children}
    fresh_stages = {c.name: c.seconds for c in fresh.spans.children}
    names = list(base_stages)
    names.extend(n for n in fresh_stages if n not in base_stages)
    stages = [
        StageDelta(
            name=n,
            baseline_seconds=base_stages.get(n),
            fresh_seconds=fresh_stages.get(n),
        )
        for n in names
    ]
    return ReportDiff(
        baseline_cost=baseline.cost,
        fresh_cost=fresh.cost,
        stages=stages,
    )
