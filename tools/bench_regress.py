#!/usr/bin/env python
"""Gate benchmark runs against checked-in baselines.

Compares a freshly produced ``BENCH_*.json`` (written by the benchmark
suite under ``benchmarks/results/``) against a baseline copy of the same
file, point by point:

* **Cost is gated hard** — any change in a point's DP cost
  (``members[0].dp_cost`` of the embedded run report) beyond
  ``--cost-tol`` percent fails the run.  The solver is deterministic per
  seed, so cost drift means behaviour changed.
* **The returned cost is gated hard too** — when both files carry
  ``report.cost`` (the Eq. 1 cost the run returned), a relative change
  beyond ``--cost-tol`` percent or ``FINAL_COST_REL_TOL``, whichever is
  larger, fails the run.  For a multilevel point ``members[0]`` is the
  coarse solve, scored before any refinement, so only this gate sees
  the refiner's output.  The floor absorbs last-digit jitter in the
  float sum; a real change moves the cost by far more.
* **Time is warn-only by default** — per-point ``time_s`` regressions
  beyond ``--time-warn`` percent print a warning with the per-stage
  breakdown (via :func:`repro.obs.report.diff_reports` on the embedded
  reports); pass ``--time-fail`` to turn those warnings into failures.
* **Coverage is gated hard** — a point missing from the fresh file or
  appearing only there fails the run (the sweep definition changed
  without refreshing the baseline).
* **Meta floors are gated hard** — repeatable ``--min-meta KEY=FLOAT``
  flags assert that the fresh file's top-level ``meta`` dict carries
  ``KEY`` with a value of at least ``FLOAT`` (e.g. E17's cache
  effectiveness: ``--min-meta hit_rate=0.5 --min-meta warm_speedup=2``).
* **Metrics dumps are gated hard** — ``--metrics-dump PATH`` points at
  the registry dump the benchmark session wrote (see
  ``benchmarks/conftest.py`` and the ``REPRO_METRICS_DUMP`` variable);
  the file must exist, parse, and carry at least one ``repro_*``
  family.  A summary of the hot counters is printed so the CI log
  doubles as a coarse metrics artifact.

Usage (CI runs this against the small E4 instance)::

    PYTHONPATH=src python tools/bench_regress.py \
        --baseline /tmp/baseline/BENCH_E4_runtime_scaling.json \
        --fresh benchmarks/results/BENCH_E4_runtime_scaling.json

Exit code 0 when clean (or warnings only), 1 on any hard failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.telemetry import RunReport
from repro.obs.report import diff_reports

#: Point identity within a sweep file: (sweep, n, h, grid_cells).
KEY_FIELDS = ("sweep", "n", "h", "grid_cells")

#: Relative ``report.cost`` change that still counts as none.
FINAL_COST_REL_TOL = 1e-12


def point_key(point: dict) -> Tuple:
    return tuple(point.get(f) for f in KEY_FIELDS)


def load_points(path: Path) -> Dict[Tuple, dict]:
    data = json.loads(path.read_text())
    points = {}
    for point in data.get("points", []):
        key = point_key(point)
        if key in points:
            raise SystemExit(f"duplicate point {key} in {path}")
        points[key] = point
    if not points:
        raise SystemExit(f"no points in {path}")
    return points


def parse_min_meta(spec: str) -> Tuple[str, float]:
    key, sep, floor = spec.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected KEY=FLOAT, got {spec!r}"
        )
    try:
        return key, float(floor)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected KEY=FLOAT, got {spec!r}"
        ) from exc


def check_meta_floors(path: Path, floors: list) -> list:
    """Gate the fresh file's top-level ``meta`` dict against floors."""
    failures = []
    meta = json.loads(path.read_text()).get("meta") or {}
    for key, floor in floors:
        value = meta.get(key)
        if value is None:
            failures.append(f"meta key {key!r} missing from {path}")
        elif float(value) < floor:
            failures.append(
                f"meta {key} = {float(value):g} below required floor {floor:g}"
            )
    return failures


def check_metrics_dump(path: Path) -> Tuple[list, list]:
    """Validate a session metrics dump; return (failures, summary lines).

    The dump is what ``benchmarks/conftest.py`` writes when
    ``REPRO_METRICS_DUMP`` is set: ``{"snapshot": <registry snapshot>,
    "rendered": <Prometheus text>}``.
    """
    if not path.exists():
        return [f"metrics dump not found: {path}"], []
    try:
        dump = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"metrics dump {path} is not valid JSON: {exc}"], []
    families = (dump.get("snapshot") or {}).get("families") or []
    repro = [f for f in families if str(f.get("name", "")).startswith("repro_")]
    if not repro:
        return [f"metrics dump {path} carries no repro_* families"], []
    summary = [f"metrics dump: {len(repro)} repro_* families in {path}"]
    for fam in repro:
        if fam.get("kind") != "counter":
            continue
        total = sum(float(v) for _key, v in fam.get("series", ()))
        if total:
            summary.append(f"  {fam['name']} {total:g}")
    return [], summary


def final_cost(point: dict) -> Optional[float]:
    """``report.cost``, the Eq. 1 cost the run returned, or ``None``."""
    cost = (point.get("report") or {}).get("cost")
    return None if cost is None else float(cost)


def point_cost(point: dict) -> float:
    members = (point.get("report") or {}).get("members") or []
    if members:
        return float(members[0]["dp_cost"])
    cost = final_cost(point)
    if cost is None:
        raise SystemExit(f"point {point_key(point)} carries no cost")
    return cost


def pct_delta(baseline: float, fresh: float) -> float:
    if baseline == 0.0:
        return 0.0 if fresh == 0.0 else float("inf")
    return (fresh - baseline) / abs(baseline) * 100.0


def stage_breakdown(base_point: dict, fresh_point: dict) -> str:
    """Per-stage time table for one regressed point (best-effort)."""
    try:
        diff = diff_reports(
            RunReport.from_dict(base_point["report"]),
            RunReport.from_dict(fresh_point["report"]),
        )
    except (KeyError, TypeError, ValueError):
        return "    (no embedded run reports to break down)"
    return "\n".join("    " + line for line in diff.render().splitlines())


def compare(
    baseline: Dict[Tuple, dict],
    fresh: Dict[Tuple, dict],
    time_warn_pct: float,
    cost_tol_pct: float,
    time_is_fatal: bool,
) -> Tuple[list, list]:
    """Return (failures, warnings) as printable strings."""
    failures, warnings = [], []
    for key in baseline.keys() - fresh.keys():
        failures.append(f"point {key} missing from fresh results")
    for key in fresh.keys() - baseline.keys():
        failures.append(f"point {key} not in baseline (refresh the baseline?)")
    for key in sorted(baseline.keys() & fresh.keys()):
        bp, fp = baseline[key], fresh[key]
        cost_pct = pct_delta(point_cost(bp), point_cost(fp))
        if abs(cost_pct) > cost_tol_pct:
            failures.append(
                f"point {key}: dp_cost changed {point_cost(bp):g} -> "
                f"{point_cost(fp):g} ({cost_pct:+.2f}%)"
            )
        base_final, fresh_final = final_cost(bp), final_cost(fp)
        if base_final is not None and fresh_final is not None:
            final_pct = pct_delta(base_final, fresh_final)
            if abs(final_pct) > max(FINAL_COST_REL_TOL * 100.0, cost_tol_pct):
                failures.append(
                    f"point {key}: report.cost changed {base_final!r} -> "
                    f"{fresh_final!r} ({final_pct:+.2e}%)"
                )
        time_pct = pct_delta(float(bp["time_s"]), float(fp["time_s"]))
        if time_pct > time_warn_pct:
            msg = (
                f"point {key}: time_s {float(bp['time_s']):.4g} -> "
                f"{float(fp['time_s']):.4g} ({time_pct:+.1f}% > "
                f"{time_warn_pct:g}%)\n" + stage_breakdown(bp, fp)
            )
            (failures if time_is_fatal else warnings).append(msg)
    return failures, warnings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare a fresh BENCH_*.json against its baseline"
    )
    parser.add_argument("--baseline", required=True, help="baseline BENCH_*.json")
    parser.add_argument("--fresh", required=True, help="fresh BENCH_*.json")
    parser.add_argument(
        "--time-warn",
        type=float,
        default=50.0,
        metavar="PCT",
        help="warn when a point's time_s regresses by more than PCT "
        "(default 50; CI timing is noisy)",
    )
    parser.add_argument(
        "--cost-tol",
        type=float,
        default=0.0,
        metavar="PCT",
        help="tolerated cost drift in percent (default 0: dp_cost exact, "
        "report.cost within FINAL_COST_REL_TOL)",
    )
    parser.add_argument(
        "--time-fail",
        action="store_true",
        help="treat time regressions as failures instead of warnings",
    )
    parser.add_argument(
        "--min-meta",
        type=parse_min_meta,
        action="append",
        default=[],
        metavar="KEY=FLOAT",
        help="fail unless the fresh file's meta[KEY] >= FLOAT (repeatable)",
    )
    parser.add_argument(
        "--metrics-dump",
        default=None,
        metavar="PATH",
        help="validate and summarise the benchmark session's registry "
        "dump (written when REPRO_METRICS_DUMP is set)",
    )
    args = parser.parse_args(argv)

    for path in (args.baseline, args.fresh):
        if not Path(path).exists():
            print(f"bench_regress: file not found: {path}", file=sys.stderr)
            return 1
    baseline = load_points(Path(args.baseline))
    fresh = load_points(Path(args.fresh))
    failures, warnings = compare(
        baseline, fresh, args.time_warn, args.cost_tol, args.time_fail
    )
    failures.extend(check_meta_floors(Path(args.fresh), args.min_meta))
    if args.metrics_dump:
        dump_failures, dump_summary = check_metrics_dump(Path(args.metrics_dump))
        failures.extend(dump_failures)
        for line in dump_summary:
            print(line)

    for msg in warnings:
        print(f"WARN: {msg}")
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    print(
        f"bench_regress: {len(baseline)} baseline points, "
        f"{len(failures)} failure(s), {len(warnings)} warning(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
