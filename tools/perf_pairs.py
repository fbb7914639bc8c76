#!/usr/bin/env python
"""Paired speed verdicts: a base revision against the working tree.

Checks ``--base`` out into a temporary ``git worktree`` and runs
``perfbench/run.py --trace T`` for each seed in ``--seeds``, once in the
base and once in the working tree, alternating which goes first (the
base on odd seeds), so drift of the machine's speed hits both sides
alike.  ``--workload`` takes one name or a comma-separated list; the
workloads run one after another, each over every seed, and each gets
its own table under its name.

With ``--trace 0`` (the default), for every end-to-end metric of
``BENCHMARK.json`` it prints each side's median [q1, q3], the change's
wins (ties count for neither side; the direction comes from the
metric's ``better``) and:

* ``gain`` — the change won at least 9 of every 10 pairs and the gap
  between the medians exceeds the base's interquartile range;
* ``WORSE`` — the change's median is worse than the base's by more
  than the metric's ``bound``;
* ``unresolved`` — neither of the above, but the base's interquartile
  range is wider than ``bound`` times its median, the two sides differ
  on some seed and not every change run is better than every base run:
  the spread is too wide to call the metric unchanged.  Unresolved is
  not WORSE and does not change the exit code.

It also says whether ``eq1_cost`` and ``cap_violation`` are equal on
every seed.  With ``--trace 1`` it prints, for every per-layer metric,
the base median [q1, q3], the change median and the relative change:
diagnostics of where the time went, so no verdict.  Either way it
counts failed/attempted ops per side.  The worktree is removed when
the tool ends, whatever happens; ``perfbench/`` and ``BENCHMARK.json``
are read, never changed.

Usage, from anywhere inside the checkout::

    python3 tools/perf_pairs.py --base HEAD~1 --workload deep-churn --seeds 11-20
    python3 tools/perf_pairs.py --base HEAD~1 --workload flat-cold --seeds 21-23 --trace 1
    python3 tools/perf_pairs.py --base HEAD~1 --workload flat-cold,serve-dup --seeds 11-15

Exit code 0 when every run of every workload was correct and no metric
is ``WORSE``, 1 otherwise, 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: A pair counts for the change when it wins this share of the pairs.
WIN_SHARE = 0.9

#: Metrics that must be equal on both sides of every pair.
ANSWER_METRICS = ("eq1_cost", "cap_violation")

#: Runs one perfbench workload in a checkout: (root, workload, seed,
#: seconds, trace) -> the result object perfbench prints last.
Runner = Callable[[Path, str, int, float, int], dict]


def run_perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py --trace <trace>`` run in ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"perfbench failed in {root} (seed {seed}, exit {proc.returncode}):\n"
            + proc.stderr[-2000:]
        ) from None


def parse_seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    first, last = int(lo), int(hi or lo)
    if last < first:
        raise ValueError(f"empty seed range {text!r}")
    return list(range(first, last + 1))


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3), linearly interpolated as numpy's percentile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def verdict(base: Sequence[float], change: Sequence[float], better: str, bound: float) -> dict:
    """The paired verdict on one metric (``base[i]`` and ``change[i]``
    come from the same seed)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    losses = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    gap = sign * (cmed - bmed)  # > 0: the change's median is better
    gain = wins >= WIN_SHARE * len(base) and gap > bq3 - bq1
    worse = -gap > bound * abs(bmed) if bmed else -gap > 0
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    unresolved = (
        not (gain or worse or all_better)
        and bq3 - bq1 > bound * abs(bmed)
        and list(base) != list(change)
    )
    return {
        "base": (bmed, bq1, bq3),
        "change": (cmed, cq1, cq3),
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "gain": gain,
        "worse": worse,
        "unresolved": unresolved,
    }


def git(root: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=root, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_pairs(
    root: Path, base_root: Path, workload: str, seeds: Sequence[int], seconds: float,
    runner: Runner, trace: int = 0,
) -> Dict[int, Dict[str, dict]]:
    """Alternate the two sides over ``seeds``: the base first on odd seeds."""
    results: Dict[int, Dict[str, dict]] = {}
    for seed in seeds:
        sides = [("base", base_root), ("change", root)]
        if seed % 2 == 0:
            sides.reverse()
        results[seed] = {}
        for name, where in sides:
            print(f"seed {seed}: {name} ...", file=sys.stderr, flush=True)
            results[seed][name] = runner(where, workload, seed, seconds, trace)
    return results


def _values(results: Dict[int, Dict[str, dict]], side: str, name: str) -> List[float]:
    return [results[s][side]["metrics"][name]["value"] for s in sorted(results)]


def _relative(bmed: float, cmed: float) -> str:
    return f"{(cmed - bmed) / bmed:+.1%}" if bmed else "n/a"


def _run_lines(results: Dict[int, Dict[str, dict]]) -> Tuple[List[str], bool]:
    """Failed/attempted ops and correctness per side, and whether any
    run failed an op or a check."""
    seeds = sorted(results)
    lines, bad = [], False
    for side in ("base", "change"):
        failed = sum(results[s][side]["failed"] for s in seeds)
        attempted = sum(results[s][side]["attempted"] for s in seeds)
        incorrect = [s for s in seeds if not results[s][side]["correct"]]
        bad |= bool(failed or incorrect)
        lines.append(
            f"{side}: {failed}/{attempted} ops failed"
            + (f", incorrect on seeds {incorrect}" if incorrect else ", every run correct")
        )
    return lines, bad


def report(spec: dict, results: Dict[int, Dict[str, dict]]) -> Tuple[List[str], bool]:
    """The verdict table, and whether any line of it is flagged."""
    seeds = sorted(results)
    lines = [
        f"{'metric':15s} {'better':6s} {'base median [q1, q3]':30s} "
        f"{'change median [q1, q3]':30s} {'change':>8s} {'wins':>6s}  verdict"
    ]
    bad = False
    unresolved = []
    for m in spec["end_to_end"]:
        name = m["name"]
        base, change = _values(results, "base", name), _values(results, "change", name)
        v = verdict(base, change, m["better"], m["bound"])
        rel = _relative(v["base"][0], v["change"][0])
        flags = ["gain"] * v["gain"] + [f"WORSE (bound {m['bound']:.0%})"] * v["worse"]
        if v["unresolved"]:
            bmed, bq1, bq3 = v["base"]
            spread = (bq3 - bq1) / abs(bmed) if bmed else float("inf")
            flags.append(f"unresolved (base IQR {spread:.0%} > bound {m['bound']:.0%})")
            unresolved.append(name)
        bad |= v["worse"]
        lines.append(
            f"{name:15s} {m['better']:6s} {'%.4g [%.4g, %.4g]' % v['base']:30s} "
            f"{'%.4g [%.4g, %.4g]' % v['change']:30s} {rel:>8s} "
            f"{v['wins']:>3d}/{v['pairs']:<2d}  {' '.join(flags) or '-'}"
        )
    for name in ANSWER_METRICS:
        differ = [
            s for s in seeds
            if results[s]["base"]["metrics"][name]["value"]
            != results[s]["change"]["metrics"][name]["value"]
        ]
        bad |= bool(differ)
        lines.append(
            f"{name} equal on every seed: "
            + ("yes" if not differ else f"NO (seeds {', '.join(map(str, differ))})")
        )
    run_lines, failed = _run_lines(results)
    bad |= failed
    lines += run_lines
    lines.append(
        "verdict: "
        + ("CHECK the flagged lines" if bad else "nothing worse")
        + (f"; unresolved: {', '.join(unresolved)}" if unresolved else "")
    )
    return lines, bad


def trace_report(spec: dict, results: Dict[int, Dict[str, dict]]) -> Tuple[List[str], bool]:
    """The per-layer medians of ``--trace 1`` runs side by side, and
    whether any run failed.  Per-layer numbers are diagnostics, so there
    are no wins and no verdict."""
    lines = [
        f"{'metric':30s} {'better':6s} {'base median [q1, q3]':34s} "
        f"{'change median':>13s} {'change':>8s}"
    ]
    for m in spec["per_layer"]:
        name = m["name"]
        bq1, bmed, bq3 = quartiles(_values(results, "base", name))
        cmed = quartiles(_values(results, "change", name))[1]
        lines.append(
            f"{name:30s} {m['better']:6s} {'%.4g [%.4g, %.4g]' % (bmed, bq1, bq3):34s} "
            f"{cmed:>13.4g} {_relative(bmed, cmed):>8s}"
        )
    run_lines, bad = _run_lines(results)
    return lines + run_lines, bad


def print_table(spec: dict, results: Dict[int, Dict[str, dict]], trace: int) -> bool:
    """Print one workload's per-seed values and verdict table (or, with
    ``trace``, its per-layer table); whether any line is flagged."""
    if trace:
        lines, bad = trace_report(spec, results)
        print("\n".join(lines))
        return bad
    for seed in sorted(results):
        cells = [
            f"{m['name']} {results[seed]['base']['metrics'][m['name']]['value']:.4g}"
            f"/{results[seed]['change']['metrics'][m['name']]['value']:.4g}"
            for m in spec["end_to_end"]
        ]
        first = "base" if seed % 2 else "change"
        print(f"  seed {seed} ({first} first), base/change: " + ", ".join(cells))
    lines, bad = report(spec, results)
    print("\n".join(lines))
    return bad


def main(argv=None, runner: Runner = run_perfbench, root: Path = ROOT) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument(
        "--workload", required=True, help="a workload, or a comma-separated list of them"
    )
    ap.add_argument("--seeds", required=True, help="inclusive range A-B, e.g. 11-20")
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: traced runs, per-layer medians side by side (no verdict)",
    )
    args = ap.parse_args(argv)
    workloads = [w.strip() for w in args.workload.split(",") if w.strip()]
    if not workloads:
        ap.error("--workload names no workload")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError as exc:
        ap.error(str(exc))
    spec = json.loads((root / "BENCHMARK.json").read_text())
    try:
        rev = git(root, "rev-parse", "--verify", args.base + "^{commit}")
    except subprocess.CalledProcessError:
        ap.error(f"--base {args.base!r} is not a commit of {root}")
    tmp = Path(tempfile.mkdtemp(prefix="perf_pairs_"))
    base_root = tmp / "base"
    try:
        git(root, "worktree", "add", "--detach", str(base_root), rev)
        results = {
            w: run_pairs(root, base_root, w, seeds, args.seconds, runner, args.trace)
            for w in workloads
        }
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(base_root)],
            cwd=root, capture_output=True,
        )
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
    bad = False
    for i, (workload, res) in enumerate(results.items()):
        if i:
            print()
        print(
            f"perf_pairs: {workload}, seeds {seeds[0]}-{seeds[-1]} ({len(seeds)} pairs, "
            f"{args.seconds:g} s, --trace {args.trace}), base {rev[:12]} vs the working tree"
        )
        bad |= print_table(spec, res, args.trace)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
