"""The repo benchmark: one seeded workload, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flat-cold --seed 1 --seconds 16 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
measured with tracing off; ``--trace 1`` runs the same ops untraced,
then replays them through the public function of every layer they cross
and prints the per-layer metrics, including the tracing overhead.  Every
run checks every answer; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A failed check
makes ``correct`` false and the exit code 1.

The workload runs in a child process started from this file.  Set-up
(process start, imports, server start, pool spawn and the workload's
untimed warm-up, up to the first timed op) is repeated ``SETUP_RUNS``
times in fresh processes and ``setup_s`` is their median, divided like
the workload's other times by the machine's speed factor (:mod:`speed`);
the last child goes on to the timed loop.  Spans of the traced replay and the
run's environment stamp are written to ``perfbench/_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from speed import reference_seconds, speed_factor  # noqa: E402

SETUP_RUNS = 3
#: Every run, its set-up runs included, ends within this many seconds.
RUN_DEADLINE_S = 170.0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--smoke",
        action="store_true",
        help="tiny instances and one op list per workload (the self-test)",
    )
    ap.add_argument("--role", choices=("main", "worker"), default="main", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def environment(root: Path) -> dict:
    """Where the figures came from: machine, versions, code, kernels."""
    import numpy
    import scipy

    import repro.kernels as kernels

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    numba = importlib.util.find_spec("numba")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "kernel_backend": kernels.resolve_backend("auto").name,
        "numba": "absent" if numba is None else "present",
    }


# ----------------------------------------------------------------------
# worker: one workload in one process
# ----------------------------------------------------------------------


def end_to_end(wl, ops, wall: float) -> dict:
    """The end-to-end metrics of one untraced run.

    Times of a workload with ``compensate`` set are divided by the run's
    speed factor (:mod:`speed`).
    """
    speed = speed_factor(wl.reference)
    fixed = [op for op in wl.fixed_list(ops) if op.error is None]
    lat = statistics.median(op.latency_s for op in ops)
    print(f"raw: ops_per_s {len(ops) / wall:.6g} latency_p50_s {lat:.6g} speed_factor {speed:.4f}")
    return {
        "ops_per_s": len(ops) / wall * speed,
        "latency_p50_s": lat / speed,
        "eq1_cost": float(sum(op.cost for op in fixed)),
        "cap_violation": max((op.violation for op in fixed), default=0.0),
        "peak_rss_mib": wl.peak_rss_mib(),
    }


def worker(args: argparse.Namespace, root: Path, out_dir: Path) -> int:
    from tracing import Tracer
    from workloads import WORKLOADS

    from repro import get_cache

    spec = load_spec(root)
    wl = WORKLOADS[args.workload](args.seed, args.smoke, out_dir)
    try:
        wl.setup()
        print(f"ready {int(wl.compensate)}", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        ops, wall = wl.run(args.seconds)
        failed = [op for op in ops if op.error is not None]
        for op in failed[:5]:
            print(f"FAILED op {op.index}: {op.error}", file=sys.stderr)
        mismatches = 0
        stamp = environment(root)
        if args.trace:
            metrics = wl.loop_metrics(ops)
            peak = wl.peak_rss_mib()
            tr = Tracer()
            mismatches, layers = wl.replay(tr, ops)
            metrics.update(layers)
            metrics["cache.bytes"] = float(get_cache().nbytes)
            replayed = tr.op_seconds()
            timed = [op.index for op in ops if op.index in replayed]
            traced_s = sum(replayed[i] for i in timed)
            untraced_s = wl.untraced_seconds(ops)
            metrics["trace.untraced_ops_per_s"] = len(timed) / untraced_s
            metrics["trace.traced_ops_per_s"] = len(timed) / traced_s
            metrics["trace.slowdown"] = traced_s / untraced_s
            tr.dump(
                out_dir / f"spans-{args.workload}-{args.seed}.json",
                dict(stamp, workload=args.workload, seed=args.seed, peak_rss_mib=peak),
            )
            wanted = spec["per_layer"]
            if mismatches:
                print(f"FAILED replay: {mismatches} answers differ from the untraced run", file=sys.stderr)
        else:
            metrics = end_to_end(wl, ops, wall)
            wanted = [m for m in spec["end_to_end"] if m["name"] != "setup_s"]
        out = {}
        finite = True
        for m in wanted:
            value = float(metrics.get(m["name"], 0.0))
            if not math.isfinite(value):
                print(f"FAILED metric {m['name']} is {value}", file=sys.stderr)
                finite, value = False, 0.0
            out[m["name"]] = {"value": value, "unit": m["unit"]}
        result = {
            "correct": finite and not failed and not mismatches,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": out,
        }
        print("env " + json.dumps(stamp, sort_keys=True), flush=True)
        print("result " + json.dumps(result), flush=True)
        return 0
    finally:
        wl.close()


# ----------------------------------------------------------------------
# main: set-up runs, then the measured run
# ----------------------------------------------------------------------


def kill_group(proc: subprocess.Popen) -> None:
    """Kill what is left of a worker's process group (its server and
    pool workers share it) and wait until the group is gone."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if proc.poll() is None:
            proc.wait()
        time.sleep(0.05)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {root / 'src'}; run from the root of a checkout",
            file=sys.stderr,
        )
        return 2
    spec = load_spec(root)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = HERE / "_out"
    tmp = out_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    if args.role == "worker":
        return worker(args, root, out_dir)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    # The pool's payload spool and every other temp file stay in the checkout.
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_CACHE_DIR", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", "worker"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] if args.smoke else []

    runs = 1 if args.trace else SETUP_RUNS
    setups = []
    procs = []
    timer = threading.Timer(RUN_DEADLINE_S, lambda: [kill_group(p) for p in procs])
    timer.daemon = True
    timer.start()
    try:
        for i in range(runs):
            speed = speed_factor([reference_seconds() for _ in range(5)])
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                text=True, start_new_session=True,
            )
            procs.append(proc)
            ready = proc.stdout.readline().split()
            if not ready or ready[0] != "ready":
                proc.wait()
                print("perfbench: workload set-up failed", file=sys.stderr)
                return 1
            setups.append((time.perf_counter() - t0) / (speed if ready[1] == "1" else 1.0))
            proc.stdin.write("go\n" if i == runs - 1 else "stop\n")
            proc.stdin.close()
            if i < runs - 1:
                proc.stdout.read()
                proc.wait()
        result = None
        for line in proc.stdout:
            if line.startswith("result "):
                result = json.loads(line[len("result "):])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        for p in procs:
            kill_group(p)
    if code != 0 or result is None:
        print(f"perfbench: workload run failed (exit {code})", file=sys.stderr)
        return 1
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    for name, m in result["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
