"""Command-line interface: ``python -m repro``.

Three subcommands cover the operator workflow end-to-end:

``generate``
    Write a synthetic workload graph (any family from
    :data:`repro.bench.FAMILIES`) to an edge-list file.

``solve``
    Read a graph (edge-list or METIS), build the hierarchy from
    ``--degrees/--cm``, solve with the paper's pipeline or any baseline,
    print the ASCII placement report, and optionally save the placement
    as JSON (``--out``) and the engine's structured run report —
    per-stage spans plus per-tree member records — as JSON
    (``--report``).

``report``
    Analyse saved run reports: ``show`` pretty-prints the span tree and
    member table, ``diff`` compares two reports with an optional
    ``--fail-above PCT`` regression gate (non-zero exit on breach),
    ``trace`` exports Chrome trace-event JSON for Perfetto, and
    ``flame`` emits the collapsed-stack profile of a ``--profile`` run
    for flamegraph.pl / speedscope.

Examples
--------
::

    python -m repro generate --family blocks --n 32 --seed 7 --out tasks.edges
    python -m repro solve --graph tasks.edges --degrees 2,4 \
        --cm 10,3,0 --fill 0.6 --method hgp --seed 0 --out pin.json \
        --report run.json
    python -m repro report show run.json
    python -m repro report diff baseline.json run.json --fail-above 10
    python -m repro report trace run.json --out run.trace.json
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import DegradedRunError, InvalidInputError, ReproError
from repro.graph.graph import Graph
from repro.graph.generators import random_demands
from repro.graph.io import read_edgelist, read_metis, write_edgelist
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.report import placement_to_json, render_placement
from repro.core.config import SolverConfig
from repro.core.solver import solve_hgp

__all__ = ["main", "build_parser"]


def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _int_list(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for shell-completion tools)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Hierarchical Graph Partitioning (SPAA 2014) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic workload graph")
    gen.add_argument(
        "--family",
        required=True,
        help="grid | mesh3d | expander | powerlaw | ba | blocks | dag | "
        "hypercube | rmat",
    )
    gen.add_argument("--n", type=int, required=True, help="approximate vertex count")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output edge-list path")

    solve = sub.add_parser("solve", help="place a task graph onto a hierarchy")
    solve.add_argument("--graph", required=True, help="edge-list or METIS file")
    solve.add_argument(
        "--format",
        choices=("edgelist", "metis", "auto"),
        default="auto",
        help="input format (auto: by extension, .graph = METIS)",
    )
    solve.add_argument(
        "--degrees", required=True, type=_int_list, help="e.g. 2,4 for 2 sockets x 4 cores"
    )
    solve.add_argument(
        "--cm", required=True, type=_float_list, help="h+1 cost multipliers, e.g. 10,3,0"
    )
    solve.add_argument("--leaf-capacity", type=float, default=1.0)
    solve.add_argument(
        "--demands",
        default=None,
        help="path to a demands file (one float per line); default: synthetic via --fill/--skew",
    )
    solve.add_argument("--fill", type=float, default=0.6, help="synthetic demand utilisation")
    solve.add_argument("--skew", type=float, default=0.3, help="synthetic demand skew")
    solve.add_argument(
        "--method",
        default="hgp",
        help="hgp | hgp_feasible | random | round_robin | greedy | flat_identity | "
        "flat_shuffled | flat_quotient | recursive_bisection",
    )
    solve.add_argument("--n-trees", type=int, default=8)
    solve.add_argument("--slack", type=float, default=0.25)
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the per-tree solves (1 = in-process)",
    )
    solve.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help="re-run failed ensemble members up to N times "
        "(the last retry runs in-process)",
    )
    solve.add_argument(
        "--retry-delay",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base backoff before the first retry; doubles per retry",
    )
    solve.add_argument(
        "--member-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="deadline per member solve wave; hung workers are "
        "terminated and the members retried",
    )
    solve.add_argument(
        "--allow-partial",
        action="store_true",
        help="complete on the surviving ensemble when members fail "
        "terminally (the run report is marked degraded)",
    )
    solve.add_argument(
        "--min-members",
        type=int,
        default=1,
        metavar="K",
        help="minimum surviving members a partial run needs (with "
        "--allow-partial)",
    )
    solve.add_argument("--out", default=None, help="write the placement as JSON here")
    solve.add_argument(
        "--report",
        default=None,
        help="write the engine's JSON run report here (hgp methods only)",
    )
    solve.add_argument(
        "--dot", default=None, help="write a Graphviz rendering of the loaded hierarchy here"
    )
    solve.add_argument(
        "--taskset",
        default=None,
        help="write a taskset pinning script here (see repro.hierarchy.pin_script)",
    )
    solve.add_argument(
        "--cpus-per-leaf", type=int, default=1, help="CPUs backing one leaf (for --taskset)"
    )
    solve.add_argument(
        "--quiet", action="store_true", help="print only the one-line summary"
    )
    solve.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the content-addressed solver cache for this run "
        "(always rebuild decomposition trees)",
    )
    solve.add_argument(
        "--no-incremental",
        action="store_true",
        help="skip the subtree-DP memo (the subtree_tables cache tier) "
        "for this run; results are bit-identical either way",
    )
    solve.add_argument(
        "--multilevel",
        action="store_true",
        help="coarsen–solve–refine front-end: coarsen to --coarsen-to "
        "supervertices, run the engine there, refine on the way up "
        "(hgp method only; for large graphs)",
    )
    solve.add_argument(
        "--coarsen-to",
        type=int,
        default=160,
        metavar="N",
        help="multilevel coarsening target (supervertices)",
    )
    solve.add_argument(
        "--refine-passes",
        type=int,
        default=2,
        metavar="N",
        help="hierarchy-aware FM passes per uncoarsening level",
    )
    solve.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="run the continuous sampling profiler and write the "
        "collapsed-stack (flamegraph-compatible) profile here; the run "
        "report gains a 'profile' section (hgp methods only)",
    )
    solve.add_argument(
        "--profile-hz",
        type=float,
        default=97.0,
        metavar="HZ",
        help="profiler sampling rate (with --profile; default 97)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the placement service (HTTP/JSON, overload-safe)",
        description=(
            "Serve placement requests over HTTP/JSON with admission "
            "control, priority lanes, request coalescing, SLO deadlines "
            "and graceful drain on SIGTERM. /metrics and /healthz are "
            "served from the same port. Examples:\n"
            "  repro serve --port 8787\n"
            "  repro serve --port 8787 --jobs 4 --queue-capacity 32 "
            "--default-deadline 10\n"
            "  curl -s localhost:8787/healthz\n"
            "  python examples/placement_service.py http://127.0.0.1:8787"
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8787, help="bind port (0 = OS-assigned)"
    )
    serve.add_argument(
        "--queue-capacity",
        type=int,
        default=64,
        metavar="N",
        help="interactive-lane admission bound; requests past it shed "
        "with 503 + Retry-After",
    )
    serve.add_argument(
        "--batch-queue-capacity",
        type=int,
        default=None,
        metavar="N",
        help="batch-lane bound (default: same as --queue-capacity)",
    )
    serve.add_argument(
        "--age-promote",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="serve a batch request ahead of interactive traffic once "
        "it has waited this long (anti-starvation)",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="SLO budget for requests that carry no deadline_s "
        "(0 = unbounded)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        help="worker processes per solve (keep > 1: SLO deadlines "
        "cannot preempt a serial in-process solve)",
    )
    serve.add_argument("--n-trees", type=int, default=8)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="re-run failed ensemble members up to N times",
    )
    serve.add_argument(
        "--allow-partial",
        action="store_true",
        help="let degraded runs complete on the surviving ensemble "
        "(timed-out requests then return 504 with a partial result)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long SIGTERM waits for queued + in-flight work",
    )
    serve.add_argument(
        "--no-response-cache",
        action="store_true",
        help="do not cache completed responses (every request solves)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress the startup banner"
    )

    cache = sub.add_parser("cache", help="inspect or wipe the solver cache")
    csub = cache.add_subparsers(dest="cache_command", required=True)

    cstats = csub.add_parser("stats", help="print cache tiers and hit counters")
    cstats.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help="disk-tier directory to inspect (default: REPRO_CACHE_DIR)",
    )

    cclear = csub.add_parser("clear", help="wipe the cache tiers")
    cclear.add_argument(
        "--dir",
        default=None,
        metavar="PATH",
        help="disk-tier directory to clear (default: REPRO_CACHE_DIR)",
    )
    ctier = cclear.add_mutually_exclusive_group()
    ctier.add_argument(
        "--memory-only", action="store_true", help="clear only the in-memory tier"
    )
    ctier.add_argument(
        "--disk-only", action="store_true", help="clear only the disk tier"
    )

    report = sub.add_parser("report", help="inspect and compare saved run reports")
    rsub = report.add_subparsers(dest="report_command", required=True)

    show = rsub.add_parser("show", help="pretty-print one run report")
    show.add_argument("report", help="run-report JSON file (from solve --report)")

    diff = rsub.add_parser("diff", help="compare two run reports")
    diff.add_argument("baseline", help="baseline run-report JSON file")
    diff.add_argument("fresh", help="fresh run-report JSON file")
    diff.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero when cost or a stage time regresses by more "
        "than PCT percent over the baseline",
    )

    trace = rsub.add_parser("trace", help="export a Chrome trace (Perfetto)")
    trace.add_argument("report", help="run-report JSON file (from solve --report)")
    trace.add_argument("--out", required=True, help="output trace JSON path")

    flame = rsub.add_parser(
        "flame",
        help="emit the collapsed-stack profile of a profiled run "
        "(pipe into flamegraph.pl / paste into speedscope)",
    )
    flame.add_argument(
        "report", help="run-report JSON file (from solve --profile --report)"
    )
    flame.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the collapsed stacks here instead of stdout",
    )
    return parser


def _load_graph(path: str, fmt: str) -> Graph:
    p = Path(path)
    if not p.exists():
        raise InvalidInputError(f"graph file not found: {path}")
    if fmt == "auto":
        fmt = "metis" if p.suffix == ".graph" else "edgelist"
    if fmt == "metis":
        g, _ = read_metis(p)
        return g
    return read_edgelist(p)


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.bench.instances import FAMILIES

    if args.family not in FAMILIES:
        raise InvalidInputError(
            f"unknown family {args.family!r}; choose from {sorted(FAMILIES)}"
        )
    g = FAMILIES[args.family](args.n, args.seed)
    write_edgelist(args.out, g)
    print(f"wrote {args.family} graph: n={g.n} m={g.m} -> {args.out}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    hier = Hierarchy(args.degrees, args.cm, leaf_capacity=args.leaf_capacity)
    if args.demands is not None:
        d = np.asarray(
            [float(line) for line in Path(args.demands).read_text().split()],
            dtype=np.float64,
        )
        if d.size != g.n:
            raise InvalidInputError(
                f"demands file has {d.size} entries, graph has {g.n} vertices"
            )
    else:
        d = random_demands(
            g.n, hier.total_capacity, fill=args.fill, skew=args.skew, seed=args.seed
        )

    if args.method in ("hgp", "hgp_feasible"):
        from repro.cache import CacheConfig, get_cache

        if args.no_cache:
            # Disable the whole process cache, not just the engine's
            # ``trees``/``subtree_tables`` use: a ``gomory_hu`` builder in
            # the ensemble must not populate or consult it either.
            get_cache().enabled = False
        from repro.core.resilience import ResilienceConfig, RetryPolicy
        from repro.core.config import IncrementalConfig, MultilevelConfig

        cfg = SolverConfig(
            seed=args.seed,
            n_trees=args.n_trees,
            slack=args.slack,
            n_jobs=args.jobs,
            cache=CacheConfig(enabled=not args.no_cache),
            resilience=ResilienceConfig(
                retry=RetryPolicy(
                    max_attempts=1 + args.retries, base_delay=args.retry_delay
                ),
                member_timeout_s=args.member_timeout,
                allow_partial=args.allow_partial,
                min_members=args.min_members,
            ),
            multilevel=MultilevelConfig(
                enabled=args.multilevel,
                coarsen_to=args.coarsen_to,
                refine_passes=args.refine_passes,
            ),
            incremental=IncrementalConfig(enabled=not args.no_incremental),
        )
        session = None
        if args.profile is not None:
            from repro.obs.profile import ProfileConfig, ProfileSession

            session = ProfileSession(
                ProfileConfig(hz=args.profile_hz, path=args.profile)
            )
        with session if session is not None else contextlib.nullcontext():
            result = solve_hgp(g, hier, d, cfg)
        placement = result.placement
        if result.degraded:
            print(
                f"warning: degraded run — {len(result.failures)} ensemble "
                "member(s) lost (see the run report's failures section)",
                file=sys.stderr,
            )
        if args.profile:
            print(f"collapsed-stack profile written to {args.profile}")
        if args.report:
            report = result.report(graph=str(args.graph), method=args.method)
            if session is not None:
                report.profile = session.profile
            Path(args.report).write_text(report.to_json() + "\n")
            print(f"run report written to {args.report}")
        if args.method == "hgp_feasible":
            from repro.baselines.local_search import enforce_capacity, refine_placement

            placement = enforce_capacity(placement, 1.0, seed=args.seed)
            placement = refine_placement(
                placement, max_violation=1.0, seed=args.seed, allow_swaps=True
            )
    else:
        if args.report:
            raise InvalidInputError(
                "--report requires an engine method (hgp or hgp_feasible)"
            )
        if args.profile:
            raise InvalidInputError(
                "--profile requires an engine method (hgp or hgp_feasible)"
            )
        from repro.baselines import placement_baselines

        registry = placement_baselines()
        if args.method not in registry:
            raise InvalidInputError(
                f"unknown method {args.method!r}; choose hgp, hgp_feasible or one of "
                f"{sorted(registry)}"
            )
        placement = registry[args.method](g, hier, d, seed=args.seed)

    if args.quiet:
        print(placement.summary())
    else:
        print(render_placement(placement))
    if args.out:
        Path(args.out).write_text(placement_to_json(placement))
        print(f"placement written to {args.out}")
    if args.dot:
        from repro.viz import hierarchy_to_dot

        Path(args.dot).write_text(hierarchy_to_dot(placement))
        print(f"hierarchy DOT written to {args.dot}")
    if args.taskset:
        from repro.hierarchy.pin_script import to_taskset_script

        Path(args.taskset).write_text(
            to_taskset_script(placement, cpus_per_leaf=args.cpus_per_leaf)
        )
        print(f"pinning script written to {args.taskset}")
    return 0


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    return f"{int(n)} B"  # pragma: no cover - unreachable


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.cache import get_cache
    from repro.obs.metrics import get_registry

    cache = get_cache()
    if args.dir is not None:
        cache.disk_dir = Path(args.dir)

    if args.cache_command == "clear":
        memory = not args.disk_only
        disk = not args.memory_only
        dropped = cache.clear(memory=memory, disk=disk)
        print(
            f"cleared: {dropped['memory_entries']} memory entries "
            f"({_human_bytes(dropped['memory_bytes'])}), "
            f"{dropped['disk_files']} disk files"
        )
        return 0

    # stats
    info = cache.describe()
    mem = info["memory"]
    print("solver cache")
    print(f"  enabled      : {info['enabled']}")
    print(
        f"  memory tier  : {mem['entries']} entries, "
        f"{_human_bytes(mem['bytes'])} of {_human_bytes(mem['max_bytes'])} budget"
    )
    for kind, sub in mem.get("by_kind", {}).items():
        print(
            f"    {kind:<12s} {sub['entries']} entries, "
            f"{_human_bytes(sub['bytes'])}"
        )
    disk = info["disk"]
    if disk["dir"] is None:
        print("  disk tier    : disabled (set REPRO_CACHE_DIR or --dir)")
    else:
        print(
            f"  disk tier    : {disk['dir']} — {disk['files']} files, "
            f"{_human_bytes(disk['bytes'])}"
        )
        for kind, sub in disk["by_kind"].items():
            print(
                f"    {kind:<12s} {sub['files']} files, "
                f"{_human_bytes(sub['bytes'])}"
            )
    stats = info["stats"]
    print(
        f"  this process : {stats['hits']} hits, {stats['disk_hits']} disk hits, "
        f"{stats['misses']} misses, {stats['evictions']} evictions "
        f"(hit rate {stats['hit_rate']:.0%})"
    )
    for kind, sub in stats["by_kind"].items():
        print(
            f"    {kind:<12s} {sub['hits']} hits, {sub['disk_hits']} disk hits, "
            f"{sub['misses']} misses"
        )
    lines = [
        line
        for family in get_registry().families()
        if family.name.startswith("repro_cache_")
        for line in family.render()
    ]
    if lines:
        print("  registry metrics:")
        for line in lines:
            print(f"    {line}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import diff_reports, load_report, render_report, write_trace

    def _load(path: str):
        if not Path(path).exists():
            raise InvalidInputError(f"run report not found: {path}")
        return load_report(path)

    if args.report_command == "show":
        print(render_report(_load(args.report)))
        return 0
    if args.report_command == "trace":
        trace_path = write_trace(_load(args.report), args.out)
        print(f"chrome trace written to {trace_path} (load in ui.perfetto.dev)")
        return 0
    if args.report_command == "flame":
        report = _load(args.report)
        profile = report.profile
        if not profile or not profile.get("collapsed"):
            raise InvalidInputError(
                f"{args.report} has no profile section — re-run the solve "
                "with --profile (needs report schema v3)"
            )
        collapsed = "\n".join(profile["collapsed"]) + "\n"
        if args.out:
            Path(args.out).write_text(collapsed)
            n = len(profile["collapsed"])
            suffix = " (truncated)" if profile.get("collapsed_truncated") else ""
            print(f"{n} collapsed stacks{suffix} written to {args.out}")
        else:
            print(collapsed, end="")
        return 0
    # diff
    diff = diff_reports(_load(args.baseline), _load(args.fresh))
    print(diff.render(args.fail_above))
    if args.fail_above is not None:
        failed = diff.regressions(args.fail_above)
        if failed:
            print(
                f"FAIL: regression above {args.fail_above:g}% in: "
                + ", ".join(failed),
                file=sys.stderr,
            )
            return 1
        print(f"OK: no regression above {args.fail_above:g}%")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the placement service until SIGTERM/SIGINT, then drain."""
    import signal

    from repro.core.resilience import ResilienceConfig, RetryPolicy
    from repro.serve import PlacementServer, ServeConfig

    solver = SolverConfig(
        seed=args.seed,
        n_trees=args.n_trees,
        n_jobs=args.jobs,
        resilience=ResilienceConfig(
            retry=RetryPolicy(max_attempts=1 + args.retries),
            allow_partial=args.allow_partial,
        ),
    )
    config = ServeConfig(
        host=args.host,
        port=args.port,
        queue_capacity=args.queue_capacity,
        batch_queue_capacity=args.batch_queue_capacity,
        age_promote_s=args.age_promote,
        default_deadline_s=(
            None if args.default_deadline == 0 else args.default_deadline
        ),
        drain_timeout_s=args.drain_timeout,
        cache_responses=not args.no_response_cache,
        solver=solver,
    )
    server = PlacementServer(config).start()

    def _on_term(signum, frame):
        # Signal-handler safe: just flips the drain flag; serve_forever
        # notices, finishes queued + in-flight work, and returns.
        server.initiate_drain()

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGINT, _on_term)
    if not args.quiet:
        print(f"placement service listening on {server.url}", file=sys.stderr)
        print(
            f"  POST {server.url}/v1/solve   GET {server.url}/metrics "
            f"/healthz /v1/stats",
            file=sys.stderr,
        )
        print("  SIGTERM drains gracefully (stop admitting, finish, exit)",
              file=sys.stderr)
    server.serve_forever()
    if not args.quiet:
        print("placement service drained, exiting", file=sys.stderr)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Exit codes: 0 success, 1 report-diff regression, 2 invalid input or
    solver failure (:class:`repro.errors.ReproError`) and unreadable or
    unwritable paths (:class:`OSError`: an ``--out``/``--report``
    directory that does not exist, a port ``repro serve`` cannot bind),
    3 degraded run — ensemble members were lost past their retry budget
    and the resilience policy forbade completing on the survivors, 141
    (128 + SIGPIPE) the reader closed standard output early, as
    ``repro report show run.json | head`` does.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {
        "generate": _cmd_generate,
        "cache": _cmd_cache,
        "report": _cmd_report,
        "serve": _cmd_serve,
    }
    try:
        code = commands.get(args.command, _cmd_solve)(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except DegradedRunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
