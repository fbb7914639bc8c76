"""E17 — warm-path reuse through the content-addressed solver cache.

Two measurements on one mid-size instance whose embedding stage is
deliberately flow-heavy (spectral + mincut + gomory-hu builders, so the
cold solve pays eigensolves *and* ~n max-flow calls):

* **cold vs warm batch solve** — the first ``run_pipeline`` populates
  the cache, the second must hit it, skip tree construction entirely
  (asserted via the ``trees`` span's cache counters), return bit-for-bit
  identical placements/costs, and finish at least 2x faster;
* **20-call reoptimize churn loop** — an :class:`OnlinePlacer` whose
  live graph does not change between calls: every re-optimisation after
  the first must reuse the cached ensemble (19/20 hits).

The machine-readable companion (``BENCH_E17_cache_warm.json``) carries a
``meta`` block with the measured ``warm_speedup`` and ``hit_rate`` so
``tools/bench_regress.py --min-meta`` can gate CI on cache
effectiveness, plus one point per phase (cold / warm) whose embedded run
reports let the cost gate prove zero drift.
"""

from __future__ import annotations

import time

import numpy as np

from repro import Hierarchy, SolverConfig, run_pipeline
from repro.bench import Table, save_result, save_result_json
from repro.cache import get_cache
from repro.graph.generators import planted_partition, random_demands
from repro.streaming.online import OnlinePlacer

#: Flow-heavy ensemble: tree building dominates the cold solve, which is
#: exactly the regime the cache is built for.
TREE_METHODS = ("spectral", "mincut", "gomory_hu")
N_TREES = 6
SEED = 17


def _instance():
    hier = Hierarchy([2, 4], [10.0, 3.0, 0.0])
    g = planted_partition(8, 8, 0.7, 0.06, seed=SEED)
    d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.3, seed=SEED)
    return g, hier, d


def _config():
    return SolverConfig(
        seed=SEED,
        n_trees=N_TREES,
        tree_methods=TREE_METHODS,
        beam_width=64,
        refine=False,
    )


def _experiment():
    g, hier, d = _instance()
    cfg = _config()
    cache = get_cache()
    cache.clear()  # both tiers: the cold run must be genuinely cold

    t0 = time.perf_counter()
    cold = run_pipeline(g, hier, d, cfg)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = run_pipeline(g, hier, d, cfg)
    warm_s = time.perf_counter() - t0

    # Bit-for-bit determinism under caching.
    assert warm.cost == cold.cost
    assert np.array_equal(warm.placement.leaf_of, cold.placement.leaf_of)
    assert warm.tree_costs == cold.tree_costs
    # The warm embed stage skipped tree construction entirely.
    assert cold.telemetry.root.lookup("trees").counters.get("cache_misses") == 1.0
    assert warm.telemetry.root.lookup("trees").counters.get("cache_hits") == 1.0

    # Churn loop: 20 re-optimisations of an unchanged live graph.
    live_hier = Hierarchy([2, 4], [10.0, 3.0, 0.0], leaf_capacity=4.0)
    placer = OnlinePlacer(live_hier, cfg)
    rng = np.random.default_rng(SEED)
    for task in range(24):
        edges = tuple(
            (other, 1.0) for other in range(task) if rng.random() < 0.3
        )
        placer.arrive(task, 0.5, edges)
    t0 = time.perf_counter()
    for _ in range(20):
        placer.reoptimize()
    reopt_s = time.perf_counter() - t0
    assert placer.counters.tree_cache_misses == 1
    assert placer.counters.tree_cache_hits == 19

    trees_stats = cache.stats.by_kind["trees"]
    hit_rate = trees_stats["hits"] / (trees_stats["hits"] + trees_stats["misses"])
    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    table = Table(
        ["phase", "time_s", "cost", "cache_hits", "cache_misses"],
        title="E17: cold vs warm solve through the solver cache",
    )
    table.add_row(["cold", cold_s, cold.cost, 0, 1])
    table.add_row(["warm", warm_s, warm.cost, 1, 0])
    table.add_row(
        [
            "reopt_x20",
            reopt_s,
            placer.cost(),
            placer.counters.tree_cache_hits,
            placer.counters.tree_cache_misses,
        ]
    )

    points = [
        {
            "sweep": phase,
            "n": g.n,
            "h": hier.h,
            "grid_cells": 4 * g.n,
            "time_s": secs,
            "cost": result.cost,
            "report": result.report(phase=phase).to_dict(),
        }
        for phase, secs, result in (("cold", cold_s, cold), ("warm", warm_s, warm))
    ]
    meta = {
        "warm_speedup": warm_speedup,
        "hit_rate": hit_rate,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "reopt20_s": reopt_s,
        "reopt_hits": placer.counters.tree_cache_hits,
        "cost_drift": abs(warm.cost - cold.cost),
    }
    return table, points, meta


def test_e17_cache_warm(benchmark, results_dir):
    table, points, meta = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result("E17_cache_warm", table.show(), results_dir)
    save_result_json(
        "BENCH_E17_cache_warm",
        {
            "experiment": "E17_cache_warm",
            "schema_version": 1,
            "meta": meta,
            "points": points,
        },
        results_dir,
    )
    # Acceptance: warm solve at least 2x faster with zero cost drift.
    assert meta["cost_drift"] == 0.0
    assert meta["warm_speedup"] >= 2.0, meta
    assert meta["hit_rate"] > 0.0


def test_e17_warm_solve_throughput(benchmark):
    """Wall-clock of one warm solve (the pytest-benchmark headline)."""
    g, hier, d = _instance()
    cfg = _config()
    run_pipeline(g, hier, d, cfg)  # prime the cache
    benchmark(lambda: run_pipeline(g, hier, d, cfg))
