"""E18 — the bounded/tiled merge kernel on deep hierarchies.

The ``O(n · D^{3h+2})`` state space makes hierarchy height the DP's
hardest axis (E4's ``h`` sweep).  This experiment pins the merge
kernel's effect exactly there: for ``h ∈ {3, 4}`` it solves the same
instance with

* the **legacy** kernel (untiled, unbounded — the pre-kernel merge
  semantics, still available as a :class:`DPConfig`), and
* the **default** kernel (tiled + incumbent-bound pruning), run twice —
  cold, then warm — so the headline per-``h`` speedup is measured
  against a warmed process.

Costs must be identical across all three runs per height (the kernel's
contract), and the machine-readable companion
(``BENCH_E18_deep_hierarchy.json``) carries a ``meta`` block with
``h3_speedup`` / ``h4_speedup`` plus the kernel counters
(``states_max`` / ``merges`` / ``bound_pruned`` / ``table_peak_bytes``)
so ``tools/bench_regress.py --min-meta`` can gate both the speedup and
the footprint in CI.
"""

from __future__ import annotations

import time

from repro import Hierarchy
from repro.bench import Table, save_result, save_result_json
from repro.core.telemetry import MemberRecord, Telemetry
from repro.decomposition.spectral_tree import spectral_decomposition_tree
from repro.graph.generators import planted_partition, random_demands
from repro.hgpt.binarize import binarize
from repro.hgpt.dp import DPConfig, DPStats, solve_rhgpt
from repro.hgpt.quantize import DemandGrid

SEED = 18

#: The pre-kernel merge semantics (the baseline of the speedup).
LEGACY = DPConfig(tile_size=0, bound_pruning=False)

#: Height sweep: (h, hierarchy, grid budget).  h=4 uses a smaller grid
#: so the legacy kernel stays tractable inside a CI run.
SWEEP = (
    (3, Hierarchy([2, 2, 2], [8.0, 4.0, 1.0, 0.0]), 144),
    (4, Hierarchy([2, 2, 2, 2], [16.0, 8.0, 4.0, 1.0, 0.0]), 72),
)


def _solve(bt, hier, grid, kernel):
    caps = [grid.caps[j] for j in range(1, hier.h + 1)]
    norm, _ = hier.normalized()
    deltas = [0.0] + [norm.cm[k - 1] - norm.cm[k] for k in range(1, hier.h + 1)]
    stats = DPStats()
    t0 = time.perf_counter()
    solution = solve_rhgpt(
        bt, caps, deltas, beam_width=None, stats=stats, dp_config=kernel
    )
    return time.perf_counter() - t0, solution, stats


def _experiment():
    g = planted_partition(6, 6, 0.6, 0.05, seed=1)
    table = Table(
        ["h", "kernel", "time_s", "cost", "states_max", "merges",
         "bound_pruned", "table_peak_bytes"],
        title="E18: deep-hierarchy DP, legacy vs bounded/tiled kernel",
    )
    points = []
    meta = {}

    for h, hier, budget in SWEEP:
        d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.5, seed=3)
        grid = DemandGrid.from_budget(hier, d, budget, slack=0.25)
        q = grid.quantize(d)
        tree = spectral_decomposition_tree(g, seed=0)
        bt = binarize(tree, q)

        legacy_s, legacy_sol, legacy_stats = _solve(bt, hier, grid, LEGACY)
        cold_s, cold_sol, _cold_stats = _solve(bt, hier, grid, None)
        warm_s, warm_sol, warm_stats = _solve(bt, hier, grid, None)

        # The kernel's contract: identical costs, every knob combination.
        assert cold_sol.cost == legacy_sol.cost
        assert warm_sol.cost == legacy_sol.cost

        for kernel, secs, stats in (
            ("legacy", legacy_s, legacy_stats),
            ("default_cold", cold_s, _cold_stats),
            ("default_warm", warm_s, warm_stats),
        ):
            table.add_row(
                [h, kernel, secs, warm_sol.cost, stats.states_max,
                 stats.merges, stats.bound_pruned, stats.table_peak_bytes]
            )
            tel = Telemetry("bench")
            tel.root.add("dp", secs)
            tel.record_member(
                MemberRecord(
                    index=0,
                    method="spectral",
                    dp_cost=float(warm_sol.cost),
                    dp_seconds=secs,
                    dp_nodes=stats.nodes,
                    dp_states_total=stats.states_total,
                    dp_states_max=stats.states_max,
                    dp_merges=stats.merges,
                    dp_tiles=stats.tiles,
                    dp_bound_pruned=stats.bound_pruned,
                    dp_table_peak_bytes=stats.table_peak_bytes,
                )
            )
            points.append(
                {
                    "sweep": kernel,
                    "n": g.n,
                    "h": h,
                    "grid_cells": budget,
                    "time_s": secs,
                    "states_max": stats.states_max,
                    "merges": stats.merges,
                    "bound_pruned": stats.bound_pruned,
                    "table_peak_bytes": stats.table_peak_bytes,
                    "report": tel.report(
                        config={"kernel": kernel, "h": h, "grid_cells": budget}
                    ).to_dict(),
                }
            )
        meta[f"h{h}_speedup"] = legacy_s / warm_s if warm_s > 0 else float("inf")
        meta[f"h{h}_legacy_s"] = legacy_s
        meta[f"h{h}_warm_s"] = warm_s
        meta[f"h{h}_states_max"] = warm_stats.states_max
        meta[f"h{h}_merges"] = warm_stats.merges
        meta[f"h{h}_bound_pruned"] = warm_stats.bound_pruned
        meta[f"h{h}_table_peak_bytes"] = warm_stats.table_peak_bytes
        meta[f"h{h}_peak_shrink"] = (
            legacy_stats.table_peak_bytes / warm_stats.table_peak_bytes
            if warm_stats.table_peak_bytes
            else float("inf")
        )
    return table, points, meta


def test_e18_deep_hierarchy(benchmark, results_dir):
    table, points, meta = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result("E18_deep_hierarchy", table.show(), results_dir)
    save_result_json(
        "BENCH_E18_deep_hierarchy",
        {
            "experiment": "E18_deep_hierarchy",
            "schema_version": 1,
            "meta": meta,
            "points": points,
        },
        results_dir,
    )
    # Acceptance: the bounded kernel beats the legacy merge on both
    # depths and prunes real work (CI re-gates via --min-meta floors).
    # Measured ~10x (h=3) and ~5.5x (h=4) on the reference box; the
    # floors leave headroom for noisy CI runners.
    assert meta["h3_speedup"] >= 5.0, meta
    assert meta["h4_speedup"] >= 3.5, meta
    assert meta["h3_bound_pruned"] > 0
    assert meta["h4_bound_pruned"] > 0
    assert meta["h3_peak_shrink"] > 1.0


def test_e18_deep_solve_throughput(benchmark):
    """Wall-clock of one h=3 deep solve (the pytest-benchmark headline)."""
    g = planted_partition(6, 6, 0.6, 0.05, seed=1)
    h, hier, budget = SWEEP[0]
    d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.5, seed=3)
    grid = DemandGrid.from_budget(hier, d, budget, slack=0.25)
    bt = binarize(spectral_decomposition_tree(g, seed=0), grid.quantize(d))
    benchmark.pedantic(
        lambda: _solve(bt, hier, grid, None), rounds=1, iterations=1
    )
