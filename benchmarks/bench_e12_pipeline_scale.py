"""E12 (extension) — end-to-end pipeline wall-clock at practical sizes.

The paper's DP is pseudo-polynomial (E4 measures the blow-up axes); the
*practical* question is what instance sizes the engineering defaults
(auto grid + beam + heuristic trees) make interactive.  This experiment
sweeps the vertex count at fixed hierarchy and reports per-phase wall
clock plus the solution quality proxy (cost vs. the greedy baseline).

Expected shape: well-under-quadratic wall-clock growth at fixed
cells-per-vertex (beam caps the DP state space), and a stable quality
advantage over greedy across sizes.
"""

from __future__ import annotations

import time


from repro import SolverConfig, solve_hgp
from repro.baselines import placement_baselines
from repro.bench import Table, make_instance, save_result, standard_hierarchy


def _experiment() -> Table:
    table = Table(
        ["n", "trees_s", "dp_s", "total_s", "hgp_cost", "greedy_cost", "advantage"],
        title="E12: pipeline wall-clock and quality vs instance size (defaults)",
    )
    hier = standard_hierarchy("2x8")
    greedy = placement_baselines()["greedy"]
    for n_target in (32, 64, 128, 256):
        inst = make_instance("blocks", n_target, hier, fill=0.55, skew=0.4, seed=5)
        t0 = time.perf_counter()
        res = solve_hgp(
            inst.graph,
            inst.hierarchy,
            inst.demands,
            SolverConfig(seed=0, n_trees=4, beam_width=128),
        )
        total = time.perf_counter() - t0
        g_cost = greedy(inst.graph, inst.hierarchy, inst.demands, seed=0).cost()
        table.add_row(
            [
                inst.graph.n,
                res.telemetry.root.lookup("trees").seconds,
                res.telemetry.root.lookup("dp").seconds,
                total,
                res.cost,
                g_cost,
                g_cost / res.cost if res.cost > 0 else float("inf"),
            ]
        )
    return table


def test_e12_pipeline_scale(benchmark, results_dir):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result("E12_pipeline_scale", table.show(), results_dir)
    for row in table.rows:
        assert float(row[6]) >= 1.0  # hgp never loses to greedy here
    # Wall clock stays interactive at the largest size.
    assert float(table.rows[-1][3]) < 120.0
