"""E9 — the motivating application: streaming throughput vs placement.

Section 1 of the paper observes that pinning strongly-communicating
stream operators to nearby cores raises maximum throughput.  This
experiment reproduces that observation end-to-end on synthetic
TidalRace-style workloads: the throughput model's λ* (max input scale
before a core saturates) per placement method.

Expected shape: methods ordered by Eq. (1) cost are (weakly) ordered by
communication burn, and the hierarchy-aware placements sustain equal or
higher λ* than round-robin/random — the paper's original observation.
"""

from __future__ import annotations

from repro.bench import Table, save_result, standard_hierarchy
from repro.streaming import CommCostModel, place_dag, random_workload


def _experiment() -> Table:
    table = Table(
        ["workload", "method", "eq1_cost", "max_scale", "comm_frac"],
        title="E9: streaming throughput by placement method (2 sockets x 8 cores)",
    )
    hier = standard_hierarchy("2x8")
    model = CommCostModel.for_hierarchy(hier, base=2e-7, ratio=4.0)
    for seed in (1, 2):
        dag = random_workload(n_queries=4, n_sources=3, seed=seed)
        for method in ("random", "round_robin", "greedy", "flat_quotient", "hgp"):
            placement, report = place_dag(
                dag, hier, method=method, model=model, seed=0
            )
            table.add_row(
                [
                    f"wl{seed}(n={dag.n_operators})",
                    method,
                    placement.cost(),
                    report.max_scale,
                    report.comm_fraction,
                ]
            )
    return table


def test_e9_streaming(benchmark, results_dir):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result("E9_streaming", table.show(), results_dir)
    by_wl: dict[str, dict[str, tuple[float, float]]] = {}
    for wl, method, cost, scale, frac in table.rows:
        by_wl.setdefault(wl, {})[method] = (float(cost), float(frac))
    for wl, rows in by_wl.items():
        # Hierarchy-aware placement burns less CPU on communication than
        # locality-oblivious round-robin (the paper's Section 1 claim).
        assert rows["hgp"][1] <= rows["round_robin"][1] + 1e-9, wl
        assert rows["hgp"][0] <= rows["random"][0] + 1e-9, wl
