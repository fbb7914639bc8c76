"""E5 — the headline comparison: HGP vs every baseline, per graph family.

The evaluation the paper's framing implies: on each workload family
(mesh, expander, power-law, planted blocks, operator DAG), compare
communication cost (Eq. 1) and worst load violation across all methods.

Expected shape: ``hgp`` wins or ties the cost column everywhere (it may
use its bicriteria balance slack); ``hgp_feasible`` and the
hierarchy-aware heuristics (``flat_quotient``, ``recursive_bisection``)
beat the honestly hierarchy-oblivious ``flat_shuffled`` (plain
``flat_identity`` is *accidentally* hierarchy-friendly because recursive
bisection numbers parts hierarchically); everything beats ``random`` /
``round_robin`` by a wide margin on clusterable inputs; expanders
compress the spread (no good cuts exist).
"""

from __future__ import annotations

from repro import SolverConfig
from repro.bench import METHODS, Table, make_instance, run_method, save_result, standard_hierarchy

FAMILY_LIST = ("grid", "expander", "powerlaw", "blocks", "dag")


def _experiment() -> Table:
    table = Table(
        ["family", "n", "method", "cost", "violation"],
        title="E5: cost and violation by method and graph family (h=2, 2x4)",
    )
    hier = standard_hierarchy("2x4")
    cfg = SolverConfig(seed=0, n_trees=4)
    for family in FAMILY_LIST:
        inst = make_instance(family, 32, hier, fill=0.6, skew=0.3, seed=17)
        for method in METHODS:
            p = run_method(method, inst, seed=0, config=cfg)
            table.add_row([family, inst.graph.n, method, p.cost(), p.max_violation()])
    return table


def test_e5_baselines(benchmark, results_dir):
    table = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result("E5_baselines", table.show(), results_dir)
    # Shape assertions per family: hgp <= random, and the hierarchy-aware
    # flat mapping <= oblivious flat mapping.
    by_family: dict[str, dict[str, float]] = {}
    for family, _n, method, cost, _viol in table.rows:
        by_family.setdefault(family, {})[method] = float(cost)
    for family, costs in by_family.items():
        assert costs["hgp"] <= costs["random"] + 1e-9, family
        assert costs["hgp"] <= costs["flat_identity"] + 1e-9, family
    # Hierarchy-aware mapping beats the honest oblivious baseline on the
    # families with real cut structure (identity is accidentally
    # hierarchy-friendly: recursive bisection numbers parts
    # hierarchically, see flat.py).  On hub-dominated power-law graphs
    # the quotient heuristic can lose -- an honest negative finding
    # recorded in EXPERIMENTS.md.
    for family in ("grid", "blocks", "dag"):
        costs = by_family[family]
        assert costs["flat_quotient"] <= costs["flat_shuffled"] + 1e-9, family
