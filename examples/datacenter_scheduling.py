#!/usr/bin/env python
"""Service placement across a datacenter rack hierarchy.

HGP is not just about cores: the same model covers racks and servers.
This example places a micro-service communication graph (power-law:
a few chatty hub services) onto 4 racks x 4 servers where cross-rack
traffic is 4x as expensive as cross-server-same-rack traffic, and shows
the per-level cost decomposition for every method.

Run:  python examples/datacenter_scheduling.py
"""

from __future__ import annotations

from repro import Hierarchy, SolverConfig, solve_hgp
from repro.baselines import placement_baselines
from repro.bench import Table
from repro.graph import power_law, random_demands
from repro.obs.report import render_report


def main() -> None:
    # 48 services; heavy-tailed communication (hubs talk to everyone).
    graph = power_law(48, m_per_node=2, weight_range=(1.0, 8.0), seed=3)
    # 4 racks x 4 servers; cm: cross-rack 20, cross-server 5, same 0.
    hierarchy = Hierarchy([4, 4], [20.0, 5.0, 0.0])
    demands = random_demands(
        graph.n, hierarchy.total_capacity, fill=0.65, skew=0.6, seed=4
    )

    table = Table(
        ["method", "total_cost", "cross_rack", "cross_server", "violation"],
        title="service placement on 4 racks x 4 servers",
    )

    def add(name: str, placement) -> None:
        by_level = placement.level_cut_costs()
        table.add_row(
            [name, placement.cost(), by_level[0], by_level[1], placement.max_violation()]
        )

    for name, fn in placement_baselines().items():
        add(name, fn(graph, hierarchy, demands, seed=0))
    result = solve_hgp(graph, hierarchy, demands, SolverConfig(seed=0))
    add("hgp", result.placement)
    table.show()

    print("\nrun report (hgp):")
    print(render_report(result.report()))


if __name__ == "__main__":
    main()
