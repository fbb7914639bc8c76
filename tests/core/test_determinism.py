"""Serial vs. process-pool determinism of the staged engine.

The ensemble members are independent and each member solve is
deterministic given its tree and grid, so fanning the DP+repair work out
to worker processes must not change the winner — same placement, same
cost, same per-member diagnostics, for the same seed.
"""

import numpy as np
import pytest

from repro import SolverConfig, solve_hgp


class TestWorkerDeterminism:
    @pytest.fixture(scope="class")
    def results(self):
        from repro.core.config import IncrementalConfig
        from repro.graph.generators import planted_partition, random_demands
        from repro.hierarchy.hierarchy import Hierarchy

        hier = Hierarchy([2, 4], [10.0, 3.0, 0.0])
        g = planted_partition(4, 6, 0.9, 0.05, seed=11)
        d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.3, seed=12)
        # The subtree-table memo is off here: its cache visibility differs
        # between the legs (serial members share one in-process memory,
        # pool workers do not), so work-volume diagnostics (merges, tiles)
        # would legitimately diverge even though outputs stay identical.
        # This test pins down worker determinism of the DP itself.
        cfg = dict(
            seed=0,
            n_trees=4,
            refine=False,
            incremental=IncrementalConfig(enabled=False),
        )
        serial = solve_hgp(g, hier, d, SolverConfig(n_jobs=1, **cfg))
        parallel = solve_hgp(g, hier, d, SolverConfig(n_jobs=2, **cfg))
        return serial, parallel

    def test_identical_winner(self, results):
        serial, parallel = results
        assert parallel.cost == serial.cost
        assert np.array_equal(parallel.placement.leaf_of, serial.placement.leaf_of)

    def test_identical_member_diagnostics(self, results):
        serial, parallel = results
        assert parallel.tree_costs == serial.tree_costs
        assert parallel.dp_costs == serial.dp_costs
        for a, b in zip(serial.telemetry.members, parallel.telemetry.members):
            assert a.index == b.index
            assert a.method == b.method
            assert a.dp_cost == b.dp_cost
            assert a.mapped_cost == b.mapped_cost
            assert a.dp_states_total == b.dp_states_total
            assert a.dp_merges == b.dp_merges

    def test_parallel_phase_timings_not_dropped(self, results):
        _serial, parallel = results
        root = parallel.telemetry.root
        assert root.lookup("dp").seconds > 0.0
        assert root.lookup("repair").seconds > 0.0
        assert all(m.dp_seconds > 0.0 for m in parallel.telemetry.members)
