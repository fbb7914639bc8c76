"""Registry snapshots, histogram quantiles and member-metric totals.

The regression here is :class:`TestParallelRunAggregation`: a pool run
(``n_jobs > 1``) must add the same DP and subtree-memo totals to the
parent registry as a serial run.  Member DP facts travel home on their
:class:`repro.core.telemetry.MemberRecord` and the receiving process
publishes them, so no registry state crosses the process boundary — and
the parent's own gauges are never overwritten by a worker's.
"""

from __future__ import annotations

import json
import math
import pickle

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    get_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestSnapshot:
    def test_snapshot_shape(self, registry):
        registry.counter("c_total", "help").inc(3)
        registry.gauge("g", "").set(7)
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        snap = registry.snapshot()
        assert isinstance(snap["pid"], int)
        by_name = {f["name"]: f for f in snap["families"]}
        assert by_name["c_total"]["kind"] == "counter"
        assert by_name["c_total"]["series"][0][1] == pytest.approx(3.0)
        assert by_name["g"]["series"][0][1] == pytest.approx(7.0)
        hist = by_name["h"]
        assert hist["buckets"] == [1.0, 2.0]
        value = hist["series"][0][1]
        # Raw per-bucket counts, not cumulative: (<=1, <=2, +Inf).
        assert value["bucket_counts"] == [0, 1, 0]
        assert value["count"] == 1
        assert value["sum"] == pytest.approx(1.5)

    def test_snapshot_is_picklable_and_json_safe(self, registry):
        registry.counter("c_total", labelnames=("path",)).inc(2, path="batch")
        registry.histogram("h").observe(0.1)
        snap = registry.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert json.loads(json.dumps(snap)) == snap

    def test_labelled_series_keys_survive(self, registry):
        registry.counter("c_total", labelnames=("kind",)).inc(1, kind="x")
        snap = registry.snapshot()
        (key, value), = snap["families"][0]["series"]
        assert key == [["kind", "x"]]
        assert value == pytest.approx(1.0)


class TestHistogramQuantile:
    def test_empty_series_is_nan(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        assert math.isnan(h.quantile(0.5))

    def test_out_of_range_rejected(self):
        h = Histogram("h", buckets=(1.0,))
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_interpolates_within_bucket(self):
        h = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for _ in range(4):
            h.observe(1.5)  # all mass in the (1, 2] bucket
        # rank = 0.5 * 4 = 2 -> halfway through the bucket's 4 counts.
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(1.0) == pytest.approx(2.0)

    def test_first_bucket_interpolates_from_zero(self):
        h = Histogram("h", buckets=(2.0, 4.0))
        h.observe(1.0)
        h.observe(1.0)
        assert h.quantile(0.5) == pytest.approx(1.0)

    def test_overflow_clamps_to_last_edge(self):
        h = Histogram("h", buckets=(1.0, 2.0))
        h.observe(100.0)
        assert h.quantile(0.99) == pytest.approx(2.0)

    def test_matches_prometheus_shape_on_default_buckets(self):
        h = Histogram("h", buckets=DEFAULT_LATENCY_BUCKETS)
        for v in (0.001, 0.002, 0.003, 0.2, 0.21):
            h.observe(v)
        p50 = h.quantile(0.5)
        assert 0.0025 < p50 <= 0.005  # rank 2.5 lands in the (0.0025, 0.005] bucket
        assert h.quantile(0.99) <= 0.25

    def test_labelled_quantile(self):
        h = Histogram("h", labelnames=("kind",), buckets=(1.0, 2.0))
        h.observe(1.5, kind="x")
        assert h.quantile(0.5, kind="x") == pytest.approx(1.5)
        assert math.isnan(h.quantile(0.5, kind="y"))


#: Counter families fed from member records.
MEMBER_COUNTERS = (
    "repro_dp_solves_total",
    "repro_dp_nodes_total",
    "repro_dp_states_total",
    "repro_dp_merges_total",
    "repro_dp_tiles_total",
    "repro_dp_bound_pruned_total",
    "repro_dp_beam_escalations_total",
    "repro_incremental_subtree_hits_total",
    "repro_incremental_subtree_misses_total",
)

#: Histogram families fed from member records (one observation each).
MEMBER_HISTOGRAMS = (
    "repro_dp_states_max",
    "repro_dp_table_peak_bytes",
    "repro_dp_seconds",
)


def _member_totals(registry) -> dict:
    """Current value of every member counter and histogram count."""
    out = {name: _value(registry, name) for name in MEMBER_COUNTERS}
    for name in MEMBER_HISTOGRAMS:
        family = registry.get(name)
        out[name] = 0 if family is None else family.snapshot()["count"]
    return out


def _added(before: dict, after: dict) -> dict:
    return {name: after[name] - before[name] for name in before}


class TestParallelRunAggregation:
    """Pool workers' member counts must reach the parent registry, and
    in the same amounts as a serial run's."""

    def _run(self, clustered_instance, n_jobs, **cfg_kw):
        from repro.core.config import SolverConfig
        from repro.core.engine import run_pipeline

        g, h, d = clustered_instance
        cfg = SolverConfig(n_trees=4, n_jobs=n_jobs, refine=False, seed=3, **cfg_kw)
        return run_pipeline(g, h, d, cfg, path=f"merge-test-{n_jobs}")

    def test_parallel_run_increases_parent_dp_total(self, clustered_instance):
        reg = get_registry()
        before = _value(reg, "repro_dp_solves_total")
        result = self._run(clustered_instance, n_jobs=2)
        assert result.placement is not None
        # Every ensemble member solved in a worker must land here.
        assert _value(reg, "repro_dp_solves_total") >= before + 4

    def test_serial_and_parallel_totals_agree(self, clustered_instance):
        """Every member counter and histogram count adds the same amount
        for ``n_jobs=1`` and ``n_jobs=2``.  The subtree memo is off:
        members solved in different workers cannot hit each other's
        tables, so with it on, memo hits (and the merges they skip)
        depend on how members are spread over processes."""
        from repro.core.config import IncrementalConfig

        reg = get_registry()
        no_memo = IncrementalConfig(enabled=False)
        before = _member_totals(reg)
        self._run(clustered_instance, n_jobs=1, incremental=no_memo)
        serial_added = _added(before, _member_totals(reg))
        before = _member_totals(reg)
        self._run(clustered_instance, n_jobs=2, incremental=no_memo)
        parallel_added = _added(before, _member_totals(reg))
        assert serial_added == parallel_added
        assert serial_added["repro_dp_solves_total"] == 4
        assert serial_added["repro_dp_seconds"] == 4
        assert serial_added["repro_dp_merges_total"] > 0

    def test_pool_totals_equal_record_sums(self, clustered_instance):
        """With the memo on, a pool run publishes exactly what its member
        records carry, subtree-memo counts included."""
        reg = get_registry()
        before = _member_totals(reg)
        result = self._run(clustered_instance, n_jobs=2)
        added = _added(before, _member_totals(reg))
        records = result.telemetry.members
        assert added["repro_dp_solves_total"] == len(records) == 4
        for name, field in (
            ("repro_dp_nodes_total", "dp_nodes"),
            ("repro_dp_states_total", "dp_states_total"),
            ("repro_dp_merges_total", "dp_merges"),
            ("repro_dp_tiles_total", "dp_tiles"),
            ("repro_dp_bound_pruned_total", "dp_bound_pruned"),
            ("repro_dp_beam_escalations_total", "beam_escalations"),
            ("repro_incremental_subtree_hits_total", "dp_memo_hits"),
            ("repro_incremental_subtree_misses_total", "dp_memo_misses"),
        ):
            assert added[name] == sum(getattr(r, field) for r in records), name
        # The memo was consulted (hits or misses, depending on what the
        # persistent workers already hold).
        assert (
            added["repro_incremental_subtree_hits_total"]
            + added["repro_incremental_subtree_misses_total"]
        ) > 0
        for name in MEMBER_HISTOGRAMS:
            assert added[name] == 4, name

    def test_parent_cache_gauges_read_parent_cache(self, monkeypatch):
        """After a pool run with the memo on, the parent's cache gauges
        describe the parent's own cache, not a worker's private one."""
        from repro.bench.instances import make_instance, standard_hierarchy
        from repro.cache import get_cache, reset_cache
        from repro.core.config import SolverConfig
        from repro.core.engine import run_pipeline

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        reset_cache()
        inst = make_instance("blocks", 32, standard_hierarchy("2x4"), seed=5)
        cfg = SolverConfig(n_trees=4, n_jobs=2, seed=0)
        assert cfg.incremental.enabled and cfg.cache.enabled
        run_pipeline(inst.graph, inst.hierarchy, inst.demands, cfg)
        reg = get_registry()
        cache = get_cache()
        assert _value(reg, "repro_cache_bytes") == cache.nbytes
        assert _value(reg, "repro_cache_entries") == len(cache)


class TestPublicationSites:
    """Which solves publish member metrics: engine members, guided
    rounds and ``solve_hgpt`` do; a bare ``solve_rhgpt`` does not."""

    def test_guided_round_adds_one_solve(self, clustered_instance):
        from repro.core.config import SolverConfig
        from repro.decomposition.guided import solve_hgp_iterated

        g, h, d = clustered_instance
        cfg = SolverConfig(n_trees=2, refine=False, seed=3)
        reg = get_registry()
        before = _value(reg, "repro_dp_solves_total")
        solve_hgp_iterated(g, h, d, cfg, rounds=0)
        plain = _value(reg, "repro_dp_solves_total") - before
        before = _value(reg, "repro_dp_solves_total")
        solve_hgp_iterated(g, h, d, cfg, rounds=1)
        guided = _value(reg, "repro_dp_solves_total") - before
        assert plain == 2
        assert guided == plain + 1

    def test_solve_hgpt_adds_one_solve(self, clustered_instance):
        from repro.core.solver import solve_hgpt
        from repro.decomposition.racke import racke_ensemble

        g, h, d = clustered_instance
        tree = racke_ensemble(g, n_trees=1, seed=0)[0]
        reg = get_registry()
        before = _member_totals(reg)
        solve_hgpt(tree, h, d)
        added = _added(before, _member_totals(reg))
        assert added["repro_dp_solves_total"] == 1
        assert added["repro_dp_seconds"] == 1

    def test_direct_solve_rhgpt_leaves_registry_unchanged(self):
        from repro.bench.oracles import path_binary_tree
        from repro.hgpt.dp import solve_rhgpt

        bt = path_binary_tree([1.0, 2.0, 3.0], [1, 1, 1, 1])
        reg = get_registry()
        before = reg.snapshot()
        solution = solve_rhgpt(bt, caps=[2], deltas=[0.0, 1.0])
        assert solution.cost > 0
        assert reg.snapshot() == before


def _value(registry, name, **labels):
    family = registry.get(name)
    if family is None:
        return 0.0
    return family.value(**labels)
