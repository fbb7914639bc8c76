"""Tests for the process-local metrics registry."""

import math

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    get_registry,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates(self, registry):
        c = registry.counter("x_total", "help")
        c.inc()
        c.inc(4)
        assert c.value() == pytest.approx(5.0)

    def test_negative_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("x_total").inc(-1)

    def test_labelled_series_independent(self, registry):
        c = registry.counter("runs_total", "", labelnames=("path",))
        c.inc(path="batch")
        c.inc(2, path="streaming")
        assert c.value(path="batch") == pytest.approx(1.0)
        assert c.value(path="streaming") == pytest.approx(2.0)

    def test_wrong_labels_rejected(self, registry):
        c = registry.counter("runs_total", "", labelnames=("path",))
        with pytest.raises(ValueError):
            c.inc(nope="x")


class TestGauge:
    def test_set_and_inc(self, registry):
        g = registry.gauge("live")
        g.set(7)
        g.inc(-3)
        assert g.value() == pytest.approx(4.0)


class TestHistogramBuckets:
    def test_le_semantics_on_exact_edge(self, registry):
        """A value equal to an edge lands in that edge's bucket."""
        h = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(2.0)
        snap = h.snapshot()
        assert snap["buckets"][1.0] == 0
        assert snap["buckets"][2.0] == 1  # le="2" includes 2.0
        assert snap["buckets"][4.0] == 1

    def test_overflow_lands_in_inf(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 2.0))
        h.observe(100.0)
        snap = h.snapshot()
        assert snap["buckets"][1.0] == 0
        assert snap["buckets"][2.0] == 0
        assert snap["buckets"][math.inf] == 1
        assert snap["count"] == 1
        assert snap["sum"] == pytest.approx(100.0)

    def test_cumulative_counts_monotone(self, registry):
        h = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        cum = [snap["buckets"][e] for e in (0.1, 1.0, 10.0, math.inf)]
        assert cum == [1, 3, 4, 5]
        assert cum == sorted(cum)

    def test_edges_sorted_and_deduped(self, registry):
        h = registry.histogram("s", buckets=(4.0, 1.0, 2.0))
        assert h.buckets == (1.0, 2.0, 4.0)
        with pytest.raises(ValueError):
            registry.histogram("dup", buckets=(1.0, 1.0))
        with pytest.raises(ValueError):
            registry.histogram("empty", buckets=())

    def test_default_edge_presets_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        assert list(DEFAULT_SIZE_BUCKETS) == sorted(DEFAULT_SIZE_BUCKETS)


class TestRegistry:
    def test_idempotent_registration(self, registry):
        a = registry.counter("x_total", "first help")
        b = registry.counter("x_total", "ignored second help")
        assert a is b

    def test_kind_conflict_raises(self, registry):
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_reset_keeps_bound_handles_live(self, registry):
        counter = registry.counter("x_total")
        hist = registry.histogram("x_seconds", buckets=(1.0,))
        counter.inc(3)
        hist.observe(0.5)
        registry.reset()
        assert counter.value() == 0
        assert hist.snapshot()["count"] == 0
        counter.inc()
        hist.observe(0.5)
        # The handles bound before reset() still feed the registry.
        assert registry.counter("x_total") is counter
        assert registry.get("x_total").value() == 1
        assert registry.get("x_seconds").snapshot()["count"] == 1
        assert "x_total 1" in registry.render()

    def test_default_registry_is_a_singleton(self):
        assert get_registry() is get_registry()
        assert isinstance(get_registry(), MetricsRegistry)


class TestExposition:
    def test_prometheus_text_format(self, registry):
        registry.counter("runs_total", "Completed runs", labelnames=("path",)).inc(
            3, path="batch"
        )
        registry.gauge("live", "Live tasks").set(2)
        registry.histogram("lat", "Latency", buckets=(0.5, 1.0)).observe(0.75)
        text = registry.render()
        assert "# HELP runs_total Completed runs" in text
        assert "# TYPE runs_total counter" in text
        assert 'runs_total{path="batch"} 3' in text
        assert "# TYPE live gauge" in text
        assert "live 2" in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.5"} 0' in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_sum 0.75" in text
        assert "lat_count 1" in text
        assert text.endswith("\n")

    def test_families_sorted_by_name(self, registry):
        registry.counter("z_total")
        registry.counter("a_total")
        assert [f.name for f in registry.families()] == ["a_total", "z_total"]

    def test_empty_registry_renders_empty(self, registry):
        assert registry.render() == ""


class TestHotPathPublication:
    def test_dp_solve_publishes(self, path3, hier_2x4):
        """A pipeline run bumps the DP/engine counters in the default registry."""
        import numpy as np

        from repro.core.config import SolverConfig
        from repro.core.engine import run_pipeline

        reg = get_registry()
        before_runs = _counter_value(reg, "repro_engine_runs_total", path="metrics-test")
        before_solves = _counter_value(reg, "repro_dp_solves_total")
        run_pipeline(
            path3,
            hier_2x4,
            np.asarray([0.2, 0.2, 0.2]),
            SolverConfig(n_trees=2, refine=False, seed=0),
            path="metrics-test",
        )
        assert (
            _counter_value(reg, "repro_engine_runs_total", path="metrics-test")
            == before_runs + 1
        )
        assert _counter_value(reg, "repro_dp_solves_total") >= before_solves + 2


def _counter_value(registry, name, **labels):
    family = registry.get(name)
    if family is None:
        return 0.0
    return family.value(**labels)
