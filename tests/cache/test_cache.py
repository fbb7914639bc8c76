"""Unit tests for the content-addressed solver cache itself."""

import numpy as np
import pytest

from repro import Graph
from repro.cache import (
    CacheConfig,
    SolverCache,
    cache_key,
    configure_cache,
    estimate_nbytes,
    get_cache,
    seed_token,
)
from repro.graph.generators import planted_partition
from repro.obs.metrics import get_registry


class TestCacheKey:
    def test_stable_across_calls(self):
        parts = (7, "spectral", (1, 2, 3), 0.25, None)
        assert cache_key("trees", parts) == cache_key("trees", parts)

    def test_kind_separates_namespaces(self):
        assert cache_key("trees", (1,)) != cache_key("fiedler", (1,))

    def test_value_sensitivity(self):
        assert cache_key("k", (1, 2)) != cache_key("k", (2, 1))
        assert cache_key("k", (1.0,)) != cache_key("k", (1,))
        assert cache_key("k", (True,)) != cache_key("k", (1,))
        assert cache_key("k", (None,)) != cache_key("k", ("None",))

    def test_ndarray_parts_hash_by_content(self):
        a = np.arange(5, dtype=np.float64)
        b = np.arange(5, dtype=np.float64)
        assert cache_key("k", (a,)) == cache_key("k", (b,))
        b[0] = 99.0
        assert cache_key("k", (a,)) != cache_key("k", (b,))
        # dtype matters even when the bytes coincide in value terms.
        assert cache_key("k", (np.arange(5, dtype=np.int64),)) != cache_key(
            "k", (np.arange(5, dtype=np.float64),)
        )

    def test_rejects_arbitrary_objects(self):
        with pytest.raises(TypeError):
            cache_key("k", (object(),))


class TestSeedToken:
    def test_int_and_bool(self):
        assert seed_token(42) == ("int", 42)
        assert seed_token(np.int64(42)) == ("int", 42)
        assert seed_token(True) == ("int", 1)

    def test_seedsequence(self):
        ss = np.random.SeedSequence(7)
        token = seed_token(ss)
        assert token is not None
        assert token == seed_token(np.random.SeedSequence(7))
        assert token != seed_token(np.random.SeedSequence(8))
        child = ss.spawn(1)[0]
        assert seed_token(child) != token

    def test_uncacheable_material(self):
        assert seed_token(None) is None
        assert seed_token(np.random.default_rng(0)) is None

    def test_os_entropy_seedsequence_is_still_stable(self):
        # SeedSequence() records the entropy it drew, so the object
        # reproduces its stream and makes valid (unique) key material.
        ss = np.random.SeedSequence()
        assert seed_token(ss) == seed_token(ss)
        assert seed_token(ss) != seed_token(np.random.SeedSequence())


class TestGraphDigest:
    def test_content_addressing(self):
        g1 = Graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        g2 = Graph(3, [(1, 2, 3.0), (0, 1, 2.0)])  # other input order
        assert g1.digest() == g2.digest()
        assert g1.digest() == g1.digest()  # memoised

    def test_sensitivity(self):
        base = Graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert base.digest() != Graph(3, [(0, 1, 2.0), (1, 2, 3.5)]).digest()
        assert base.digest() != Graph(4, [(0, 1, 2.0), (1, 2, 3.0)]).digest()
        assert base.digest() != Graph(3, [(0, 1, 2.0), (0, 2, 3.0)]).digest()

    def test_from_edge_arrays_matches(self):
        g1 = Graph(3, [(0, 1, 2.0), (1, 2, 3.0)])
        g2 = Graph.from_edge_arrays(
            3,
            np.array([0, 1]),
            np.array([1, 2]),
            np.array([2.0, 3.0]),
        )
        assert g1.digest() == g2.digest()

    def test_survives_pickle(self):
        import pickle

        g = planted_partition(2, 4, 0.8, 0.1, seed=3)
        assert pickle.loads(pickle.dumps(g)).digest() == g.digest()


class TestMemoryTier:
    def test_roundtrip_and_stats(self):
        cache = SolverCache(max_bytes=1 << 20)
        hit, _ = cache.lookup("trees", (1,))
        assert not hit
        cache.store("trees", (1,), [1, 2, 3])
        hit, value = cache.lookup("trees", (1,))
        assert hit and value == [1, 2, 3]
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate() == pytest.approx(0.5)
        assert cache.stats.by_kind["trees"]["hits"] == 1

    def test_lru_eviction_under_byte_budget(self):
        payload = np.zeros(128, dtype=np.float64)
        per_entry = estimate_nbytes(payload)
        cache = SolverCache(max_bytes=3 * per_entry)
        for i in range(5):
            cache.store("k", (i,), payload.copy())
        assert len(cache) <= 3
        assert cache.nbytes <= cache.max_bytes
        assert cache.stats.evictions >= 2
        # Oldest entries evicted first; newest still resident.
        hit, _ = cache.lookup("k", (0,))
        assert not hit
        hit, _ = cache.lookup("k", (4,))
        assert hit

    def test_lookup_refreshes_recency(self):
        payload = np.zeros(128, dtype=np.float64)
        per_entry = estimate_nbytes(payload)
        cache = SolverCache(max_bytes=2 * per_entry)
        cache.store("k", (0,), payload.copy())
        cache.store("k", (1,), payload.copy())
        cache.lookup("k", (0,))  # 0 becomes most recent
        cache.store("k", (2,), payload.copy())  # evicts 1, not 0
        assert cache.lookup("k", (0,))[0]
        assert not cache.lookup("k", (1,))[0]

    def test_oversized_entry_not_resident(self):
        cache = SolverCache(max_bytes=8)
        cache.store("k", (0,), np.zeros(1024))
        assert len(cache) == 0
        assert cache.nbytes == 0

    def test_store_overwrites_in_place(self):
        cache = SolverCache(max_bytes=1 << 20)
        cache.store("k", (0,), "old")
        cache.store("k", (0,), "new")
        assert len(cache) == 1
        assert cache.lookup("k", (0,))[1] == "new"

    def test_get_or_build(self):
        cache = SolverCache(max_bytes=1 << 20)
        calls = []

        def build():
            calls.append(1)
            return "built"

        assert cache.get_or_build("k", (1,), build) == "built"
        assert cache.get_or_build("k", (1,), build) == "built"
        assert len(calls) == 1
        # Uncacheable parts build every time and never touch the cache.
        assert cache.get_or_build("k", None, build) == "built"
        assert cache.get_or_build("k", None, build) == "built"
        assert len(calls) == 3

    def test_disabled_cache_is_inert(self):
        cache = SolverCache(max_bytes=1 << 20, enabled=False)
        cache.store("k", (1,), "v")
        assert not cache.lookup("k", (1,))[0]
        assert len(cache) == 0


class TestDiskTier:
    def test_persist_and_promote(self, tmp_path):
        disk = tmp_path / "cachedir"
        first = SolverCache(max_bytes=1 << 20, disk_dir=str(disk))
        first.store("gomory_hu", (1,), (np.arange(4), np.ones(4)))
        assert list(disk.glob("gomory_hu/*.pkl"))

        # A fresh cache (new process, conceptually) hits via disk.
        second = SolverCache(max_bytes=1 << 20, disk_dir=str(disk))
        hit, value = second.lookup("gomory_hu", (1,))
        assert hit
        assert np.array_equal(value[0], np.arange(4))
        assert second.stats.disk_hits == 1
        # Promoted into memory: the next lookup is a memory hit.
        second.lookup("gomory_hu", (1,))
        assert second.stats.hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        disk = tmp_path / "cachedir"
        cache = SolverCache(max_bytes=1 << 20, disk_dir=str(disk))
        key = cache.store("k", (1,), "v")
        path = disk / "k" / f"{key}.pkl"
        path.write_bytes(b"not a pickle")
        fresh = SolverCache(max_bytes=1 << 20, disk_dir=str(disk))
        assert not fresh.lookup("k", (1,))[0]
        assert not path.exists()  # dropped on read failure

    def test_clear_tiers(self, tmp_path):
        disk = tmp_path / "cachedir"
        cache = SolverCache(max_bytes=1 << 20, disk_dir=str(disk))
        cache.store("a", (1,), "x")
        cache.store("b", (2,), "y")
        dropped = cache.clear(memory=True, disk=False)
        assert dropped["memory_entries"] == 2
        assert dropped["disk_files"] == 0
        assert len(cache) == 0
        assert cache.lookup("a", (1,))[0]  # still on disk
        dropped = cache.clear()
        assert dropped["disk_files"] == 2
        assert not cache.lookup("b", (2,))[0]

    def test_disk_stats(self, tmp_path):
        disk = tmp_path / "cachedir"
        cache = SolverCache(max_bytes=1 << 20, disk_dir=str(disk))
        cache.store("trees", (1,), list(range(100)))
        info = cache.disk_stats()
        assert info["files"] == 1
        assert info["bytes"] > 0
        assert info["by_kind"]["trees"]["files"] == 1

    def test_describe_breaks_memory_tier_down_by_kind(self):
        cache = SolverCache(max_bytes=1 << 20)
        cache.store("trees", (1,), list(range(100)))
        cache.store("subtree_tables", (1,), "a")
        cache.store("subtree_tables", (2,), "b")
        mem = cache.describe()["memory"]
        by_kind = mem["by_kind"]
        assert by_kind["subtree_tables"]["entries"] == 2
        assert by_kind["trees"]["entries"] == 1
        assert sum(k["entries"] for k in by_kind.values()) == mem["entries"]
        assert sum(k["bytes"] for k in by_kind.values()) == mem["bytes"]


class TestConfigPlumbing:
    def test_env_configuration(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "4096")
        cache = SolverCache()
        assert cache.max_bytes == 4096
        assert str(cache.disk_dir).endswith("env-cache")
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        assert SolverCache().enabled is False

    def test_cacheconfig_validation(self):
        assert CacheConfig().enabled is True

    def test_configure_cache_replaces_shared_instance(self, tmp_path):
        configure_cache(max_bytes=1234, disk_dir=str(tmp_path / "d"))
        cache = get_cache()
        assert cache.max_bytes == 1234
        assert get_cache() is cache


class TestMetricsWiring:
    def test_hit_miss_eviction_counters(self):
        registry = get_registry()
        registry.reset()
        payload = np.zeros(256, dtype=np.float64)
        cache = SolverCache(max_bytes=2 * estimate_nbytes(payload))
        cache.lookup("trees", (1,))  # miss
        cache.store("trees", (1,), payload.copy())
        cache.lookup("trees", (1,))  # hit
        for i in range(2, 6):
            cache.store("trees", (i,), payload.copy())  # forces evictions

        assert registry.get("repro_cache_misses_total").value(kind="trees") == 1
        assert (
            registry.get("repro_cache_hits_total").value(kind="trees", tier="memory")
            == 1
        )
        assert registry.get("repro_cache_evictions_total").value() >= 3
        assert registry.get("repro_cache_bytes").value() == cache.nbytes
        assert registry.get("repro_cache_entries").value() == len(cache)
        hist = registry.get("repro_cache_lookup_seconds")
        assert hist.snapshot()["count"] == 2
