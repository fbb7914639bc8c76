"""Content-addressed solver cache (:mod:`repro.cache.cache`).

Public surface: :class:`CacheConfig` (the ``cache`` block on
``SolverConfig``), :class:`SolverCache` (two-tier LRU + disk cache),
:func:`get_cache` / :func:`configure_cache` for the process-wide
instance, and the key helpers :func:`cache_key` /
:func:`seed_token`.  :class:`InflightRegistry`
(:mod:`repro.cache.inflight`) dedupes *concurrent* identical requests —
the coalescing core of ``repro.serve``.
"""

from repro.cache.inflight import InflightEntry, InflightRegistry
from repro.cache.cache import (
    CacheConfig,
    CacheStats,
    SolverCache,
    cache_key,
    configure_cache,
    estimate_nbytes,
    get_cache,
    reset_cache,
    seed_token,
)

__all__ = [
    "CacheConfig",
    "InflightEntry",
    "InflightRegistry",
    "CacheStats",
    "SolverCache",
    "cache_key",
    "configure_cache",
    "estimate_nbytes",
    "get_cache",
    "reset_cache",
    "seed_token",
]
