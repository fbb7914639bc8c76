"""Content-addressed, size-bounded solver cache with an optional disk tier.

The Theorem-1 pipeline's dominant cost is the *embedding* stage: building
the Räcke-style decomposition-tree ensemble re-runs spectral eigensolves
and (for the flow-based builders) ``n − 1`` Dinic max-flows on every
solve, even when the input graph has not changed.  This module gives the
whole solver one shared memoisation substrate so warm runs skip straight
to quantize/DP:

* **Content addressing** — keys are derived from the *content* of the
  inputs, never from object identity: :meth:`repro.graph.graph.Graph.digest`
  hashes the canonical CSR arrays, and :func:`cache_key` canonicalises an
  arbitrary tuple of plain values / ndarrays into one stable blake2b hex
  key.  Two structurally identical graphs built independently (e.g. the
  online placer's live-graph snapshots between churn events) hit the
  same entries.
* **Seed discipline** — randomized builders are only cacheable when
  their seed material is *reproducible*: :func:`seed_token` maps ints
  and ``SeedSequence``\\ s to stable tokens and returns ``None`` for
  ``None`` (fresh OS entropy) and live ``Generator`` objects (consuming
  stream state), in which case callers bypass the cache.
* **Memory tier** — a thread-safe LRU bounded by a byte budget
  (``max_bytes``); entry sizes are measured by pickling once, and the
  same pickled blob feeds the disk tier so nothing is serialised twice.
* **Disk tier** — optional persistence under ``REPRO_CACHE_DIR`` (or an
  explicit ``disk_dir``): entries are written atomically as
  ``<dir>/<kind>/<key>.pkl`` and promoted back into memory on hit, so
  cache warmth survives process restarts and is shared across CLI
  invocations.
* **Observability** — hit / miss / eviction / byte counters and a
  lookup-latency histogram are published to the default
  :mod:`repro.obs.metrics` registry (``repro_cache_*`` families), and
  the engine mirrors hit/miss counts into the run report's ``trees``
  span, so ``repro report show`` and ``repro cache stats`` both expose
  cache effectiveness.

Determinism contract: the cache stores *finished, immutable results* of
deterministic builds (decomposition-tree ensembles, Gomory–Hu trees,
Fiedler vectors keyed by their start vector).  A warm run therefore
returns bit-for-bit the same values a cold run would recompute — the
cache can change *when* work happens, never *what* is produced.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

from repro.testing.faults import maybe_inject


def _registry():
    # Imported lazily: repro.obs's package __init__ reaches (via
    # repro.core.config) back into repro.cache, so a top-level import
    # here would be circular.
    from repro.obs.metrics import get_registry

    return get_registry()


__all__ = [
    "CacheConfig",
    "CacheStats",
    "SolverCache",
    "cache_key",
    "seed_token",
    "estimate_nbytes",
    "get_cache",
    "configure_cache",
    "reset_cache",
]

#: Bump when the value layout of any cached kind changes; part of every
#: key, so stale disk entries from older layouts can never be returned.
CACHE_SCHEMA_VERSION = 1

#: Default in-memory byte budget (overridable via ``REPRO_CACHE_MAX_BYTES``).
DEFAULT_MAX_BYTES = 256 * 1024 * 1024

ENV_DIR = "REPRO_CACHE_DIR"
ENV_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"
ENV_DISABLE = "REPRO_CACHE_DISABLE"


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheConfig:
    """Per-run cache knob (the ``cache`` block of ``SolverConfig``).

    The process-wide cache itself is sized and placed by
    ``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_DIR`` or
    :func:`configure_cache`, never by a run's config.

    Attributes
    ----------
    enabled:
        Whether engine runs under this config consult the cache at all
        (``repro solve --no-cache`` sets this to ``False``).  Disabling
        is per-run: it neither clears nor reconfigures the shared cache.
    """

    enabled: bool = True


@dataclass
class CacheStats:
    """Process-local effectiveness counters of one :class:`SolverCache`.

    These mirror the ``repro_cache_*`` metrics but live on the cache
    object itself, so tests and the ``repro cache stats`` CLI can read
    them without touching the metrics registry.
    """

    hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    by_kind: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def record(self, kind: str, event: str) -> None:
        """Bump the aggregate and per-kind counter for ``event``."""
        setattr(self, event, getattr(self, event) + 1)
        per = self.by_kind.setdefault(
            kind, {"hits": 0, "disk_hits": 0, "misses": 0, "stores": 0}
        )
        if event in per:
            per[event] += 1

    @property
    def lookups(self) -> int:
        """Total lookups (memory hits + disk hits + misses)."""
        return self.hits + self.disk_hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0 when idle)."""
        total = self.lookups
        if total == 0:
            return 0.0
        return (self.hits + self.disk_hits) / total

    def as_dict(self) -> dict:
        """Plain-dict view (CLI / run-report meta)."""
        return {
            "hits": self.hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate(),
            "by_kind": {k: dict(v) for k, v in sorted(self.by_kind.items())},
        }


# ----------------------------------------------------------------------
# key derivation
# ----------------------------------------------------------------------


def _canonical(obj: Any) -> str:
    """Stable textual form of one key part (raises on unhashable types).

    Only value-like inputs are accepted on purpose: passing an arbitrary
    object would silently key on ``repr`` noise and corrupt content
    addressing.  Graphs must be passed as ``g.digest()``.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return f"{type(obj).__name__}:{obj!r}"
    if isinstance(obj, float):
        return f"float:{obj!r}"
    if isinstance(obj, (np.integer,)):
        return f"int:{int(obj)!r}"
    if isinstance(obj, (np.floating,)):
        return f"float:{float(obj)!r}"
    if isinstance(obj, bytes):
        return "bytes:" + hashlib.blake2b(obj, digest_size=16).hexdigest()
    if isinstance(obj, np.ndarray):
        h = hashlib.blake2b(digest_size=16)
        h.update(str(obj.dtype.str).encode())
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
        return "ndarray:" + h.hexdigest()
    if isinstance(obj, (tuple, list)):
        inner = ",".join(_canonical(x) for x in obj)
        return f"{type(obj).__name__}:[{inner}]"
    if isinstance(obj, dict):
        inner = ",".join(
            f"{_canonical(k)}={_canonical(v)}" for k, v in sorted(obj.items())
        )
        return "dict:{" + inner + "}"
    raise TypeError(
        f"cache key parts must be plain values or ndarrays, got {type(obj).__name__}"
    )


def cache_key(kind: str, parts: Tuple[Any, ...]) -> str:
    """Content hash of ``(schema, kind, parts)`` as a 32-char hex string."""
    text = f"v{CACHE_SCHEMA_VERSION}|{kind}|{_canonical(tuple(parts))}"
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def seed_token(seed: Any) -> Optional[Tuple[Any, ...]]:
    """Stable key material for a ``SeedLike``, or ``None`` when uncacheable.

    Ints and ``SeedSequence`` objects reproduce the same random stream
    every time, so they make valid cache-key material.  ``None`` (fresh
    OS entropy) and live ``Generator`` objects (whose position in the
    stream advances with use) do not — callers must bypass the cache.
    """
    if isinstance(seed, (bool,)):
        return ("int", int(seed))
    if isinstance(seed, (int, np.integer)):
        return ("int", int(seed))
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        if entropy is None:
            return None
        if isinstance(entropy, (int, np.integer)):
            ent: Tuple[int, ...] = (int(entropy),)
        else:
            ent = tuple(int(e) for e in entropy)
        return ("seedseq", ent, tuple(int(k) for k in seed.spawn_key))
    return None


def estimate_nbytes(value: Any) -> int:
    """Size of ``value`` for budget accounting (its pickled length)."""
    return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))


# ----------------------------------------------------------------------
# the cache
# ----------------------------------------------------------------------


class SolverCache:
    """Two-tier (memory LRU + optional disk) content-addressed cache.

    Parameters
    ----------
    max_bytes:
        In-memory byte budget (``None`` = ``REPRO_CACHE_MAX_BYTES`` env
        or :data:`DEFAULT_MAX_BYTES`).  Entries are evicted LRU-first
        whenever the accounted total exceeds the budget; an entry larger
        than the whole budget is never memory-resident (it still reaches
        the disk tier).
    disk_dir:
        Disk-tier directory (``None`` = ``REPRO_CACHE_DIR`` env; unset =
        memory only).
    enabled:
        Master switch (``REPRO_CACHE_DISABLE=1`` turns the default cache
        off); a disabled cache reports every lookup as a miss and drops
        every store.
    """

    def __init__(
        self,
        max_bytes: Optional[int] = None,
        disk_dir: Optional[str] = None,
        enabled: Optional[bool] = None,
    ):
        if max_bytes is None:
            max_bytes = int(os.environ.get(ENV_MAX_BYTES, DEFAULT_MAX_BYTES))
        if disk_dir is None:
            disk_dir = os.environ.get(ENV_DIR) or None
        if enabled is None:
            enabled = os.environ.get(ENV_DISABLE, "") not in ("1", "true", "yes")
        self.max_bytes = int(max_bytes)
        self.disk_dir: Optional[Path] = Path(disk_dir) if disk_dir else None
        self.enabled = bool(enabled)
        self.stats = CacheStats()
        self._lock = threading.RLock()
        #: key -> (value, nbytes), in LRU order (oldest first).
        self._entries: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        #: key -> kind, for per-kind disk paths and stats attribution.
        self._kinds: Dict[str, str] = {}
        self._bytes = 0

    # -- metrics helpers ------------------------------------------------

    def _metric_hit(self, kind: str, tier: str) -> None:
        _registry().counter(
            "repro_cache_hits_total",
            "Cache lookups served from a tier",
            labelnames=("kind", "tier"),
        ).inc(kind=kind, tier=tier)

    def _metric_miss(self, kind: str) -> None:
        _registry().counter(
            "repro_cache_misses_total",
            "Cache lookups that found nothing in any tier",
            labelnames=("kind",),
        ).inc(kind=kind)

    def _metric_gauges(self) -> None:
        reg = _registry()
        reg.gauge(
            "repro_cache_bytes", "Bytes resident in the in-memory cache tier"
        ).set(self._bytes)
        reg.gauge(
            "repro_cache_entries", "Entries resident in the in-memory cache tier"
        ).set(len(self._entries))

    # -- core API -------------------------------------------------------

    def lookup(self, kind: str, parts: Tuple[Any, ...]) -> Tuple[bool, Any]:
        """Probe both tiers for ``(kind, parts)``.

        Returns ``(True, value)`` on a hit (disk hits are promoted into
        the memory tier) and ``(False, None)`` on a miss.  Latency is
        observed in the ``repro_cache_lookup_seconds`` histogram.
        """
        if not self.enabled:
            return False, None
        t0 = time.perf_counter()
        key = cache_key(kind, parts)
        try:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.stats.record(kind, "hits")
                    self._metric_hit(kind, "memory")
                    return True, entry[0]
            value = self._disk_load(kind, key)
            if value is not _MISSING:
                self._put(kind, key, value, write_disk=False)
                self.stats.record(kind, "disk_hits")
                self._metric_hit(kind, "disk")
                return True, value
            self.stats.record(kind, "misses")
            self._metric_miss(kind)
            return False, None
        finally:
            _registry().histogram(
                "repro_cache_lookup_seconds",
                "Wall-clock seconds of one cache lookup (any tier)",
            ).observe(time.perf_counter() - t0)

    def store(self, kind: str, parts: Tuple[Any, ...], value: Any) -> str:
        """Insert ``value`` under ``(kind, parts)`` in both tiers.

        Returns the derived key (useful for tests).  A no-op when the
        cache is disabled.
        """
        key = cache_key(kind, parts)
        if not self.enabled:
            return key
        self._put(kind, key, value, write_disk=True)
        self.stats.record(kind, "stores")
        return key

    def get_or_build(
        self, kind: str, parts: Optional[Tuple[Any, ...]], build: Callable[[], Any]
    ) -> Any:
        """``lookup`` then ``build``-and-``store`` on miss.

        ``parts=None`` (uncacheable seed material) builds directly
        without touching the cache.
        """
        if parts is None or not self.enabled:
            return build()
        hit, value = self.lookup(kind, parts)
        if hit:
            return value
        value = build()
        self.store(kind, parts, value)
        return value

    def clear(self, memory: bool = True, disk: bool = True) -> Dict[str, int]:
        """Wipe the selected tiers; returns how much was dropped."""
        dropped = {"memory_entries": 0, "memory_bytes": 0, "disk_files": 0}
        if memory:
            with self._lock:
                dropped["memory_entries"] = len(self._entries)
                dropped["memory_bytes"] = self._bytes
                self._entries.clear()
                self._kinds.clear()
                self._bytes = 0
                self._metric_gauges()
        if disk and self.disk_dir is not None and self.disk_dir.exists():
            for path in sorted(self.disk_dir.glob("*/*.pkl")):
                try:
                    path.unlink()
                    dropped["disk_files"] += 1
                except OSError:  # pragma: no cover - racing cleanup
                    pass
        return dropped

    # -- introspection --------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Bytes currently accounted in the memory tier."""
        return self._bytes

    def __len__(self) -> int:
        return len(self._entries)

    def disk_stats(self) -> Dict[str, object]:
        """Disk-tier inventory: per-kind file counts and byte totals."""
        out: Dict[str, object] = {
            "dir": str(self.disk_dir) if self.disk_dir else None,
            "files": 0,
            "bytes": 0,
            "by_kind": {},
        }
        if self.disk_dir is None or not self.disk_dir.exists():
            return out
        by_kind: Dict[str, Dict[str, int]] = {}
        for path in self.disk_dir.glob("*/*.pkl"):
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - racing cleanup
                continue
            k = by_kind.setdefault(path.parent.name, {"files": 0, "bytes": 0})
            k["files"] += 1
            k["bytes"] += size
            out["files"] = int(out["files"]) + 1
            out["bytes"] = int(out["bytes"]) + size
        out["by_kind"] = {k: by_kind[k] for k in sorted(by_kind)}
        return out

    def describe(self) -> Dict[str, object]:
        """One dict with both tiers' state + effectiveness counters."""
        with self._lock:
            by_kind: Dict[str, Dict[str, int]] = {}
            for key, (_value, nbytes) in self._entries.items():
                k = by_kind.setdefault(
                    self._kinds.get(key, "?"), {"entries": 0, "bytes": 0}
                )
                k["entries"] += 1
                k["bytes"] += nbytes
            memory = {
                "entries": len(self._entries),
                "bytes": self._bytes,
                "max_bytes": self.max_bytes,
                "by_kind": {k: by_kind[k] for k in sorted(by_kind)},
            }
        return {
            "enabled": self.enabled,
            "memory": memory,
            "disk": self.disk_stats(),
            "stats": self.stats.as_dict(),
        }

    # -- internals ------------------------------------------------------

    def _put(self, kind: str, key: str, value: Any, write_disk: bool) -> None:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        nbytes = len(blob)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            if nbytes <= self.max_bytes:
                self._entries[key] = (value, nbytes)
                self._kinds[key] = kind
                self._bytes += nbytes
                self._evict_locked()
            self._metric_gauges()
        if write_disk:
            self._disk_write(kind, key, blob)

    def _evict_locked(self) -> None:
        """Drop LRU entries until the byte budget holds (lock held)."""
        evicted = 0
        while self._bytes > self.max_bytes and self._entries:
            _key, (_value, nbytes) = self._entries.popitem(last=False)
            self._kinds.pop(_key, None)
            self._bytes -= nbytes
            evicted += 1
        if evicted:
            self.stats.evictions += evicted
            _registry().counter(
                "repro_cache_evictions_total",
                "Entries evicted from the in-memory tier by the byte budget",
            ).inc(evicted)

    def _disk_path(self, kind: str, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        return self.disk_dir / kind / f"{key}.pkl"

    def _disk_write(self, kind: str, key: str, blob: bytes) -> None:
        path = self._disk_path(kind, key)
        if path is None:
            return
        # Temp name unique per writer (pid + uuid, O_EXCL) so concurrent
        # processes storing the same key never share a partially written
        # temp file; whoever renames last wins, and both entries hold the
        # same content-addressed bytes anyway.
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        )
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(str(tmp), os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:  # pragma: no cover - disk tier is best-effort
            pass

    def _disk_load(self, kind: str, key: str) -> Any:
        path = self._disk_path(kind, key)
        if path is None or not path.exists():
            return _MISSING
        # Chaos hook: cache_corrupt overwrites the entry on disk so the
        # *real* recovery path below handles the garbage.
        maybe_inject("cache", kind=kind, path=str(path))
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            # Corrupt or stale entry: drop it and treat as a miss.
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass
            return _MISSING


class _Missing:
    """Sentinel distinguishing 'no entry' from a cached ``None``."""

    __slots__ = ()


_MISSING = _Missing()


# ----------------------------------------------------------------------
# the process-wide default cache
# ----------------------------------------------------------------------

_DEFAULT: Optional[SolverCache] = None
_DEFAULT_LOCK = threading.Lock()


def get_cache() -> SolverCache:
    """The process-wide cache every instrumented build path consults."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = SolverCache()
        return _DEFAULT


def configure_cache(
    max_bytes: Optional[int] = None,
    disk_dir: Optional[str] = None,
    enabled: Optional[bool] = None,
) -> SolverCache:
    """Replace the process-wide cache with a freshly configured one."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = SolverCache(max_bytes=max_bytes, disk_dir=disk_dir, enabled=enabled)
        return _DEFAULT


def reset_cache() -> None:
    """Drop the process-wide cache instance (tests only)."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        _DEFAULT = None
