"""Persistent worker pool with per-generation shared payloads.

The old parallel path created a fresh ``ProcessPoolExecutor`` inside
every ``run_pipeline`` call and shipped the *same* hierarchy/demands/config/grid
in every member-job tuple — so an 8-member run pickled the shared
instance 8 times and paid full worker start-up on every solve.  This
module keeps one process pool alive for the lifetime of the process and
moves the shared state out of the job tuples:

* :func:`get_pool` returns the long-lived executor, growing it when a
  run asks for more workers than it currently has (a larger pool is
  reused as-is — each member's future is keyed by its position, so
  results are identical regardless of how many workers serve the jobs).
* :func:`publish_generation` pickles one *generation* — the dict of
  everything a run's member jobs share (trees, hierarchy, demands,
  config, grid) — to a spool file **once**.  Pickle's internal
  memoisation dedups the graph referenced by every tree, so the file is
  roughly the size of one instance, not ``n_trees`` of them.
* Job tuples shrink to ``(ref, member, index, attempt)``; :func:`member_job`
  loads the generation on the worker (memoised per ``gen_id``, so a
  worker unpickles a generation once however many of its members it
  solves) and runs :func:`repro.core.engine.solve_member` exactly as
  before.

The spool file lives for one run: the resilience layer submits each
member as its own future, retry waves reuse the file, and the parent
unlinks it once the fan-out is over.  Every run publishes a fresh
``gen_id``, so a memo hit is only possible within one run and each
worker keeps just its latest generation.

Determinism: none of this changes *what* runs — only how the inputs
travel.  ``solve_member`` receives bit-identical arguments either way.
"""

from __future__ import annotations

import atexit
import concurrent.futures as cf
import multiprocessing as mp
import os
import pickle
import tempfile
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.testing.faults import maybe_inject

__all__ = [
    "GenerationRef",
    "get_pool",
    "pool_info",
    "shutdown_pool",
    "restart_pool",
    "register_shutdown_hook",
    "unregister_shutdown_hook",
    "publish_generation",
    "release_generation",
    "live_generations",
    "member_job",
]


_LOCK = threading.RLock()
_POOL: Optional[cf.ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_POOL_CREATES = 0  # how many executors this process has ever built


def _update_live_workers() -> int:
    """Refresh the ``repro_pool_live_workers`` gauge (best effort).

    The executor spawns workers lazily, so this samples the *actual*
    process table (``_processes``) rather than the configured size —
    0 right after creation, the real count once jobs have run, and 0
    again after shutdown.  Callers hold ``_LOCK``.
    """
    procs = getattr(_POOL, "_processes", None) if _POOL is not None else None
    live = sum(1 for p in (procs or {}).values() if p.is_alive())
    get_registry().gauge(
        "repro_pool_live_workers",
        "Worker processes currently alive in the persistent pool",
    ).set(live)
    return live


@dataclass(frozen=True)
class GenerationRef:
    """Cheap, picklable handle to one published generation payload."""

    gen_id: str
    path: str
    nbytes: int


def _mp_context():
    """Fork where available (cheap workers, shared baked-in state)."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()  # pragma: no cover - non-fork platforms


def get_pool(workers: int) -> cf.ProcessPoolExecutor:
    """The persistent executor, with at least ``workers`` workers.

    A pool at least as large as requested is reused; a larger request
    replaces it (the old one is drained first).  The pool survives
    across ``run_pipeline`` calls and is torn down at interpreter exit.
    """
    global _POOL, _POOL_WORKERS, _POOL_CREATES
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with _LOCK:
        if _POOL is not None and _POOL_WORKERS >= workers:
            return _POOL
        if _POOL is not None:
            _POOL.shutdown(wait=True)
        _POOL = cf.ProcessPoolExecutor(
            max_workers=workers, mp_context=_mp_context()
        )
        _POOL_WORKERS = workers
        _POOL_CREATES += 1
        reg = get_registry()
        reg.counter(
            "repro_pool_creates_total", "Process-pool executors created"
        ).inc()
        reg.gauge("repro_pool_workers", "Workers in the persistent pool").set(
            _POOL_WORKERS
        )
        _update_live_workers()
        return _POOL


def pool_info() -> Dict[str, int]:
    """Introspection for tests / ``repro cache stats``: size + create count."""
    with _LOCK:
        return {
            "workers": _POOL_WORKERS,
            "creates": _POOL_CREATES,
            "alive": int(_POOL is not None),
            "live_workers": _update_live_workers(),
        }


def shutdown_pool() -> None:
    """Drain and drop the persistent pool (no-op when none exists)."""
    global _POOL, _POOL_WORKERS
    with _LOCK:
        if _POOL is not None:
            _POOL.shutdown(wait=True)
            _POOL = None
            _POOL_WORKERS = 0
            _update_live_workers()


def restart_pool() -> None:
    """Forcibly tear the pool down — killing its workers — and rebuild it.

    The resilience layer calls this when the pool is unusable: a worker
    crashed (``BrokenProcessPool`` poisons every in-flight future) or a
    member deadline expired with the worker still running (a hung worker
    cannot be cancelled, only terminated).  Unlike :func:`shutdown_pool`
    this never waits on the workers; it terminates them, drops the
    executor, and eagerly builds a replacement of the same size so the
    retry attempt that follows finds a healthy pool.  Counted by the
    ``repro_pool_restarts_total`` metric.
    """
    global _POOL, _POOL_WORKERS
    with _LOCK:
        if _POOL is None:
            return
        workers = _POOL_WORKERS
        for proc in list((getattr(_POOL, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - racing process death
                pass
        try:
            _POOL.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executors may throw
            pass
        _POOL = None
        _POOL_WORKERS = 0
        get_registry().counter(
            "repro_pool_restarts_total",
            "Forced pool teardown/rebuilds after a worker crash or deadline",
        ).inc()
        _update_live_workers()
    get_pool(workers)


#: Named callbacks run *before* the pool/spool teardown, newest first.
#: Long-lived front-ends that dispatch onto the pool — the
#: ``repro.serve`` loop — register here so interpreter exit tears the
#: stack down in dependency order: stop accepting requests, drain
#: in-flight solves, *then* shut the pool and sweep the spool files.
#: Without this ordering a serve dispatcher can submit to an executor
#: whose atexit shutdown already ran, or a worker can be mid-read on a
#: generation payload the sweep just unlinked.
_SHUTDOWN_HOOKS: "OrderedDict[str, Any]" = OrderedDict()


def register_shutdown_hook(name: str, hook) -> None:
    """Run ``hook()`` before the atexit pool shutdown and spool sweep.

    Re-registering a name replaces the previous hook.  Hooks run in
    LIFO order (newest first) and must be idempotent — a server that is
    drained explicitly and then again at exit must tolerate both.
    """
    with _LOCK:
        _SHUTDOWN_HOOKS.pop(name, None)
        _SHUTDOWN_HOOKS[name] = hook


def unregister_shutdown_hook(name: str) -> None:
    """Remove a registered hook (no-op when absent)."""
    with _LOCK:
        _SHUTDOWN_HOOKS.pop(name, None)


def _cleanup_at_exit() -> None:
    """Interpreter-exit sweep, in dependency order.

    Registered shutdown hooks (the serve loop) run first — they are
    the layers that still *submit* to the pool.  Then the pool goes
    down *before* the spool files: a worker mid-read on a generation
    payload while the parent unlinks it would either crash the worker
    or leave the unlink racing the worker's LRU cleanup.
    Interrupted runs (KeyboardInterrupt mid-fan-out) can leave published
    generations behind; whatever is still registered is released here,
    tolerating files that were already removed.
    """
    with _LOCK:
        hooks = list(_SHUTDOWN_HOOKS.items())
        _SHUTDOWN_HOOKS.clear()
    for _name, hook in reversed(hooks):
        try:
            hook()
        except Exception:  # pragma: no cover - exit path must never raise
            pass
    try:
        shutdown_pool()
    finally:
        for ref in list(_LIVE_GENS.values()):
            release_generation(ref)


atexit.register(_cleanup_at_exit)


# ----------------------------------------------------------------------
# generation payloads
# ----------------------------------------------------------------------

#: Published-but-unreleased generations (gen_id -> ref).  The atexit
#: sweep releases whatever an interrupted run left here, *after* the
#: pool is down — see :func:`_cleanup_at_exit`.
_LIVE_GENS: Dict[str, GenerationRef] = {}


def publish_generation(payload: Dict[str, Any]) -> GenerationRef:
    """Spool one generation's shared payload to disk, once.

    The payload dict is pickled to a private temp file; the returned
    :class:`GenerationRef` is what travels inside each (tiny) job tuple.
    Callers must :func:`release_generation` when the generation's jobs
    have completed; generations still live at interpreter exit are
    swept by the atexit cleanup (pool first, then spool files).
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    fd, path = tempfile.mkstemp(prefix="repro-gen-", suffix=".pkl")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
    except BaseException:
        try:
            os.unlink(path)
        except OSError:
            pass
        raise
    get_registry().counter(
        "repro_pool_generations_total",
        "Generation payloads published to the worker pool",
    ).inc()
    ref = GenerationRef(gen_id=uuid.uuid4().hex, path=path, nbytes=len(blob))
    with _LOCK:
        _LIVE_GENS[ref.gen_id] = ref
    return ref


def release_generation(ref: GenerationRef) -> None:
    """Delete a published generation's spool file (idempotent).

    Tolerates files that are already gone — a run interrupted between
    the atexit sweep and an outer ``finally`` may release twice.
    """
    with _LOCK:
        _LIVE_GENS.pop(ref.gen_id, None)
    try:
        os.unlink(ref.path)
    except OSError:
        pass


def live_generations() -> int:
    """How many published generations have not been released (tests)."""
    with _LOCK:
        return len(_LIVE_GENS)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

#: This worker's latest loaded generation (gen_id -> payload, at most
#: one entry: gen_ids are never reused across runs).
_GEN_CACHE: Dict[str, Dict[str, Any]] = {}


def _load_generation(ref: GenerationRef) -> Dict[str, Any]:
    payload = _GEN_CACHE.get(ref.gen_id)
    if payload is None:
        with open(ref.path, "rb") as fh:
            payload = pickle.load(fh)
        _GEN_CACHE.clear()
        _GEN_CACHE[ref.gen_id] = payload
    return payload


def member_job(args: Tuple[GenerationRef, int, int, int]):
    """Pool worker entry point: solve one ensemble member.

    ``args`` is ``(generation ref, member position, telemetry index,
    attempt)``.
    The shared inputs come from the generation payload, loaded at most
    once per worker per generation.  Both chaos sites (``spool`` before
    the payload load, ``member`` before the solve) are no-ops unless
    ``REPRO_FAULT_SPEC`` is set.
    """
    ref, member, index, attempt = args
    maybe_inject("spool", member=member, attempt=attempt, in_worker=True)
    payload = _load_generation(ref)
    maybe_inject("member", member=member, attempt=attempt, in_worker=True)
    from repro.core.engine import solve_member

    return solve_member(
        payload["trees"][member],
        payload["hierarchy"],
        payload["demands"],
        payload["config"],
        payload["grid"],
        index=index,
        attempt=attempt,
    )
