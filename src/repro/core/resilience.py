"""Fault tolerance for the engine's ensemble fan-out.

Theorem 1's guarantee is an *expectation over a distribution* of
decomposition trees, so an ensemble run stays statistically meaningful
even when individual members are lost — but before this module existed,
one crashed pool worker aborted the whole ``run_pipeline`` with a raw
``BrokenProcessPool`` and a stuck member solve had no deadline.  This
module gives the fan-out a production failure model:

* **Retries** — :class:`RetryPolicy` re-runs failed members up to
  ``max_attempts`` times on a deterministic (jitterless) exponential
  backoff schedule.  A ``BrokenProcessPool`` triggers a forced pool
  teardown/rebuild (:func:`repro.core.pool.restart_pool`, counted by
  ``repro_pool_restarts_total``); failed members then re-run in the
  fresh pool, and the final attempt runs *serially in-process* so a
  systematically broken pool cannot exhaust the budget on its own.
* **Deadlines** — ``member_timeout_s`` bounds each submission wave.
  Members are submitted as individual futures (no bare
  ``executor.map``); futures still running when the deadline expires
  are cancelled, the hung workers are terminated via a pool restart,
  and the members are retried or recorded as ``timeout`` failures.
* **Graceful degradation** — with ``allow_partial=True`` a run whose
  surviving ensemble still has at least ``min_members`` outcomes
  completes on the survivors; the run report carries ``degraded=True``
  plus one :class:`repro.core.telemetry.MemberFailure` per lost member.
  Otherwise :class:`repro.errors.DegradedRunError` is raised, carrying
  the partial outcomes.

Determinism: retries re-run :func:`repro.core.engine.solve_member` on
bit-identical inputs, so a recovered run produces exactly the costs and
placements of an undisturbed one — asserted by the chaos tests in
``tests/resilience/``.
"""

from __future__ import annotations

import concurrent.futures as cf
import hashlib
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import DegradedRunError, InvalidInputError
from repro.core.telemetry import MemberFailure
from repro.obs.metrics import get_registry
from repro.testing.faults import maybe_inject

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import MemberOutcome, RunContext

__all__ = ["RetryPolicy", "ResilienceConfig", "run_members"]


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic retry schedule for failed ensemble members.

    Attributes
    ----------
    max_attempts:
        Total attempts per member, the first included (1 = no retries,
        the pre-resilience behaviour).
    base_delay:
        Seconds slept before the second attempt; each further attempt
        doubles it (``base_delay * 2**(attempt - 2)``).  Jitterless on
        purpose — recovery timing stays reproducible, and the members
        of one run back off together rather than competing.
    """

    max_attempts: int = 1
    base_delay: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise InvalidInputError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay < 0:
            raise InvalidInputError(
                f"base_delay must be >= 0, got {self.base_delay}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before ``attempt`` (1-based; the first attempt waits 0)."""
        if attempt <= 1:
            return 0.0
        return self.base_delay * (2.0 ** (attempt - 2))


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance knobs (the ``resilience`` block of ``SolverConfig``).

    The defaults are deliberately "off": one attempt, no deadline, no
    partial completion — bit-compatible with the pre-resilience engine
    on every successful run, and the failure path only changes in that
    exhausted runs raise :class:`repro.errors.DegradedRunError` (a
    ``SolverError``) carrying structured failure records.

    Attributes
    ----------
    retry:
        Per-member retry schedule (:class:`RetryPolicy`).
    member_timeout_s:
        Wall-clock budget for each pool submission wave; members still
        running when it expires are cancelled, their workers terminated,
        and the members retried (``None`` = no deadline).  Serial
        (in-process) attempts cannot be preempted and ignore it.
    allow_partial:
        Complete the run on the surviving ensemble when members fail
        terminally, instead of raising.
    min_members:
        Minimum surviving outcomes a partial run needs (< this raises
        :class:`repro.errors.DegradedRunError` even with
        ``allow_partial=True``).
    total_deadline_s:
        Wall-clock budget for the *whole* fan-out, retries and backoff
        included (``None`` = unbounded).  Without it every retry wave
        gets a fresh ``member_timeout_s``, so a systematically hung
        member consumes ``max_attempts x member_timeout_s`` — far past
        any SLO the caller promised.  With it, each wave's deadline is
        clamped to the remaining budget (the final attempt is
        *truncated*, never skipped, as long as any budget remains),
        backoff sleeps never overrun it, and members still pending when
        it expires are recorded as ``timeout`` failures.  This is the
        knob ``repro.serve`` uses to compose per-request SLO deadlines
        with the retry policy.  Serial (in-process) attempts cannot be
        preempted: an expired budget prevents them from *starting*, but
        one already running completes.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    member_timeout_s: Optional[float] = None
    allow_partial: bool = False
    min_members: int = 1
    total_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.member_timeout_s is not None and self.member_timeout_s <= 0:
            raise InvalidInputError(
                f"member_timeout_s must be > 0, got {self.member_timeout_s}"
            )
        if self.min_members < 1:
            raise InvalidInputError(
                f"min_members must be >= 1, got {self.min_members}"
            )
        if self.total_deadline_s is not None and self.total_deadline_s <= 0:
            raise InvalidInputError(
                f"total_deadline_s must be > 0, got {self.total_deadline_s}"
            )


# ----------------------------------------------------------------------
# the fan-out runner
# ----------------------------------------------------------------------


def _digest_traceback(exc: BaseException) -> str:
    """Short stable digest of an exception's traceback text."""
    text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _failure(index: int, kind: str, attempts: int, exc: BaseException) -> MemberFailure:
    return MemberFailure(
        index=index,
        kind=kind,
        attempts=attempts,
        message=f"{type(exc).__name__}: {exc}"[:300],
        traceback_digest=_digest_traceback(exc),
    )


def _pool_attempt(
    ctx: "RunContext",
    worker_pool,
    members: List[int],
    base: int,
    attempt: int,
    timeout_s: Optional[float],
) -> Tuple[Dict[int, "MemberOutcome"], Dict[int, Tuple[str, BaseException]], int]:
    """Run one submission wave on the persistent pool.

    Returns ``(solved, failed, restarts)`` where ``failed`` maps member
    position to ``(kind, exception)`` for this wave only.  The pool is
    force-restarted (workers terminated, executor rebuilt) when a crash
    broke it or the wave deadline expired with futures still running.
    """
    assert ctx.trees is not None
    executor = worker_pool.get_pool(min(ctx.config.n_jobs, len(ctx.trees)))
    ref = ctx.generation(worker_pool)
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    solved: Dict[int, "MemberOutcome"] = {}
    failed: Dict[int, Tuple[str, BaseException]] = {}
    crashed = False
    hung = False
    futures: Dict[cf.Future, int] = {}
    for m in members:
        try:
            futures[
                executor.submit(worker_pool.member_job, (ref, m, base + m, attempt))
            ] = m
        except BrokenProcessPool as exc:
            # A worker grabbed an earlier submission from this very wave
            # and died before the loop finished (the fault can fire at
            # member_job entry, microseconds after submit), poisoning the
            # executor mid-loop.  Record the unsubmitted members as crash
            # failures so the wave restarts the pool and retries, instead
            # of the raw BrokenProcessPool escaping run_pipeline.
            failed[m] = ("crash", exc)
            crashed = True
    waiting = set(futures)
    while waiting:
        budget = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        done, waiting = cf.wait(waiting, timeout=budget)
        for fut in done:
            m = futures[fut]
            try:
                solved[m] = fut.result()
            except BrokenProcessPool as exc:
                failed[m] = ("crash", exc)
                crashed = True
            except cf.CancelledError as exc:
                failed[m] = ("timeout", exc)
            except Exception as exc:
                failed[m] = ("error", exc)
        if waiting and deadline is not None and time.monotonic() >= deadline:
            for fut in waiting:
                fut.cancel()
                m = futures[fut]
                failed[m] = (
                    "timeout",
                    TimeoutError(
                        f"member {m} exceeded member_timeout_s={timeout_s:g}"
                    ),
                )
            hung = True
            break
    restarts = 0
    if crashed or hung:
        # The executor is either broken (crash poisons it) or hosts hung
        # workers that cancel() cannot reach; terminate and rebuild so
        # the next wave — and any later run — gets a healthy pool.
        worker_pool.restart_pool()
        restarts = 1
    return solved, failed, restarts


def _serial_attempt(
    ctx: "RunContext",
    members: List[int],
    base: int,
    attempt: int,
    catch: bool,
) -> Tuple[Dict[int, "MemberOutcome"], Dict[int, Tuple[str, BaseException]]]:
    """Run members in-process (the serial path and the last-resort attempt).

    With ``catch=False`` (single-attempt policy, no partial completion)
    exceptions propagate raw, preserving the pre-resilience serial
    behaviour exactly.
    """
    from repro.core.engine import solve_member

    solved: Dict[int, "MemberOutcome"] = {}
    failed: Dict[int, Tuple[str, BaseException]] = {}
    for m in members:
        try:
            maybe_inject("member", member=m, attempt=attempt, in_worker=False)
            solved[m] = solve_member(
                ctx.trees[m],
                ctx.hierarchy,
                ctx.demands,
                ctx.config,
                ctx.grid,
                index=base + m,
                run_id=ctx.run_id,
                attempt=attempt,
            )
        except Exception as exc:
            if not catch:
                raise
            failed[m] = ("error", exc)
    return solved, failed


def run_members(
    ctx: "RunContext", base: int
) -> Tuple[List["MemberOutcome"], List[MemberFailure], int]:
    """Solve every ensemble member under the run's resilience policy.

    Returns ``(outcomes, failures, pool_restarts)`` with outcomes in
    ensemble order (survivors only).  Raises
    :class:`repro.errors.DegradedRunError` when members failed terminally
    and the policy does not allow completing on the survivors.
    """
    assert ctx.trees is not None and ctx.grid is not None
    n = len(ctx.trees)
    res = ctx.config.resilience
    policy = res.retry
    parallel = ctx.config.n_jobs > 1 and n > 1
    reg = get_registry()

    outcomes: Dict[int, "MemberOutcome"] = {}
    last_error: Dict[int, Tuple[str, BaseException]] = {}
    attempts_used: Dict[int, int] = {}
    pending: List[int] = list(range(n))
    restarts = 0
    # The fan-out's overall wall-clock budget.  Every wave deadline and
    # backoff sleep below is clamped to what remains of it, so retries
    # can never stack fresh member_timeout_s grants past the total.
    overall = (
        None
        if res.total_deadline_s is None
        else time.monotonic() + res.total_deadline_s
    )
    try:
        for attempt in range(1, policy.max_attempts + 1):
            if not pending:
                break
            if overall is not None and time.monotonic() >= overall:
                # Budget exhausted before this attempt could start: the
                # members still pending become terminal timeout failures.
                for m in pending:
                    last_error[m] = (
                        "timeout",
                        TimeoutError(
                            f"total_deadline_s={res.total_deadline_s:g} "
                            f"exhausted before attempt {attempt}"
                        ),
                    )
                break
            if attempt > 1:
                reg.counter(
                    "repro_member_retries_total",
                    "Ensemble-member re-runs scheduled by the retry policy",
                ).inc(len(pending))
                delay = policy.delay(attempt)
                if overall is not None:
                    remaining = overall - time.monotonic()
                    if delay >= remaining:
                        # The backoff alone would exhaust the budget:
                        # sleeping it away just to skip the attempt at
                        # the expiry check wastes the caller's wall
                        # time.  Fail the pending members now instead.
                        for m in pending:
                            last_error[m] = (
                                "timeout",
                                TimeoutError(
                                    f"total_deadline_s="
                                    f"{res.total_deadline_s:g} exhausted "
                                    f"by backoff before attempt {attempt}"
                                ),
                            )
                        break
                if delay > 0:
                    time.sleep(delay)
                ctx.logger.info(
                    "member_retry",
                    attempt=attempt,
                    members=list(pending),
                    delay_s=delay,
                )
            for m in pending:
                attempts_used[m] = attempt
            # The last attempt of a multi-attempt policy runs serially
            # in-process: if the pool itself is the problem (systematic
            # crash/hang), retrying through it would burn the whole
            # budget on the same failure.
            serial_fallback = policy.max_attempts > 1 and attempt == policy.max_attempts
            if parallel and not serial_fallback:
                from repro.core import pool as worker_pool

                timeout_s = res.member_timeout_s
                if overall is not None:
                    remaining = max(0.001, overall - time.monotonic())
                    timeout_s = (
                        remaining
                        if timeout_s is None
                        else min(timeout_s, remaining)
                    )
                solved, failed, wave_restarts = _pool_attempt(
                    ctx, worker_pool, pending, base, attempt, timeout_s
                )
                restarts += wave_restarts
            else:
                # catch=False only on a bare policy (single attempt, no
                # degradation): serial errors then propagate raw, exactly
                # as the pre-resilience engine behaved.
                catch = policy.max_attempts > 1 or res.allow_partial
                solved, failed = _serial_attempt(
                    ctx, pending, base, attempt, catch
                )
            outcomes.update(solved)
            last_error.update(failed)
            pending = sorted(failed)
    finally:
        ctx.release_generation()

    failures: List[MemberFailure] = []
    for m in pending:
        kind, exc = last_error[m]
        # attempts_used is missing only when the total deadline expired
        # before the member's first attempt could start.
        failures.append(_failure(base + m, kind, attempts_used.get(m, 0), exc))
        reg.counter(
            "repro_member_failures_total",
            "Ensemble members lost past their retry budget, by failure kind",
            labelnames=("kind",),
        ).inc(kind=kind)
        ctx.logger.info(
            "member_failed",
            member=m,
            kind=kind,
            attempts=attempts_used.get(m, 0),
            error=str(exc)[:200],
        )
    ordered = [outcomes[m] for m in sorted(outcomes)]
    if failures and not (res.allow_partial and len(ordered) >= res.min_members):
        lost = ", ".join(
            f"member {f.index} ({f.kind} after {f.attempts} attempts)"
            for f in failures
        )
        raise DegradedRunError(
            f"{len(failures)}/{n} ensemble members failed terminally and the "
            f"resilience policy forbids a partial run "
            f"(allow_partial={res.allow_partial}, min_members={res.min_members}, "
            f"survivors={len(ordered)}): {lost}",
            outcomes=ordered,
            failures=failures,
        )
    return ordered, failures, restarts
