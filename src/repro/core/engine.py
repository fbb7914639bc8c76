"""The solver engine behind every solve path: :func:`run_pipeline`.

Theorem 1 is one sequence, and :func:`run_pipeline` runs it in order on
one :class:`repro.core.telemetry.Telemetry` collector, one span per
step:

``trees``
    Build the Räcke-style decomposition-tree ensemble (cached by graph
    digest, ensemble parameters and seed).
``quantize``
    Build the Hochbaum–Shmoys demand grid.
``dp`` / ``repair``
    Per member (:func:`solve_member`): binarize the tree and run the
    RHGPT signature DP with beam escalation
    (:meth:`DPStage.run_member`), then repack the relaxed solution into
    a valid placement and measure its true Eq. (1) cost
    (:meth:`RepairStage.run_member`).
``refine``
    Hierarchy-aware local search on Theorem 7's argmin member (entered
    even when refinement is disabled, so every run report carries the
    full five-span skeleton).

:func:`solve_member` times its own phases into the member's
:class:`MemberRecord` (``dp_seconds`` / ``repair_seconds``) and returns
a picklable :class:`MemberOutcome`.  The process-pool path ships those
outcomes back from the workers, and :func:`fold_members` folds the
record seconds into the parent's ``dp``/``repair`` spans — parallel runs
report the same non-empty breakdown as serial ones, and spans stay the
one timing model.

Everything that solves an HGP instance — batch
:func:`repro.core.solver.solve_hgp`, streaming re-optimisation, the
multilevel front-end, the portfolio racer, the k-BGP reduction and
guided iteration — goes through :func:`run_pipeline` and returns an
:class:`EngineResult`.  The function that created a call's collector
owns the run: it alone persists the report (:func:`persist_report`),
so one top-level call leaves one report covering all of its members.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

import repro.kernels as kernels
from repro.cache import get_cache
from repro.errors import InfeasibleError, InvalidInputError, SolverError
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.hierarchy.placement import Placement
from repro.decomposition.racke import ensemble_cache_parts, racke_ensemble
from repro.decomposition.tree import DecompositionTree, vertex_content_digests
from repro.hgpt.binarize import binarize
from repro.hgpt.dp import DPStats, SubtreeMemo, solve_rhgpt
from repro.hgpt.quantize import DemandGrid
from repro.hgpt.repair import repair_to_placement
from repro.core.config import SolverConfig
from repro.core.telemetry import (
    MemberFailure,
    MemberRecord,
    RunReport,
    Telemetry,
    mark_active,
)
from repro.obs.logging import NULL_LOGGER, StructuredLogger, new_run_id
from repro.obs.metrics import (
    DEFAULT_BYTE_BUCKETS,
    DEFAULT_SIZE_BUCKETS,
    get_registry,
)

__all__ = [
    "STAGE_NAMES",
    "RunContext",
    "MemberOutcome",
    "EngineResult",
    "DPStage",
    "RepairStage",
    "solve_member",
    "publish_member_metrics",
    "fold_members",
    "persist_report",
    "run_pipeline",
    "validate_instance",
    "incremental_enabled",
]

#: Canonical stage-span names, in pipeline order.  Every engine run emits
#: all five (asserted by the telemetry tests).
STAGE_NAMES = ("trees", "quantize", "dp", "repair", "refine")


def incremental_enabled(config: SolverConfig) -> bool:
    """Whether this run's DP solves use the subtree-table memo.

    Set by ``config.incremental.enabled`` (``repro solve
    --no-incremental`` turns it off).  The memo additionally requires
    the solver cache itself to be on — the ``subtree_tables`` tier lives
    inside it.
    """
    return config.incremental.enabled and config.cache.enabled


# ----------------------------------------------------------------------
# instance validation + grid construction (shared with repro.core.solver)
# ----------------------------------------------------------------------


def validate_instance(
    g: Graph, hierarchy: Hierarchy, demands: np.ndarray
) -> None:
    """Validate an HGP instance; raise on shape/feasibility violations."""
    if demands.shape != (g.n,):
        raise InvalidInputError(
            f"demands must have shape ({g.n},), got {demands.shape}"
        )
    if g.n == 0:
        raise InvalidInputError("empty graph")
    if demands.min() <= 0 or not np.all(np.isfinite(demands)):
        raise InvalidInputError("demands must be finite and > 0")
    if demands.max() > hierarchy.leaf_capacity * (1 + 1e-9):
        v = int(np.argmax(demands))
        raise InfeasibleError(
            f"vertex {v} demand {demands[v]:.4g} exceeds leaf capacity "
            f"{hierarchy.leaf_capacity:.4g}"
        )
    if demands.sum() > hierarchy.total_capacity * (1 + 1e-9):
        raise InfeasibleError(
            f"total demand {demands.sum():.4g} exceeds total capacity "
            f"{hierarchy.total_capacity:.4g}"
        )


def make_grid(
    hierarchy: Hierarchy, demands: np.ndarray, config: SolverConfig
) -> DemandGrid:
    """Build the demand grid selected by ``config.grid_mode``."""
    n = demands.size
    if config.grid_mode == "epsilon":
        return DemandGrid.from_epsilon(hierarchy, n, config.epsilon)
    if config.grid_mode == "budget":
        budget = max(int(config.grid_budget), n)  # type: ignore[arg-type]
        return DemandGrid.from_budget(hierarchy, demands, budget, slack=config.slack)
    # "auto": ~4 grid cells per vertex, floor of 64 total.
    budget = max(64, 4 * n)
    return DemandGrid.from_budget(hierarchy, demands, budget, slack=config.slack)


# ----------------------------------------------------------------------
# run context + member outcome
# ----------------------------------------------------------------------


@dataclass
class RunContext:
    """What one :func:`run_pipeline` call hands the member fan-out.

    Attributes
    ----------
    graph, hierarchy, demands:
        The HGP instance (demands already validated, float64).
    config:
        Pipeline knobs.
    telemetry:
        The run's structured collector.
    grid:
        Demand grid (filled by the ``quantize`` step).
    trees:
        Decomposition-tree ensemble (filled by the ``trees`` step).
    run_id:
        Correlation id stamped on every log record this run emits
        (including records produced inside pool workers) and on the run
        report's ``meta``; auto-generated when not supplied.
    logger:
        Structured logger the run emits through (``NULL_LOGGER`` =
        silent; the CLI attaches sinks via ``--verbose``/``--log-json``).
    """

    graph: Graph
    hierarchy: Hierarchy
    demands: np.ndarray
    config: SolverConfig
    telemetry: Telemetry
    grid: Optional[DemandGrid] = None
    trees: Optional[List[DecompositionTree]] = None
    run_id: Optional[str] = None
    logger: StructuredLogger = NULL_LOGGER
    _gen_ref: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.run_id is None:
            self.run_id = new_run_id()
        if self.logger.run_id != self.run_id:
            self.logger = self.logger.bind(run_id=self.run_id)

    def generation(self, worker_pool):
        """This run's spooled generation payload, published lazily once.

        Retry waves reuse the same spool file — the inputs are immutable
        for the duration of the run, and a pool rebuilt after a crash can
        still read it.  Balanced by :meth:`release_generation`.
        """
        if self._gen_ref is None:
            self._gen_ref = worker_pool.publish_generation(
                {
                    "trees": self.trees,
                    "hierarchy": self.hierarchy,
                    "demands": self.demands,
                    "config": self.config,
                    "grid": self.grid,
                    "run_id": self.run_id,
                }
            )
        return self._gen_ref

    def release_generation(self) -> None:
        """Release the published generation payload, if any (idempotent)."""
        if self._gen_ref is not None:
            from repro.core import pool as worker_pool

            worker_pool.release_generation(self._gen_ref)
            self._gen_ref = None


@dataclass
class MemberOutcome:
    """One ensemble member's full result (picklable; workers return it).

    Attributes
    ----------
    index:
        Member index within the run's telemetry (continues across
        portfolio members / guided rounds sharing one collector).
    placement:
        The repaired placement for this member's tree.
    dp_cost:
        Tree-side DP cost (upper-bounds ``mapped_cost``, Proposition 1).
    mapped_cost:
        True Eq. (1) cost of ``placement``.
    record:
        Telemetry member record: DP counters plus the ``dp`` / ``repair``
        seconds measured where the member actually ran — in-process or
        in a pool worker.
    log_records:
        Structured log records emitted where the member ran; pool
        workers ship them back here and the parent replays them through
        its logger, so correlation ids survive the process hop.
    """

    index: int
    placement: Placement
    dp_cost: float
    mapped_cost: float
    record: MemberRecord
    log_records: List[dict] = field(default_factory=list)


# ----------------------------------------------------------------------
# per-member DP and repair
# ----------------------------------------------------------------------


class DPStage:
    """Per-member signature DP with beam escalation (span ``dp``)."""

    @staticmethod
    def run_member(
        tree: DecompositionTree,
        hierarchy: Hierarchy,
        demands: np.ndarray,
        config: SolverConfig,
        grid: DemandGrid,
        stats: Optional[DPStats] = None,
    ):
        """Binarize one tree and solve the RHGPT DP on it.

        Beam pruning is a heuristic: on tight instances it can discard
        every state an ancestor's capacity check needs.  Escalate (4x,
        then exact) before giving up — the exact DP is always complete
        once the grid admitted the instance.

        Returns ``(solution, escalations)`` where ``escalations`` counts
        how many beam widenings were needed before success.

        When the run is incremental (:func:`incremental_enabled`), each
        attempt carries a :class:`repro.hgpt.dp.SubtreeMemo` so clean
        subtrees load their DP tables from the ``subtree_tables`` cache
        tier and only the dirty spine is recomputed.  The memo changes
        *when* tables are built, never their contents, so solutions stay
        bit-identical to the cold path.
        """
        q = grid.quantize(demands)
        bt = binarize(tree, q)
        caps = [grid.caps[j] for j in range(1, hierarchy.h + 1)]
        norm_h, _offset = hierarchy.normalized()
        deltas = [0.0] + [
            norm_h.cm[k - 1] - norm_h.cm[k] for k in range(1, hierarchy.h + 1)
        ]
        digests: Optional[List[bytes]] = None
        if incremental_enabled(config):
            digests = bt.subtree_digests(vertex_content_digests(tree.graph))
        beams: List[Optional[int]] = [config.beam_width]
        if config.beam_width is not None:
            beams.extend([config.beam_width * 4, None])
        last_error: Optional[SolverError] = None
        for escalations, beam in enumerate(beams):
            memo = None
            if digests is not None:
                # One memo per attempt: the beam width is part of the
                # instance token (escalated attempts see different
                # tables).  The hierarchy digest pins degrees/cm/leaf
                # capacity beyond what caps/deltas already encode.
                memo = SubtreeMemo(
                    digests,
                    caps,
                    deltas,
                    beam,
                    dp_config=config.dp,
                    extra_parts=(hierarchy.digest(),),
                )
            try:
                solution = solve_rhgpt(
                    bt,
                    caps,
                    deltas,
                    beam_width=beam,
                    stats=stats,
                    dp_config=config.dp,
                    memo=memo,
                )
                return solution, escalations
            except SolverError as exc:
                last_error = exc
        assert last_error is not None
        raise last_error


class RepairStage:
    """Per-member Theorem-5 repair into a valid placement (span ``repair``)."""

    @staticmethod
    def run_member(
        tree: DecompositionTree,
        hierarchy: Hierarchy,
        demands: np.ndarray,
        solution,
        grid: DemandGrid,
    ) -> Placement:
        """Repack one relaxed tree solution into a hierarchy placement."""
        placement, _report = repair_to_placement(
            tree.graph, hierarchy, demands, solution, grid
        )
        return placement


def solve_member(
    tree: DecompositionTree,
    hierarchy: Hierarchy,
    demands: np.ndarray,
    config: SolverConfig,
    grid: DemandGrid,
    index: int = 0,
    stats: Optional[DPStats] = None,
    run_id: Optional[str] = None,
    attempt: int = 1,
) -> MemberOutcome:
    """Solve HGP on one decomposition tree: DP + repair, self-timed.

    This is the unit of work the engine fans out — in-process for
    ``n_jobs == 1``, in pool workers otherwise.  The returned
    :class:`MemberOutcome` is picklable; its record carries the phase
    seconds and its log records are stamped with ``run_id`` and the
    worker's pid, so the parent can fold worker timings into its spans
    and replay worker logs under the run's correlation id.  ``attempt``
    is which resilience-layer attempt this solve is (stamped into the
    member record as ``attempts``); the solve itself is
    attempt-independent, so retried members produce bit-identical
    placements and costs.
    """
    own_stats = DPStats()
    # mark_active gives the sampling profiler span attribution for these
    # phases; the seconds travel home on the (picklable) record.
    with mark_active("dp"):
        t0 = time.perf_counter()
        solution, escalations = DPStage.run_member(
            tree, hierarchy, demands, config, grid, stats=own_stats
        )
        t1 = time.perf_counter()
    with mark_active("repair"):
        placement = RepairStage.run_member(
            tree, hierarchy, demands, solution, grid
        )
        mapped = placement.cost()
        t2 = time.perf_counter()
    if stats is not None:
        stats.update(own_stats)
    record = MemberRecord(
        index=index,
        method=getattr(tree, "method", None),
        dp_cost=float(solution.cost),
        mapped_cost=float(mapped),
        dp_seconds=t1 - t0,
        repair_seconds=t2 - t1,
        beam_escalations=escalations,
        attempts=attempt,
        dp_nodes=own_stats.nodes,
        dp_states_total=own_stats.states_total,
        dp_states_max=own_stats.states_max,
        dp_merges=own_stats.merges,
        dp_tiles=own_stats.tiles,
        dp_bound_pruned=own_stats.bound_pruned,
        dp_table_peak_bytes=own_stats.table_peak_bytes,
        dp_memo_hits=own_stats.memo_hits,
        dp_memo_misses=own_stats.memo_misses,
    )
    log_records: List[dict] = []
    if run_id is not None:
        log_records.append(
            {
                "ts": time.time(),
                "level": "debug",
                "event": "member_solved",
                "run_id": run_id,
                "pid": os.getpid(),
                "member": index,
                "method": record.method,
                "dp_cost": record.dp_cost,
                "mapped_cost": record.mapped_cost,
                "dp_seconds": record.dp_seconds,
                "repair_seconds": record.repair_seconds,
                "beam_escalations": escalations,
            }
        )
    return MemberOutcome(
        index=index,
        placement=placement,
        dp_cost=float(solution.cost),
        mapped_cost=float(mapped),
        record=record,
        log_records=log_records,
    )


def publish_member_metrics(records: Sequence[MemberRecord]) -> None:
    """Publish solved members' DP and subtree-memo metrics from their records.

    The :class:`MemberRecord` is the one carrier of a member's DP facts
    across the process boundary, so whichever process receives the
    records publishes them — :func:`fold_members` after each fan-out
    (every :func:`run_pipeline`, every guided round) and
    :func:`repro.core.solver.solve_hgpt` per call.
    Every path (serial, pool, retried, serial fallback) returns exactly
    one record per solved member, so totals do not depend on ``n_jobs``.
    The counters sum each record's :class:`repro.hgpt.dp.DPStats` totals
    (accumulated across beam escalations); ``repro_dp_seconds`` observes
    the member's whole DP phase, the same measurement as the ``dp`` span.
    """
    metrics = get_registry()
    metrics.counter(
        "repro_dp_solves_total", "Completed signature-DP solves"
    ).inc(len(records))
    for family, field_name in (
        (
            metrics.counter(
                "repro_dp_nodes_total", "Binary-tree nodes processed by the DP"
            ),
            "dp_nodes",
        ),
        (
            metrics.counter(
                "repro_dp_states_total", "DP states created across all nodes"
            ),
            "dp_states_total",
        ),
        (
            metrics.counter(
                "repro_dp_merges_total", "Pairwise signature merges evaluated"
            ),
            "dp_merges",
        ),
        (
            metrics.counter(
                "repro_dp_tiles_total", "Merge tiles streamed by the DP kernel"
            ),
            "dp_tiles",
        ),
        (
            metrics.counter(
                "repro_dp_bound_pruned_total",
                "States dropped by incumbent-bound pruning",
            ),
            "dp_bound_pruned",
        ),
        (
            metrics.counter(
                "repro_incremental_subtree_hits_total",
                "Subtree DP tables served from the subtree_tables memo",
            ),
            "dp_memo_hits",
        ),
        (
            metrics.counter(
                "repro_incremental_subtree_misses_total",
                "Subtree DP tables rebuilt and stored by the memo",
            ),
            "dp_memo_misses",
        ),
        (
            metrics.counter(
                "repro_dp_beam_escalations_total",
                "Beam widenings needed before the DP found a feasible state",
            ),
            "beam_escalations",
        ),
    ):
        family.inc(sum(getattr(r, field_name) for r in records))
    states_max = metrics.histogram(
        "repro_dp_states_max",
        "Largest per-node state table of one DP solve",
        buckets=DEFAULT_SIZE_BUCKETS,
    )
    peak_bytes = metrics.histogram(
        "repro_dp_table_peak_bytes",
        "Peak live merge-table bytes of one DP solve",
        buckets=DEFAULT_BYTE_BUCKETS,
    )
    dp_seconds = metrics.histogram(
        "repro_dp_seconds", "Wall-clock seconds of one DP solve"
    )
    for r in records:
        states_max.observe(r.dp_states_max)
        peak_bytes.observe(r.dp_table_peak_bytes)
        dp_seconds.observe(r.dp_seconds)


def fold_members(
    telemetry: Telemetry,
    outcomes: Sequence[MemberOutcome],
    logger: StructuredLogger = NULL_LOGGER,
) -> None:
    """Fold solved members into a run: records, logs, spans, metrics.

    Appends each member's record, replays its log records (worker-side
    for the pool path) through ``logger``, adds the members' self-measured
    phase seconds to the current span's ``dp``/``repair`` children and
    publishes their metrics.
    """
    records = [o.record for o in outcomes]
    for outcome in outcomes:
        telemetry.record_member(outcome.record)
        if logger.enabled:
            for record in outcome.log_records:
                logger.emit(record)
    telemetry.add_seconds("dp", sum(r.dp_seconds for r in records), len(records))
    telemetry.add_seconds(
        "repair", sum(r.repair_seconds for r in records), len(records)
    )
    publish_member_metrics(records)


# ----------------------------------------------------------------------
# result + pipeline
# ----------------------------------------------------------------------


@dataclass
class EngineResult:
    """What one solve produced: placement, diagnostics, telemetry.

    The one result type of every solve entry point (:func:`run_pipeline`,
    :func:`repro.core.solver.solve_hgp`, the portfolio racer, guided
    iteration; the multilevel front-end returns a subclass).

    Attributes
    ----------
    placement:
        The best placement found (lowest true Eq. (1) cost); its
        capacity violation is at most ``(1 + ε)(1 + h)``.
    tree_costs, dp_costs:
        Mapped and DP (tree-side) cost of each ensemble member; the DP
        cost upper-bounds the mapped one (Proposition 1).
    grid:
        The demand grid used.
    telemetry:
        The run's span tree and member records — the one timing model
        (stage seconds are ``telemetry.root.lookup(name).seconds``).
    failures:
        Non-empty (and ``degraded`` True) only when the resilience
        policy allowed the run to complete on a partial ensemble; see
        :mod:`repro.core.resilience`.
    incremental:
        Resolved-mode stamp that :meth:`report` copies into its meta.
    """

    placement: Placement
    tree_costs: List[float]
    dp_costs: List[float]
    grid: DemandGrid
    telemetry: Telemetry
    config: SolverConfig
    run_id: Optional[str] = None
    failures: List[MemberFailure] = field(default_factory=list)
    incremental: Optional[bool] = None

    @property
    def degraded(self) -> bool:
        """Whether this run lost ensemble members past their retry budget."""
        return bool(self.failures)

    @property
    def cost(self) -> float:
        """True Eq. (1) cost of the winning placement."""
        return self.placement.cost()

    def report(self, **meta: object) -> RunReport:
        """Freeze the run into a JSON-serialisable :class:`RunReport`.

        The run's correlation id is stamped into ``meta["run_id"]`` so
        reports, traces and JSON-lines logs cross-reference, and the
        kernel backend bound at import (:data:`repro.kernels.BACKEND`)
        into ``meta["kernel_backend"]``.
        """
        if self.run_id is not None:
            meta.setdefault("run_id", self.run_id)
        meta.setdefault("kernel_backend", kernels.BACKEND)
        if self.incremental is not None:
            meta.setdefault("incremental", self.incremental)
        return self.telemetry.report(
            config=self.config.describe(), cost=self.cost, **meta
        )


def persist_report(result: EngineResult, **meta: object) -> None:
    """Write ``result``'s run report to ``$REPRO_RUN_REPORT_DIR``, when set.

    The report lands as ``<path>_<run_id>.json``.  Only the function
    that created a call's :class:`Telemetry` calls this, once, after the
    whole call — so a portfolio, guided iteration or multilevel solve
    leaves one report holding every member record of the call.  The
    benchmark harness sets the variable to keep a report per solve.
    """
    report_dir = os.environ.get("REPRO_RUN_REPORT_DIR")
    if not report_dir:
        return
    out = Path(report_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / f"{result.telemetry.path}_{result.run_id}.json"
    target.write_text(result.report(**meta).to_json() + "\n")


def run_pipeline(
    g: Graph,
    hierarchy: Hierarchy,
    demands: Sequence[float],
    config: SolverConfig = SolverConfig(),
    *,
    telemetry: Optional[Telemetry] = None,
    path: str = "batch",
    run_id: Optional[str] = None,
    logger: Optional[StructuredLogger] = None,
) -> EngineResult:
    """Run the Theorem-1 pipeline on one instance and return its result.

    trees → quantize → per member DP + repair → argmin → refine, each
    step under its span.  The ensemble members are independent; with
    ``config.n_jobs > 1`` their DP + repair work fans out to a process
    pool (:func:`repro.core.resilience.run_members`).  Results are
    identical to the serial path: each member solve is deterministic
    given its tree and grid, and members are compared in ensemble order
    either way.

    Parameters
    ----------
    g, hierarchy, demands:
        The instance (validated here).
    config:
        Pipeline knobs.
    telemetry:
        Collector of a caller that runs several pipelines as one call
        (portfolio, guided iteration, multilevel, streaming epochs).
        ``None`` = a new ``Telemetry(path)``, owned by this run.
    path:
        Root-span label for a new collector (``batch``, ``streaming``,
        ``serve``, …).
    run_id:
        Correlation id for this run's logs/report (``None`` = fresh id).
    logger:
        Structured logger for run events (``None`` = silent).

    Notes
    -----
    When this run created its collector and the ``REPRO_RUN_REPORT_DIR``
    environment variable is set, the run's JSON report is written there
    (:func:`persist_report`).  A caller that passes ``telemetry`` owns
    the run and persists it itself.
    """
    d = np.asarray(demands, dtype=np.float64)
    validate_instance(g, hierarchy, d)
    tel = telemetry if telemetry is not None else Telemetry(path)
    ctx = RunContext(
        graph=g,
        hierarchy=hierarchy,
        demands=d,
        config=config,
        telemetry=tel,
        run_id=run_id,
        logger=logger if logger is not None else NULL_LOGGER,
    )
    log = ctx.logger
    started = time.perf_counter()
    log.info(
        "run_start",
        path=tel.path,
        n=g.n,
        m=g.m,
        n_trees=config.n_trees,
        n_jobs=config.n_jobs,
        seed=config.seed,
    )

    # The Räcke step, through the content-addressed cache (kind "trees",
    # keyed by graph digest + ensemble params + seed): a warm run on an
    # unchanged instance skips tree construction, and the span's
    # cache_hits / cache_misses counters record which path ran.
    with tel.span("trees"):
        cache = get_cache() if config.cache.enabled else None
        parts = None
        if cache is not None:
            parts = ensemble_cache_parts(
                g, config.n_trees, config.tree_methods, config.seed
            )
        hit, trees = False, None
        if parts is not None:
            hit, trees = cache.lookup("trees", parts)
        if hit:
            tel.counter("cache_hits", 1)
            log.info("trees_cache_hit", n_trees=len(trees))
        else:
            trees = racke_ensemble(
                g,
                n_trees=config.n_trees,
                methods=config.tree_methods,
                seed=config.seed,
                use_cache=False,
            )
            if parts is not None:
                cache.store("trees", parts, list(trees))
                tel.counter("cache_misses", 1)
        ctx.trees = list(trees)
        tel.counter("n_trees", len(ctx.trees))

    with tel.span("quantize"):
        ctx.grid = make_grid(hierarchy, d, config)
        tel.counter("grid_cells", float(ctx.grid.quantize(d).sum()))

    # All fan-out — pool submission, per-member deadlines, retries,
    # crash recovery and graceful degradation — lives in the resilience
    # runner.  With the default (off) policy it reduces to the plain
    # pool/serial fan-out: one attempt, failures propagate.
    from repro.core.resilience import run_members

    outcomes, failures, _restarts = run_members(ctx, len(tel.members))
    fold_members(tel, outcomes, log)
    for failure in failures:
        tel.record_failure(failure)

    # Theorem 7's argmin: the first member with the lowest true cost.
    placement = min(outcomes, key=lambda o: o.mapped_cost).placement

    with tel.span("refine"):
        passes = config.refine_passes if config.refine else 0
        if passes > 0:
            from repro.baselines.local_search import refine_placement

            # Refinement may shuffle load but never worsen the balance
            # the repair achieved (and always stays within the Theorem-1
            # bound).
            placement = refine_placement(
                placement,
                max_passes=passes,
                max_violation=max(1.0, placement.max_violation()),
                allow_swaps=True,
            )
        tel.counter("passes", passes)
    placement = placement.with_meta(solver="hgp", config=config.describe())

    get_registry().counter(
        "repro_engine_runs_total",
        "Completed engine runs by solve path",
        labelnames=("path",),
    ).inc(path=tel.path)
    log.info(
        "run_done",
        path=tel.path,
        cost=placement.cost(),
        seconds=time.perf_counter() - started,
        members=len(outcomes),
        failed_members=len(failures),
        beam_escalations=sum(o.record.beam_escalations for o in outcomes),
    )
    result = EngineResult(
        placement=placement,
        tree_costs=[o.mapped_cost for o in outcomes],
        dp_costs=[o.dp_cost for o in outcomes],
        grid=ctx.grid,
        telemetry=tel,
        config=config,
        run_id=ctx.run_id,
        failures=list(failures),
        incremental=incremental_enabled(config),
    )
    if telemetry is None:
        persist_report(result)
    return result
