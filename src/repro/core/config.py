"""Solver configuration for the Theorem-1 pipeline.

All knobs in one frozen dataclass so experiments can sweep them and
record exactly what ran (the config is attached to every returned
placement's ``meta``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

from repro.cache import CacheConfig
from repro.core.resilience import ResilienceConfig
from repro.errors import InvalidInputError
from repro.hgpt.dp import DPConfig
from repro.obs.profile import ProfileConfig

__all__ = ["IncrementalConfig", "MultilevelConfig", "SolverConfig"]


@dataclass(frozen=True)
class IncrementalConfig:
    """Knobs of the incremental warm path (subtree DP memoization).

    Attributes
    ----------
    enabled:
        Let DP solves consult the ``subtree_tables`` cache tier: every
        internal binary-tree node's state table is content-addressed by
        its subtree digest, so a re-solve after a local graph delta
        rebuilds only the dirty spine.  Warm results are bit-identical
        to cold ones by construction (a hit returns exactly what the
        rebuild would produce).  ``repro solve --no-incremental`` turns
        it off for one run.  Streaming reoptimizes additionally skip the
        memo when most tasks are dirty
        (:data:`repro.streaming.online.MAX_DIRTY_FRAC`).
    """

    enabled: bool = True


@dataclass(frozen=True)
class MultilevelConfig:
    """Knobs of the coarsen–solve–refine front-end (:mod:`repro.multilevel`).

    Attributes
    ----------
    enabled:
        Route :func:`repro.core.solver.solve_hgp` through
        :func:`repro.multilevel.solve_multilevel` instead of handing the
        full graph to the engine.  Off by default — small instances
        solve exactly without coarsening.
    coarsen_to:
        Stop coarsening once the graph has at most this many
        supervertices.  The default keeps the coarsest instance inside
        the DP's comfortable regime (E4 sizes).
    refine_passes:
        Hierarchy-aware FM passes per uncoarsening level
        (:func:`repro.baselines.fm.fm_refine_hierarchy`); ``0`` projects
        the coarse placement without refinement.
    max_levels:
        Hard cap on coarsening levels (a stall backstop; heavy-edge
        matching roughly halves the graph per level, so 64 covers any
        practical instance).
    stall_ratio:
        Declare a stall (and stop coarsening) when one matching round
        shrinks the graph by less than this factor.
    match_rounds:
        Proposal rounds per heavy-edge-matching call.
    """

    enabled: bool = False
    coarsen_to: int = 160
    refine_passes: int = 2
    max_levels: int = 64
    stall_ratio: float = 0.98
    match_rounds: int = 8

    def __post_init__(self) -> None:
        if self.coarsen_to < 2:
            raise InvalidInputError(
                f"coarsen_to must be >= 2, got {self.coarsen_to}"
            )
        if self.refine_passes < 0:
            raise InvalidInputError(
                f"refine_passes must be >= 0, got {self.refine_passes}"
            )
        if self.max_levels < 1:
            raise InvalidInputError(
                f"max_levels must be >= 1, got {self.max_levels}"
            )
        if not (0 < self.stall_ratio <= 1):
            raise InvalidInputError(
                f"stall_ratio must be in (0, 1], got {self.stall_ratio}"
            )
        if self.match_rounds < 1:
            raise InvalidInputError(
                f"match_rounds must be >= 1, got {self.match_rounds}"
            )


@dataclass(frozen=True)
class SolverConfig:
    """Parameters of :func:`repro.core.solver.solve_hgp`.

    The hot-path kernel backend is not among them: :mod:`repro.kernels`
    binds numba's kernels when numba imports, else the pure-python
    reference, and both return bit-identical results.

    Attributes
    ----------
    n_trees:
        Size of the decomposition-tree ensemble (Theorem 7's distribution;
        E6 ablates this).
    tree_methods:
        Builder names cycled round-robin (``None`` = library default mix).
    grid_mode:
        ``"auto"`` — engineering grid with budget ``max(64, 4n)`` and
        ``slack`` capacity headroom (the recommended default);
        ``"epsilon"`` — the paper-faithful grid ``unit = ε · CP(h) / n``
        (exact lower bound, pseudo-polynomial blow-up; small ``n`` only);
        ``"budget"`` — explicit ``grid_budget`` with ``slack``.
    epsilon:
        Rounding parameter of the ``"epsilon"`` grid.
    grid_budget:
        Total-quantized-demand target of the ``"budget"`` grid.
    slack:
        Capacity headroom factor of the engineering grids (E7 ablates).
    beam_width:
        Per-node state cap of the DP (``None`` = exact DP; the default
        256 keeps n ≈ 500 instances interactive while rarely moving the
        optimum — E4/E7 quantify).
    refine:
        Run hierarchy-aware greedy local search on the final placement
        (paper's practical cousin, cf. Moulitsas–Karypis refinement).
    refine_passes:
        Maximum local-search sweeps.
    n_jobs:
        Worker processes for the per-tree DP solves (the ensemble members
        are embarrassingly parallel).  1 = in-process; results are
        bit-identical either way.
    seed:
        Master RNG seed.
    cache:
        Solver-cache knobs (:class:`repro.cache.CacheConfig`): whether
        this run consults the content-addressed cache, and optional
        byte-budget / disk-dir overrides applied to the shared cache.
    dp:
        Merge-kernel knobs (:class:`repro.hgpt.dp.DPConfig`): merge tile
        size, incumbent-bound pruning and its pre-pass beam.  All
        combinations return identical solution costs — these trade
        memory and wall-clock only.
    resilience:
        Fault-tolerance knobs (:class:`repro.core.resilience.ResilienceConfig`):
        per-member retries and deadlines plus graceful degradation.  The
        defaults are "off" — one attempt, no deadline, no partial runs —
        so healthy runs behave exactly as before.
    multilevel:
        Coarsen–solve–refine front-end knobs (:class:`MultilevelConfig`).
        When ``multilevel.enabled`` is set, :func:`repro.core.solver.solve_hgp`
        coarsens the graph to ``coarsen_to`` supervertices, runs this
        very engine configuration on the coarsest instance, and projects
        the placement back up with hierarchy-aware FM refinement.
    profile:
        Continuous-profiler knobs (:class:`repro.obs.profile.ProfileConfig`):
        when ``profile.enabled`` is set, the run is bracketed by the
        sampling flight-recorder + per-stage resource monitor and the
        run report (schema v3) carries the ``profile`` payload.  Off by
        default — zero overhead for unprofiled solves.
    incremental:
        Incremental warm-path knobs (:class:`IncrementalConfig`):
        whether DP solves memoise per-subtree state tables in the
        ``subtree_tables`` cache tier.  The effective mode (the memo
        also needs the solver cache on) is stamped into the run report
        as ``incremental``.
    """

    n_trees: int = 8
    tree_methods: Optional[Sequence[str]] = None
    grid_mode: str = "auto"
    epsilon: float = 0.3
    grid_budget: Optional[int] = None
    slack: float = 0.25
    beam_width: Optional[int] = 256
    refine: bool = True
    refine_passes: int = 4
    n_jobs: int = 1
    seed: Optional[int] = 0
    cache: CacheConfig = field(default_factory=CacheConfig)
    dp: DPConfig = field(default_factory=DPConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    multilevel: MultilevelConfig = field(default_factory=MultilevelConfig)
    profile: ProfileConfig = field(default_factory=ProfileConfig)
    incremental: IncrementalConfig = field(default_factory=IncrementalConfig)

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise InvalidInputError(f"n_trees must be >= 1, got {self.n_trees}")
        if self.grid_mode not in ("auto", "epsilon", "budget"):
            raise InvalidInputError(
                f"grid_mode must be 'auto', 'epsilon' or 'budget', got {self.grid_mode!r}"
            )
        if self.epsilon <= 0:
            raise InvalidInputError(f"epsilon must be > 0, got {self.epsilon}")
        if self.slack <= 0:
            raise InvalidInputError(f"slack must be > 0, got {self.slack}")
        if self.grid_mode == "budget" and (
            self.grid_budget is None or self.grid_budget < 1
        ):
            raise InvalidInputError(
                "grid_mode='budget' requires a positive grid_budget"
            )
        if self.beam_width is not None and self.beam_width < 1:
            raise InvalidInputError(
                f"beam_width must be >= 1, got {self.beam_width}"
            )
        if self.refine_passes < 0:
            raise InvalidInputError(
                f"refine_passes must be >= 0, got {self.refine_passes}"
            )
        if self.n_jobs < 1:
            raise InvalidInputError(f"n_jobs must be >= 1, got {self.n_jobs}")

    def describe(self) -> dict:
        """Plain-dict view for placement metadata / experiment logs."""
        out = asdict(self)
        if out["tree_methods"] is not None:
            out["tree_methods"] = list(out["tree_methods"])
        return out
