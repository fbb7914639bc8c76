"""E21 — kernel backends: python reference vs numba JIT.

The kernel seam (``src/repro/kernels``) promises two things: the numba
backend is *fast* (the point of the seam) and *bit-identical* (the
contract that makes it safe to enable by default).  This experiment pins
both on the six-kernel ABI:

* **Per-kernel microbenches** — representative inputs for each kernel,
  timed per backend (best-of-``repeat``; the numba timings exclude the
  one-off JIT compile because later repeats dominate the minimum).
  Outputs are compared with exact equality — any drift fails the run.
* **End-to-end** — the E18 ``h=3`` deep-hierarchy DP solved under each
  backend, with the six ``repro.kernels`` attributes rebound to that
  backend's functions; solutions (costs *and* level sets) must be
  verbatim identical.

The machine-readable companion (``BENCH_E21_kernels.json``) keeps its
``points`` backend-independent (python-backend timings + deterministic
checksums as the gated "cost"), so the checked-in baseline matches in
both CI legs; the numba measurements land in ``meta``
(``{kernel}_speedup``, ``e2e_dp_speedup``, ``numba_available``,
``zero_drift``) where the kernels CI job gates them with
``tools/bench_regress.py --min-meta``.  On a python-only box the
speedup keys are simply absent and the microbenches still pin the
reference timings and checksums.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

import repro.kernels as kernels
from repro import Hierarchy
from repro.bench import Table, save_result, save_result_json
from repro.core.telemetry import MemberRecord, Telemetry
from repro.decomposition.spectral_tree import spectral_decomposition_tree
from repro.graph.generators import (
    barabasi_albert,
    planted_partition,
    random_demands,
)
from repro.hgpt.binarize import binarize
from repro.hgpt.dp import DPStats, solve_rhgpt
from repro.hgpt.quantize import DemandGrid
from repro.kernels import KERNEL_NAMES, numba_backend, python_backend

SEED = 21

#: Whether numba imports; an installed numba that fails to import counts
#: as absent, and the kernels CI job's ``numba_available=1`` floor fails.
HAVE_NUMBA = numba_backend.NUMBA_AVAILABLE

#: The E18 h=3 point — the deep-hierarchy regime the seam targets.
E2E_HIER = Hierarchy([2, 2, 2], [8.0, 4.0, 1.0, 0.0])
E2E_BUDGET = 144

_pc = time.perf_counter


# ----------------------------------------------------------------------
# microbench inputs (deterministic; sized so python-side work dominates)
# ----------------------------------------------------------------------


def _dinic_instance():
    """A paired-arc residual network from a clustered graph."""
    g = planted_partition(8, 40, 0.3, 0.03, seed=2)
    heads, tails, caps = [], [], []
    for u, v, w in g.iter_edges():
        heads += [int(v), int(u)]
        tails += [int(u), int(v)]
        caps += [float(w), float(w)]
    heads = np.asarray(heads, dtype=np.int64)
    tails = np.asarray(tails, dtype=np.int64)
    caps = np.asarray(caps, dtype=np.float64)
    arc_ids = np.argsort(tails, kind="stable").astype(np.int64)
    arc_indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=g.n), out=arc_indptr[1:])
    return g.n, heads, caps, arc_indptr, arc_ids, 0, g.n - 1


def _bench_dinic(backend, inst, repeat=3):
    """Full Dinic on ``inst``; returns per-kernel times + drift payload."""
    _n, heads, caps0, arc_indptr, arc_ids, s, t = inst
    best_bfs = best_blk = float("inf")
    total = 0.0
    caps = caps0
    for _ in range(repeat):
        caps = caps0.copy()
        bfs_s = blk_s = 0.0
        total = 0.0
        while True:
            t0 = _pc()
            level = np.asarray(
                backend.dinic_bfs_levels(heads, caps, arc_indptr, arc_ids, s)
            )
            bfs_s += _pc() - t0
            if level[t] < 0:
                break
            t0 = _pc()
            total += backend.dinic_blocking_flow(
                heads, caps, arc_indptr, arc_ids, level, s, t
            )
            blk_s += _pc() - t0
        best_bfs = min(best_bfs, bfs_s)
        best_blk = min(best_blk, blk_s)
    return best_bfs, best_blk, float(total), caps


def _tile_instance():
    rng = np.random.default_rng(3)
    na = nb = 400
    h = 3
    pa_sig = rng.integers(0, 30, size=(na, h)).astype(np.int64)
    pb_sig = rng.integers(0, 30, size=(nb, h)).astype(np.int64)
    pa_cost = rng.uniform(0.0, 50.0, size=na)
    pb_cost = rng.uniform(0.0, 50.0, size=nb)
    caps = np.asarray([45, 40, 35], dtype=np.int64)
    return pa_sig, pa_cost, pb_sig, pb_cost, caps, 0, na * nb, float("inf")


def _prune_instance():
    rng = np.random.default_rng(4)
    m, h = 20_000, 3
    sigs = rng.integers(0, 16, size=(m, h)).astype(np.int64)
    costs = rng.uniform(0.0, 100.0, size=m)
    order = np.lexsort(tuple(sigs[:, i] for i in range(h - 1, -1, -1)) + (costs,))
    return sigs, costs, order, -1


def _matvec_instance():
    g = barabasi_albert(2000, 4, weight_range=(0.5, 2.0), seed=5)
    lap = g.to_scipy_sparse().tocsr()
    x = np.random.default_rng(6).uniform(-1.0, 1.0, size=g.n)
    return (
        lap.indptr.astype(np.int64),
        lap.indices.astype(np.int64),
        lap.data.astype(np.float64),
        x,
    )


def _hem_instance():
    g = barabasi_albert(5000, 4, weight_range=(0.5, 2.0), seed=7)
    tie = np.random.default_rng(8).permutation(g.n).astype(np.int64)
    fits = np.ones(g.indices.size, dtype=bool)
    return g.n, g.indptr, g.indices, g.adj_weights, tie, fits, 8


@contextmanager
def _kernels_from(backend):
    """Rebind the six ``repro.kernels`` attributes to ``backend``'s
    functions, so the solver runs on them; restored on exit."""
    saved = {name: getattr(kernels, name) for name in KERNEL_NAMES}
    for name in KERNEL_NAMES:
        setattr(kernels, name, getattr(backend, name))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(kernels, name, fn)


def _time_best(fn, repeat=3):
    best, out = float("inf"), None
    for _ in range(repeat):
        t0 = _pc()
        out = fn()
        best = min(best, _pc() - t0)
    return best, out


def _e2e_instance():
    g = planted_partition(6, 6, 0.6, 0.05, seed=1)
    hier = E2E_HIER
    d = random_demands(g.n, hier.total_capacity, fill=0.6, skew=0.5, seed=3)
    grid = DemandGrid.from_budget(hier, d, E2E_BUDGET, slack=0.25)
    bt = binarize(spectral_decomposition_tree(g, seed=0), grid.quantize(d))
    caps = [grid.caps[j] for j in range(1, hier.h + 1)]
    norm, _ = hier.normalized()
    deltas = [0.0] + [norm.cm[k - 1] - norm.cm[k] for k in range(1, hier.h + 1)]
    return g.n, bt, caps, deltas


def _canonical(sol):
    return (
        sol.cost,
        [
            [(tuple(int(v) for v in s.vertices), int(s.qdemand)) for s in level]
            for level in sol.levels
        ],
    )


def _point(sweep, n, secs, cost, extra_meta=None):
    tel = Telemetry("bench")
    tel.root.add("kernel", secs)
    return {
        "sweep": sweep,
        "n": n,
        "h": 0,
        "grid_cells": 0,
        "time_s": secs,
        "report": tel.report(
            config=dict({"sweep": sweep}, **(extra_meta or {})), cost=float(cost)
        ).to_dict(),
    }


def _experiment():
    backends = {"python": python_backend}
    if HAVE_NUMBA:
        backends["numba"] = numba_backend

    table = Table(
        ["kernel", "n", "python_s", "numba_s", "speedup"],
        title="E21: kernel backends, python reference vs numba JIT",
    )
    points = []
    meta = {"numba_available": 1.0 if HAVE_NUMBA else 0.0}
    drift_ok = True

    # --- Dinic (two kernels share one instance) -----------------------
    dinic = _dinic_instance()
    runs = {name: _bench_dinic(b, dinic) for name, b in backends.items()}
    bfs_py, blk_py, flow_py, caps_py = runs["python"]
    for kernel, idx, checksum in (
        ("dinic_bfs_levels", 0, flow_py),
        ("dinic_blocking_flow", 1, flow_py),
    ):
        py_s = runs["python"][idx]
        meta[f"{kernel}_python_s"] = py_s
        nb_s = None
        if HAVE_NUMBA:
            nb_s = runs["numba"][idx]
            meta[f"{kernel}_numba_s"] = nb_s
            meta[f"{kernel}_speedup"] = py_s / nb_s if nb_s > 0 else float("inf")
            drift_ok &= runs["numba"][2] == flow_py
            drift_ok &= bool(np.array_equal(runs["numba"][3], caps_py))
        table.add_row(
            [kernel, dinic[0], py_s, nb_s,
             meta.get(f"{kernel}_speedup")]
        )
        points.append(_point(f"kernel_{kernel}", dinic[0], py_s, checksum))

    # --- the four single-call kernels ---------------------------------
    tile = _tile_instance()
    prune = _prune_instance()
    matvec = _matvec_instance()
    hem = _hem_instance()
    single = (
        (
            "dp_tile_merge",
            tile[0].shape[0] * tile[2].shape[0],
            lambda b: b.dp_tile_merge(*tile),
            lambda out: float(np.asarray(out[1]).sum()) + float(out[5]),
            lambda a, c: all(
                np.array_equal(np.asarray(x), np.asarray(y))
                for x, y in zip(a[:5], c[:5])
            ) and int(a[5]) == int(c[5]),
        ),
        (
            "dp_dominance_prune",
            prune[0].shape[0],
            lambda b: b.dp_dominance_prune(*prune),
            lambda out: float(np.asarray(out[0]).sum()),
            lambda a, c: np.array_equal(np.asarray(a[0]), np.asarray(c[0]))
            and bool(a[1]) == bool(c[1]),
        ),
        (
            "csr_matvec",
            matvec[3].shape[0],
            lambda b: b.csr_matvec(*matvec),
            lambda out: float(np.asarray(out).sum()),
            lambda a, c: np.array_equal(np.asarray(a), np.asarray(c)),
        ),
        (
            "heavy_edge_match",
            hem[0],
            lambda b: b.heavy_edge_match(*hem[1:]),
            lambda out: float((np.asarray(out) >= 0).sum()),
            lambda a, c: np.array_equal(np.asarray(a), np.asarray(c)),
        ),
    )
    for kernel, n, run, checksum, same in single:
        py_s, py_out = _time_best(lambda: run(backends["python"]))
        meta[f"{kernel}_python_s"] = py_s
        nb_s = None
        if HAVE_NUMBA:
            nb_s, nb_out = _time_best(lambda: run(backends["numba"]))
            meta[f"{kernel}_numba_s"] = nb_s
            meta[f"{kernel}_speedup"] = py_s / nb_s if nb_s > 0 else float("inf")
            drift_ok &= bool(same(nb_out, py_out))
        table.add_row([kernel, n, py_s, nb_s, meta.get(f"{kernel}_speedup")])
        points.append(_point(f"kernel_{kernel}", n, py_s, checksum(py_out)))

    # --- end-to-end: the E18 h=3 DP under each backend ----------------
    n, bt, caps, deltas = _e2e_instance()

    def solve_under(name):
        with _kernels_from(backends[name]):
            stats = DPStats()
            t0 = _pc()
            sol = solve_rhgpt(bt, caps, deltas, stats=stats)
            return _pc() - t0, sol, stats

    solve_under("python")  # warm process caches
    py_s, py_sol, py_stats = solve_under("python")
    if HAVE_NUMBA:
        solve_under("numba")  # JIT warm-up
        nb_s, nb_sol, _ = solve_under("numba")
        drift_ok &= _canonical(nb_sol) == _canonical(py_sol)
        meta["e2e_numba_s"] = nb_s
        meta["e2e_dp_speedup"] = py_s / nb_s if nb_s > 0 else float("inf")
    meta["e2e_python_s"] = py_s
    table.add_row(
        ["e2e_dp_h3", n, py_s, meta.get("e2e_numba_s"),
         meta.get("e2e_dp_speedup")]
    )
    tel = Telemetry("bench")
    tel.root.add("dp", py_s)
    tel.record_member(
        MemberRecord(
            index=0,
            method="spectral",
            dp_cost=float(py_sol.cost),
            dp_seconds=py_s,
            dp_nodes=py_stats.nodes,
            dp_states_total=py_stats.states_total,
            dp_states_max=py_stats.states_max,
            dp_merges=py_stats.merges,
            dp_tiles=py_stats.tiles,
            dp_bound_pruned=py_stats.bound_pruned,
            dp_table_peak_bytes=py_stats.table_peak_bytes,
        )
    )
    points.append(
        {
            "sweep": "e2e_python",
            "n": n,
            "h": E2E_HIER.h,
            "grid_cells": E2E_BUDGET,
            "time_s": py_s,
            "report": tel.report(config={"backend": "python"}).to_dict(),
        }
    )

    assert drift_ok, "backend outputs drifted — the bit-identity contract broke"
    meta["zero_drift"] = 1.0
    return table, points, meta


def test_e21_kernel_backends(benchmark, results_dir):
    table, points, meta = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result("E21_kernels", table.show(), results_dir)
    save_result_json(
        "BENCH_E21_kernels",
        {
            "experiment": "E21_kernels",
            "schema_version": 1,
            "meta": meta,
            "points": points,
        },
        results_dir,
    )
    assert meta["zero_drift"] == 1.0
    if HAVE_NUMBA:
        # Acceptance (re-gated in CI via --min-meta): the JIT backend
        # beats the python hot loops where they are interpreter-bound.
        assert meta["dinic_blocking_flow_speedup"] >= 3.0, meta
        assert meta["dp_dominance_prune_speedup"] >= 3.0, meta
