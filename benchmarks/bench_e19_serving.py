"""E19 — placement service under 2x open-loop overload.

The robustness headline for ``repro serve``: an in-process server is
stormed with an open-loop, duplicate-heavy, mixed-priority trace whose
*unique-work* arrival rate is ~2x the measured solve capacity, and the
gates assert the overload contract rather than raw throughput:

* ``sheds >= 1`` with ``zero_deaths = 1`` — admission control turned
  the overload into fast 503s; the server (IO loop + dispatcher)
  survived the storm.
* ``dedupe_rate >= 0.5`` — the duplicate-heavy half of the trace was
  absorbed by coalescing + the response cache instead of the solver.
* ``interactive_p99_bounded = 1`` — interactive latency stayed inside
  the request SLO even while batch traffic queued behind it.
* ``zero_drift = 1`` — every post-storm served result is bit-identical
  (cost and placement vector) to a cold single-shot ``run_pipeline`` of
  the same instance: overload handling never changes answers.

The traffic engine is ``tools/loadgen.py`` (imported, not shelled out),
so the CI smoke and this benchmark measure the same trace semantics.
"""

from __future__ import annotations

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np

from repro import run_pipeline
from repro.bench import Table, save_result, save_result_json
from repro.cache import reset_cache
from repro.core.config import SolverConfig
from repro.core.resilience import ResilienceConfig, RetryPolicy
from repro.graph.graph import Graph
from repro.hierarchy.hierarchy import Hierarchy
from repro.obs.exporter import maybe_start_from_env
from repro.serve import PlacementClient, PlacementServer, ServeConfig

SEED = 19
N_INSTANCES = 4
N_VERTS = 32
DURATION_S = 8.0
DUP_FRAC = 0.5
INTERACTIVE_FRAC = 0.7
DEADLINE_S = 5.0
QUEUE_CAPACITY = 8
OVERLOAD_FACTOR = 2.0
#: Capacity probes before the storm: one cold, the rest warm.
N_PROBES = 6

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_spec = importlib.util.spec_from_file_location(
    "repro_loadgen", _TOOLS / "loadgen.py"
)
loadgen = importlib.util.module_from_spec(_spec)
sys.modules["repro_loadgen"] = loadgen  # dataclasses resolve via sys.modules
_spec.loader.exec_module(loadgen)


def _solver() -> SolverConfig:
    return SolverConfig(
        seed=SEED,
        n_trees=2,
        n_jobs=2,
        tree_methods=("contraction",),
        refine=False,
        resilience=ResilienceConfig(retry=RetryPolicy(max_attempts=2)),
    )


def _decode(payload):
    g = Graph(
        payload["graph"]["n"], [tuple(e) for e in payload["graph"]["edges"]]
    )
    hier = Hierarchy(
        payload["hierarchy"]["degrees"],
        payload["hierarchy"]["cm"],
        leaf_capacity=payload["hierarchy"]["leaf_capacity"],
    )
    return g, hier, np.asarray(payload["demands"], dtype=np.float64)


def _experiment():
    exporter = maybe_start_from_env()
    try:
        return _experiment_body()
    finally:
        if exporter is not None:
            exporter.stop()


def _experiment_body():
    payloads = loadgen.make_instances(N_INSTANCES, N_VERTS, SEED)

    # Cold single-shot references, solved before any server exists —
    # the bit-identity yardstick for everything the service returns.
    reset_cache()
    refs, points = [], []
    for i, payload in enumerate(payloads):
        g, hier, d = _decode(payload)
        t0 = time.perf_counter()
        r = run_pipeline(g, hier, d, _solver(), path="serve")
        dt = time.perf_counter() - t0
        refs.append(
            {"cost": r.cost, "leaf_of": r.placement.leaf_of.tolist()}
        )
        points.append(
            {
                "sweep": f"ref_i{i}",
                "n": g.n,
                "h": hier.h,
                "grid_cells": 4 * g.n,
                "time_s": dt,
                "cost": r.cost,
                "report": r.report(phase=f"ref_i{i}").to_dict(),
            }
        )

    reset_cache()  # the server starts as cold as the references did
    server = PlacementServer(
        ServeConfig(
            port=0,
            queue_capacity=QUEUE_CAPACITY,
            default_deadline_s=DEADLINE_S,
            solver=_solver(),
        )
    ).start()
    try:
        client = PlacementClient(server.url, timeout=120.0)

        # Measure warm capacity on distinct probes (negative perturb
        # keys can't collide with the storm trace).  The first probe is
        # cold; the fastest warm one sizes the storm, so a probe slowed
        # by a scheduling hiccup cannot shrink the 2x overload.
        probe_times = []
        for j in range(N_PROBES):
            probe = loadgen.perturb_demands(payloads[0], -(j + 1))
            probe["deadline_s"] = 60.0
            t0 = time.perf_counter()
            assert client.solve_raw(probe).status == 200
            probe_times.append(time.perf_counter() - t0)
        solve_s = max(5e-3, min(probe_times[1:]))

        unique_frac = 1.0 - DUP_FRAC
        rate = min(300.0, OVERLOAD_FACTOR / solve_s / unique_frac)
        n_requests = max(16, int(rate * DURATION_S))
        trace = loadgen.make_trace(
            n_requests, N_INSTANCES, DUP_FRAC, INTERACTIVE_FRAC, SEED
        )
        load = loadgen.run_load(
            server.url,
            payloads,
            trace,
            rate,
            deadline_s=DEADLINE_S,
            timeout_s=120.0,
        )
        summary = load.summary()

        # Survival: both server threads still up, health endpoint sane.
        alive = (
            server._loop_thread.is_alive()
            and server._dispatcher.is_alive()
            and client.healthz().status == 200
        )

        # Post-storm bit-identity against the cold references.
        drift = 0
        for payload, ref in zip(payloads, refs):
            check = dict(payload)
            check["deadline_s"] = 60.0
            resp = client.solve_raw(check)
            if resp.status != 200:
                drift += 1
                continue
            body = resp.json()
            if body["cost"] != ref["cost"] or body["leaf_of"] != ref["leaf_of"]:
                drift += 1
        stats = server.stats()
    finally:
        server.drain(timeout=60.0)

    p99 = summary["interactive_p99_s"]
    meta = {
        "sheds": summary["shed"],
        "shed_rate": summary["shed_rate"],
        "zero_deaths": 1 if alive and summary["errors"] == 0 else 0,
        "dedupe_rate": summary["dedupe_rate"],
        "coalesced_total": stats["coalesced_total"],
        "zero_drift": 1 if drift == 0 else 0,
        "interactive_p99_s": p99,
        "interactive_p99_bounded": 1 if p99 <= DEADLINE_S + 1.0 else 0,
        "batch_p99_s": summary["batch_p99_s"],
        "qps_sent": summary["qps_sent"],
        "qps_ok": summary["qps_ok"],
        "warm_solve_s": solve_s,
        "overload_factor": OVERLOAD_FACTOR,
        "duration_s": DURATION_S,
        "requests": summary["sent"],
    }

    table = Table(
        ["metric", "value"],
        title="E19: placement service under 2x open-loop overload",
    )
    for key in (
        "requests",
        "qps_sent",
        "qps_ok",
        "sheds",
        "shed_rate",
        "dedupe_rate",
        "interactive_p99_s",
        "batch_p99_s",
        "zero_deaths",
        "zero_drift",
    ):
        table.add_row([key, meta[key]])
    return table, points, meta


def test_e19_serving(benchmark, results_dir):
    table, points, meta = benchmark.pedantic(_experiment, rounds=1, iterations=1)
    save_result("E19_serving", table.show(), results_dir)
    save_result_json(
        "BENCH_E19_serving",
        {
            "experiment": "E19_serving",
            "schema_version": 1,
            "meta": meta,
            "points": points,
        },
        results_dir,
    )
    # Acceptance: overload is shed (never fatal), duplicates are
    # deduplicated, interactive latency honors the SLO, and every served
    # answer matches the cold solver bit-for-bit.
    assert meta["zero_deaths"] == 1, meta
    assert meta["sheds"] >= 1, meta
    assert meta["dedupe_rate"] >= 0.5, meta
    assert meta["interactive_p99_bounded"] == 1, meta
    assert meta["zero_drift"] == 1, meta
