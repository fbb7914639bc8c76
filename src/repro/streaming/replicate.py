"""Operator replication (data parallelism) for hot operators.

A single operator whose CPU demand exceeds one core cannot be placed at
all — stream systems split such operators into data-parallel replicas,
each handling a share of the input (Storm's parallelism hints, Streams'
UDP channels).  This module adds that transform on top of
:class:`repro.streaming.StreamDAG`:

* :func:`replicate_operator` — replace one operator by ``factor``
  replicas; every incoming edge's share splits evenly across replicas,
  every outgoing edge is re-emitted per replica.  Steady-state rates of
  all *other* operators are exactly preserved (asserted in tests).
* :func:`auto_replicate` — one pass that replicates every operator whose
  utilisation at nominal rates exceeds ``max_utilisation`` of a core,
  with the minimal sufficient factor.

Replication is placement-friendly by construction: replicas inherit a
fraction of the original traffic to each neighbour, so the HGP solver
can co-locate each replica with its share of producers/consumers.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Tuple

from repro.errors import InvalidInputError
from repro.streaming.operators import StreamDAG

__all__ = ["replicate_operator", "auto_replicate"]


def replicate_operator(dag: StreamDAG, op: int, factor: int) -> StreamDAG:
    """Return a new DAG with operator ``op`` split into ``factor`` replicas.

    Parameters
    ----------
    dag:
        Source DAG (not modified).
    op:
        Operator id to replicate.
    factor:
        Number of replicas, ``>= 1`` (1 returns an equivalent copy).

    Notes
    -----
    Incoming edges split their ``share`` evenly across replicas; each
    replica emits the original outgoing edges (its output rate is
    ``1/factor`` of the original, so totals are conserved).  Source
    operators split their exogenous ``source_rate`` likewise.
    """
    if not (0 <= op < dag.n_operators):
        raise InvalidInputError(f"operator {op} out of range")
    if factor < 1:
        raise InvalidInputError(f"factor must be >= 1, got {factor}")

    out = StreamDAG()
    # id mapping: original -> new id(s)
    replica_ids: List[int] = []
    id_map: Dict[int, int] = {}
    for v, oper in enumerate(dag.operators):
        if v == op:
            for r in range(factor):
                rid = out.add_operator(
                    replace(
                        oper,
                        name=f"{oper.name}#r{r}",
                        source_rate=oper.source_rate / factor,
                    )
                )
                replica_ids.append(rid)
            id_map[v] = replica_ids[0]
        else:
            id_map[v] = out.add_operator(oper)

    for src, dst, share in dag.edges:
        if src == op and dst == op:  # pragma: no cover - self loops rejected upstream
            continue
        if dst == op:
            for rid in replica_ids:
                out.add_edge(id_map[src], rid, share=share / factor)
        elif src == op:
            for rid in replica_ids:
                out.add_edge(rid, id_map[dst], share=share)
        else:
            out.add_edge(id_map[src], id_map[dst], share=share)
    return out


def auto_replicate(
    dag: StreamDAG,
    max_utilisation: float = 0.8,
    max_factor: int = 16,
) -> Tuple[StreamDAG, Dict[str, int]]:
    """Replicate every operator hotter than ``max_utilisation`` of a core.

    Parameters
    ----------
    dag:
        Workload at nominal rates.
    max_utilisation:
        Per-replica CPU budget in core fractions.
    max_factor:
        Upper bound on any single operator's replication factor.

    Returns
    -------
    (StreamDAG, dict)
        The transformed DAG and a map ``original name -> factor`` for
        the operators that were split.

    Notes
    -----
    One pass suffices: replication never changes any *other* operator's
    input rate, so hotness is computed once on the input DAG.
    """
    if not (0 < max_utilisation):
        raise InvalidInputError(
            f"max_utilisation must be > 0, got {max_utilisation}"
        )
    in_rate, _ = dag.propagate_rates()
    factors: Dict[int, int] = {}
    for v, oper in enumerate(dag.operators):
        util = float(in_rate[v]) * oper.service_cost
        if util > max_utilisation:
            factors[v] = min(max_factor, math.ceil(util / max_utilisation))

    result = dag
    applied: Dict[str, int] = {}
    # Apply in descending id order so earlier ids stay valid.
    for v in sorted(factors, reverse=True):
        name = dag.operators[v].name
        # Recompute the operator's id in `result`: ids below v are stable
        # because replication of higher ids appends/remaps only ids > v.
        result = replicate_operator(result, _locate(result, name), factors[v])
        applied[name] = factors[v]
    return result, applied


def _locate(dag: StreamDAG, name: str) -> int:
    for v, oper in enumerate(dag.operators):
        if oper.name == name:
            return v
    raise InvalidInputError(f"operator named {name!r} not found")
