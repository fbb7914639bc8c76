"""Export run reports as Chrome trace-event JSON (Perfetto-loadable).

A :class:`repro.core.telemetry.RunReport` stores a *span tree* (named
wall-clock intervals with durations but no absolute start times) and
per-ensemble-member records.  This module lays both out on a synthetic
timeline and writes the Trace Event Format that ``chrome://tracing``
and https://ui.perfetto.dev consume:

* **Engine lane** (tid 0): the span tree as nested complete events
  (``ph: "X"``).  Children are placed back-to-back from their parent's
  start, and a parent's duration is stretched to cover its children
  when accumulated child time exceeds the parent's own measurement
  (pool runs merge *summed* worker seconds into the parent span, so
  child time can legitimately exceed wall time).
* **Member lanes** (tid 1..P): one lane per distinct
  :attr:`repro.core.telemetry.MemberRecord.pid`, named by that pid, in
  first-seen order — each record says which process solved it, so a
  serial run has one lane and a pool run one per worker that solved
  something.  A lane's members run back-to-back in index order from the
  start of the engine's ``dp`` span, each contributing a ``dp`` then a
  ``repair`` complete event built from its record's seconds.

Timestamps are microseconds from a synthetic origin; they are exact for
durations and *plausible* for starts — the report does not record
absolute event times, and the exporter never invents overlap within a
lane.  Span counts, CPU seconds and counters, and member DP statistics,
ride in each event's ``args`` so Perfetto's selection panel shows them.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.core.telemetry import RunReport, Span

__all__ = ["report_to_trace", "write_trace"]

_PID = 1
_ENGINE_TID = 0


def _span_events(
    span: Span, ts: float, tid: int, events: List[dict]
) -> float:
    """Append complete events for ``span``'s subtree; return its duration (µs).

    Children are laid out sequentially from ``ts``; the returned duration
    is ``max(own seconds, sum of child durations)`` so nesting is always
    valid and timestamps stay monotone.
    """
    child_cursor = ts
    for child in span.children:
        child_cursor += _span_events(child, child_cursor, tid, events)
    dur = max(span.seconds * 1e6, child_cursor - ts)
    args: Dict[str, object] = {
        "count": span.count,
        "cpu_seconds": span.cpu_seconds,
    }
    args.update(span.counters)
    events.append(
        {
            "name": span.name,
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": _PID,
            "tid": tid,
            "args": args,
        }
    )
    return dur


def _member_events(
    report: RunReport, dp_start: float, lanes: Dict[int, int], events: List[dict]
) -> None:
    """Lay members out back-to-back on their pid's lane, in index order."""
    free_at = dict.fromkeys(lanes.values(), dp_start)
    for member in sorted(report.members, key=lambda m: m.index):
        tid = lanes[member.pid]
        t = free_at[tid]
        common = {
            "member": member.index,
            "method": member.method,
            "dp_cost": member.dp_cost,
            "mapped_cost": member.mapped_cost,
        }
        events.append(
            {
                "name": f"dp[{member.index}]",
                "ph": "X",
                "ts": t,
                "dur": member.dp_seconds * 1e6,
                "pid": _PID,
                "tid": tid,
                "args": {
                    **common,
                    "dp_nodes": member.dp_nodes,
                    "dp_states_total": member.dp_states_total,
                    "dp_states_max": member.dp_states_max,
                    "dp_merges": member.dp_merges,
                    "beam_escalations": member.beam_escalations,
                },
            }
        )
        t += member.dp_seconds * 1e6
        events.append(
            {
                "name": f"repair[{member.index}]",
                "ph": "X",
                "ts": t,
                "dur": member.repair_seconds * 1e6,
                "pid": _PID,
                "tid": tid,
                "args": common,
            }
        )
        free_at[tid] = t + member.repair_seconds * 1e6


def report_to_trace(report: RunReport) -> dict:
    """Convert a run report to a Chrome trace-event JSON object.

    Returns
    -------
    dict
        ``{"traceEvents": [...], "displayTimeUnit": "ms", "otherData":
        {...}}``, JSON-serialisable and loadable by Perfetto.
    """
    events: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": _ENGINE_TID,
            "args": {"name": f"repro run ({report.path})"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": _PID,
            "tid": _ENGINE_TID,
            "args": {"name": "engine"},
        },
    ]
    duration_events: List[dict] = []
    _span_events(report.spans, 0.0, _ENGINE_TID, duration_events)

    if report.members:
        # Members executed inside the engine's "dp"+"repair" window; start
        # the member lanes where the dp stage starts on the engine lane.
        dp = next((e for e in duration_events if e["name"] == "dp"), None)
        dp_start = float(dp["ts"]) if dp is not None else 0.0
        lanes: Dict[int, int] = {}
        for member in report.members:
            lanes.setdefault(member.pid, len(lanes) + 1)
        for pid, tid in lanes.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": _PID,
                    "tid": tid,
                    "args": {"name": f"pid {pid}"},
                }
            )
        _member_events(report, dp_start, lanes, duration_events)

    # Emit duration events sorted by (tid, ts) so per-lane timestamps are
    # visibly monotone in the raw JSON as well as in the viewer.
    events.extend(sorted(duration_events, key=lambda e: (e["tid"], e["ts"])))
    meta: Dict[str, object] = {"path": report.path}
    if report.cost is not None:
        meta["cost"] = report.cost
    if report.meta.get("run_id"):
        meta["run_id"] = report.meta["run_id"]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def write_trace(report: RunReport, path: Union[str, Path]) -> Path:
    """Write :func:`report_to_trace` output to ``path``; returns the path."""
    out = Path(path)
    out.write_text(json.dumps(report_to_trace(report), indent=2) + "\n")
    return out
