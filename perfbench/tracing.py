"""In-memory span recorder for the traced replay.

Every span has a name, a start, an end, a parent and the id of the op it
belongs to.  Spans stay in memory until :meth:`Tracer.dump` writes them
out at the end of the run.  A layer's self time is its span's duration
minus the time its child spans cover; spans nest strictly here (the
replay is single-threaded), so the children's durations simply add up.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional


class Tracer:
    """Collects spans; ``op`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextmanager
    def span(self, name: str) -> Iterator[dict]:
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def wrapped(self, owner: object, attr: str, name_of) -> Iterator[None]:
        """Give every call of ``owner.attr`` a span while the block runs.

        ``name_of(*args, **kwargs)`` names the span.  Used where a layer's
        public function is only reachable through another public call
        (the tree builders inside ``racke_ensemble``).
        """
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name_of(*args, **kwargs)):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def self_seconds(self) -> Dict[int, Dict[str, float]]:
        """``{op: {span name: summed self time}}`` over all closed spans."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: Dict[int, Dict[str, float]] = {}
        for rec in self.spans:
            per_op = out.setdefault(rec["op"], {})
            own = rec["end"] - rec["start"] - child_time[rec["id"]]
            per_op[rec["name"]] = per_op.get(rec["name"], 0.0) + own
        return out

    def op_seconds(self, root: str = "op") -> Dict[int, float]:
        """Wall time of each op's root span."""
        return {
            rec["op"]: rec["end"] - rec["start"]
            for rec in self.spans
            if rec["name"] == root
        }

    def dump(self, path, env: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"env": env, "spans": self.spans}, fh)


def median_per_op(
    per_op: Dict[int, Dict[str, float]], ops: List[int], prefix: str
) -> float:
    """Median over ``ops`` of the self time in spans named ``prefix``
    or ``prefix.<anything>`` (0 for an op that never entered the layer)."""
    vals = []
    for op in ops:
        spans = per_op.get(op, {})
        vals.append(
            sum(
                s
                for name, s in spans.items()
                if name == prefix or name.startswith(prefix + ".")
            )
        )
    return statistics.median(vals) if vals else 0.0
