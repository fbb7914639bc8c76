"""Structured JSON-lines logging with per-run correlation ids.

Every engine run gets a :func:`new_run_id`; the id rides in
:class:`repro.core.engine.RunContext` and is stamped on every log record
the run emits.  Only the parent process logs: a pool member's
``member_solved`` line is written from the member record it returns
(which names the worker's ``pid``), so one ``grep run_id`` over a
JSON-lines log reconstructs a run end-to-end even across processes.

Records are plain dicts (``ts``, ``level``, ``event``, ``run_id`` when
bound, plus free-form fields) fanned out to *sinks* — callables taking
the record.  Three stock sinks cover the CLI flags:

* :func:`jsonl_sink` — one JSON object per line to a stream or path
  (``repro solve --log-json PATH``).
* :func:`human_sink` — terse ``HH:MM:SS level event k=v`` lines
  (``repro solve --verbose``, written to stderr).
* :class:`ListSink` — in-memory capture for tests.
"""

from __future__ import annotations

import json
import sys
import time
import uuid
from typing import Callable, Dict, IO, List, Optional, Union

__all__ = [
    "LEVELS",
    "new_run_id",
    "StructuredLogger",
    "NULL_LOGGER",
    "ListSink",
    "jsonl_sink",
    "human_sink",
]

#: Recognised record levels, least to most severe.
LEVELS = ("debug", "info", "warning", "error")

Sink = Callable[[Dict[str, object]], None]


def new_run_id() -> str:
    """Fresh 12-hex-digit correlation id (unique per run, not per seed)."""
    return uuid.uuid4().hex[:12]


def jsonl_sink(target: Union[str, IO[str]]) -> Sink:
    """Sink writing one compact JSON object per record line.

    ``target`` may be an open text stream or a path (opened in append
    mode, line-buffered where the platform allows).
    """
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        stream: IO[str] = open(target, "a", encoding="utf-8")
    else:
        stream = target

    def sink(record: Dict[str, object]) -> None:
        stream.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        stream.flush()

    return sink


def human_sink(stream: Optional[IO[str]] = None, min_level: str = "info") -> Sink:
    """Sink rendering terse human-readable lines (for ``--verbose``)."""
    out = stream if stream is not None else sys.stderr
    threshold = LEVELS.index(min_level)

    def sink(record: Dict[str, object]) -> None:
        level = str(record.get("level", "info"))
        if LEVELS.index(level) < threshold:
            return
        ts = time.strftime("%H:%M:%S", time.localtime(float(record.get("ts", 0.0))))
        fields = " ".join(
            f"{k}={record[k]}"
            for k in sorted(record)
            if k not in ("ts", "level", "event")
        )
        out.write(f"{ts} {level:<7s} {record.get('event')} {fields}".rstrip() + "\n")

    return sink


class ListSink:
    """Callable sink collecting records in memory (test helper)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, object]] = []

    def __call__(self, record: Dict[str, object]) -> None:
        self.records.append(record)


class StructuredLogger:
    """Fan-out structured logger with bound fields.

    Parameters
    ----------
    sinks:
        Callables receiving each record dict (see module docstring).
    run_id:
        Correlation id stamped on every record (``None`` = unbound; the
        engine binds one per run via :meth:`bind`).
    min_level:
        Records below this level are dropped before reaching any sink.
    """

    def __init__(
        self,
        sinks: Optional[List[Sink]] = None,
        run_id: Optional[str] = None,
        min_level: str = "debug",
        **bound: object,
    ):
        if min_level not in LEVELS:
            raise ValueError(f"unknown level {min_level!r}; choose from {LEVELS}")
        self.sinks: List[Sink] = list(sinks or [])
        self.run_id = run_id
        self.min_level = min_level
        self._threshold = LEVELS.index(min_level)
        self.bound = dict(bound)

    @property
    def enabled(self) -> bool:
        """Whether any sink is attached (guards hot-path field building)."""
        return bool(self.sinks)

    def bind(self, run_id: Optional[str] = None, **fields: object) -> "StructuredLogger":
        """Child logger sharing sinks, with extra bound fields / run id."""
        merged = dict(self.bound)
        merged.update(fields)
        return StructuredLogger(
            sinks=self.sinks,
            run_id=run_id if run_id is not None else self.run_id,
            min_level=self.min_level,
            **merged,
        )

    def log(self, event: str, level: str = "info", **fields: object) -> None:
        """Emit one record to every sink (no-op without sinks)."""
        if not self.sinks or LEVELS.index(level) < self._threshold:
            return
        record: Dict[str, object] = {"ts": time.time(), "level": level, "event": event}
        if self.run_id is not None:
            record["run_id"] = self.run_id
        record.update(self.bound)
        record.update(fields)
        for sink in self.sinks:
            sink(record)

    def debug(self, event: str, **fields: object) -> None:
        """Emit at ``debug`` level."""
        self.log(event, level="debug", **fields)

    def info(self, event: str, **fields: object) -> None:
        """Emit at ``info`` level."""
        self.log(event, level="info", **fields)

    def warning(self, event: str, **fields: object) -> None:
        """Emit at ``warning`` level."""
        self.log(event, level="warning", **fields)


#: Shared sink-less logger: every call is a cheap no-op.
NULL_LOGGER = StructuredLogger()
