"""Continuous sampling profiler with telemetry-span attribution.

The flight-recorder half of the live-introspection layer: a daemon
thread walks ``sys._current_frames()`` at a configurable rate (default
97 Hz — prime, so it does not phase-lock with periodic work) and counts
``(active span, call stack)`` pairs.  Attribution comes from
:func:`repro.core.telemetry.active_spans`: whatever telemetry span the
sampled thread is inside becomes a synthetic root frame
(``span:dp;repro.hgpt.dp.solve;…``), so flamegraphs separate the DP
from flow from coarsening without any code changes in the hot paths.

Everything is stdlib: no py-spy, no perf, no signals — safe to leave on
in production at single-digit-percent overhead (the sampler sleeps
``1/hz`` between passes and each pass is a few dict operations per live
thread).

Three public pieces:

* :class:`ProfileConfig` — the knobs, steered by
  ``repro solve --profile/--profile-hz/--profile-mem``.
* :class:`SamplingProfiler` — start/stop flight recorder with
  collapsed-stack (flamegraph-compatible) and JSON summaries.  Also
  used ad hoc by the ``/debug/profile?seconds=N`` exporter endpoint.
* :class:`StageResourceMonitor` — a process-wide telemetry span
  observer recording per-stage RSS / CPU-time deltas and (opt-in)
  ``tracemalloc`` allocation deltas.

:class:`ProfileSession` bundles the two around any call (one solve, a
portfolio, a multilevel run) and produces the ``profile`` payload of
``RunReport`` schema v3; the caller that profiled stamps it on the
report.  The solver itself never starts a profiler.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import Counter as _TallyCounter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.telemetry import (
    active_spans,
    add_span_observer,
    remove_span_observer,
)
from repro.errors import InvalidInputError

__all__ = [
    "ProfileConfig",
    "SamplingProfiler",
    "StageResourceMonitor",
    "ProfileSession",
    "rss_bytes",
]

#: Frames deeper than this are truncated (keeps pathological recursion
#: from bloating sample keys; flamegraphs past 128 frames are unreadable
#: anyway).
_MAX_STACK_DEPTH = 128

#: Collapsed-stack lines kept inside run reports (the full set still
#: goes to ``--profile PATH``); reports should stay human-sized.
_REPORT_COLLAPSED_LINES = 200


@dataclass(frozen=True)
class ProfileConfig:
    """Knobs of the continuous profiler (``repro solve --profile``).

    Attributes
    ----------
    hz:
        Sampling rate.  The default 97 Hz is prime (avoids phase-locking
        with periodic work) and keeps overhead well under 5%.
    memory:
        Also track per-stage ``tracemalloc`` allocation deltas.  Adds
        noticeable overhead (tracemalloc instruments every allocation) —
        off by default.
    path:
        Write the full collapsed-stack profile to this file after the
        run (flamegraph.pl / speedscope / inferno compatible).  ``None``
        keeps the (truncated) collapsed stacks in the report only.
    """

    hz: float = 97.0
    memory: bool = False
    path: Optional[str] = None

    def __post_init__(self) -> None:
        if not (0.1 <= self.hz <= 10_000):
            raise InvalidInputError(
                f"profile hz must be in [0.1, 10000], got {self.hz}"
            )


def rss_bytes() -> int:
    """Current resident-set size in bytes (0 when unavailable).

    Reads ``/proc/self/statm`` on Linux; falls back to
    ``resource.getrusage`` (peak, not current — close enough for stage
    deltas) elsewhere.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            pages = int(fh.read().split()[1])
        return pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        ru = resource.getrusage(resource.RUSAGE_SELF)
        scale = 1024 if sys.platform != "darwin" else 1
        return int(ru.ru_maxrss) * scale
    except Exception:
        return 0


#: ``(module-prefix, function)`` pairs whose innermost frame marks a
#: thread as parked off-CPU (condition waits, selector polls, queue
#: gets).  Unattributed threads parked here are skipped: a warm process
#: pool keeps executor-manager and queue-feeder threads alive between
#: runs, and tallying their permanent waits would drown the actual
#: solve in ``-`` samples.
_IDLE_WAITS = frozenset(
    {
        ("threading", "wait"),
        ("threading", "_wait_for_tstate_lock"),
        ("selectors", "select"),
        ("selectors", "poll"),
        ("queue", "get"),
        ("multiprocessing.connection", "wait"),
        ("multiprocessing.connection", "poll"),
        ("multiprocessing.connection", "_poll"),
        ("socketserver", "serve_forever"),
    }
)


def _is_idle_wait(frame) -> bool:
    """True when ``frame`` (a thread's innermost frame) is an idle park."""
    module = frame.f_globals.get("__name__", "")
    return (module, frame.f_code.co_name) in _IDLE_WAITS


def _frame_label(frame) -> str:
    """``module.function`` label for one stack frame (no spaces)."""
    code = frame.f_code
    module = frame.f_globals.get("__name__")
    if not module:
        module = os.path.basename(code.co_filename)
    return f"{module}.{code.co_name}".replace(" ", "_").replace(";", ",")


class SamplingProfiler:
    """Stdlib sampling flight-recorder over ``sys._current_frames``.

    Samples every live thread (except the sampler itself) at ``hz`` and
    tallies ``(span, stack)`` pairs, where ``span`` is the innermost
    open telemetry span of the sampled thread (``-`` when it is not
    inside one).  Unattributed threads parked in an idle wait (executor
    manager/feeder threads of a warm process pool, mostly) are skipped
    so they cannot drown the solve in permanent ``-`` samples; a thread
    inside a span is always tallied, blocked or not, matching wall-clock
    span accounting.  Start/stop are idempotent; the sampler thread is a
    daemon, so a crashed run never hangs on it.
    """

    def __init__(self, hz: float = 97.0):
        if hz <= 0:
            raise InvalidInputError(f"hz must be > 0, got {hz}")
        self.hz = float(hz)
        self._samples: _TallyCounter = _TallyCounter()
        self._span_samples: _TallyCounter = _TallyCounter()
        self._ticks = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._wall_seconds = 0.0

    # -- lifecycle ----------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Launch the sampler thread (no-op when already running)."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the sampler thread."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None
        if self._started_at is not None:
            self._wall_seconds += time.perf_counter() - self._started_at
            self._started_at = None
        with self._lock:
            empty = not self._samples
        if empty:
            # The run finished inside one sampling period (a fully warm
            # cache can do that), so no tick caught a busy thread.  Take
            # one forced sample of the stopping thread so a profiled run
            # always yields a non-empty collapsed profile.
            self._sample_once(-1, force=True)

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- the sampler loop ---------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        me = threading.get_ident()
        next_at = time.perf_counter() + interval
        while not self._stop.is_set():
            self._sample_once(me)
            delay = next_at - time.perf_counter()
            next_at += interval
            if delay > 0:
                self._stop.wait(delay)
            else:
                # We are behind schedule (GIL contention, slow pass);
                # resynchronise instead of busy-spinning to catch up.
                next_at = time.perf_counter() + interval

    def _sample_once(self, sampler_ident: int, force: bool = False) -> None:
        frames = sys._current_frames()
        spans = active_spans()
        # Our own observability threads (this sampler, exporter accept
        # loops) would otherwise dominate idle profiles with
        # selector-wait stacks; skip anything named "repro-…".
        infra = {
            t.ident
            for t in threading.enumerate()
            if t.name.startswith("repro-") and t.ident is not None
        }
        tallies: List[Tuple[Tuple[str, Tuple[str, ...]], int]] = []
        for ident, frame in frames.items():
            if ident == sampler_ident or ident in infra:
                continue
            span = spans.get(ident)
            if span is None and _is_idle_wait(frame) and not force:
                continue
            stack: List[str] = []
            f = frame
            while f is not None and len(stack) < _MAX_STACK_DEPTH:
                stack.append(_frame_label(f))
                f = f.f_back
            stack.reverse()
            tallies.append(((span or "-", tuple(stack)), 1))
        with self._lock:
            self._ticks += 1
            for key, n in tallies:
                self._samples[key] += n
                self._span_samples[key[0]] += n

    # -- results ------------------------------------------------------

    @property
    def sample_count(self) -> int:
        """Total (thread × tick) samples collected so far."""
        with self._lock:
            return sum(self._samples.values())

    def collapsed(self, limit: Optional[int] = None) -> str:
        """Collapsed-stack text: ``span:X;mod.f;mod.g count`` per line.

        Directly consumable by flamegraph.pl, inferno and speedscope.
        Lines are ordered by descending count; ``limit`` truncates.
        """
        with self._lock:
            items = self._samples.most_common(limit)
        lines = []
        for (span, stack), count in items:
            frames = ";".join((f"span:{span}",) + stack)
            lines.append(f"{frames} {count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def span_shares(self) -> Dict[str, float]:
        """Fraction of samples attributed to each span (sums to 1)."""
        with self._lock:
            total = sum(self._span_samples.values())
            if not total:
                return {}
            return {
                span: count / total
                for span, count in sorted(self._span_samples.items())
            }

    def summary(self) -> dict:
        """JSON-ready summary: rates, per-span sample counts, hot frames."""
        elapsed = self._wall_seconds
        if self._started_at is not None:
            elapsed += time.perf_counter() - self._started_at
        with self._lock:
            span_samples = dict(sorted(self._span_samples.items()))
            total = sum(self._samples.values())
            hot: _TallyCounter = _TallyCounter()
            for (span, stack), count in self._samples.items():
                if stack:
                    hot[stack[-1]] += count
        return {
            "hz": self.hz,
            "ticks": self._ticks,
            "samples": total,
            "duration_seconds": elapsed,
            "span_samples": span_samples,
            # Lists, not tuples, so the payload is identical before and
            # after a JSON round-trip through a persisted run report.
            "top_frames": [[f, c] for f, c in hot.most_common(25)],
        }


class StageResourceMonitor:
    """Telemetry span observer: per-stage RSS / CPU / allocation deltas.

    Once attached, every telemetry span entered in the process
    accumulates, per span name, the wall/CPU seconds
    spent inside it and how much the process RSS moved across it.  With
    ``memory=True`` a ``tracemalloc`` trace is started (if not already
    running) and per-stage current/peak allocation deltas are recorded
    too.

    Nested spans are handled per-thread: enter/exit pairs push and pop a
    thread-local bracket stack, so ``dp`` inside ``coarse_solve`` is
    charged to both, exactly like wall-clock span accounting.
    """

    def __init__(self, memory: bool = False):
        self.memory = bool(memory)
        self.stages: Dict[str, dict] = {}
        self._lock = threading.Lock()
        self._brackets: Dict[int, List[tuple]] = {}
        self._we_started_tracemalloc = False

    def attach(self) -> "StageResourceMonitor":
        """Start observing every span (and tracemalloc when asked)."""
        if self.memory:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._we_started_tracemalloc = True
        add_span_observer(self._on_span)
        return self

    def detach(self) -> None:
        """Stop observing; stop tracemalloc if this monitor started it."""
        remove_span_observer(self._on_span)
        if self._we_started_tracemalloc:
            import tracemalloc

            tracemalloc.stop()
            self._we_started_tracemalloc = False

    def _traced(self) -> Tuple[int, int]:
        if not self.memory:
            return (0, 0)
        import tracemalloc

        if not tracemalloc.is_tracing():
            return (0, 0)
        return tracemalloc.get_traced_memory()

    def _on_span(self, event: str, name: str, seconds: float) -> None:
        ident = threading.get_ident()
        if event == "enter":
            cur, _peak = self._traced()
            self._brackets.setdefault(ident, []).append(
                (name, rss_bytes(), time.process_time(), cur)
            )
            return
        stack = self._brackets.get(ident)
        if not stack or stack[-1][0] != name:
            return  # unbalanced (observer attached mid-span); skip
        _name, rss0, cpu0, mem0 = stack.pop()
        if not stack:
            self._brackets.pop(ident, None)
        rss1 = rss_bytes()
        cur, peak = self._traced()
        with self._lock:
            st = self.stages.setdefault(
                name,
                {
                    "count": 0,
                    "wall_seconds": 0.0,
                    "cpu_seconds": 0.0,
                    "rss_delta_bytes": 0,
                    "rss_end_bytes": 0,
                },
            )
            st["count"] += 1
            st["wall_seconds"] += float(seconds)
            st["cpu_seconds"] += time.process_time() - cpu0
            st["rss_delta_bytes"] += rss1 - rss0
            st["rss_end_bytes"] = rss1
            if self.memory:
                st["alloc_delta_bytes"] = (
                    st.get("alloc_delta_bytes", 0) + (cur - mem0)
                )
                st["alloc_peak_bytes"] = max(st.get("alloc_peak_bytes", 0), peak)

    def results(self) -> Dict[str, dict]:
        """Accumulated per-stage resource deltas (stable key order)."""
        with self._lock:
            return {k: dict(v) for k, v in sorted(self.stages.items())}


class ProfileSession:
    """Profile any call: sampler + stage monitor, producing report v3.

    Usage (what ``repro solve --profile`` does)::

        with ProfileSession(ProfileConfig(hz=200)) as session:
            result = solve_hgp(g, hierarchy, demands, config)
        report = result.report()
        report.profile = session.profile

    The stage monitor observes spans process-wide, so every run inside
    the block counts — all members of a portfolio, the coarsening and
    refinement of a multilevel solve.  :meth:`finish` (called on exit)
    stops everything, writes the full collapsed profile to
    ``config.path`` when set, and returns the JSON-ready ``profile``
    payload (sampler summary, truncated collapsed stacks, per-stage
    resources), also kept as :attr:`profile`.
    """

    def __init__(self, config: ProfileConfig = ProfileConfig()):
        self.config = config
        self.profiler = SamplingProfiler(hz=config.hz)
        self.monitor = StageResourceMonitor(memory=config.memory)
        #: The payload of the last :meth:`finish` (``None`` before).
        self.profile: Optional[dict] = None
        self._started = False

    def start(self) -> "ProfileSession":
        """Attach the stage monitor and launch the sampler."""
        if self._started:
            return self
        self.monitor.attach()
        self.profiler.start()
        self._started = True
        return self

    def finish(self) -> dict:
        """Stop profiling and assemble the report-v3 ``profile`` dict."""
        self.profiler.stop()
        self.monitor.detach()
        self._started = False
        summary = self.profiler.summary()
        collapsed_full = self.profiler.collapsed()
        if self.config.path:
            with open(self.config.path, "w") as fh:
                fh.write(collapsed_full)
        collapsed_lines = collapsed_full.splitlines()
        truncated = len(collapsed_lines) > _REPORT_COLLAPSED_LINES
        payload = {
            **summary,
            "span_shares": self.profiler.span_shares(),
            "collapsed": collapsed_lines[:_REPORT_COLLAPSED_LINES],
            "collapsed_truncated": truncated,
            "memory": self.config.memory,
            "stages": self.monitor.results(),
        }
        if self.config.path:
            payload["collapsed_path"] = str(self.config.path)
        self.profile = payload
        return payload

    def __enter__(self) -> "ProfileSession":
        return self.start()

    def __exit__(self, *exc) -> None:
        if self._started:
            self.finish()
