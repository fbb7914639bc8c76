"""Shared configuration for the experiment benchmarks.

Every experiment function both *times* its core computation (via the
pytest-benchmark fixture, so ``--benchmark-only`` runs it) and *prints +
saves* the table/series the paper-style evaluation reports, under
``benchmarks/results/``.

In addition, every top-level solve call any benchmark makes persists
its structured JSON run report under ``benchmarks/results/reports/``
(one ``<path>_<run_id>.json`` per call, holding every member of a
portfolio, guided iteration or multilevel solve, via the
``REPRO_RUN_REPORT_DIR`` hook in
:func:`repro.core.engine.persist_report`) so per-stage timings are
inspectable with ``repro report`` after any benchmark session.
The directory is scratch output and git-ignored.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
RUN_REPORT_DIR = RESULTS_DIR / "reports"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session", autouse=True)
def _persist_run_reports():
    """Have every engine run in the session drop its report to disk."""
    RUN_REPORT_DIR.mkdir(parents=True, exist_ok=True)
    previous = os.environ.get("REPRO_RUN_REPORT_DIR")
    os.environ["REPRO_RUN_REPORT_DIR"] = str(RUN_REPORT_DIR)
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_RUN_REPORT_DIR", None)
        else:
            os.environ["REPRO_RUN_REPORT_DIR"] = previous


@pytest.fixture(scope="session", autouse=True)
def _dump_session_metrics():
    """Dump the registry to ``$REPRO_METRICS_DUMP`` at session end.

    The file carries both the JSON snapshot (machine-readable; what
    ``tools/bench_regress.py --metrics-dump`` validates) and the
    Prometheus text rendering (human-greppable in a CI artifact).
    Unset variable = no dump, zero overhead.
    """
    yield
    path = os.environ.get("REPRO_METRICS_DUMP")
    if not path:
        return
    import json

    from repro.obs.metrics import get_registry

    registry = get_registry()
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(
        json.dumps(
            {"snapshot": registry.snapshot(), "rendered": registry.render()},
            indent=2,
        )
        + "\n"
    )
