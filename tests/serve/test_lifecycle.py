"""Shutdown-ordering regressions (satellite 1 of PR 10).

The atexit teardown must run in dependency order: registered shutdown
hooks first (newest first — stop serving, drain in-flight solves), then
the pool, then the generation spool sweep.  The flagship regression:
SIGTERM during an in-flight solve leaves no orphaned
``repro-gen-*.pkl`` spool files behind.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.core import pool as worker_pool

REPO_ROOT = Path(__file__).resolve().parents[2]

from .conftest import make_payload  # noqa: E402


# ----------------------------------------------------------------------
# hook registry unit behavior
# ----------------------------------------------------------------------


def test_hooks_run_lifo_before_pool_shutdown(monkeypatch):
    order = []
    monkeypatch.setattr(
        worker_pool, "shutdown_pool", lambda: order.append("pool")
    )
    worker_pool.register_shutdown_hook("first", lambda: order.append("first"))
    worker_pool.register_shutdown_hook("second", lambda: order.append("second"))
    try:
        worker_pool._cleanup_at_exit()
    finally:
        worker_pool.unregister_shutdown_hook("first")
        worker_pool.unregister_shutdown_hook("second")
    assert order == ["second", "first", "pool"]


def test_hook_errors_do_not_block_pool_shutdown(monkeypatch):
    order = []
    monkeypatch.setattr(
        worker_pool, "shutdown_pool", lambda: order.append("pool")
    )

    def boom():
        order.append("boom")
        raise RuntimeError("hook failed")

    worker_pool.register_shutdown_hook("boom", boom)
    try:
        worker_pool._cleanup_at_exit()
    finally:
        worker_pool.unregister_shutdown_hook("boom")
    assert order == ["boom", "pool"]


def test_register_replaces_same_name(monkeypatch):
    order = []
    monkeypatch.setattr(worker_pool, "shutdown_pool", lambda: None)
    worker_pool.register_shutdown_hook("dup", lambda: order.append("old"))
    worker_pool.register_shutdown_hook("dup", lambda: order.append("new"))
    try:
        worker_pool._cleanup_at_exit()
    finally:
        worker_pool.unregister_shutdown_hook("dup")
    assert order == ["new"]


def test_unregister_is_idempotent():
    worker_pool.register_shutdown_hook("gone", lambda: None)
    worker_pool.unregister_shutdown_hook("gone")
    worker_pool.unregister_shutdown_hook("gone")  # second time: no-op


def test_server_registers_and_unregisters_hook(tmp_path):
    from .conftest import start_server

    srv = start_server()
    try:
        assert any(
            name.startswith("serve:") for name in worker_pool._SHUTDOWN_HOOKS
        )
    finally:
        srv.drain(timeout=30.0)
    assert not any(
        name.startswith("serve:") for name in worker_pool._SHUTDOWN_HOOKS
    )


# ----------------------------------------------------------------------
# the flagship regression: SIGTERM mid-solve leaves no spool orphans
# ----------------------------------------------------------------------


def _server_env(spool_dir: Path) -> dict:
    """The server subprocess's environment: its pool spools (via
    ``tempfile.mkstemp``) into ``spool_dir``, so the spool count sees
    this server's files only, not another process's live spools."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env["TMPDIR"] = str(spool_dir)
    env.pop("REPRO_FAULT_SPEC", None)
    return env


def _spool_files(spool_dir: Path) -> set:
    return set(glob.glob(os.path.join(spool_dir, "repro-gen-*.pkl")))


@pytest.mark.slow
def test_sigterm_during_inflight_solve_leaves_no_spool_orphans(tmp_path):
    before = _spool_files(tmp_path)
    env = _server_env(tmp_path)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--jobs", "2", "--n-trees", "4", "--seed", "3",
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        cwd=str(REPO_ROOT),
    )
    try:
        line = proc.stderr.readline()
        assert "listening on" in line, f"server failed to start: {line!r}"
        url = line.strip().split()[-1]

        # A solve big enough to still be in flight when SIGTERM lands.
        payload = make_payload(seed=9, n=96)
        payload["deadline_s"] = 120.0
        body = json.dumps(payload).encode()

        def post():
            req = urllib.request.Request(
                url + "/v1/solve", data=body,
                headers={"Content-Type": "application/json"},
            )
            try:
                urllib.request.urlopen(req, timeout=120)
            except Exception:
                pass  # the drain may close our connection — that's fine

        import threading

        th = threading.Thread(target=post, daemon=True)
        th.start()
        time.sleep(0.5)  # let the request reach the dispatcher
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=60)
        th.join(timeout=10)
        assert rc == 0, f"server exited {rc} instead of draining cleanly"
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    leaked = _spool_files(tmp_path) - before
    assert not leaked, f"orphaned spool files after SIGTERM: {sorted(leaked)}"


@pytest.mark.slow
def test_sigterm_idle_server_exits_clean(tmp_path):
    env = _server_env(tmp_path)
    before = _spool_files(tmp_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env, stderr=subprocess.PIPE, text=True, cwd=str(REPO_ROOT),
    )
    try:
        assert "listening on" in proc.stderr.readline()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)
    assert not (_spool_files(tmp_path) - before)
