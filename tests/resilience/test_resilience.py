"""Chaos tests for the resilience layer: retries, deadlines, degradation.

Every recovery assertion here is paired with a determinism assertion —
a run that survives injected faults must produce *bit-identical* costs
and placements to an undisturbed run, because retried members re-solve
the same tree on the same grid.
"""

import numpy as np
import pytest

from repro import SolverConfig, solve_hgp
from repro.core import pool as worker_pool
from repro.core.resilience import ResilienceConfig, RetryPolicy
from repro.errors import DegradedRunError, InvalidInputError
from repro.obs.metrics import get_registry
from repro.testing.faults import InjectedFaultError


def _counter_value(name: str, **labels) -> float:
    counter = get_registry().counter(
        name, "", labelnames=tuple(sorted(labels)) if labels else ()
    )
    return counter.value(**labels)


def _solve(instance, cfg):
    g, hier, d = instance
    return solve_hgp(g, hier, d, cfg)


def _config(**resilience) -> SolverConfig:
    return SolverConfig(
        seed=3,
        n_trees=8,
        refine=False,
        n_jobs=4,
        resilience=ResilienceConfig(**resilience),
    )


class TestRetryPolicy:
    def test_defaults_are_off(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        cfg = ResilienceConfig()
        assert cfg.member_timeout_s is None
        assert not cfg.allow_partial
        assert cfg.min_members == 1

    def test_deterministic_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.1)
        assert policy.delay(1) == 0.0
        assert policy.delay(2) == pytest.approx(0.1)
        assert policy.delay(3) == pytest.approx(0.2)
        assert policy.delay(4) == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_attempts": 0}, {"max_attempts": -1}, {"base_delay": -0.1}],
    )
    def test_rejects_bad_policy(self, kwargs):
        with pytest.raises(InvalidInputError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"member_timeout_s": 0.0}, {"member_timeout_s": -1.0},
                   {"min_members": 0}]
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(InvalidInputError):
            ResilienceConfig(**kwargs)


class TestCrashRecovery:
    def test_worker_crash_recovers_bit_identical(self, instance, fault_env):
        baseline = _solve(instance, _config())

        fault_env("worker_crash:member=2:attempt=1")
        restarts0 = _counter_value("repro_pool_restarts_total")
        retries0 = _counter_value("repro_member_retries_total")
        result = _solve(
            instance, _config(retry=RetryPolicy(max_attempts=3, base_delay=0.0))
        )

        assert result.cost == baseline.cost
        assert np.array_equal(
            result.placement.leaf_of, baseline.placement.leaf_of
        )
        assert _counter_value("repro_pool_restarts_total") == restarts0 + 1
        assert _counter_value("repro_member_retries_total") > retries0
        report = result.report()
        assert not report.degraded
        assert len(report.members) == 8
        attempts = {m.index: m.attempts for m in report.members}
        assert attempts[2] == 2  # the crashed member was re-run once

    def test_spool_corruption_recovers(self, instance, fault_env):
        baseline = _solve(instance, _config())
        fault_env("spool_corrupt:attempt=1")
        result = _solve(
            instance, _config(retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        )
        assert result.cost == baseline.cost
        assert not result.report().degraded


class TestHangRecovery:
    def test_deadline_terminates_hung_worker(self, instance, fault_env):
        baseline = _solve(instance, _config())
        fault_env("worker_hang:member=1:attempt=1:seconds=600")
        restarts0 = _counter_value("repro_pool_restarts_total")
        result = _solve(
            instance,
            _config(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                member_timeout_s=5.0,
            ),
        )
        assert result.cost == baseline.cost
        assert _counter_value("repro_pool_restarts_total") == restarts0 + 1
        attempts = {m.index: m.attempts for m in result.report().members}
        assert attempts[1] == 2


class TestDegradation:
    def test_allow_partial_completes_on_survivors(self, instance, fault_env):
        fault_env("member_error:member=5")
        failures0 = _counter_value("repro_member_failures_total", kind="error")
        result = _solve(
            instance,
            _config(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                allow_partial=True,
                min_members=4,
            ),
        )
        assert result.degraded
        assert len(result.failures) == 1
        report = result.report()
        assert report.degraded
        assert len(report.members) == 7  # exactly one member lost
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.kind == "error"
        assert failure.attempts == 2
        assert failure.index == 5
        assert "InjectedFaultError" in failure.message
        assert failure.traceback_digest
        assert (
            _counter_value("repro_member_failures_total", kind="error")
            == failures0 + 1
        )

    def test_partial_forbidden_raises_with_partial_outcomes(
        self, instance, fault_env
    ):
        fault_env("member_error:member=5")
        with pytest.raises(DegradedRunError) as info:
            _solve(
                instance,
                _config(retry=RetryPolicy(max_attempts=2, base_delay=0.0)),
            )
        exc = info.value
        assert len(exc.outcomes) == 7
        assert len(exc.failures) == 1
        assert exc.failures[0].kind == "error"

    def test_min_members_floor_is_enforced(self, instance, fault_env):
        fault_env("member_error:member=5")
        with pytest.raises(DegradedRunError):
            _solve(
                instance,
                _config(
                    retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                    allow_partial=True,
                    min_members=8,  # losing any member violates the floor
                ),
            )

    def test_degraded_report_round_trips_through_json(self, instance, fault_env):
        from repro.core.telemetry import RunReport

        fault_env("member_error:member=5")
        result = _solve(
            instance,
            _config(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                allow_partial=True,
            ),
        )
        report = result.report()
        loaded = RunReport.from_json(report.to_json())
        assert loaded.degraded
        assert [f.to_dict() for f in loaded.failures] == [
            f.to_dict() for f in report.failures
        ]

    def test_report_show_surfaces_failures(
        self, instance, fault_env, tmp_path, capsys
    ):
        from repro.cli import main

        fault_env("member_error:member=5")
        result = _solve(
            instance,
            _config(
                retry=RetryPolicy(max_attempts=2, base_delay=0.0),
                allow_partial=True,
            ),
        )
        path = tmp_path / "degraded.json"
        path.write_text(result.report().to_json())
        assert main(["report", "show", str(path)]) == 0
        out = capsys.readouterr().out
        assert "DEGRADED" in out
        assert "failed members (1)" in out
        assert "error" in out


class TestDefaultsOff:
    def test_serial_error_propagates_raw(self, instance, fault_env):
        # Default policy (no retries, no degradation): a serial member
        # error escapes exactly as it did before the resilience layer.
        fault_env("member_error:member=0")
        g, hier, d = instance
        with pytest.raises(InjectedFaultError):
            solve_hgp(g, hier, d, SolverConfig(seed=3, n_trees=2, refine=False))

    def test_healthy_run_matches_serial(self, instance, fault_env):
        g, hier, d = instance
        serial = solve_hgp(
            g, hier, d, SolverConfig(seed=3, n_trees=4, refine=False)
        )
        resilient = solve_hgp(
            g,
            hier,
            d,
            SolverConfig(
                seed=3,
                n_trees=4,
                refine=False,
                n_jobs=2,
                resilience=ResilienceConfig(
                    retry=RetryPolicy(max_attempts=3),
                    member_timeout_s=60.0,
                ),
            ),
        )
        assert resilient.cost == serial.cost
        assert np.array_equal(
            resilient.placement.leaf_of, serial.placement.leaf_of
        )
        assert all(m.attempts == 1 for m in resilient.report().members)

    def test_no_spool_files_leak_after_recovery(self, instance, fault_env):
        fault_env("worker_crash:member=0:attempt=1")
        _solve(
            instance, _config(retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        )
        assert worker_pool.live_generations() == 0


class TestCliResilience:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.graph.generators import planted_partition
        from repro.graph.io import write_edgelist

        g = planted_partition(2, 6, 0.8, 0.1, seed=1)
        path = tmp_path / "g.edges"
        write_edgelist(path, g)
        return path

    def _args(self, path, *extra):
        return [
            "solve",
            "--graph",
            str(path),
            "--degrees",
            "2,2",
            "--cm",
            "5,1,0",
            "--n-trees",
            "4",
            "--quiet",
            "--no-cache",
            *extra,
        ]

    def test_degraded_run_exits_3(self, graph_file, fault_env, capsys):
        from repro.cli import main

        fault_env("member_error:member=1")
        rc = main(self._args(graph_file, "--retries", "1", "--retry-delay", "0"))
        assert rc == 3
        assert "failed terminally" in capsys.readouterr().err

    def test_allow_partial_completes_with_warning(
        self, graph_file, fault_env, capsys
    ):
        from repro.cli import main

        fault_env("member_error:member=1")
        rc = main(
            self._args(
                graph_file,
                "--retries",
                "1",
                "--retry-delay",
                "0",
                "--allow-partial",
            )
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "degraded run" in captured.err
        assert "cost=" in captured.out
