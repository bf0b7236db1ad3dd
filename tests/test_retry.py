"""Tests for :class:`RetryPolicy` and the fault-tolerant ``map_jobs`` paths.

Covered here: policy validation and deterministic backoff schedules, retry
exhaustion and success-on-retry on every backend, per-job timeouts (serial,
thread, process), fan-out deadlines, and fallback-chain demotion on
:class:`WorkerPoolExhausted`.  Worker-kill scenarios live in
``tests/test_chaos.py`` — they need the chaos harness.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.exceptions import ValidationError
from repro.parallel import (
    DEFAULT_MAX_POOL_REBUILDS,
    ExecutionBackend,
    FallbackBackend,
    JobOutcome,
    JobTimeoutError,
    RetryPolicy,
    SerialBackend,
    WorkerPoolExhausted,
    backend_scope,
    resolve_backend,
)

BACKENDS = ["serial", "thread", "process"]


def _square(value: int) -> int:
    """Module-level so the process backend can pickle it."""
    return value * value


def _fail_always(value: int) -> int:
    raise ValueError(f"always fails ({value})")


def _fail_below_threshold(job) -> int:
    """Fails until a sentinel file records enough attempts; cross-process.

    ``job`` is ``(value, token_path, succeed_on_attempt)``: every call
    appends a byte to the token file, and the call only succeeds once the
    file has at least ``succeed_on_attempt`` bytes.
    """
    value, token, succeed_on = job
    with open(token, "ab") as handle:
        handle.write(b"x")
    if os.path.getsize(token) < succeed_on:
        raise RuntimeError(f"flaky failure for {value}")
    return value * value


def _sleep_then_square(job) -> int:
    value, seconds = job
    time.sleep(seconds)
    return value * value


class TestRetryPolicyUnit:
    def test_validation(self):
        with pytest.raises(ValidationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff=-1.0)
        with pytest.raises(ValidationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValidationError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValidationError):
            RetryPolicy(deadline=-2.0)
        with pytest.raises(ValidationError):
            RetryPolicy(max_pool_rebuilds=-1)

    def test_should_retry_budget_and_predicate(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(ValueError("x"), attempts=1)
        assert policy.should_retry(ValueError("x"), attempts=2)
        assert not policy.should_retry(ValueError("x"), attempts=3)

        selective = RetryPolicy(
            max_attempts=5, retryable=lambda exc: isinstance(exc, OSError)
        )
        assert selective.should_retry(OSError("io"), attempts=1)
        assert not selective.should_retry(ValueError("logic"), attempts=1)

    def test_broken_predicate_never_crashes(self):
        def broken(exc):
            raise RuntimeError("predicate bug")

        policy = RetryPolicy(max_attempts=5, retryable=broken)
        assert policy.should_retry(ValueError("x"), attempts=1) is False

    def test_backoff_schedule_is_deterministic(self):
        policy = RetryPolicy(
            max_attempts=4, backoff=0.1, backoff_multiplier=2.0, jitter=0.5, seed=7
        )
        # Pure function of (policy, index, attempt): same inputs, same delay.
        first = [policy.backoff_seconds(attempt, index=3) for attempt in (2, 3, 4)]
        second = [policy.backoff_seconds(attempt, index=3) for attempt in (2, 3, 4)]
        assert first == second
        # Exponential base underneath the jitter: delay(a+1) >= 2x base of a.
        assert first[0] >= 0.1 and first[0] <= 0.1 * 1.5
        assert first[1] >= 0.2 and first[1] <= 0.2 * 1.5
        # Different jobs get different jitter (with overwhelming probability
        # for this seed), so retries do not stampede in lockstep.
        other = policy.backoff_seconds(2, index=4)
        assert other != first[0]

    def test_no_backoff_before_second_attempt(self):
        policy = RetryPolicy(backoff=1.0)
        assert policy.backoff_seconds(1, index=0) == 0.0

    def test_policy_is_frozen_and_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.max_pool_rebuilds == DEFAULT_MAX_POOL_REBUILDS
        with pytest.raises(Exception):
            policy.max_attempts = 5  # type: ignore[misc]

    def test_job_outcome_fault_fields_default(self):
        # Pickle/JSON compat: old-style construction still works and the new
        # fields default to the single-attempt story.
        outcome = JobOutcome(index=0, value=1, error=None, duration_seconds=0.0)
        assert outcome.attempts == 1
        assert outcome.retried is False
        assert outcome.timed_out is False


class TestRetryOnBackends:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_exhaustion_records_attempts(self, name):
        policy = RetryPolicy(max_attempts=3)
        with resolve_backend(name, 2) as backend:
            outcomes = backend.map_jobs(_fail_always, [1, 2], retry=policy)
        for outcome in outcomes:
            assert not outcome.ok
            assert outcome.attempts == 3
            assert outcome.retried is True
            assert isinstance(outcome.exception, ValueError)
        assert backend.attempts >= 6

    @pytest.mark.parametrize("name", BACKENDS)
    def test_success_on_retry(self, name, tmp_path):
        policy = RetryPolicy(max_attempts=3)
        jobs = [
            (value, str(tmp_path / f"{name}-{value}.token"), 2) for value in (2, 5)
        ]
        with resolve_backend(name, 2) as backend:
            outcomes = backend.map_jobs(_fail_below_threshold, jobs, retry=policy)
        for outcome, (value, _, _) in zip(outcomes, jobs):
            assert outcome.ok, outcome.error
            assert outcome.value == value * value
            assert outcome.attempts == 2
            assert outcome.retried is True

    @pytest.mark.parametrize("name", BACKENDS)
    def test_non_retryable_fails_once(self, name):
        policy = RetryPolicy(
            max_attempts=5, retryable=lambda exc: isinstance(exc, OSError)
        )
        with resolve_backend(name, 2) as backend:
            outcomes = backend.map_jobs(_fail_always, [1], retry=policy)
        assert outcomes[0].attempts == 1
        assert outcomes[0].retried is False

    @pytest.mark.parametrize("name", BACKENDS)
    def test_no_policy_keeps_single_attempt_contract(self, name):
        with resolve_backend(name, 2) as backend:
            outcomes = backend.map_jobs(_fail_always, [1, 2])
        for outcome in outcomes:
            assert not outcome.ok
            assert outcome.attempts == 1
            assert outcome.retried is False


class TestTimeouts:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_per_job_timeout(self, name):
        policy = RetryPolicy(max_attempts=1, timeout=0.2)
        jobs = [(1, 0.0), (2, 30.0), (3, 0.0)]
        start = time.monotonic()
        with resolve_backend(name, 2) as backend:
            outcomes = backend.map_jobs(_sleep_then_square, jobs, retry=policy)
        elapsed = time.monotonic() - start
        assert elapsed < 20.0, "watchdog failed to abandon the hung job"
        assert outcomes[0].ok and outcomes[0].value == 1
        assert outcomes[2].ok and outcomes[2].value == 9
        hung = outcomes[1]
        assert not hung.ok
        assert hung.timed_out is True
        assert isinstance(hung.exception, JobTimeoutError)
        assert backend.timeouts >= 1

    @pytest.mark.parametrize("name", ["serial", "thread", "process"])
    def test_deadline_drains_remaining_jobs(self, name):
        policy = RetryPolicy(max_attempts=1, deadline=0.3)
        jobs = [(index, 0.25) for index in range(8)]
        start = time.monotonic()
        with resolve_backend(name, 2) as backend:
            outcomes = backend.map_jobs(_sleep_then_square, jobs, retry=policy)
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        assert len(outcomes) == 8
        timed_out = [outcome for outcome in outcomes if outcome.timed_out]
        assert timed_out, "a 0.3 s deadline must expire over 2 s of sleeps"
        for outcome in timed_out:
            assert isinstance(outcome.exception, JobTimeoutError)
        # An attempt counts when it starts: on two workers jobs 4-7 cannot
        # start before 0.5 s (serially, jobs 2-7 before 0.5 s), after the
        # deadline, and a job with no attempt is always timed out.
        attempts = [outcome.attempts for outcome in outcomes]
        first_unstarted = 2 if name == "serial" else 4
        assert attempts[first_unstarted:] == [0] * (8 - first_unstarted), attempts
        assert all(outcome.timed_out for outcome in outcomes if outcome.attempts == 0)

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_timeout_clock_starts_when_a_worker_takes_the_job(self, name):
        # Six 0.3 s jobs on two workers: the last two wait 0.6 s for a
        # worker, which must not count against their 0.5 s attempt budget.
        policy = RetryPolicy(max_attempts=1, timeout=0.5)
        jobs = [(index, 0.3) for index in range(6)]
        with resolve_backend(name, 2) as backend:
            backend.map_jobs(_square, [1, 2])  # start the workers first
            outcomes = backend.map_jobs(_sleep_then_square, jobs, retry=policy)
        assert [outcome.error for outcome in outcomes] == [None] * 6
        assert [outcome.value for outcome in outcomes] == [i * i for i in range(6)]
        assert backend.pool_rebuilds == 0


class _ExhaustedBackend(ExecutionBackend):
    """A backend whose every outcome reports an exhausted worker pool."""

    name = "exhausted"

    def __init__(self):
        self.calls = 0

    def map_jobs(self, fn, jobs, *, on_result=None, retry=None):
        self.calls += 1
        exhausted = WorkerPoolExhausted("synthetic exhaustion")
        outcomes = [
            JobOutcome(
                index=index,
                value=None,
                error=f"{type(exhausted).__name__}: {exhausted}",
                exception=exhausted,
                duration_seconds=0.0,
            )
            for index, _ in enumerate(jobs)
        ]
        for outcome in outcomes:
            if on_result is not None:
                on_result(outcome)
        return outcomes


class TestFallbackChain:
    def test_requires_two_members(self):
        with pytest.raises(ValidationError):
            FallbackBackend([SerialBackend()])

    def test_demotes_on_exhaustion_and_sticks(self):
        primary = _ExhaustedBackend()
        chain = FallbackBackend([primary, SerialBackend()])
        outcomes = chain.map_jobs(_square, [1, 2, 3])
        assert [outcome.value for outcome in outcomes] == [1, 4, 9]
        assert chain.active_index == 1
        assert len(chain.demotions) == 1
        assert chain.demotions[0]["from"] == "exhausted"
        # Demotion is sticky: the dead primary is not retried next fan-out.
        chain.map_jobs(_square, [4])
        assert primary.calls == 1

    def test_on_result_not_replayed_from_failed_member(self):
        seen = []
        chain = FallbackBackend([_ExhaustedBackend(), SerialBackend()])
        chain.map_jobs(_square, [2, 3], on_result=seen.append)
        # Only the accepted (serial) run's outcomes reach the callback, in
        # submission order — the exhausted member's outcomes are discarded.
        assert [outcome.value for outcome in seen] == [4, 9]

    def test_demotion_logs_structured_warning(self, caplog):
        import logging

        chain = FallbackBackend([_ExhaustedBackend(), SerialBackend()])
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            chain.map_jobs(_square, [1])
        assert any("demot" in record.message for record in caplog.records)

    def test_final_member_exhaustion_is_returned(self):
        chain = FallbackBackend([_ExhaustedBackend(), _ExhaustedBackend()])
        outcomes = chain.map_jobs(_square, [1])
        assert not outcomes[0].ok
        assert isinstance(outcomes[0].exception, WorkerPoolExhausted)


class TestGridSweepBackend:
    def test_grid_builds_one_pool_and_every_fit_sees_the_policy(
        self, small_dataset, monkeypatch
    ):
        from repro.benchmark.runner import BenchmarkRunner
        from repro.parallel import backends

        pools, policies = [], []
        real_pool = backends.ProcessPoolExecutor
        real_map_jobs = backends.ProcessBackend.map_jobs

        def counting_pool(*args, **kwargs):
            pools.append(kwargs)
            return real_pool(*args, **kwargs)

        def recording_map_jobs(self, fn, jobs, **kwargs):
            policies.append(self._effective_retry(kwargs.get("retry")))
            return real_map_jobs(self, fn, jobs, **kwargs)

        monkeypatch.setattr(backends, "ProcessPoolExecutor", counting_pool)
        monkeypatch.setattr(backends.ProcessBackend, "map_jobs", recording_map_jobs)
        policy = RetryPolicy(max_attempts=2)
        runner = BenchmarkRunner(["kgraph"], backend="process", n_jobs=2, retry=policy)
        results = runner.run_estimator_grid(
            small_dataset,
            "kgraph",
            {"n_clusters": [2, 3, 4]},
            base={"n_lengths": 2},
            random_state=0,
        )
        assert [result.error for result in results] == [None, None, None]
        assert len(pools) == 1
        # Every fit of the sweep dispatches, and each dispatch runs under
        # the runner's policy.
        assert len(policies) >= len(results)
        assert all(seen is policy for seen in policies)


class _PolicySpy(SerialBackend):
    """A serial backend that records the policy each ``map_jobs`` call runs under."""

    def __init__(self):
        super().__init__()
        self.policies = []

    def map_jobs(self, fn, jobs, *, on_result=None, retry=None):
        self.policies.append(self._effective_retry(retry))
        return super().map_jobs(fn, jobs, on_result=on_result, retry=retry)


class TestCallerBackendKeepsItsPolicy:
    """A scope's retry policy never stays on a backend the caller passed in."""

    def test_backend_scope(self):
        backend = SerialBackend()
        with backend_scope(backend, retry=RetryPolicy(max_attempts=3)) as resolved:
            assert resolved is backend
        assert backend.retry is None

    def test_kgraph_fit(self, small_dataset):
        from repro.core.kgraph import KGraph

        backend = _PolicySpy()
        policy = RetryPolicy(max_attempts=3)
        KGraph(n_clusters=3, n_lengths=2, random_state=0, retry=policy).fit(
            small_dataset.data, backend=backend
        )
        assert backend.retry is None
        assert backend.policies and all(seen is policy for seen in backend.policies)

    def test_grid_runs_every_dispatch_under_the_runner_policy(self, small_dataset):
        from repro.benchmark.runner import BenchmarkRunner

        backend = _PolicySpy()
        policy = RetryPolicy(max_attempts=2)
        runner = BenchmarkRunner(["kgraph"], backend=backend, retry=policy)
        results = runner.run_estimator_grid(
            small_dataset,
            "kgraph",
            {"n_clusters": [2, 3]},
            base={"n_lengths": 2},
            random_state=0,
        )
        assert [result.error for result in results] == [None, None]
        assert backend.retry is None
        assert len(backend.policies) >= len(results)
        assert all(seen is policy for seen in backend.policies)


class TestResolveBackendIntegration:
    def test_retry_installed_as_instance_default(self):
        policy = RetryPolicy(max_attempts=2)
        backend = resolve_backend("serial", retry=policy)
        assert backend.retry is policy
        outcomes = backend.map_jobs(_fail_always, [1])
        assert outcomes[0].attempts == 2

    def test_fallback_spec_builds_chain(self):
        backend = resolve_backend("thread", 2, fallback="serial")
        try:
            assert isinstance(backend, FallbackBackend)
            assert [member.name for member in backend.backends] == [
                "thread",
                "serial",
            ]
        finally:
            backend.close()

    def test_fallback_sequence_spec(self):
        backend = resolve_backend("process", 2, fallback=("thread", "serial"))
        try:
            assert isinstance(backend, FallbackBackend)
            assert [member.name for member in backend.backends] == [
                "process",
                "thread",
                "serial",
            ]
        finally:
            backend.close()

    def test_per_call_retry_overrides_instance_default(self):
        backend = resolve_backend("serial", retry=RetryPolicy(max_attempts=4))
        outcomes = backend.map_jobs(
            _fail_always, [1], retry=RetryPolicy(max_attempts=2)
        )
        assert outcomes[0].attempts == 2
