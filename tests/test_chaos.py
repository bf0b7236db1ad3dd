"""Tests for the deterministic chaos harness (:mod:`repro.parallel.chaos`).

Every fault-recovery path in the execution layer is driven here by seeded
:class:`ChaosPlan`\\ s: worker kills with chunk bisection, hang watchdogs,
dropped results, pool-rebuild bounds, fallback demotion, and
the end-to-end acceptance scenario — a k-Graph fit on a chaos-wrapped
process backend stays bit-identical to the serial run.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datasets import generate_dataset
from repro.core.kgraph import KGraph
from repro.exceptions import ValidationError
from repro.parallel import (
    ChaosBackend,
    ChaosDroppedResult,
    ChaosError,
    ChaosPlan,
    FallbackBackend,
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    WorkerCrashError,
    WorkerPoolExhausted,
)


def _square(value: int) -> int:
    """Module-level so the process backend can pickle it."""
    return value * value


class TestChaosPlan:
    def test_scatter_is_deterministic_and_disjoint(self):
        first = ChaosPlan.scatter(20, kills=2, hangs=2, raises=3, seed=42)
        second = ChaosPlan.scatter(20, kills=2, hangs=2, raises=3, seed=42)
        assert first == second
        victims = first.kills | first.hangs | first.raises
        assert len(victims) == 7, "fault kinds must hit disjoint indices"
        other_seed = ChaosPlan.scatter(20, kills=2, hangs=2, raises=3, seed=43)
        assert other_seed != first

    def test_scatter_rejects_oversubscription(self):
        with pytest.raises(ValidationError):
            ChaosPlan.scatter(3, kills=2, raises=2)

    def test_fault_priority(self):
        plan = ChaosPlan(kills=frozenset({1}), raises=frozenset({1, 2}))
        assert plan.fault_for(1) == "kill"
        assert plan.fault_for(2) == "raise"
        assert plan.fault_for(0) is None
        assert plan.n_faults == 2

    def test_sets_normalised_to_frozenset(self):
        plan = ChaosPlan(raises={0, 1})
        assert isinstance(plan.raises, frozenset)


class TestChaosBackendBasics:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            ChaosBackend("serial", ChaosPlan())
        with pytest.raises(ValidationError):
            ChaosBackend(SerialBackend(), {"kills": {0}})

    def test_raise_fault_fires_once_then_retry_recovers(self):
        plan = ChaosPlan(raises=frozenset({1}))
        backend = ChaosBackend(SerialBackend(), plan)
        outcomes = backend.map_jobs(
            _square, [1, 2, 3], retry=RetryPolicy(max_attempts=3)
        )
        assert [outcome.value for outcome in outcomes] == [1, 4, 9]
        assert outcomes[1].attempts == 2
        assert outcomes[1].retried is True
        assert outcomes[0].attempts == 1
        assert backend.injections == [
            {"index": 1, "fault": "raise", "persistent": False}
        ]

    def test_persistent_raise_exhausts_retries(self):
        plan = ChaosPlan(raises=frozenset({0}), persistent=True)
        backend = ChaosBackend(SerialBackend(), plan)
        outcomes = backend.map_jobs(
            _square, [5], retry=RetryPolicy(max_attempts=3)
        )
        assert not outcomes[0].ok
        assert outcomes[0].attempts == 3
        assert isinstance(outcomes[0].exception, ChaosError)

    def test_no_faults_is_passthrough(self):
        backend = ChaosBackend(SerialBackend(), ChaosPlan())
        outcomes = backend.map_jobs(_square, [2, 3])
        assert [outcome.value for outcome in outcomes] == [4, 9]
        assert backend.injections == []


class TestWorkerKillRecovery:
    def test_kill_recovered_and_bitwise_identical(self):
        plan = ChaosPlan(kills=frozenset({2}))
        with ProcessBackend(2) as inner:
            backend = ChaosBackend(inner, plan)
            outcomes = backend.map_jobs(
                _square, list(range(6)), retry=RetryPolicy(max_attempts=3)
            )
        assert [outcome.value for outcome in outcomes] == [
            value * value for value in range(6)
        ]
        assert backend.pool_rebuilds >= 1
        assert outcomes[2].attempts >= 2

    def test_chunk_bisection_isolates_poison_job(self):
        # chunk_size=4 puts the persistent killer in a chunk with three
        # innocents: bisection must recover all three and pin the crash on
        # the single poison job.  Every bisection round consumes a rebuild,
        # so the budget is raised accordingly.
        plan = ChaosPlan(kills=frozenset({1}), persistent=True)
        policy = RetryPolicy(max_attempts=2, max_pool_rebuilds=10)
        with ProcessBackend(2, chunk_size=4) as inner:
            backend = ChaosBackend(inner, plan)
            outcomes = backend.map_jobs(_square, list(range(8)), retry=policy)
        poison = outcomes[1]
        assert not poison.ok
        assert isinstance(poison.exception, WorkerCrashError)
        for index, outcome in enumerate(outcomes):
            if index == 1:
                continue
            assert outcome.ok, f"innocent chunk-mate {index} lost: {outcome.error}"
            assert outcome.value == index * index

    def test_rebuild_budget_exhaustion(self):
        plan = ChaosPlan(kills=frozenset({0}), persistent=True)
        policy = RetryPolicy(max_attempts=2, max_pool_rebuilds=0)
        with ProcessBackend(2) as inner:
            backend = ChaosBackend(inner, plan)
            outcomes = backend.map_jobs(_square, list(range(4)), retry=policy)
        assert any(
            isinstance(outcome.exception, (WorkerPoolExhausted, WorkerCrashError))
            for outcome in outcomes
            if not outcome.ok
        )

    def test_hang_recovered_by_watchdog(self):
        plan = ChaosPlan(hangs=frozenset({1}), hang_seconds=30.0)
        policy = RetryPolicy(max_attempts=2, timeout=0.5)
        start = time.monotonic()
        with ProcessBackend(2) as inner:
            backend = ChaosBackend(inner, plan)
            outcomes = backend.map_jobs(
                _square, list(range(4)), retry=policy
            )
        elapsed = time.monotonic() - start
        assert elapsed < 15.0, "the hang must be abandoned, not waited out"
        assert [outcome.value for outcome in outcomes] == [0, 1, 4, 9]
        assert outcomes[1].attempts >= 2
        assert backend.pool_rebuilds >= 1
        # The hang was *recovered*: the final outcome is a success, so the
        # timeout counter (final outcomes only) stays at zero.
        assert backend.timeouts == 0


class TestDroppedResult:
    def test_dropped_result_is_retried(self):
        plan = ChaosPlan(drop_results=frozenset({1}))
        with ProcessBackend(2) as inner:
            backend = ChaosBackend(inner, plan)
            outcomes = backend.map_jobs(
                _square, [3, 4, 5], retry=RetryPolicy(max_attempts=3)
            )
        assert [outcome.value for outcome in outcomes] == [9, 16, 25]
        assert outcomes[1].attempts == 2
        assert outcomes[1].retried is True

    def test_dropped_result_without_retry_is_a_chaos_failure(self):
        plan = ChaosPlan(drop_results=frozenset({1}))
        with ProcessBackend(2) as inner:
            outcomes = ChaosBackend(inner, plan).map_jobs(_square, [3, 4, 5])
        assert [outcome.ok for outcome in outcomes] == [True, False, True]
        assert isinstance(outcomes[1].exception, ChaosDroppedResult)


class TestFallbackDemotion:
    def test_exhausted_chaos_backend_demotes_to_serial(self):
        plan = ChaosPlan(kills=frozenset({0}), persistent=True)
        policy = RetryPolicy(max_attempts=2, max_pool_rebuilds=0)
        with ProcessBackend(2) as inner:
            chain = FallbackBackend([ChaosBackend(inner, plan), SerialBackend()])
            outcomes = chain.map_jobs(_square, list(range(4)), retry=policy)
        # The successor member is the plain SerialBackend — not wrapped in
        # chaos — so the demoted re-run sees no faults at all and every job
        # succeeds.
        assert chain.active_index == 1
        assert len(chain.demotions) == 1
        assert chain.demotions[0]["event"] == "backend_demoted"
        assert [outcome.value for outcome in outcomes] == [
            index * index for index in range(4)
        ]

    def test_demoted_run_matches_serial_when_faults_fire_once(self):
        plan = ChaosPlan(kills=frozenset({0}))
        policy = RetryPolicy(max_attempts=3, max_pool_rebuilds=0)
        with ProcessBackend(2) as inner:
            chain = FallbackBackend([ChaosBackend(inner, plan), SerialBackend()])
            outcomes = chain.map_jobs(_square, list(range(5)), retry=policy)
        reference = SerialBackend().map_jobs(_square, list(range(5)))
        assert [outcome.value for outcome in outcomes] == [
            outcome.value for outcome in reference
        ]


class TestKGraphAcceptance:
    def test_fit_under_chaos_is_bit_identical_to_serial(self):
        """The ISSUE acceptance scenario: a seeded plan that kills a worker
        and hangs a job; the chaos-wrapped process fit must complete within
        the watchdog budget with labels bit-identical to the serial run."""
        dataset = generate_dataset("cylinder_bell_funnel", random_state=0)
        serial = KGraph(n_clusters=3, n_lengths=2, random_state=0).fit(dataset.data)

        plan = ChaosPlan(
            kills=frozenset({0}), hangs=frozenset({1}), hang_seconds=30.0
        )
        policy = RetryPolicy(max_attempts=3, timeout=5.0)
        start = time.monotonic()
        with ProcessBackend(2) as inner:
            chaotic = KGraph(
                n_clusters=3,
                n_lengths=2,
                random_state=0,
                backend=ChaosBackend(inner, plan),
                retry=policy,
            ).fit(dataset.data)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        assert np.array_equal(serial.labels_, chaotic.labels_)
        assert serial.optimal_length_ == chaotic.optimal_length_
        # The injected faults actually happened and were recovered.
        report = chaotic.pipeline_report_
        assert report.total_attempts > 0
        assert report.total_pool_rebuilds >= 1
