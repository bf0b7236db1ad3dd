#!/usr/bin/env python
"""Chaos smoke check (CI).

Drives the fault-tolerant execution layer end-to-end with a seeded
:class:`~repro.parallel.ChaosPlan` — no flaky hardware, no wall-clock
randomness — and verifies the recovery invariants cheaply:

1. **Worker kill**: a fan-out whose worker is killed mid-chunk must
   complete with every job's result intact (innocent chunk-mates recovered
   via chunk bisection, the pool rebuilt) and values bit-identical to a
   serial run.
2. **Hang**: a job that hangs must be abandoned by the timeout watchdog
   and recovered on retry within the deadline, not waited out.
3. **k-Graph under chaos**: ``KGraph.fit`` on a chaos-wrapped process
   backend with a retry policy must produce labels bit-identical to the
   serial fit, with the injected faults visible in the pipeline report's
   fault counters.
4. **Fallback demotion**: a chain whose primary exhausts its pool-rebuild
   budget must demote and still return correct results.
5. **Thread pool**: a seeded raise + hang on ``ThreadBackend(2)`` must be
   retried and abandoned by the same scheduler, with results bit-identical
   to a serial run.

Exit status: 0 when every invariant holds, 1 otherwise.  The full matrix
lives in ``tests/test_retry.py`` and ``tests/test_chaos.py``.

Usage::

    PYTHONPATH=src python benchmarks/chaos_smoke.py
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.core.kgraph import KGraph
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.parallel import (
    ChaosBackend,
    ChaosPlan,
    FallbackBackend,
    ProcessBackend,
    RetryPolicy,
    SerialBackend,
    ThreadBackend,
)


def _check(condition: bool, message: str, failures: list) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        failures.append(message)


def _square(value: int) -> int:
    return value * value


def _kill_phase(failures: list) -> None:
    print("worker kill mid-chunk (bisection + pool rebuild)")
    plan = ChaosPlan(kills=frozenset({2}))
    policy = RetryPolicy(max_attempts=3, max_pool_rebuilds=8)
    with ProcessBackend(2, chunk_size=4) as inner:
        backend = ChaosBackend(inner, plan)
        outcomes = backend.map_jobs(_square, list(range(12)), retry=policy)
        rebuilds = backend.pool_rebuilds
    expected = [value * value for value in range(12)]
    _check(
        [outcome.value for outcome in outcomes] == expected,
        "all 12 results recovered bit-identically after the kill",
        failures,
    )
    _check(rebuilds >= 1, f"the broken pool was rebuilt ({rebuilds}x)", failures)
    _check(
        outcomes[2].attempts >= 2 and outcomes[2].retried,
        f"the killed job was re-dispatched (attempts={outcomes[2].attempts})",
        failures,
    )


def _hang_phase(failures: list) -> None:
    print("hung job (watchdog abandon + retry)")
    plan = ChaosPlan(hangs=frozenset({1}), hang_seconds=60.0)
    policy = RetryPolicy(max_attempts=2, timeout=0.5)
    start = time.monotonic()
    with ProcessBackend(2) as inner:
        backend = ChaosBackend(inner, plan)
        outcomes = backend.map_jobs(_square, list(range(4)), retry=policy)
    elapsed = time.monotonic() - start
    _check(
        elapsed < 20.0,
        f"the 60 s hang was abandoned, not waited out ({elapsed:.1f} s)",
        failures,
    )
    _check(
        [outcome.value for outcome in outcomes] == [0, 1, 4, 9],
        "every job (including the hung one) recovered",
        failures,
    )


def _kgraph_phase(failures: list) -> None:
    print("k-Graph fit under a kill+hang plan (acceptance scenario)")
    dataset = make_cylinder_bell_funnel(
        n_series=15, length=48, noise=0.2, random_state=0
    )
    params = dict(n_clusters=3, n_lengths=2, random_state=0)
    serial = KGraph(**params).fit(dataset.data)

    plan = ChaosPlan(kills=frozenset({0}), hangs=frozenset({1}), hang_seconds=60.0)
    policy = RetryPolicy(max_attempts=3, timeout=5.0)
    start = time.monotonic()
    with ProcessBackend(2) as inner:
        chaotic = KGraph(
            **params, backend=ChaosBackend(inner, plan), retry=policy
        ).fit(dataset.data)
    elapsed = time.monotonic() - start
    report = chaotic.pipeline_report_
    _check(
        np.array_equal(serial.labels_, chaotic.labels_),
        "labels bit-identical to the serial fit",
        failures,
    )
    _check(
        serial.optimal_length_ == chaotic.optimal_length_,
        f"optimal length preserved ({chaotic.optimal_length_})",
        failures,
    )
    _check(
        report.total_pool_rebuilds >= 1,
        f"injected faults were recovered (pool_rebuilds={report.total_pool_rebuilds}, "
        f"attempts={report.total_attempts})",
        failures,
    )
    _check(elapsed < 120.0, f"fit returned within budget ({elapsed:.1f} s)", failures)


def _fallback_phase(failures: list) -> None:
    print("fallback demotion (rebuild budget exhausted)")
    plan = ChaosPlan(kills=frozenset({0}), persistent=True)
    policy = RetryPolicy(max_attempts=2, max_pool_rebuilds=0)
    with ProcessBackend(2) as inner:
        chain = FallbackBackend([ChaosBackend(inner, plan), SerialBackend()])
        outcomes = chain.map_jobs(_square, list(range(6)), retry=policy)
        demoted = chain.active_index == 1 and len(chain.demotions) == 1
    _check(demoted, f"the chain demoted to serial ({chain.demotions})", failures)
    _check(
        [outcome.value for outcome in outcomes]
        == [value * value for value in range(6)],
        "the demoted re-run returned every result",
        failures,
    )


def _thread_phase(failures: list) -> None:
    print("thread pool under a raise+hang plan (retry + watchdog abandon)")
    jobs = [float(value) + 0.5 for value in range(8)]
    plan = ChaosPlan.scatter(len(jobs), raises=1, hangs=1, seed=11, hang_seconds=60.0)
    policy = RetryPolicy(max_attempts=2, timeout=0.5)
    start = time.monotonic()
    with ThreadBackend(2) as inner:
        backend = ChaosBackend(inner, plan)
        outcomes = backend.map_jobs(_square, jobs, retry=policy)
    elapsed = time.monotonic() - start
    serial = SerialBackend().map_jobs(_square, jobs)
    _check(
        [outcome.value for outcome in outcomes] == [outcome.value for outcome in serial]
        and all(outcome.ok for outcome in outcomes),
        "all 8 results bit-identical to the serial run",
        failures,
    )
    victims = sorted(plan.raises | plan.hangs)
    _check(
        all(outcomes[index].attempts == 2 for index in victims),
        f"the raised and hung jobs {victims} were retried once",
        failures,
    )
    _check(elapsed < 20.0, f"the 60 s hang was abandoned ({elapsed:.1f} s)", failures)


def main(argv=None) -> int:
    failures: list = []
    _kill_phase(failures)
    _hang_phase(failures)
    _kgraph_phase(failures)
    _fallback_phase(failures)
    _thread_phase(failures)
    if failures:
        print(f"\nchaos smoke FAILED ({len(failures)} check(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(
        "\nchaos smoke passed: kills, hangs and exhaustion all recover "
        "with bit-identical results."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
