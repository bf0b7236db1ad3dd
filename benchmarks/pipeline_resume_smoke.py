#!/usr/bin/env python
"""Pipeline-resume smoke check (CI).

Runs a tiny k-Graph fit through the stage pipeline with a disk checkpoint
cache, then

1. re-fits with identical parameters — every stage must replay from the
   cache and the results must be bit-identical;
2. re-fits with one changed parameter (``feature_mode``) — the upstream
   ``embed`` stage must be skipped while every downstream stage re-runs,
   and the partially replayed fit must be bit-identical to a cold
   reference fit of the changed configuration;
3. fits cold on a two-worker process pool into a fresh cache directory,
   then re-fits serially — every stage must replay the checkpoints the
   pool wrote, and the results must be bit-identical to the pool fit and
   to a cold serial fit.

With ``--cache-budget BYTES`` a fourth phase runs the same fits through a
byte-budgeted :class:`~repro.pipeline.DiskStageCache`: churning several
configurations through a cache too small to hold them all must evict
checkpoints (visible in ``stats()``), never exceed the budget on disk,
and an evicted stage must degrade to a re-run with bit-identical results
— the economics counterpart of the replay invariants above.

Exit status: 0 when every invariant holds, 1 otherwise.  This is the
cheap, deterministic guard for the resumability contract of
``repro.pipeline`` (the full matrix lives in ``tests/test_pipeline.py``
and ``tests/test_cache_economics.py``).

Usage::

    PYTHONPATH=src python benchmarks/pipeline_resume_smoke.py
    PYTHONPATH=src python benchmarks/pipeline_resume_smoke.py \
        --cache-budget 65536 --cache-policy lru
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from repro.core.kgraph import KGraph
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.pipeline import KGRAPH_STAGE_NAMES, DiskStageCache

# The reference fit lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.graph import assert_graphs_identical  # noqa: E402
from oracles.kgraph import fit_reference  # noqa: E402

ALL_STAGES = list(KGRAPH_STAGE_NAMES)


def _check(condition: bool, message: str, failures: list) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        failures.append(message)


def _fits_identical(a: KGraph, b: KGraph) -> bool:
    """Whether two fits agree on every result, graphs included, bit for bit."""
    ours, theirs = a.result_, b.result_
    try:
        for length, graph in ours.graphs.items():
            assert_graphs_identical(graph, theirs.graphs[length])
    except (AssertionError, KeyError):
        return False
    return (
        sorted(ours.graphs) == sorted(theirs.graphs)
        and np.array_equal(a.labels_, b.labels_)
        and np.array_equal(ours.consensus_matrix, theirs.consensus_matrix)
        and ours.optimal_length == theirs.optimal_length
        and ours.length_scores == theirs.length_scores
        and all(
            np.array_equal(p.labels, q.labels)
            and p.inertia == q.inertia
            for p, q in zip(ours.partitions, theirs.partitions)
        )
        and all(
            {c: (g.nodes, g.edges) for c, g in getattr(ours, kind).items()}
            == {c: (g.nodes, g.edges) for c, g in getattr(theirs, kind).items()}
            for kind in ("lambda_graphoids", "gamma_graphoids")
        )
    )


def _process_pool_phase(dataset, failures: list) -> None:
    print("process-pool fit (its checkpoints must replay in a serial fit)")
    with tempfile.TemporaryDirectory(prefix="kgraph-pool-cache-") as cache_dir:
        params = dict(n_clusters=3, n_lengths=2, random_state=0)
        pooled = KGraph(
            **params, backend="process", n_jobs=2, stage_cache=DiskStageCache(cache_dir)
        ).fit(dataset.data)
        _check(
            pooled.pipeline_report_.executed == ALL_STAGES,
            f"every stage executed on the pool: {pooled.pipeline_report_.executed}",
            failures,
        )
        serial = KGraph(**params, stage_cache=DiskStageCache(cache_dir)).fit(dataset.data)
        _check(
            serial.pipeline_report_.cached == ALL_STAGES,
            f"every stage replayed serially: {serial.pipeline_report_.cached}",
            failures,
        )
        _check(
            serial.pipeline_report_.stage_keys == pooled.pipeline_report_.stage_keys,
            "serial and pool fits derive the same stage keys",
            failures,
        )
        _check(
            _fits_identical(serial, pooled),
            "serial replay is bit-identical to the pool fit",
            failures,
        )
        _check(
            _fits_identical(pooled, KGraph(**params).fit(dataset.data)),
            "the pool fit is bit-identical to a cold serial fit",
            failures,
        )


def _budgeted_phase(dataset, budget: int, policy: str, failures: list) -> None:
    print(f"budgeted resume (--cache-budget {budget}, policy {policy})")
    with tempfile.TemporaryDirectory(prefix="kgraph-budget-cache-") as cache_dir:
        cache = DiskStageCache(cache_dir, budget_bytes=budget, policy=policy)
        params = dict(n_clusters=3, n_lengths=2, random_state=0)
        cold = KGraph(**params, stage_cache=cache).fit(dataset.data)
        _check(
            cache.total_bytes() <= budget,
            f"budget holds after the cold fit ({cache.total_bytes()} <= {budget})",
            failures,
        )
        # Churn differently-seeded fits through the cache: their
        # checkpoints compete for the same byte budget.
        for seed in (1, 2, 3):
            KGraph(**dict(params, random_state=seed), stage_cache=cache).fit(
                dataset.data
            )
            _check(
                cache.total_bytes() <= budget,
                f"budget holds after churn fit seed={seed} "
                f"({cache.total_bytes()} <= {budget})",
                failures,
            )
        stats = cache.stats()
        _check(
            stats["evictions"] > 0,
            f"the churn evicted checkpoints (evictions={stats['evictions']})",
            failures,
        )
        refit = KGraph(**params, stage_cache=cache).fit(dataset.data)
        _check(
            np.array_equal(refit.labels_, cold.labels_)
            and np.array_equal(
                refit.result_.consensus_matrix, cold.result_.consensus_matrix
            ),
            "re-fit after eviction churn is bit-identical to the cold fit "
            f"(cached={refit.pipeline_report_.cached}, "
            f"executed={refit.pipeline_report_.executed})",
            failures,
        )
        stats = cache.stats()
        print(
            f"  stats: entries={stats['entries']} total_bytes={stats['total_bytes']} "
            f"evictions={stats['evictions']} hits={stats['hits']} "
            f"misses={stats['misses']} stores={stats['stores']}"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--cache-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="also exercise a byte-budgeted DiskStageCache under churn",
    )
    parser.add_argument(
        "--cache-policy",
        choices=("lru", "lfu"),
        default="lru",
        help="eviction policy for --cache-budget (default: lru)",
    )
    args = parser.parse_args(argv)
    dataset = make_cylinder_bell_funnel(
        n_series=15, length=48, noise=0.2, random_state=0
    )
    failures: list = []
    with tempfile.TemporaryDirectory(prefix="kgraph-stage-cache-") as cache_dir:
        params = dict(n_clusters=3, n_lengths=2, random_state=0)

        print("cold fit (populates the checkpoint cache)")
        cold = KGraph(**params, stage_cache=cache_dir).fit(dataset.data)
        _check(
            cold.pipeline_report_.executed == ALL_STAGES,
            f"every stage executed: {cold.pipeline_report_.executed}",
            failures,
        )

        print("identical re-fit (must replay every stage)")
        warm = KGraph(**params, stage_cache=cache_dir).fit(dataset.data)
        _check(
            warm.pipeline_report_.cached == ALL_STAGES,
            f"every stage replayed: {warm.pipeline_report_.cached}",
            failures,
        )
        _check(
            np.array_equal(warm.labels_, cold.labels_)
            and np.array_equal(
                warm.result_.consensus_matrix, cold.result_.consensus_matrix
            ),
            "replayed fit is bit-identical to the cold fit",
            failures,
        )

        print("one-parameter change (feature_mode: must skip only 'embed')")
        changed = dict(params, feature_mode="nodes")
        partial = KGraph(**changed, stage_cache=cache_dir).fit(dataset.data)
        _check(
            partial.pipeline_report_.cached == ["embed"],
            f"upstream embed skipped: cached={partial.pipeline_report_.cached}",
            failures,
        )
        _check(
            partial.pipeline_report_.executed == ALL_STAGES[1:],
            f"downstream stages re-ran: executed={partial.pipeline_report_.executed}",
            failures,
        )
        reference = fit_reference(KGraph(**changed), dataset.data)
        _check(
            np.array_equal(partial.labels_, reference.labels_)
            and np.array_equal(
                partial.result_.consensus_matrix,
                reference.result_.consensus_matrix,
            )
            and partial.result_.optimal_length == reference.result_.optimal_length,
            "partially replayed fit is bit-identical to a cold reference fit",
            failures,
        )

    _process_pool_phase(dataset, failures)

    if args.cache_budget is not None:
        _budgeted_phase(dataset, args.cache_budget, args.cache_policy, failures)

    if failures:
        print(f"\npipeline resume smoke FAILED ({len(failures)} check(s)):", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\npipeline resume smoke passed: upstream stages skip, results stay bit-identical.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
