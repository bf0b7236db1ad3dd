"""E11 — Parallel execution backends: serial vs thread vs process.

The k-Graph pipeline builds M independent per-length graphs and the
benchmark frame sweeps a methods x datasets x runs grid; both fan out
through :mod:`repro.parallel`.  This experiment times the same multi-length
``KGraph.fit`` and the same small campaign under every backend, checks that
the results stay bit-identical, and records the speedups together with the
machine's CPU count (the speedup is only expected to materialise on
multi-core hardware; on a single-core machine the parallel backends simply
must not regress results).

Results are persisted as JSON under ``benchmarks/out/`` so speedups can
be compared across machines.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from bench_utils import RESULTS_DIR, format_table, full_mode, report
from repro.benchmark.runner import BenchmarkRunner
from repro.core.kgraph import KGraph
from repro.datasets.catalogue import DatasetCatalogue, DatasetSpec
from repro.datasets.synthetic import make_cylinder_bell_funnel, make_trend_classes, make_two_patterns

N_JOBS = 4
BACKENDS = ("serial", "thread", "process")

if full_mode():
    FIT_N_SERIES, FIT_LENGTH, FIT_N_LENGTHS = 60, 256, 8
    CAMPAIGN_METHODS = ["kmeans", "gmm", "featts_like", "som"]
else:
    FIT_N_SERIES, FIT_LENGTH, FIT_N_LENGTHS = 32, 128, 4
    CAMPAIGN_METHODS = ["kmeans", "gmm", "featts_like"]


def _campaign_catalogue() -> DatasetCatalogue:
    """Two picklable datasets so the process backend can run the grid."""
    catalogue = DatasetCatalogue()
    for name, generator, dataset_type, n_classes in (
        ("bench_trend", make_trend_classes, "synthetic-trend", 2),
        ("bench_patterns", make_two_patterns, "synthetic-shape", 4),
    ):
        catalogue.register(
            DatasetSpec(
                name=name,
                generator=generator,
                dataset_type=dataset_type,
                n_series=20,
                length=64,
                n_classes=n_classes,
                default_kwargs={"n_series": 20, "length": 64},
            )
        )
    return catalogue


def _time_kgraph(backend: str):
    dataset = make_cylinder_bell_funnel(
        n_series=FIT_N_SERIES, length=FIT_LENGTH, noise=0.2, random_state=0
    )
    model = KGraph(
        n_clusters=3,
        n_lengths=FIT_N_LENGTHS,
        random_state=0,
        backend=backend,
        n_jobs=N_JOBS,
    )
    start = time.perf_counter()
    labels = model.fit_predict(dataset.data)
    return time.perf_counter() - start, labels, model.optimal_length_


def _time_campaign(backend: str):
    runner = BenchmarkRunner(
        CAMPAIGN_METHODS,
        catalogue=_campaign_catalogue(),
        n_runs=2,
        random_state=0,
        backend=backend,
        n_jobs=N_JOBS,
    )
    start = time.perf_counter()
    results = runner.run()
    signature = [
        (r.method, r.dataset, tuple(sorted(r.measures.items()))) for r in results
    ]
    return time.perf_counter() - start, signature


def _run_parallel_experiment():
    fit_rows, campaign_rows = [], []
    fit_reference = campaign_reference = None
    for backend in BACKENDS:
        seconds, labels, optimal_length = _time_kgraph(backend)
        if fit_reference is None:
            fit_reference = (labels, optimal_length)
        else:
            assert np.array_equal(labels, fit_reference[0]), backend
            assert optimal_length == fit_reference[1], backend
        fit_rows.append({"workload": "kgraph_fit", "backend": backend, "seconds": seconds})

        seconds, signature = _time_campaign(backend)
        if campaign_reference is None:
            campaign_reference = signature
        else:
            assert signature == campaign_reference, backend
        campaign_rows.append({"workload": "campaign", "backend": backend, "seconds": seconds})
    return fit_rows + campaign_rows


@pytest.mark.benchmark(group="E11-parallel-backends")
def test_bench_parallel_backends(benchmark):
    rows = benchmark.pedantic(_run_parallel_experiment, rounds=1, iterations=1)

    serial = {row["workload"]: row["seconds"] for row in rows if row["backend"] == "serial"}
    for row in rows:
        row["speedup_vs_serial"] = serial[row["workload"]] / max(row["seconds"], 1e-9)

    cpu_count = os.cpu_count() or 1
    payload = {
        "experiment": "E11-parallel-backends",
        "cpu_count": cpu_count,
        "n_jobs": N_JOBS,
        "full_mode": full_mode(),
        "kgraph_fit": {
            "n_series": FIT_N_SERIES,
            "length": FIT_LENGTH,
            "n_lengths": FIT_N_LENGTHS,
        },
        "campaign": {"methods": CAMPAIGN_METHODS, "n_runs": 2, "n_datasets": 2},
        "rows": rows,
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "parallel_backends.json").write_text(
        json.dumps(payload, indent=2), encoding="utf-8"
    )

    table = format_table(rows, ["workload", "backend", "seconds", "speedup_vs_serial"])
    best = max(row["speedup_vs_serial"] for row in rows if row["backend"] != "serial")
    summary = (
        f"{table}\n\ncpu_count={cpu_count}, n_jobs={N_JOBS}.  Results are "
        "bit-identical across backends (asserted); parallel speedup requires "
        "multi-core hardware — on a 4+-core machine the per-length KGraph fan-out "
        "or the campaign grid is expected to reach >=1.5x."
    )
    report("E11: Parallel execution backends (serial vs thread vs process)", summary)
    benchmark.extra_info["cpu_count"] = cpu_count
    benchmark.extra_info["best_parallel_speedup"] = round(best, 2)

    for workload in ("kgraph_fit", "campaign"):
        assert serial[workload] > 0
    if full_mode() and cpu_count >= 4:
        # The acceptance bar: >=1.5x for at least one workload with n_jobs=4
        # on a 4+-core machine.  Only asserted in full mode — wall-clock
        # assertions flake on loaded/virtualized CI runners, so the default
        # suite records the speedups without gating on them.
        assert best >= 1.5, f"expected >=1.5x speedup on {cpu_count} cores, got {best:.2f}x"
