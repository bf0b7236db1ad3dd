"""E12 — Online serving: micro-batched vs unbatched per-request dispatch.

The :mod:`repro.serve` stack turns a fitted k-Graph into a servable model.
This experiment replays a closed-loop load test against one saved model:
``N_CLIENTS`` concurrent clients each issue ``N_REQUESTS`` single-series
predict requests, under three serving modes:

* ``direct``    — every client calls ``model.predict`` itself (no server,
  per-request pattern/centroid preparation; what a naive integration does);
* ``unbatched`` — per-request dispatch through the
  :class:`~repro.serve.engine.InferenceEngine` with ``max_batch_size=1``
  (prepared state, but one backend dispatch per request);
* ``batched``   — the same engine with micro-batching enabled
  (``max_batch_size=32``), coalescing whatever requests are pending.

Throughput (requests/s) and client-side latency (p50/p95) are recorded to
``benchmarks/out/serve_latency.json``.  Predictions are asserted to be
identical across all modes — micro-batching must never change results —
and the batched mode must beat unbatched per-request dispatch on
throughput (the whole point of the engine).
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pytest

from bench_utils import RESULTS_DIR, format_table, full_mode, report
from repro.core.kgraph import KGraph
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.serve.artifacts import load_model, save_model
from repro.serve.engine import InferenceEngine
from repro.utils.schema import schema_envelope

if full_mode():
    FIT_N_SERIES, FIT_LENGTH, FIT_N_LENGTHS = 60, 256, 6
    N_CLIENTS, N_REQUESTS = 12, 80
else:
    FIT_N_SERIES, FIT_LENGTH, FIT_N_LENGTHS = 24, 96, 3
    N_CLIENTS, N_REQUESTS = 8, 50

MAX_BATCH_SIZE = 32


def _served_model(tmp_path):
    """Fit once, round-trip through the artifact format (as a server would)."""
    dataset = make_cylinder_bell_funnel(
        n_series=FIT_N_SERIES, length=FIT_LENGTH, noise=0.2, random_state=0
    )
    model = KGraph(n_clusters=3, n_lengths=FIT_N_LENGTHS, random_state=0)
    model.fit(dataset.data)
    return load_model(save_model(model, tmp_path / "model", dataset="bench"))


def _request_stream():
    """The pool of out-of-sample series clients draw their requests from."""
    return make_cylinder_bell_funnel(
        n_series=64, length=FIT_LENGTH, noise=0.2, random_state=1
    ).data


def _run_load(call, series_pool):
    """Closed-loop load: N_CLIENTS threads, each issuing N_REQUESTS in turn.

    Returns (throughput_rps, latencies_seconds, predictions-by-request-index).
    """
    latencies = np.zeros(N_CLIENTS * N_REQUESTS)
    predictions = np.zeros(N_CLIENTS * N_REQUESTS, dtype=int)

    def client(client_id: int) -> None:
        for request_id in range(N_REQUESTS):
            index = client_id * N_REQUESTS + request_id
            series = series_pool[index % len(series_pool)]
            start = time.perf_counter()
            predictions[index] = call(series)
            latencies[index] = time.perf_counter() - start

    threads = [
        threading.Thread(target=client, args=(client_id,))
        for client_id in range(N_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    return len(latencies) / wall, latencies, predictions


def _run_serve_experiment(tmp_path):
    model = _served_model(tmp_path)
    series_pool = _request_stream()
    rows = []
    prediction_reference = None
    engine_stats = {}

    def record(mode, throughput, latencies, predictions, stats=None):
        nonlocal prediction_reference
        if prediction_reference is None:
            prediction_reference = predictions.copy()
        else:
            assert np.array_equal(predictions, prediction_reference), mode
        row = {
            "mode": mode,
            "throughput_rps": throughput,
            "p50_ms": float(np.percentile(latencies, 50) * 1e3),
            "p95_ms": float(np.percentile(latencies, 95) * 1e3),
            "requests": int(latencies.size),
        }
        if stats is not None:
            row["batches"] = stats["batches"]
            row["mean_batch_size"] = stats["mean_batch_size"]
            engine_stats[mode] = stats
        rows.append(row)

    # direct: per-request predict in the client thread, no serving layer.
    throughput, latencies, predictions = _run_load(
        lambda series: int(model.predict(series.reshape(1, -1))[0]), series_pool
    )
    record("direct", throughput, latencies, predictions)

    # unbatched: per-request dispatch through the engine (batch size 1).
    with InferenceEngine(model, max_batch_size=1) as engine:
        throughput, latencies, predictions = _run_load(engine.predict, series_pool)
        record("unbatched", throughput, latencies, predictions, engine.stats())

    # batched: work-conserving micro-batching (flush whatever is pending).
    with InferenceEngine(model, max_batch_size=MAX_BATCH_SIZE) as engine:
        throughput, latencies, predictions = _run_load(engine.predict, series_pool)
        record("batched", throughput, latencies, predictions, engine.stats())

    return rows, engine_stats


@pytest.mark.benchmark(group="E12-serve-latency")
def test_bench_serve_latency(benchmark, tmp_path):
    rows, engine_stats = benchmark.pedantic(
        lambda: _run_serve_experiment(tmp_path), rounds=1, iterations=1
    )

    by_mode = {row["mode"]: row for row in rows}
    for row in rows:
        row["speedup_vs_direct"] = row["throughput_rps"] / max(
            by_mode["direct"]["throughput_rps"], 1e-9
        )

    payload = schema_envelope(1, "serve-latency-benchmark")
    payload.update(
        {
            "experiment": "E12-serve-latency",
            "cpu_count": os.cpu_count() or 1,
            "full_mode": full_mode(),
            "load": {
                "n_clients": N_CLIENTS,
                "n_requests_per_client": N_REQUESTS,
                "series_length": FIT_LENGTH,
                "max_batch_size": MAX_BATCH_SIZE,
            },
            "model": {
                "n_series": FIT_N_SERIES,
                "length": FIT_LENGTH,
                "n_lengths": FIT_N_LENGTHS,
            },
            "rows": rows,
            "engine_stats": engine_stats,
        }
    )
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "serve_latency.json").write_text(
        json.dumps(payload, indent=2), encoding="utf-8"
    )

    table = format_table(
        rows,
        ["mode", "throughput_rps", "p50_ms", "p95_ms", "mean_batch_size", "speedup_vs_direct"],
    )
    batched = by_mode["batched"]
    unbatched = by_mode["unbatched"]
    summary = (
        f"{table}\n\n{N_CLIENTS} closed-loop clients x {N_REQUESTS} requests against "
        "one saved model (predictions identical across all modes, asserted).  "
        f"Micro-batching coalesced {batched['requests']} requests into "
        f"{batched['batches']} batches (mean size {batched['mean_batch_size']:.1f}) "
        f"for a {batched['throughput_rps'] / unbatched['throughput_rps']:.2f}x "
        "throughput gain over unbatched per-request dispatch."
    )
    report("E12: Online serving latency (micro-batched vs unbatched)", summary)
    benchmark.extra_info["batched_rps"] = round(batched["throughput_rps"])
    benchmark.extra_info["unbatched_rps"] = round(unbatched["throughput_rps"])

    # Results are always recorded; the wall-clock acceptance bar is only
    # asserted in full mode — throughput assertions flake on loaded or
    # single-core CI runners (same policy as test_bench_parallel).
    if full_mode():
        # Micro-batches must actually form under concurrent load...
        assert batched["mean_batch_size"] > 1.0
        # ...and batching must pay: more throughput than per-request dispatch.
        assert batched["throughput_rps"] > unbatched["throughput_rps"], (
            f"micro-batching ({batched['throughput_rps']:.0f} rps) must beat unbatched "
            f"per-request dispatch ({unbatched['throughput_rps']:.0f} rps)"
        )
