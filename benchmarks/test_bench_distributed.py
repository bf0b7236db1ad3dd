"""E14 — Distributed execution: worker pools and the data-plane economics.

Two real ``graphint worker`` services are started on loopback ephemeral
ports (the same subprocess + HTTP path a multi-host deployment uses), then:

* **Data plane**: the embed stage of one multi-length ``KGraph.fit`` is
  dispatched to the worker pool with and without a shared
  :class:`~repro.distributed.StageDataPlane`.  The plane must keep labels
  bit-identical while collapsing coordinator ``bytes_shipped`` by at least
  10x — the dataset arrays travel once as content fingerprints instead of
  once per job.
* **Sharded grid**: a k-Graph estimator grid sharded across the pool must
  match the serial sweep bit-identically (wall-clock is recorded, not
  asserted: on one machine two loopback workers mostly measure HTTP
  overhead, the sharding win appears with real hosts).

Results are persisted to ``benchmarks/out/distributed.json``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from bench_utils import RESULTS_DIR, format_table, full_mode, report
from repro.benchmark.runner import BenchmarkRunner
from repro.core.kgraph import KGraph
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.distributed import DistributedBackend, StageDataPlane

_ANNOUNCE = re.compile(r"http://([\d.]+):(\d+) \(pid (\d+)\)")

if full_mode():
    FIT_N_SERIES, FIT_LENGTH, FIT_N_LENGTHS = 60, 256, 8
    GRID = {"n_lengths": [2, 3, 4], "n_sectors": [8, 10]}
else:
    FIT_N_SERIES, FIT_LENGTH, FIT_N_LENGTHS = 32, 128, 4
    GRID = {"n_lengths": [2, 3], "n_sectors": [8, 10]}

RESULTS: dict = {}


def _spawn_worker(data_plane: str):
    env = os.environ.copy()
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.viz.cli",
            "worker",
            "--port",
            "0",
            "--data-plane",
            data_plane,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    deadline = time.monotonic() + 120
    lines = []
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        match = _ANNOUNCE.search(line)
        if match:
            return process, f"{match.group(1)}:{match.group(2)}"
    process.kill()
    raise RuntimeError(f"worker never announced itself: {''.join(lines)!r}")


@pytest.fixture(scope="module")
def worker_pool():
    plane_dir = tempfile.mkdtemp(prefix="repro-bench-distributed-")
    processes, urls = [], []
    for _ in range(2):
        process, url = _spawn_worker(plane_dir)
        processes.append(process)
        urls.append(url)
    yield {"urls": urls, "plane_dir": plane_dir}
    for process in processes:
        if process.poll() is None:
            process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)
        process.stdout.close()


def _fit_embed_distributed(urls, plane):
    backend = DistributedBackend(urls, data_plane=plane)
    dataset = make_cylinder_bell_funnel(
        n_series=FIT_N_SERIES, length=FIT_LENGTH, noise=0.2, random_state=0
    )
    model = KGraph(
        n_clusters=3,
        n_lengths=FIT_N_LENGTHS,
        random_state=0,
        stage_backends={"embed": backend},
    )
    try:
        start = time.perf_counter()
        labels = model.fit_predict(dataset.data)
        elapsed = time.perf_counter() - start
        return labels, model.optimal_length_, backend.bytes_shipped, elapsed
    finally:
        backend.close()


def test_data_plane_collapses_embed_payloads(worker_pool):
    dataset = make_cylinder_bell_funnel(
        n_series=FIT_N_SERIES, length=FIT_LENGTH, noise=0.2, random_state=0
    )
    serial_model = KGraph(n_clusters=3, n_lengths=FIT_N_LENGTHS, random_state=0)
    serial_labels = serial_model.fit_predict(dataset.data)

    plain_labels, plain_length, bytes_no_plane, plain_seconds = (
        _fit_embed_distributed(worker_pool["urls"], None)
    )
    plane = StageDataPlane(worker_pool["plane_dir"], min_bytes=8 * 1024)
    planed_labels, planed_length, bytes_plane, planed_seconds = (
        _fit_embed_distributed(worker_pool["urls"], plane)
    )

    np.testing.assert_array_equal(plain_labels, serial_labels)
    np.testing.assert_array_equal(planed_labels, serial_labels)
    assert plain_length == planed_length == serial_model.optimal_length_

    ratio = bytes_no_plane / max(bytes_plane, 1)
    assert ratio >= 10, (
        f"the data plane must collapse coordinator bytes >=10x, got "
        f"{ratio:.1f}x ({bytes_no_plane} B -> {bytes_plane} B)"
    )
    RESULTS["data_plane"] = {
        "n_series": FIT_N_SERIES,
        "length": FIT_LENGTH,
        "n_lengths": FIT_N_LENGTHS,
        "bytes_shipped_no_plane": int(bytes_no_plane),
        "bytes_shipped_with_plane": int(bytes_plane),
        "reduction_factor": round(ratio, 1),
        "arrays_stashed": plane.arrays_stashed,
        "arrays_deduplicated": plane.arrays_deduplicated,
        "fit_seconds_no_plane": round(plain_seconds, 3),
        "fit_seconds_with_plane": round(planed_seconds, 3),
    }


def _grid_comparable(result):
    row = result.to_dict()
    row.pop("runtime_seconds", None)
    for measure in ("stages_cached", "stages_executed"):
        row.pop(measure, None)
    return row


def test_sharded_grid_matches_serial(worker_pool):
    dataset = make_cylinder_bell_funnel(
        n_series=FIT_N_SERIES, length=FIT_LENGTH, noise=0.2, random_state=3
    )
    base = {"n_clusters": 3}

    start = time.perf_counter()
    serial = BenchmarkRunner(["kgraph"]).run_estimator_grid(
        dataset, "kgraph", GRID, base=base, random_state=7
    )
    serial_seconds = time.perf_counter() - start

    runner = BenchmarkRunner(
        ["kgraph"],
        backend="distributed:"
        + ",".join(worker_pool["urls"])
        + "@"
        + worker_pool["plane_dir"],
    )
    start = time.perf_counter()
    sharded = runner.run_estimator_grid(
        dataset, "kgraph", GRID, base=base, random_state=7
    )
    sharded_seconds = time.perf_counter() - start

    assert not any(result.failed for result in sharded)
    assert [_grid_comparable(result) for result in sharded] == [
        _grid_comparable(result) for result in serial
    ]
    RESULTS["sharded_grid"] = {
        "combinations": len(serial),
        "workers": len(worker_pool["urls"]),
        "serial_seconds": round(serial_seconds, 3),
        "sharded_seconds": round(sharded_seconds, 3),
        "ari_per_combo": [
            round(result.measures.get("ari", float("nan")), 4)
            for result in sharded
        ],
    }


def test_report_and_persist(worker_pool):
    if not RESULTS:
        pytest.skip("no results collected (earlier tests failed)")
    plane = RESULTS.get("data_plane", {})
    grid = RESULTS.get("sharded_grid", {})
    rows = []
    if plane:
        rows.append(
            {
                "scenario": "embed fan-out, no plane",
                "bytes_shipped": plane["bytes_shipped_no_plane"],
                "seconds": plane["fit_seconds_no_plane"],
            }
        )
        rows.append(
            {
                "scenario": "embed fan-out, data plane",
                "bytes_shipped": plane["bytes_shipped_with_plane"],
                "seconds": plane["fit_seconds_with_plane"],
            }
        )
    text = format_table(rows, ["scenario", "bytes_shipped", "seconds"])
    if plane:
        text += (
            f"\n\ncoordinator payload reduction: {plane['reduction_factor']}x"
        )
    if grid:
        text += (
            f"\nsharded grid: {grid['combinations']} combos over "
            f"{grid['workers']} workers, serial {grid['serial_seconds']} s vs "
            f"sharded {grid['sharded_seconds']} s (bit-identical)"
        )
    report("E14: distributed execution", text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "distributed.json").write_text(
        json.dumps(RESULTS, indent=2) + "\n", encoding="utf-8"
    )
