"""E13 — Hot-path vectorization: vectorized vs retained reference implementations.

PR 3 replaced every per-subsequence / per-pair Python loop on the k-Graph
hot paths with vectorized NumPy: bulk graph construction (the array-native
``TimeSeriesGraph`` that ``GraphEmbedding`` builds from its node
assignments), an anti-diagonal banded DTW, blockwise/batched
``pairwise_distances``, ``np.argpartition``-based ``knn_affinity``, a
one-hot-GEMM consensus matrix and a whole-batch ``predict_with_state``.
Each vectorized path retains its original implementation as a
``*_reference`` twin (DTW, pairwise distances), or as an oracle in
``tests/oracles/`` (graph embedding, k-NN affinity, consensus matrix,
batched prediction); this experiment

* times each (reference, vectorized) pair on the benchmark config,
* asserts the outputs are **bit-identical** (``np.array_equal`` / payload
  equality, never approx),
* asserts the acceptance floors — >= 5x on embedding graph construction
  and >= 10x on DTW / pairwise distances.

The experiment persists everything to ``benchmarks/out/hotpaths.json``.
The CI perf-smoke job compares that fresh run against the committed baseline
``benchmarks/results/hotpaths.json`` (see ``benchmarks/compare_hotpaths.py``),
which changes only when a run is copied over it by hand: speedups are
machine-normalized (reference and vectorized run on the same box), so the
comparison is robust across runner generations.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from bench_utils import RESULTS_DIR, format_table, full_mode, report
from repro.core.consensus import build_consensus_matrix
from repro.core.kgraph import KGraph, predict_with_state
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.graph.embedding import GraphEmbedding
from repro.linalg.kernels import knn_affinity
from repro.metrics.distances import (
    dtw_distance,
    dtw_distance_reference,
    pairwise_distances,
    pairwise_distances_reference,
)
from repro.pipeline import MemoryStageCache

# The reference implementations that live with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles.consensus import build_consensus_matrix_reference  # noqa: E402
from oracles.embedding import record_graph, reference_inputs  # noqa: E402
from oracles.graph import payload  # noqa: E402
from oracles.kernels import knn_affinity_reference  # noqa: E402
from oracles.predict import predict_with_state_reference  # noqa: E402

SCHEMA_VERSION = 1

if full_mode():
    EMBED_N_SERIES, EMBED_SERIES_LENGTH, EMBED_LENGTH = 64, 256, 32
    DTW_SINGLE_LENGTH = 512
    DTW_PAIRWISE_SHAPE = (24, 128)
    PAIRWISE_SHAPE = (160, 192)
    KNN_SHAPE, KNN_NEIGHBORS = (400, 16), 10
    CONSENSUS_PARTITIONS, CONSENSUS_SAMPLES = 16, 800
    PREDICT_BATCH = 128
    PIPELINE_N_SERIES, PIPELINE_SERIES_LENGTH, PIPELINE_N_LENGTHS = 48, 160, 4
else:
    EMBED_N_SERIES, EMBED_SERIES_LENGTH, EMBED_LENGTH = 32, 160, 24
    DTW_SINGLE_LENGTH = 192
    DTW_PAIRWISE_SHAPE = (16, 96)
    PAIRWISE_SHAPE = (96, 160)
    KNN_SHAPE, KNN_NEIGHBORS = (200, 16), 10
    CONSENSUS_PARTITIONS, CONSENSUS_SAMPLES = 12, 500
    PREDICT_BATCH = 64
    PIPELINE_N_SERIES, PIPELINE_SERIES_LENGTH, PIPELINE_N_LENGTHS = 24, 96, 3

# Acceptance floors: >= 5x on embedding graph construction, >= 10x on
# DTW/pairwise, and >= 5x for a fully checkpoint-replayed pipeline re-fit
# over a cold fit.  The remaining hot paths are guarded by the looser
# committed-baseline comparison of the CI perf-smoke job (their
# vectorized sides finish in single-digit milliseconds, where timing jitter
# on shared runners makes a hard double-digit floor flaky).
SPEEDUP_FLOORS = {
    "embedding_build": 5.0,
    "dtw_single": 10.0,
    "dtw_pairwise": 10.0,
    "pipeline_cached_refit": 5.0,
}


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _entry(
    hot_path: str,
    reference: Callable[[], object],
    vectorized: Callable[[], object],
    equal: Callable[[object, object], bool],
    *,
    ref_repeats: int = 2,
    vec_repeats: int = 5,
) -> Dict[str, object]:
    assert equal(reference(), vectorized()), f"{hot_path}: outputs differ"
    reference_seconds = _best_seconds(reference, ref_repeats)
    vectorized_seconds = _best_seconds(vectorized, vec_repeats)
    return {
        "hot_path": hot_path,
        "reference_seconds": reference_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": reference_seconds / max(vectorized_seconds, 1e-12),
    }


# --------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------- #
def _embedding_entry() -> Dict[str, object]:
    """Time graph construction (assembly) on precomputed assignments.

    The PCA projection and radial scan are identical in both paths; the
    construction stage — pattern means, visit and transition recording —
    is what the vectorization targets, so it is what gets timed.  The
    reference is the per-subsequence loop of ``tests/oracles/embedding.py``
    into the dict graph of ``tests/oracles/graph.py``; the fast side is the
    assembly ``GraphEmbedding.fit`` runs, handed the whole z-normalised
    subsequence matrix as one block.  Both graphs are compared through the
    oracle's payload of their accessors.
    """
    dataset = make_cylinder_bell_funnel(
        n_series=EMBED_N_SERIES, length=EMBED_SERIES_LENGTH, noise=0.2, random_state=0
    )
    data = dataset.data
    embedding = GraphEmbedding(EMBED_LENGTH, random_state=0)
    embedding.fit(data)  # untimed: fills projection_ / node_positions_
    subsequences, series_index, assignments, node_positions = reference_inputs(
        embedding, data
    )
    n_series = data.shape[0]

    entry = _entry(
        "embedding_build",
        lambda: record_graph(
            EMBED_LENGTH, n_series, subsequences, series_index, assignments, node_positions
        ),
        lambda: embedding._assemble_graph(
            n_series, [subsequences], assignments, node_positions
        ),
        lambda ref, vec: payload(ref) == payload(vec),
    )
    entry["n_subsequences"] = int(subsequences.shape[0])
    return entry


def _dtw_single_entry() -> Dict[str, object]:
    rng = np.random.default_rng(1)
    a = rng.normal(size=DTW_SINGLE_LENGTH).cumsum()
    b = rng.normal(size=DTW_SINGLE_LENGTH).cumsum()
    entry = _entry(
        "dtw_single",
        lambda: dtw_distance_reference(a, b),
        lambda: dtw_distance(a, b),
        lambda ref, vec: ref == vec,
    )
    entry["length"] = DTW_SINGLE_LENGTH
    return entry


def _dtw_pairwise_entry() -> Dict[str, object]:
    rng = np.random.default_rng(2)
    data = rng.normal(size=DTW_PAIRWISE_SHAPE).cumsum(axis=1)
    entry = _entry(
        "dtw_pairwise",
        lambda: pairwise_distances_reference(data, metric="dtw"),
        lambda: pairwise_distances(data, metric="dtw"),
        np.array_equal,
        ref_repeats=1,
    )
    entry["shape"] = list(DTW_PAIRWISE_SHAPE)
    return entry


def _pairwise_entry(metric: str) -> Dict[str, object]:
    rng = np.random.default_rng(3)
    data = rng.normal(size=PAIRWISE_SHAPE).cumsum(axis=1)
    # The euclidean default is the (even faster) gram-matrix GEMM path;
    # exact=True selects the direct-difference kernel, the one that is
    # bit-identical to the reference loop and therefore the one timed here.
    kwargs = {"exact": True} if metric == "euclidean" else {}
    entry = _entry(
        f"{metric}_pairwise",
        lambda: pairwise_distances_reference(data, metric=metric),
        lambda: pairwise_distances(data, metric=metric, **kwargs),
        np.array_equal,
    )
    entry["shape"] = list(PAIRWISE_SHAPE)
    return entry


def _knn_entry() -> Dict[str, object]:
    rng = np.random.default_rng(4)
    data = rng.normal(size=KNN_SHAPE)
    entry = _entry(
        "knn_affinity",
        lambda: knn_affinity_reference(data, n_neighbors=KNN_NEIGHBORS),
        lambda: knn_affinity(data, n_neighbors=KNN_NEIGHBORS),
        np.array_equal,
    )
    entry["shape"] = list(KNN_SHAPE)
    return entry


def _consensus_entry() -> Dict[str, object]:
    rng = np.random.default_rng(5)
    partitions = [
        rng.integers(0, 5, size=CONSENSUS_SAMPLES) for _ in range(CONSENSUS_PARTITIONS)
    ]
    entry = _entry(
        "consensus_matrix",
        lambda: build_consensus_matrix_reference(partitions),
        lambda: build_consensus_matrix(partitions),
        np.array_equal,
    )
    entry["n_partitions"] = CONSENSUS_PARTITIONS
    entry["n_samples"] = CONSENSUS_SAMPLES
    return entry


def _predict_entry() -> Dict[str, object]:
    train = make_cylinder_bell_funnel(n_series=24, length=96, noise=0.2, random_state=6)
    model = KGraph(n_clusters=3, n_lengths=2, random_state=0)
    model.fit(train.data)
    state = model.prediction_state()
    fresh = make_cylinder_bell_funnel(
        n_series=PREDICT_BATCH, length=96, noise=0.2, random_state=7
    )
    entry = _entry(
        "batched_predict",
        lambda: predict_with_state_reference(state, fresh.data),
        lambda: predict_with_state(state, fresh.data),
        np.array_equal,
    )
    entry["batch_size"] = PREDICT_BATCH
    return entry


def _pipeline_entry() -> Dict[str, object]:
    """Cold pipeline fit vs a fully checkpoint-replayed re-fit (resume path).

    The "reference" side is a cold ``KGraph.fit`` through the stage
    pipeline; the "vectorized" side re-fits with identical parameters
    against a warm :class:`~repro.pipeline.MemoryStageCache`, so every
    stage replays its checkpoint.  Labels must be bit-identical either way
    — the speedup is what ``--resume`` and the benchmark parameter grids
    buy over refitting from scratch.
    """
    dataset = make_cylinder_bell_funnel(
        n_series=PIPELINE_N_SERIES,
        length=PIPELINE_SERIES_LENGTH,
        noise=0.2,
        random_state=9,
    )
    params = dict(n_clusters=3, n_lengths=PIPELINE_N_LENGTHS, random_state=0)

    def cold() -> np.ndarray:
        return KGraph(**params).fit(dataset.data).labels_

    cache = MemoryStageCache()
    KGraph(**params, stage_cache=cache).fit(dataset.data)  # untimed warm-up

    def warm() -> np.ndarray:
        return KGraph(**params, stage_cache=cache).fit(dataset.data).labels_

    entry = _entry(
        "pipeline_cached_refit", cold, warm, np.array_equal, ref_repeats=1
    )
    entry["n_series"] = int(dataset.n_series)
    entry["series_length"] = int(dataset.length)
    entry["n_lengths"] = int(params["n_lengths"])
    return entry


def _run_hotpaths_experiment() -> Dict[str, object]:
    entries: List[Dict[str, object]] = [
        _embedding_entry(),
        _dtw_single_entry(),
        _dtw_pairwise_entry(),
        _pairwise_entry("euclidean"),
        _pairwise_entry("zeuclidean"),
        _pairwise_entry("sbd"),
        _knn_entry(),
        _consensus_entry(),
        _predict_entry(),
        _pipeline_entry(),
    ]
    for entry in entries:
        floor = SPEEDUP_FLOORS.get(entry["hot_path"])
        if floor is not None:
            assert entry["speedup"] >= floor, (
                f"{entry['hot_path']}: speedup {entry['speedup']:.1f}x below the "
                f"{floor:g}x acceptance floor"
            )
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": "E13-hotpaths",
        "full_mode": full_mode(),
        "entries": entries,
    }


@pytest.mark.benchmark(group="E13-hotpaths")
def test_bench_hotpaths(benchmark):
    payload = benchmark.pedantic(_run_hotpaths_experiment, rounds=1, iterations=1)

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / "hotpaths.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )

    rows = [
        {
            "hot path": entry["hot_path"],
            "reference_s": entry["reference_seconds"],
            "vectorized_s": entry["vectorized_seconds"],
            "speedup": entry["speedup"],
        }
        for entry in payload["entries"]
    ]
    text = format_table(rows, ["hot path", "reference_s", "vectorized_s", "speedup"])
    text += "\n\nAll vectorized outputs bit-identical to the reference implementations."
    report("E13: Hot-path vectorization", text)

    assert all(entry["speedup"] > 1.0 for entry in payload["entries"])
