"""Bit-identical equivalence of the vectorized hot paths vs their references.

Every hot path vectorized for E13 keeps its original implementation as a
reference: a ``*_reference`` twin in the library (DTW and pairwise
distances, which fall back to it), or an oracle in ``tests/oracles/`` (graph
embedding and the dict graph, k-NN affinity, consensus matrix, batched
prediction).
These tests assert the two produce
*bit-identical* outputs (``np.array_equal``, payload equality — not approx)
on random and adversarial inputs: distance ties, single-node graphs,
stride > 1 and constant series.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.consensus import build_consensus_matrix
from repro.core.kgraph import KGraph, PredictionState, predict_with_state
from repro.datasets import generate_dataset
from repro.graph.embedding import GraphEmbedding
from repro.graph.structure import TimeSeriesGraph
from repro.linalg.kernels import knn_affinity
from repro.metrics.distances import (
    dtw_distance,
    dtw_distance_reference,
    pairwise_distances,
    pairwise_distances_reference,
)

from oracles.consensus import build_consensus_matrix_reference
from oracles.embedding import embedding_graph_reference
from oracles.graph import assert_matches_oracle, record_trajectories
from oracles.kernels import knn_affinity_reference
from oracles.predict import predict_with_state_reference

METRICS = ("euclidean", "zeuclidean", "sbd", "dtw")


def _random_walks(n_series: int, length: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n_series, length)).cumsum(axis=1)


# --------------------------------------------------------------------- #
# DTW
# --------------------------------------------------------------------- #
class TestDTWEquivalence:
    @pytest.mark.parametrize("shape", [(1, 1), (1, 7), (9, 9), (13, 8), (64, 64)])
    @pytest.mark.parametrize("window", [None, 0, 1, 5, 1000])
    def test_random_pairs(self, shape, window):
        rng = np.random.default_rng(sum(shape) + (window or 0))
        a, b = rng.normal(size=shape[0]), rng.normal(size=shape[1])
        assert dtw_distance(a, b, window=window) == dtw_distance_reference(
            a, b, window=window
        )

    def test_constant_series(self):
        a, b = np.zeros(12), np.full(12, 3.0)
        assert dtw_distance(a, b) == dtw_distance_reference(a, b)
        assert dtw_distance(a, a) == 0.0

    def test_tied_costs(self):
        # Repeated values create many equal-cost cells and min ties.
        a = np.array([1.0, 1.0, 2.0, 2.0, 1.0, 1.0])
        b = np.array([2.0, 2.0, 1.0, 1.0, 2.0, 2.0])
        for window in (None, 1, 2):
            assert dtw_distance(a, b, window=window) == dtw_distance_reference(
                a, b, window=window
            )

    def test_negative_window_rejected(self):
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            dtw_distance([1.0, 2.0], [1.0, 2.0], window=-2)


# --------------------------------------------------------------------- #
# pairwise distances
# --------------------------------------------------------------------- #
class TestPairwiseEquivalence:
    @pytest.mark.parametrize("metric", METRICS)
    def test_random(self, metric):
        data = _random_walks(17, 48, seed=1)
        # The euclidean default is the gram-matrix GEMM fast path;
        # exact=True selects the bit-identical direct-difference kernel.
        exact = {"exact": True} if metric == "euclidean" else {}
        assert np.array_equal(
            pairwise_distances(data, metric=metric, **exact),
            pairwise_distances_reference(data, metric=metric),
        )

    def test_euclidean_gram_default_close_to_exact(self):
        data = _random_walks(17, 48, seed=1)
        gram = pairwise_distances(data, metric="euclidean")
        precise = pairwise_distances(data, metric="euclidean", exact=True)
        # The gram trick loses a few ulps to cancellation (notably a
        # not-exactly-zero diagonal) — long-standing fast-path behaviour.
        np.testing.assert_allclose(gram, precise, atol=1e-6)
        assert np.array_equal(gram, gram.T)

    @pytest.mark.parametrize("metric", METRICS)
    def test_adversarial_rows(self, metric):
        rng = np.random.default_rng(2)
        row = rng.normal(size=24)
        data = np.vstack(
            [
                np.zeros(24),  # degenerate norms (SBD) and zero variance
                np.full(24, 5.0),  # constant, non-zero
                row,
                row,  # exact duplicate -> zero distances and ties
                -row,
                rng.normal(size=24),
            ]
        )
        exact = {"exact": True} if metric == "euclidean" else {}
        assert np.array_equal(
            pairwise_distances(data, metric=metric, **exact),
            pairwise_distances_reference(data, metric=metric),
        )

    def test_dtw_window_kwarg(self):
        data = _random_walks(9, 30, seed=3)
        assert np.array_equal(
            pairwise_distances(data, metric="dtw", window=2),
            pairwise_distances_reference(data, metric="dtw", window=2),
        )

    @pytest.mark.parametrize("metric", ("euclidean", "dtw"))
    def test_tiny_blocks_match_unblocked(self, metric):
        data = _random_walks(11, 26, seed=4)
        exact = {"exact": True} if metric == "euclidean" else {}
        assert np.array_equal(
            pairwise_distances(data, metric=metric, block_size=2, **exact),
            pairwise_distances(data, metric=metric, **exact),
        )

    def test_single_row(self):
        data = np.arange(10.0)[None, :]
        for metric in METRICS:
            assert np.array_equal(
                pairwise_distances(data, metric=metric), np.zeros((1, 1))
            )


# --------------------------------------------------------------------- #
# k-NN affinity
# --------------------------------------------------------------------- #
class TestKnnAffinityEquivalence:
    @pytest.mark.parametrize("n_neighbors", [1, 3, 10, 50])
    def test_random(self, n_neighbors):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(30, 6))
        assert np.array_equal(
            knn_affinity(data, n_neighbors=n_neighbors),
            knn_affinity_reference(data, n_neighbors=n_neighbors),
        )

    @pytest.mark.parametrize("n_neighbors", [1, 2, 4, 7])
    def test_distance_ties_on_grid(self, n_neighbors):
        # Integer grid points produce many exactly-tied distances; both
        # implementations must break ties by the smaller column index.
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        data = np.column_stack([xs.ravel(), ys.ravel()])
        assert np.array_equal(
            knn_affinity(data, n_neighbors=n_neighbors),
            knn_affinity_reference(data, n_neighbors=n_neighbors),
        )

    def test_duplicate_points(self):
        data = np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        for n_neighbors in (1, 2, 3):
            assert np.array_equal(
                knn_affinity(data, n_neighbors=n_neighbors),
                knn_affinity_reference(data, n_neighbors=n_neighbors),
            )

    def test_symmetric_binary(self):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(20, 3))
        affinity = knn_affinity(data, n_neighbors=4)
        assert np.array_equal(affinity, affinity.T)
        assert set(np.unique(affinity)) <= {0.0, 1.0}


# --------------------------------------------------------------------- #
# consensus matrix
# --------------------------------------------------------------------- #
class TestConsensusEquivalence:
    def test_random_partitions(self):
        rng = np.random.default_rng(7)
        partitions = [rng.integers(0, 4, size=60) for _ in range(9)]
        assert np.array_equal(
            build_consensus_matrix(partitions),
            build_consensus_matrix_reference(partitions),
        )

    def test_degenerate_partitions(self):
        # Single cluster, singleton clusters, and non-contiguous label ids.
        partitions = [
            np.zeros(12, dtype=int),
            np.arange(12),
            np.array([5, 5, 9, 9, 5, 9, 5, 5, 9, 9, 9, 5]),
        ]
        assert np.array_equal(
            build_consensus_matrix(partitions),
            build_consensus_matrix_reference(partitions),
        )


# --------------------------------------------------------------------- #
# graph embedding / bulk recording
# --------------------------------------------------------------------- #
def _fit_and_reference(embedding: GraphEmbedding, data: np.ndarray):
    """The fitted graph, and the oracle's graph from the same fitted projection."""
    graph = embedding.fit(data)
    return graph, embedding_graph_reference(embedding, data)


class TestEmbeddingEquivalence:
    @pytest.mark.parametrize("stride", [1, 2, 5])
    def test_random_walks(self, stride):
        data = _random_walks(10, 72, seed=8)
        vectorized, reference = _fit_and_reference(
            GraphEmbedding(12, stride=stride, random_state=0), data
        )
        assert_matches_oracle(vectorized, reference)

    def test_constant_series_single_node_graph(self):
        # All-constant series z-normalise to zero subsequences: the radial
        # scan collapses to one node and every transition is a self-loop.
        data = np.ones((6, 30))
        vectorized, reference = _fit_and_reference(GraphEmbedding(6, random_state=0), data)
        assert_matches_oracle(vectorized, reference)
        assert vectorized.n_nodes == 1
        assert vectorized.edges() == [(0, 0)]

    def test_mixed_constant_and_random(self):
        rng = np.random.default_rng(9)
        data = np.vstack(
            [np.zeros(40), np.full(40, 2.5), rng.normal(size=(4, 40)).cumsum(axis=1)]
        )
        vectorized, reference = _fit_and_reference(GraphEmbedding(8, random_state=0), data)
        assert_matches_oracle(vectorized, reference)


def _assert_matches_recording(length, positions, patterns, trajectories) -> None:
    """Every read accessor and matrix equals the dict graph's, bit for bit."""
    graph = TimeSeriesGraph(length, positions, patterns, trajectories)
    oracle = record_trajectories(length, positions, patterns, trajectories)
    for read in ("n_series", "n_nodes", "n_edges"):
        assert getattr(graph, read) == getattr(oracle, read)
    for read in ("nodes", "edges", "node_positions", "summary"):
        assert getattr(graph, read)() == getattr(oracle, read)()
    for node in oracle.nodes():
        assert graph.node_weight(node) == oracle.node_weight(node)
        assert graph.series_through_node(node) == oracle.series_through_node(node)
        assert graph.node_visit_counts(node) == oracle.node_visit_counts(node)
        assert graph.node_pattern(node).tobytes() == oracle.node_pattern(node).tobytes()
    # Every pair of nodes, plus out-of-range endpoints: present and absent edges.
    for source in range(-1, graph.n_nodes + 1):
        for target in range(-1, graph.n_nodes + 1):
            edge = (source, target)
            assert graph.edge_weight(edge) == oracle.edge_weight(edge)
            assert graph.series_through_edge(edge) == oracle.series_through_edge(edge)
            assert graph.edge_visit_counts(edge) == oracle.edge_visit_counts(edge)
    for series in range(-1, graph.n_series + 1):
        assert graph.trajectory(series) == oracle.trajectory(series)
    for matrix in ("node_feature_matrix", "edge_feature_matrix", "feature_matrix"):
        for normalize in (True, False):
            ours = getattr(graph, matrix)(normalize)
            theirs = getattr(oracle, matrix)(normalize)
            assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes()
    assert graph.adjacency_matrix().tobytes() == oracle.adjacency_matrix().tobytes()


class TestBulkRecordingEquivalence:
    """The graph derived from its arrays vs the dict graph recorded visit by visit."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_bulk_matches_loop(self, data):
        n_nodes = data.draw(st.integers(1, 12), label="n_nodes")
        n_series = data.draw(st.integers(1, 8), label="n_series")
        n_windows = data.draw(st.integers(0, 10), label="n_windows")
        trajectories = data.draw(
            arrays(np.int64, (n_series, n_windows), elements=st.integers(0, n_nodes - 1)),
            label="trajectories",
        )
        coordinates = st.floats(-10, 10, allow_nan=False, width=64)
        positions = data.draw(arrays(np.float64, (n_nodes, 2), elements=coordinates))
        patterns = data.draw(arrays(np.float64, (n_nodes, 3), elements=coordinates))
        _assert_matches_recording(3, positions, patterns, trajectories)

    def test_bulk_validation(self):
        from repro.exceptions import GraphConstructionError, ValidationError

        positions, patterns = np.zeros((2, 2)), np.zeros((2, 4))
        for trajectories in ([[0.0, 1.0]], [[True, False]], [0, 1], [[[0, 1]]]):
            with pytest.raises(ValidationError, match="^trajectories"):
                TimeSeriesGraph(4, positions, patterns, np.array(trajectories))
        with pytest.raises(GraphConstructionError, match="^trajectories"):
            TimeSeriesGraph(4, positions, patterns, [[0, 2]])
        with pytest.raises(ValidationError, match="^positions"):
            TimeSeriesGraph(4, np.array([["a", "b"], ["c", "d"]]), patterns, [[0, 1]])
        with pytest.raises(ValidationError, match="^patterns"):
            TimeSeriesGraph(4, positions, patterns.astype(complex), [[0, 1]])
        with pytest.raises(ValidationError, match="length"):
            TimeSeriesGraph(0, positions, patterns, [[0, 1]])
        # Series without subsequences: every weight and count is 0.
        graph = TimeSeriesGraph(4, positions, patterns, np.empty((3, 0), dtype=int))
        assert graph.n_series == 3 and graph.n_edges == 0
        assert graph.node_weight(0) == 0
        assert graph.feature_matrix().tolist() == [[0.0, 0.0]] * 3


# --------------------------------------------------------------------- #
# batched prediction
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def fitted_model() -> KGraph:
    dataset = generate_dataset("cylinder_bell_funnel", random_state=0)
    model = KGraph(n_clusters=3, n_lengths=3, random_state=0)
    model.fit(dataset.data)
    return model


class TestBatchedPredictEquivalence:
    def test_batched_matches_reference(self, fitted_model):
        rng = np.random.default_rng(11)
        state = fitted_model.prediction_state()
        data = rng.normal(size=(16, 128)).cumsum(axis=1)
        assert np.array_equal(
            predict_with_state(state, data),
            predict_with_state_reference(state, data),
        )

    def test_single_series_and_empty_batch(self, fitted_model):
        state = fitted_model.prediction_state()
        rng = np.random.default_rng(12)
        one = rng.normal(size=(1, 128))
        assert np.array_equal(
            predict_with_state(state, one), predict_with_state_reference(state, one)
        )
        assert predict_with_state(state, np.empty((0, 128))).shape == (0,)

    def test_constant_series_ties(self, fitted_model):
        # Constant series z-normalise to zero windows: every node pattern is
        # equidistant, so argmin tie-breaks must agree between the paths.
        state = fitted_model.prediction_state()
        data = np.vstack([np.zeros(128), np.full(128, 4.0)])
        assert np.array_equal(
            predict_with_state(state, data),
            predict_with_state_reference(state, data),
        )

    def test_stride_greater_than_one(self):
        dataset = generate_dataset("cylinder_bell_funnel", random_state=1)
        model = KGraph(n_clusters=3, n_lengths=3, stride=3, random_state=1)
        model.fit(dataset.data)
        state = model.prediction_state()
        rng = np.random.default_rng(13)
        data = rng.normal(size=(8, dataset.data.shape[1])).cumsum(axis=1)
        assert state.stride == 3
        assert np.array_equal(
            predict_with_state(state, data),
            predict_with_state_reference(state, data),
        )

    def test_blocked_batches_match_single_block(self, fitted_model, monkeypatch):
        # Force the bounded-memory path to split the batch into many row
        # blocks; predictions must not depend on the block boundaries.
        import repro.utils.windows as windows_module

        state = fitted_model.prediction_state()
        rng = np.random.default_rng(15)
        data = rng.normal(size=(13, 128)).cumsum(axis=1)
        expected = predict_with_state(state, data)
        monkeypatch.setattr(windows_module, "WINDOW_BLOCK_VALUES", 1)
        assert np.array_equal(predict_with_state(state, data), expected)
        assert np.array_equal(
            predict_with_state(state, data),
            predict_with_state_reference(state, data),
        )

    def test_predict_uses_batched_path(self, fitted_model):
        dataset = generate_dataset("cylinder_bell_funnel", random_state=0)
        state = fitted_model.prediction_state()
        assert np.array_equal(
            fitted_model.predict(dataset.data[:5]),
            predict_with_state_reference(state, dataset.data[:5]),
        )


class TestPredictionStateHoisting:
    def test_precomputed_norms_populated(self, fitted_model):
        state = fitted_model.prediction_state()
        assert np.array_equal(state.patterns_sq, np.sum(state.patterns**2, axis=1))
        assert np.array_equal(state.centroids_sq, np.sum(state.centroids**2, axis=1))

    def test_predict_consumes_hoisted_norms(self, fitted_model):
        # Micro-test for the hoist: corrupting the precomputed norms must
        # change predictions, proving predict_with_state reads them instead
        # of re-deriving the values per call.
        state = fitted_model.prediction_state()
        rng = np.random.default_rng(14)
        data = rng.normal(size=(12, 128)).cumsum(axis=1)
        baseline = predict_with_state(state, data)

        skewed = PredictionState(
            length=state.length,
            stride=state.stride,
            patterns=state.patterns,
            patterns_sq=state.patterns_sq + 1e6 * rng.random(state.patterns_sq.shape),
            centroids=state.centroids,
            centroids_sq=state.centroids_sq,
            clusters=state.clusters,
        )
        assert not np.array_equal(predict_with_state(skewed, data), baseline)

        skewed_centroids = PredictionState(
            length=state.length,
            stride=state.stride,
            patterns=state.patterns,
            patterns_sq=state.patterns_sq,
            centroids=state.centroids,
            centroids_sq=state.centroids_sq + np.linspace(50.0, -50.0, state.centroids_sq.shape[0]),
            clusters=state.clusters,
        )
        assert not np.array_equal(
            predict_with_state(skewed_centroids, data), baseline
        )
