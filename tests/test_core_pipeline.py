"""Unit tests for the k-Graph pipeline stages (graph clustering, consensus,
interpretability) taken in isolation."""

import numpy as np
import pytest

from repro.core.consensus import build_consensus_matrix, consensus_clustering
from repro.core.graph_clustering import cluster_graph, graph_features
from repro.core.interpretability import (
    LengthScore,
    consistency_score,
    interpretability_scores,
    select_optimal_length,
)
from repro.exceptions import ValidationError
from repro.graph.embedding import GraphEmbedding
from repro.metrics.clustering import adjusted_rand_index


class TestClusterGraph:
    @pytest.fixture(scope="class")
    def graph(self, small_dataset):
        return GraphEmbedding(16, random_state=0).fit(small_dataset.data)

    def test_partition_properties(self, graph, small_dataset):
        partition = cluster_graph(graph, 3, random_state=0)
        assert partition.labels.shape == (small_dataset.n_series,)
        assert np.unique(partition.labels).size == 3
        assert partition.length == 16
        features = graph_features(graph, "both")
        assert features.shape[0] == small_dataset.n_series
        assert features.shape[1] == graph.n_nodes + graph.n_edges
        assert partition.inertia >= 0

    def test_partition_beats_chance(self, graph, small_dataset):
        partition = cluster_graph(graph, 3, random_state=0)
        assert adjusted_rand_index(small_dataset.labels, partition.labels) > 0.3

    def test_feature_modes(self, graph):
        assert graph_features(graph, "nodes").shape[1] == graph.n_nodes
        assert graph_features(graph, "edges").shape[1] == graph.n_edges

    def test_invalid_feature_mode(self, graph):
        with pytest.raises(ValidationError):
            cluster_graph(graph, 3, feature_mode="hyperedges")

    def test_too_many_clusters(self, graph):
        with pytest.raises(ValidationError):
            cluster_graph(graph, graph.n_series + 1)


class TestConsensus:
    def test_consensus_matrix_values(self):
        partitions = [
            np.array([0, 0, 1, 1]),
            np.array([0, 0, 1, 1]),
            np.array([0, 1, 1, 0]),
        ]
        matrix = build_consensus_matrix(partitions)
        assert matrix.shape == (4, 4)
        assert np.allclose(np.diag(matrix), 1.0)
        assert matrix[0, 1] == pytest.approx(2 / 3)
        assert matrix[0, 3] == pytest.approx(1 / 3)
        assert np.allclose(matrix, matrix.T)

    def test_identical_partitions_give_binary_matrix(self):
        partition = np.array([0, 1, 0, 1, 2])
        matrix = build_consensus_matrix([partition] * 4)
        assert set(np.unique(matrix)).issubset({0.0, 1.0})

    def test_consensus_clustering_recovers_shared_structure(self):
        rng = np.random.default_rng(0)
        truth = np.repeat([0, 1, 2], 10)
        partitions = []
        for _ in range(5):
            noisy = truth.copy()
            flips = rng.choice(30, size=3, replace=False)
            noisy[flips] = rng.integers(0, 3, size=3)
            partitions.append(noisy)
        labels, matrix = consensus_clustering(partitions, 3, random_state=0)
        assert adjusted_rand_index(truth, labels) > 0.8
        assert matrix.shape == (30, 30)

    def test_label_permutations_do_not_matter(self):
        base = np.array([0, 0, 1, 1, 2, 2])
        permuted = np.array([2, 2, 0, 0, 1, 1])
        matrix = build_consensus_matrix([base, permuted])
        assert set(np.unique(matrix)).issubset({0.0, 1.0})
        assert matrix[0, 1] == 1.0

    def test_errors(self):
        with pytest.raises(ValidationError):
            build_consensus_matrix([])
        with pytest.raises(ValidationError):
            build_consensus_matrix([np.array([0, 1]), np.array([0, 1, 2])])
        with pytest.raises(ValidationError):
            consensus_clustering([np.array([0, 1, 0])], 5)


class TestInterpretabilityScores:
    def test_consistency_is_clipped_ari(self):
        assert consistency_score([0, 0, 1, 1], [1, 1, 0, 0]) == pytest.approx(1.0)
        assert consistency_score([0, 1, 0, 1], [0, 0, 1, 1]) >= 0.0

    def test_scores_for_fitted_model(self, fitted_kgraph):
        result = fitted_kgraph.result_
        scores = interpretability_scores(result.graphs, result.partitions, result.labels)
        assert scores == result.length_scores
        assert len(scores) == len(result.graphs)
        for score in scores:
            assert 0.0 <= score.consistency <= 1.0
            assert 0.0 <= score.interpretability <= 1.0
            assert score.combined == pytest.approx(score.consistency * score.interpretability)

    def test_select_optimal_length_maximises_product(self):
        scores = [
            LengthScore(8, 0.5, 0.5),
            LengthScore(16, 0.9, 0.8),
            LengthScore(32, 1.0, 0.1),
        ]
        assert select_optimal_length(scores) == 16

    def test_tie_broken_by_shorter_length(self):
        scores = [LengthScore(32, 0.8, 0.5), LengthScore(8, 0.5, 0.8)]
        assert select_optimal_length(scores) == 8

    def test_degenerate_scores_fall_back_to_interpretability(self):
        scores = [LengthScore(8, 0.0, 0.2), LengthScore(16, 0.0, 0.7)]
        assert select_optimal_length(scores) == 16

    def test_empty_scores_rejected(self):
        with pytest.raises(ValidationError):
            select_optimal_length([])

    def test_missing_partition_detected(self, fitted_kgraph):
        result = fitted_kgraph.result_
        with pytest.raises(ValidationError):
            interpretability_scores(result.graphs, result.partitions[:-1], result.labels)
