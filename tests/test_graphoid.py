"""Unit tests for representativity, exclusivity and graphoid extraction."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graph.graphoid import (
    edge_exclusivity,
    edge_representativity,
    extract_gamma_graphoid,
    extract_lambda_graphoid,
    interpretability_factor,
    node_exclusivity,
    node_representativity,
)
from repro.graph.structure import TimeSeriesGraph


@pytest.fixture()
def labelled_graph():
    """4 series in 2 clusters; node 0 exclusive to cluster 0, node 2 to cluster 1,
    node 1 shared by everyone."""
    labels = np.array([0, 0, 1, 1])
    # Cluster 0 members visit nodes 0 then 1; cluster 1 members 1 then 2.
    trajectories = [[0, 1], [0, 1], [1, 2], [1, 2]]
    positions = [(float(node), 0.0) for node in range(3)]
    graph = TimeSeriesGraph(4, positions, np.zeros((3, 4)), trajectories)
    return graph, labels


class TestNodeScores:
    def test_representativity_values(self, labelled_graph):
        graph, labels = labelled_graph
        representativity = node_representativity(graph, labels)
        assert representativity[0][0] == pytest.approx(1.0)  # all of cluster 0 cross node 0
        assert representativity[0][2] == pytest.approx(0.0)
        assert representativity[0][1] == pytest.approx(1.0)
        assert representativity[1][2] == pytest.approx(1.0)

    def test_exclusivity_values(self, labelled_graph):
        graph, labels = labelled_graph
        exclusivity = node_exclusivity(graph, labels)
        assert exclusivity[0][0] == pytest.approx(1.0)  # only cluster 0 crosses node 0
        assert exclusivity[1][0] == pytest.approx(0.0)
        assert exclusivity[0][1] == pytest.approx(0.5)  # node 1 shared half/half
        assert exclusivity[1][1] == pytest.approx(0.5)

    def test_scores_are_probabilities(self, fitted_kgraph):
        graph = fitted_kgraph.result_.optimal_graph
        labels = fitted_kgraph.result_.labels
        for scores in (node_representativity(graph, labels), node_exclusivity(graph, labels)):
            for cluster_values in scores.values():
                values = np.array(list(cluster_values.values()))
                assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_exclusivity_sums_to_one_across_clusters(self, fitted_kgraph):
        graph = fitted_kgraph.result_.optimal_graph
        labels = fitted_kgraph.result_.labels
        exclusivity = node_exclusivity(graph, labels)
        clusters = list(exclusivity)
        for node in graph.nodes():
            total = sum(exclusivity[c][node] for c in clusters)
            assert total == pytest.approx(1.0, abs=1e-9) or total == pytest.approx(0.0)

    def test_label_length_mismatch(self, labelled_graph):
        graph, _ = labelled_graph
        with pytest.raises(ValidationError):
            node_representativity(graph, [0, 1])


class TestEdgeScores:
    def test_edge_exclusivity(self, labelled_graph):
        graph, labels = labelled_graph
        exclusivity = edge_exclusivity(graph, labels)
        assert exclusivity[0][(0, 1)] == pytest.approx(1.0)
        assert exclusivity[1][(1, 2)] == pytest.approx(1.0)

    def test_edge_representativity(self, labelled_graph):
        graph, labels = labelled_graph
        representativity = edge_representativity(graph, labels)
        assert representativity[0][(0, 1)] == pytest.approx(1.0)
        assert representativity[0][(1, 2)] == pytest.approx(0.0)


class TestGraphoidExtraction:
    def test_lambda_graphoid_thresholding(self, labelled_graph):
        graph, labels = labelled_graph
        strict = extract_lambda_graphoid(graph, labels, 0, 1.0)
        assert set(strict.nodes) == {0, 1}
        assert strict.kind == "lambda"

    def test_gamma_graphoid_excludes_shared_nodes(self, labelled_graph):
        graph, labels = labelled_graph
        exclusive = extract_gamma_graphoid(graph, labels, 0, 0.9)
        assert set(exclusive.nodes) == {0}
        relaxed = extract_gamma_graphoid(graph, labels, 0, 0.5)
        assert set(relaxed.nodes) == {0, 1}

    def test_higher_threshold_never_adds_elements(self, fitted_kgraph):
        labels = fitted_kgraph.result_.labels
        graph = fitted_kgraph.result_.optimal_graph
        cluster = int(labels[0])
        sizes = []
        for threshold in (0.2, 0.5, 0.8):
            graphoid = extract_gamma_graphoid(graph, labels, cluster, threshold)
            sizes.append(graphoid.n_nodes + graphoid.n_edges)
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_unknown_cluster_rejected(self, labelled_graph):
        graph, labels = labelled_graph
        with pytest.raises(ValidationError):
            extract_gamma_graphoid(graph, labels, 7, 0.5)

    def test_invalid_threshold(self, labelled_graph):
        graph, labels = labelled_graph
        with pytest.raises(ValidationError):
            extract_lambda_graphoid(graph, labels, 0, 1.5)

    @pytest.mark.parametrize("threshold", [0.0, 0.25, 0.5, 1.0])
    def test_extractors_select_from_all_cluster_tables(self, fitted_kgraph, threshold):
        # Each extractor scores its own cluster only; the result must be the
        # all-cluster tables' row for that cluster, filtered, in table order.
        graph = fitted_kgraph.result_.optimal_graph
        labels = fitted_kgraph.result_.labels
        tables = {
            extract_lambda_graphoid: (
                node_representativity(graph, labels),
                edge_representativity(graph, labels),
            ),
            extract_gamma_graphoid: (
                node_exclusivity(graph, labels),
                edge_exclusivity(graph, labels),
            ),
        }
        for extract, (node_table, edge_table) in tables.items():
            for cluster in np.unique(labels).tolist():
                graphoid = extract(graph, labels, cluster, threshold)
                expected_nodes = [
                    (node, score) for node, score in node_table[cluster].items()
                    if score >= threshold and score > 0
                ]
                expected_edges = [
                    (edge, score) for edge, score in edge_table[cluster].items()
                    if score >= threshold and score > 0
                ]
                assert list(graphoid.node_scores.items()) == expected_nodes
                assert list(graphoid.edge_scores.items()) == expected_edges
                assert graphoid.nodes == [node for node, _ in expected_nodes]
                assert graphoid.edges == [edge for edge, _ in expected_edges]
            with pytest.raises(ValidationError):
                extract(graph, labels, int(labels.max()) + 1, threshold)

    def test_summary_lists_top_nodes(self, labelled_graph):
        graph, labels = labelled_graph
        graphoid = extract_gamma_graphoid(graph, labels, 0, 0.4)
        summary = graphoid.summary()
        assert summary["cluster"] == 0
        assert summary["n_nodes"] == graphoid.n_nodes
        assert len(summary["top_nodes"]) <= 5


class TestInterpretabilityFactor:
    def test_perfectly_separated_graph_scores_one(self, labelled_graph):
        graph, labels = labelled_graph
        # Each cluster owns one fully exclusive node (0 and 2), so the average
        # of the per-cluster maxima is 1.
        assert interpretability_factor(graph, labels) == pytest.approx(1.0)

    def test_single_cluster_scores_one(self, labelled_graph):
        graph, _ = labelled_graph
        assert interpretability_factor(graph, np.zeros(4, dtype=int)) == pytest.approx(1.0)

    def test_bounded(self, fitted_kgraph):
        graph = fitted_kgraph.result_.optimal_graph
        labels = fitted_kgraph.result_.labels
        value = interpretability_factor(graph, labels)
        assert 0.0 <= value <= 1.0
