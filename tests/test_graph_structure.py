"""Unit tests for the TimeSeriesGraph structure."""

import numpy as np
import pytest

from repro.exceptions import GraphConstructionError, ValidationError
from repro.graph.structure import TimeSeriesGraph


def _toy_arrays():
    positions = [(float(node), 0.0) for node in range(3)]
    patterns = np.vstack([np.full(4, float(node)) for node in range(3)])
    trajectories = np.array([[0, 1, 0], [1, 2, 2], [2, 2, 2]])
    return positions, patterns, trajectories


@pytest.fixture()
def toy_graph() -> TimeSeriesGraph:
    """A small graph over 3 series and 3 nodes.

    Series 0 visits 0 -> 1 -> 0, series 1 visits 1 -> 2 -> 2, series 2
    visits 2 -> 2 -> 2.
    """
    return TimeSeriesGraph(4, *_toy_arrays())


class TestConstruction:
    def test_counts(self, toy_graph):
        assert toy_graph.n_series == 3
        assert toy_graph.n_nodes == 3
        assert toy_graph.n_edges == 4
        assert toy_graph.nodes() == [0, 1, 2]
        assert toy_graph.edges() == [(0, 1), (1, 0), (1, 2), (2, 2)]

    def test_bad_position_rejected(self):
        _, patterns, trajectories = _toy_arrays()
        with pytest.raises(ValidationError, match="^positions"):
            TimeSeriesGraph(4, np.zeros((3, 3)), patterns, trajectories)

    def test_pattern_row_mismatch_rejected(self):
        positions, _, trajectories = _toy_arrays()
        with pytest.raises(ValidationError, match="^patterns"):
            TimeSeriesGraph(4, positions, np.zeros((2, 4)), trajectories)
        with pytest.raises(ValidationError, match="^patterns"):
            TimeSeriesGraph(4, positions, np.zeros((3, 5)), trajectories)

    def test_unknown_node_visit_rejected(self):
        positions, patterns, trajectories = _toy_arrays()
        for bad in (3, 9, -1):
            corrupt = trajectories.copy()
            corrupt[1, 2] = bad
            with pytest.raises(GraphConstructionError, match=f"^trajectories .*{bad}"):
                TimeSeriesGraph(4, positions, patterns, corrupt)

    def test_unknown_node_lookup_rejected(self, toy_graph):
        for lookup in (toy_graph.node_weight, toy_graph.node_pattern, toy_graph.series_through_node):
            for node in (3, -1):
                with pytest.raises(GraphConstructionError):
                    lookup(node)

    def test_storage_grows_with_distinct_pairs(self, toy_graph):
        # One CSR entry per distinct (element, series) pair, int32 throughout.
        assert toy_graph.node_crossings.series.tolist() == [0, 0, 1, 1, 2]
        assert toy_graph.node_crossings.count.tolist() == [2, 1, 1, 2, 3]
        assert toy_graph.edge_crossings.ptr.tolist() == [0, 1, 2, 3, 5]
        for array in (*toy_graph.node_crossings, *toy_graph.edge_crossings):
            assert array.dtype == np.int32
        assert toy_graph.trajectories.dtype == np.int32


class TestAccessors:
    def test_weights(self, toy_graph):
        assert toy_graph.node_weight(0) == 2
        assert toy_graph.node_weight(2) == 5
        assert toy_graph.edge_weight((2, 2)) == 3
        assert toy_graph.edge_weight((0, 2)) == 0
        assert toy_graph.edge_weight((0, 3)) == 0  # would alias (1, 0) unchecked

    def test_series_through(self, toy_graph):
        assert toy_graph.series_through_node(0) == [0]
        assert toy_graph.series_through_node(1) == [0, 1]
        assert toy_graph.series_through_node(2) == [1, 2]
        assert toy_graph.series_through_edge((1, 2)) == [1]
        assert toy_graph.series_through_edge((2, 0)) == []

    def test_visit_counts(self, toy_graph):
        assert toy_graph.node_visit_counts(0) == {0: 2}
        assert toy_graph.edge_visit_counts((2, 2)) == {1: 1, 2: 2}
        assert toy_graph.edge_visit_counts((2, 0)) == {}

    def test_trajectory(self, toy_graph):
        assert toy_graph.trajectory(0) == [0, 1, 0]
        assert toy_graph.trajectory(2) == [2, 2, 2]
        assert toy_graph.trajectory(99) == []
        assert toy_graph.trajectory(-1) == []

    def test_node_pattern_copy(self, toy_graph):
        pattern = toy_graph.node_pattern(1)
        pattern[:] = -1
        assert np.all(toy_graph.node_pattern(1) == 1.0)


class TestMatrices:
    def test_node_feature_matrix_counts(self, toy_graph):
        matrix = toy_graph.node_feature_matrix(normalize=False)
        assert matrix.shape == (3, 3)
        assert matrix[0].tolist() == [2.0, 1.0, 0.0]
        assert matrix[2].tolist() == [0.0, 0.0, 3.0]

    def test_node_feature_matrix_normalized_rows_sum_to_one(self, toy_graph):
        matrix = toy_graph.node_feature_matrix(normalize=True)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_edge_feature_matrix(self, toy_graph):
        matrix = toy_graph.edge_feature_matrix(normalize=False)
        assert matrix.shape == (3, 4)
        assert matrix.sum() == 6.0  # two transitions per series

    def test_combined_feature_matrix(self, toy_graph):
        combined = toy_graph.feature_matrix()
        assert combined.shape == (3, 7)

    def test_adjacency_matrix(self, toy_graph):
        adjacency = toy_graph.adjacency_matrix()
        assert adjacency.shape == (3, 3)
        assert adjacency[1, 2] == 1
        assert adjacency[2, 2] == 3
        assert adjacency.sum() == 6


class TestInterop:
    def test_summary_serialisable(self, toy_graph):
        import json

        text = json.dumps(toy_graph.summary())
        assert '"n_nodes": 3' in text

    def test_pickle_round_trip_is_lossless(self, toy_graph):
        import pickle

        from oracles.graph import assert_graphs_identical

        assert_graphs_identical(pickle.loads(pickle.dumps(toy_graph)), toy_graph)
