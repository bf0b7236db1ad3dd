"""Unit tests for the graph-embedding step."""

import tracemalloc

import numpy as np
import pytest

import repro.utils.windows as windows_module
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.exceptions import GraphConstructionError, ValidationError
from repro.graph.embedding import GraphEmbedding
from repro.graph.structure import TimeSeriesGraph
from repro.linalg.pca import PCA
from repro.utils.normalization import znormalize_dataset
from repro.utils.windows import subsequence_count, subsequences_of_dataset, window_blocks

from oracles.embedding import embedding_graph_reference
from oracles.graph import assert_graphs_identical, assert_matches_oracle


class TestGraphEmbedding:
    def test_basic_properties(self, small_dataset):
        graph = GraphEmbedding(16, random_state=0).fit(small_dataset.data)
        assert graph.length == 16
        assert graph.n_series == small_dataset.n_series
        assert graph.n_nodes >= 2
        assert graph.n_edges >= 1

    def test_every_series_has_a_trajectory(self, small_dataset):
        graph = GraphEmbedding(16, random_state=0).fit(small_dataset.data)
        expected_length = subsequence_count(small_dataset.length, 16)
        for series_index in range(small_dataset.n_series):
            trajectory = graph.trajectory(series_index)
            assert len(trajectory) == expected_length

    def test_total_visits_equals_total_subsequences(self, small_dataset):
        graph = GraphEmbedding(16, random_state=0).fit(small_dataset.data)
        expected = small_dataset.n_series * subsequence_count(small_dataset.length, 16)
        total_visits = sum(graph.node_weight(node) for node in graph.nodes())
        assert total_visits == expected

    def test_total_transitions(self, small_dataset):
        graph = GraphEmbedding(16, random_state=0).fit(small_dataset.data)
        per_series = subsequence_count(small_dataset.length, 16) - 1
        expected = small_dataset.n_series * per_series
        total = sum(graph.edge_weight(edge) for edge in graph.edges())
        assert total == expected

    def test_stride_reduces_graph_weight(self, small_dataset):
        dense = GraphEmbedding(16, random_state=0).fit(small_dataset.data)
        strided = GraphEmbedding(16, stride=4, random_state=0).fit(small_dataset.data)
        dense_weight = sum(dense.node_weight(n) for n in dense.nodes())
        strided_weight = sum(strided.node_weight(n) for n in strided.nodes())
        assert strided_weight < dense_weight

    def test_node_patterns_have_window_length(self, small_dataset):
        graph = GraphEmbedding(12, random_state=0).fit(small_dataset.data)
        for node in graph.nodes():
            assert graph.node_pattern(node).shape == (12,)

    def test_deterministic(self, small_dataset):
        a = GraphEmbedding(16, random_state=3).fit(small_dataset.data)
        b = GraphEmbedding(16, random_state=3).fit(small_dataset.data)
        assert a.n_nodes == b.n_nodes
        assert a.edges() == b.edges()
        assert np.array_equal(a.node_feature_matrix(), b.node_feature_matrix())

    def test_more_sectors_more_nodes(self, small_dataset):
        coarse = GraphEmbedding(16, n_sectors=4, random_state=0).fit(small_dataset.data)
        fine = GraphEmbedding(16, n_sectors=32, random_state=0).fit(small_dataset.data)
        assert fine.n_nodes >= coarse.n_nodes

    def test_window_too_long_rejected(self, small_dataset):
        with pytest.raises(GraphConstructionError):
            GraphEmbedding(small_dataset.length).fit(small_dataset.data)

    def test_invalid_prominence(self):
        with pytest.raises(GraphConstructionError):
            GraphEmbedding(8, min_prominence_fraction=1.5)

    def test_constant_dataset_still_builds(self):
        data = np.tile(np.linspace(0, 1, 64), (6, 1))
        graph = GraphEmbedding(8, random_state=0).fit(data)
        assert graph.n_nodes >= 1

    def test_different_classes_use_different_regions(self, small_dataset):
        # Series from different classes should not have identical node usage
        # patterns: the normalised node feature rows must differ across classes
        # more than within (on average).
        graph = GraphEmbedding(16, random_state=0).fit(small_dataset.data)
        features = graph.node_feature_matrix()
        labels = small_dataset.labels
        within, across = [], []
        for i in range(features.shape[0]):
            for j in range(i + 1, features.shape[0]):
                distance = float(np.linalg.norm(features[i] - features[j]))
                (within if labels[i] == labels[j] else across).append(distance)
        assert np.mean(across) > np.mean(within)


# --------------------------------------------------------------------- #
# the blocked embedding: three passes over blocks of whole series
# --------------------------------------------------------------------- #
def _assert_same_graph(left, right, *, position_rtol):
    """Bit-identical arrays, except positions, which agree to ``position_rtol``."""
    scale = np.max(np.abs(left.positions))
    assert np.max(np.abs(left.positions - right.positions)) <= position_rtol * scale
    aligned = TimeSeriesGraph(right.length, left.positions, right.patterns, right.trajectories)
    assert_graphs_identical(left, aligned)


def _walks_with_constant_series(n_series=12, length=60, constant_row=4, seed=21):
    data = np.random.default_rng(seed).normal(size=(n_series, length)).cumsum(axis=1)
    data[constant_row] = 3.5
    return data


class TestBlockedEmbedding:
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("series_per_block", [3, 0.5])
    def test_matches_oracle_across_blocks(self, monkeypatch, stride, series_per_block):
        # 12 series in blocks of 3 series (4 blocks, the constant series 4
        # in the middle of the second one), or blocks smaller than one
        # series, so each block holds one series larger than the constant.
        length = 10
        data = _walks_with_constant_series()
        values_per_series = subsequence_count(data.shape[1], length, stride) * length
        block_values = int(series_per_block * values_per_series)
        monkeypatch.setattr(windows_module, "WINDOW_BLOCK_VALUES", block_values)
        blocks = [(start, stop) for start, stop, _ in window_blocks(data, length, stride)]
        assert len(blocks) >= 4
        assert any(start <= 4 < stop for start, stop in blocks[1:-1])

        embedding = GraphEmbedding(length, stride=stride, random_state=0)
        graph = embedding.fit(data)
        assert_matches_oracle(graph, embedding_graph_reference(embedding, data))

    def test_block_boundaries_do_not_change_the_graph(self, monkeypatch):
        data = make_cylinder_bell_funnel(30, 128, noise=0.2, random_state=3).data
        whole = GraphEmbedding(24, random_state=0)
        expected = whole.fit(data)
        assert len(list(window_blocks(data, 24))) == 1

        monkeypatch.setattr(windows_module, "WINDOW_BLOCK_VALUES", 1)
        assert len(list(window_blocks(data, 24))) == data.shape[0]
        per_series = GraphEmbedding(24, random_state=0)
        _assert_same_graph(per_series.fit(data), expected, position_rtol=1e-12)
        np.testing.assert_allclose(
            per_series.projection_,
            whole.projection_,
            rtol=0,
            atol=1e-12 * np.max(np.abs(whole.projection_)),
        )

    @pytest.mark.parametrize("block_values", [None, 2000])
    def test_axes_match_pca_on_the_materialised_matrix(self, monkeypatch, block_values):
        if block_values is not None:
            monkeypatch.setattr(windows_module, "WINDOW_BLOCK_VALUES", block_values)
        data = _walks_with_constant_series(seed=4)
        embedding = GraphEmbedding(10, stride=2, random_state=0)
        embedding.fit(data)
        subsequences, _, _ = subsequences_of_dataset(data, 10, 2)
        normalised = znormalize_dataset(subsequences)
        pca = PCA(2).fit(normalised)
        # The projection is the centred matrix times the axes: recover the
        # axes by least squares and compare them, signs included.
        axes, *_ = np.linalg.lstsq(normalised - pca.mean_, embedding.projection_, rcond=None)
        np.testing.assert_allclose(axes.T, pca.components_, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            embedding.projection_, pca.transform(normalised), rtol=0, atol=1e-10
        )

    def test_single_window_rejected(self):
        # One series with one window of length 4 (stride 2 over 5 points):
        # PCA needs at least two subsequences.
        with pytest.raises(ValidationError, match="at least 2 subsequences, got 1"):
            GraphEmbedding(4, stride=2).fit(np.array([[1.0, 2.0, 4.0, 8.0, 16.0]]))

    def test_overflowing_values_rejected(self):
        data = np.random.default_rng(0).normal(size=(3, 20))
        data[1, 5:9] = [1.7e308, 1.7e308, -1.7e308, 1.7e308]
        with np.errstate(all="ignore"), pytest.raises(ValidationError):
            GraphEmbedding(4, stride=2).fit(data)

    def test_peak_memory_stays_below_the_subsequence_matrix(self):
        # The stacked subsequences of this fit take 200 x 309 x 204 float64
        # (96 MiB); the blocked passes never hold a copy of them.
        data = make_cylinder_bell_funnel(200, 512, noise=0.2, random_state=1).data
        matrix_bytes = 200 * subsequence_count(512, 204) * 204 * 8
        tracemalloc.start()
        try:
            GraphEmbedding(204, random_state=0).fit(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * matrix_bytes, f"peak {peak / matrix_bytes:.2f}x the matrix"
