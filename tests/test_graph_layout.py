"""Unit tests for graph layouts."""

import numpy as np
import pytest

from repro.graph.embedding import GraphEmbedding
from repro.graph.layout import circular_layout, force_directed_layout, pca_layout


@pytest.fixture(scope="module")
def embedded_graph(request):
    from repro.datasets.synthetic import make_cylinder_bell_funnel

    dataset = make_cylinder_bell_funnel(n_series=18, length=64, noise=0.2, random_state=0)
    return GraphEmbedding(12, random_state=0).fit(dataset.data)


def _assert_unit_square(positions):
    coords = np.array(list(positions.values()))
    assert coords.min() >= -1e-9
    assert coords.max() <= 1.0 + 1e-9


class TestLayouts:
    def test_pca_layout_covers_all_nodes(self, embedded_graph):
        positions = pca_layout(embedded_graph)
        assert set(positions) == set(embedded_graph.nodes())
        _assert_unit_square(positions)

    def test_circular_layout_on_circle(self, embedded_graph):
        positions = circular_layout(embedded_graph)
        assert set(positions) == set(embedded_graph.nodes())
        radii = [np.hypot(x - 0.5, y - 0.5) for x, y in positions.values()]
        assert np.allclose(radii, 0.5, atol=1e-6)

    def test_force_layout_complete_and_bounded(self, embedded_graph):
        positions = force_directed_layout(embedded_graph, n_iterations=30, random_state=0)
        assert set(positions) == set(embedded_graph.nodes())
        _assert_unit_square(positions)

    def test_force_layout_deterministic(self, embedded_graph):
        a = force_directed_layout(embedded_graph, n_iterations=20, random_state=1)
        b = force_directed_layout(embedded_graph, n_iterations=20, random_state=1)
        for node in a:
            assert a[node] == pytest.approx(b[node])

    def test_force_layout_spreads_nodes(self, embedded_graph):
        positions = force_directed_layout(embedded_graph, n_iterations=50, random_state=0)
        coords = np.array(list(positions.values()))
        # No two nodes should collapse onto the exact same point.
        distances = np.linalg.norm(coords[:, None, :] - coords[None, :, :], axis=2)
        np.fill_diagonal(distances, np.inf)
        assert distances.min() > 1e-4

    def test_single_node_graph(self):
        from repro.graph.structure import TimeSeriesGraph

        graph = TimeSeriesGraph(4, [(0.3, 0.7)], np.zeros((1, 4)), [[0]])
        assert force_directed_layout(graph, random_state=0) == {0: (0.5, 0.5)}
        assert pca_layout(graph)[0] is not None
