"""Unit tests for graph rendering and the five Graphint frames."""

import numpy as np
import pytest

from repro.benchmark.runner import BenchmarkResult
from repro.exceptions import VisualizationError
from repro.graph.layout import force_directed_layout, pca_layout
from repro.viz.frames import (
    build_benchmark_frame,
    build_clustering_comparison_frame,
    build_graph_frame,
    build_interpretability_frame,
    build_under_the_hood_frame,
)
from repro.viz.frames.base import Frame, Panel, html_table
from repro.viz.graph_render import render_graph


def _fake_results():
    """A small synthetic benchmark result population (3 methods x 3 datasets)."""
    rng = np.random.default_rng(0)
    results = []
    for method, family, base in (("kgraph", "graph", 0.8), ("kmeans", "raw", 0.5), ("kshape", "raw", 0.6)):
        for i, dataset in enumerate(("d1", "d2", "d3")):
            ari = float(np.clip(base + rng.normal(0, 0.05), 0, 1))
            results.append(
                BenchmarkResult(
                    method=method,
                    family=family,
                    dataset=dataset,
                    dataset_type="synthetic-shape" if i < 2 else "synthetic-trend",
                    n_series=40 + 10 * i,
                    length=64 + 32 * i,
                    n_classes=2 + i,
                    measures={"ari": ari, "ri": ari, "nmi": ari, "ami": ari},
                    runtime_seconds=0.1,
                )
            )
    return results


class TestFrameBuildingBlocks:
    def test_panel_requires_content(self):
        with pytest.raises(VisualizationError):
            Panel(title="empty").to_html()

    def test_panel_and_frame_render(self):
        frame = Frame(frame_id="demo", title="Demo", description="desc")
        frame.add_panel(Panel(title="p1", html_body="<p>hi</p>", caption="cap"))
        html = frame.to_html()
        assert 'id="demo"' in html
        assert "<p>hi</p>" in html and "cap" in html

    def test_empty_frame_rejected(self):
        with pytest.raises(VisualizationError):
            Frame(frame_id="x", title="X").to_html()

    def test_html_table(self):
        table = html_table([{"a": 1, "b": 0.123456}, {"a": 2, "b": 3.0}])
        assert table.count("<tr>") == 3  # header + 2 rows
        assert "0.123" in table

    def test_html_table_empty_rejected(self):
        with pytest.raises(VisualizationError):
            html_table([])


def _force_layout(model):
    return force_directed_layout(model.optimal_graph_, random_state=0)


class TestGraphRender:
    def test_render_contains_all_nodes(self, fitted_kgraph):
        graph = fitted_kgraph.optimal_graph_
        svg = render_graph(graph, fitted_kgraph.labels_, positions=_force_layout(fitted_kgraph))
        assert svg.startswith("<svg")
        for node in graph.nodes():
            assert f"node {node} " in svg  # tooltip text per node

    def test_selected_node_ring(self, fitted_kgraph):
        graph = fitted_kgraph.optimal_graph_
        node = graph.nodes()[0]
        svg = render_graph(
            graph, fitted_kgraph.labels_, positions=_force_layout(fitted_kgraph), selected_node=node
        )
        assert svg.count("#d62728") >= 1

    def test_pca_layout_option(self, fitted_kgraph):
        graph = fitted_kgraph.optimal_graph_
        svg = render_graph(graph, fitted_kgraph.labels_, positions=pca_layout(graph))
        assert svg.startswith("<svg")

    def test_thresholds_change_colouring(self, fitted_kgraph):
        graph = fitted_kgraph.optimal_graph_
        positions = _force_layout(fitted_kgraph)
        loose = render_graph(graph, fitted_kgraph.labels_, positions=positions, lambda_threshold=0.0, gamma_threshold=0.0)
        strict = render_graph(graph, fitted_kgraph.labels_, positions=positions, lambda_threshold=1.0, gamma_threshold=1.0)
        # With impossible thresholds everything is neutral grey.
        assert strict.count("#c8c8c8") >= loose.count("#c8c8c8")


class TestClusteringComparisonFrame:
    def test_basic(self, small_dataset, fitted_kgraph):
        frame = build_clustering_comparison_frame(
            small_dataset, {"kgraph": fitted_kgraph.labels_, "random": np.zeros(small_dataset.n_series, dtype=int)}
        )
        html = frame.to_html()
        assert "kgraph (ARI" in html
        assert "True labels" in html
        assert len(frame.panels) == 3
        assert frame.metadata["ari"]["kgraph"] > frame.metadata["ari"]["random"]

    def test_requires_labels(self, small_dataset, fitted_kgraph):
        from repro.utils.containers import TimeSeriesDataset

        unlabelled = TimeSeriesDataset(data=small_dataset.data)
        with pytest.raises(VisualizationError):
            build_clustering_comparison_frame(unlabelled, {"kgraph": fitted_kgraph.labels_})

    def test_subsampling(self, small_dataset, fitted_kgraph):
        frame = build_clustering_comparison_frame(
            small_dataset, {"kgraph": fitted_kgraph.labels_}, max_series_per_panel=10
        )
        assert frame.to_html()

    def test_label_length_mismatch(self, small_dataset):
        with pytest.raises(VisualizationError):
            build_clustering_comparison_frame(small_dataset, {"m": [0, 1]})


class TestBenchmarkFrame:
    def test_basic(self):
        frame = build_benchmark_frame(_fake_results(), measure="ari")
        html = frame.to_html()
        assert "kgraph" in html
        assert "Mean rank" in html
        assert frame.metadata["n_results"] == 9

    def test_filters_applied(self):
        frame = build_benchmark_frame(_fake_results(), dataset_type="synthetic-trend")
        assert frame.metadata["n_results"] == 3

    def test_over_filtering_rejected(self):
        with pytest.raises(VisualizationError):
            build_benchmark_frame(_fake_results(), min_length=10_000)

    def test_empty_results_rejected(self):
        with pytest.raises(VisualizationError):
            build_benchmark_frame([])


class TestGraphFrame:
    def test_basic(self, fitted_kgraph, small_dataset):
        frame = build_graph_frame(
            fitted_kgraph, small_dataset, positions=_force_layout(fitted_kgraph)
        )
        html = frame.to_html()
        assert "k-Graph in action" in frame.title
        assert "exclusivity" in html
        assert "Graphoid sizes per cluster" in html
        assert frame.metadata["optimal_length"] == fitted_kgraph.optimal_length_

    def test_custom_thresholds_and_node(self, fitted_kgraph, small_dataset):
        node = fitted_kgraph.optimal_graph_.nodes()[0]
        frame = build_graph_frame(
            fitted_kgraph,
            small_dataset,
            positions=_force_layout(fitted_kgraph),
            lambda_threshold=0.3,
            gamma_threshold=0.4,
            selected_node=node,
        )
        assert frame.metadata["lambda"] == pytest.approx(0.3)
        assert frame.metadata["selected_node"] == node

    def test_dataset_mismatch_rejected(self, fitted_kgraph, periodic_dataset):
        with pytest.raises(VisualizationError):
            build_graph_frame(
                fitted_kgraph, periodic_dataset, positions=_force_layout(fitted_kgraph)
            )


class TestInterpretabilityAndUnderTheHoodFrames:
    def test_interpretability_frame(self, small_dataset, fitted_kgraph):
        from repro.interpret.quiz import build_quiz
        from repro.interpret.representations import centroid_representation, graphoid_representation
        from repro.interpret.user_model import score_methods

        quizzes = {
            "kmeans": build_quiz(
                small_dataset,
                "kmeans",
                small_dataset.labels,
                centroid_representation("kmeans", small_dataset.data, small_dataset.labels),
                random_state=0,
            ),
            "kgraph": build_quiz(
                small_dataset,
                "kgraph",
                fitted_kgraph.labels_,
                graphoid_representation(fitted_kgraph),
                random_state=0,
            ),
        }
        scores = score_methods(quizzes, n_users=2, random_state=0)
        frame = build_interpretability_frame(quizzes, scores)
        html = frame.to_html()
        assert "Quiz questions" in html
        assert "Participant score per method" in html
        assert set(frame.metadata["scores"]) == {"kmeans", "kgraph"}

    def test_interpretability_frame_empty_rejected(self):
        with pytest.raises(VisualizationError):
            build_interpretability_frame({})

    def test_under_the_hood_frame(self, fitted_kgraph):
        frame = build_under_the_hood_frame(fitted_kgraph)
        html = frame.to_html()
        assert "4.1 Length selection" in html
        assert "4.2 Feature matrix" in html
        assert "4.3 Consensus matrix" in html
        assert "Pipeline timings" in html
        assert frame.metadata["optimal_length"] == fitted_kgraph.optimal_length_
