"""Graph frame — "k-Graph in action" (Fig. 3, frame 2).

Shows the graph embedding for the selected dataset with λ/γ colouring, a node
inspector (the pattern the node represents, its exclusivity/representativity
per cluster, and the subsequences it captures highlighted on sample series),
and the per-cluster graphoid summary.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.kgraph import KGraph
from repro.exceptions import VisualizationError
from repro.graph.layout import Position
from repro.utils.containers import TimeSeriesDataset
from repro.utils.normalization import znormalize
from repro.viz.frames.base import Frame, Panel, html_table
from repro.viz.graph_render import render_graph
from repro.viz.plots import bar_chart, line_plot
from repro.viz.theme import color_for_cluster


def _node_highlight_ranges(model: KGraph, dataset: TimeSeriesDataset, node: int, max_series: int = 3):
    """(series_index, start, end) ranges where ``node`` captures subsequences."""
    graph = model.result_.optimal_graph
    length = graph.length
    ranges = []
    shown = 0
    for series_index in graph.series_through_node(node):
        trajectory = graph.trajectory(series_index)
        for position, visited in enumerate(trajectory):
            if visited == node:
                ranges.append((shown, position * model.stride, position * model.stride + length))
        shown += 1
        if shown >= max_series:
            break
    series_indices = graph.series_through_node(node)[:max_series]
    return series_indices, ranges


def build_graph_frame(
    model: KGraph,
    dataset: TimeSeriesDataset,
    *,
    positions: Dict[int, Position],
    lambda_threshold: Optional[float] = None,
    gamma_threshold: Optional[float] = None,
    selected_node: Optional[int] = None,
) -> Frame:
    """Build the Graph frame from a fitted model and its dataset.

    ``positions`` places the optimal graph's nodes (see
    :func:`~repro.viz.graph_render.render_graph`); the dashboard passes the
    session's force layout, computed once per session.
    ``lambda_threshold`` / ``gamma_threshold`` default to the model's values;
    the dashboard server passes the slider values here on every request.
    """
    model._check_fitted()
    if dataset.n_series != model.result_.labels.shape[0]:
        raise VisualizationError("dataset does not match the fitted model")
    lam = model.lambda_threshold if lambda_threshold is None else float(lambda_threshold)
    gam = model.gamma_threshold if gamma_threshold is None else float(gamma_threshold)

    graph = model.result_.optimal_graph
    labels = model.result_.labels
    node_statistics = model.node_statistics()
    if selected_node is None:
        # Default to the node with the highest exclusivity*representativity product.
        def node_score(node_id: int) -> float:
            stats = node_statistics[node_id]
            return max(
                stats["exclusivity"][c] * stats["representativity"][c]
                for c in stats["exclusivity"]
            )
        selected_node = max(graph.nodes(), key=node_score)

    frame = Frame(
        frame_id="graph-frame",
        title="k-Graph in action",
        description=(
            f"Graph embedding of {dataset.name} for the selected length "
            f"ℓ = {graph.length}. Nodes and edges are coloured when their "
            f"representativity ≥ λ = {lam:.2f} and exclusivity ≥ γ = {gam:.2f}."
        ),
        metadata={
            "dataset": dataset.name,
            "optimal_length": graph.length,
            "lambda": lam,
            "gamma": gam,
            "selected_node": int(selected_node),
        },
    )

    frame.add_panel(
        Panel(
            title=f"Graph (ℓ = {graph.length}, {graph.n_nodes} nodes, {graph.n_edges} edges)",
            svg=render_graph(
                graph,
                labels,
                positions=positions,
                lambda_threshold=lam,
                gamma_threshold=gam,
                selected_node=selected_node,
            ),
            caption="Node size = number of captured subsequences; edge width = transition count.",
        )
    )

    # Node inspector: pattern + per-cluster exclusivity / representativity.
    statistics = node_statistics[selected_node]
    pattern = znormalize(graph.node_pattern(selected_node))
    frame.add_panel(
        Panel(
            title=f"Node {selected_node}: captured pattern",
            svg=line_plot([pattern], title=f"node {selected_node} pattern (z-normalised)"),
            caption="Average of the subsequences assigned to the selected node.",
        )
    )
    exclusivity_values = {
        f"cluster {c}": value for c, value in sorted(statistics["exclusivity"].items())
    }
    representativity_values = {
        f"cluster {c}": value for c, value in sorted(statistics["representativity"].items())
    }
    colors = {
        f"cluster {c}": color_for_cluster(c) for c in sorted(statistics["exclusivity"])
    }
    frame.add_panel(
        Panel(
            title=f"Node {selected_node}: exclusivity per cluster",
            svg=bar_chart(exclusivity_values, title="exclusivity", colors=colors),
            caption="Proportion of the series crossing this node that belong to each cluster.",
        )
    )
    frame.add_panel(
        Panel(
            title=f"Node {selected_node}: representativity per cluster",
            svg=bar_chart(representativity_values, title="representativity", colors=colors),
            caption="Proportion of each cluster's series that cross this node.",
        )
    )

    # Subsequences captured by the node, highlighted on sample series.
    series_indices, ranges = _node_highlight_ranges(model, dataset, selected_node)
    if series_indices:
        sample = [dataset.data[i] for i in series_indices]
        frame.add_panel(
            Panel(
                title=f"Node {selected_node}: where it appears in the series",
                svg=line_plot(
                    sample,
                    labels=[int(labels[i]) for i in series_indices],
                    highlight=ranges,
                ),
                caption="Red segments are the subsequences of the sample series captured by the node.",
            )
        )

    # Graphoid summary table at the requested thresholds.
    graphoids = model.recompute_graphoids(lam, gam)
    rows = []
    for cluster in sorted(graphoids["gamma"]):
        rows.append(
            {
                "cluster": cluster,
                "lambda_nodes": graphoids["lambda"][cluster].n_nodes,
                "lambda_edges": graphoids["lambda"][cluster].n_edges,
                "gamma_nodes": graphoids["gamma"][cluster].n_nodes,
                "gamma_edges": graphoids["gamma"][cluster].n_edges,
            }
        )
    frame.add_panel(
        Panel(
            title="Graphoid sizes per cluster",
            html_body=html_table(rows),
            caption=(
                "λ-Graphoid: nodes/edges crossed by at least λ of the cluster's series; "
                "γ-Graphoid: nodes/edges whose crossing series belong to the cluster "
                "with proportion at least γ."
            ),
        )
    )
    return frame
