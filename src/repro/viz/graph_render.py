"""Graph rendering for the Graph frame.

Draws a :class:`~repro.graph.structure.TimeSeriesGraph` with the paper's
colouring rule: nodes and edges are coloured by the cluster for which they
are sufficiently representative (λ) *and* exclusive (γ); everything below the
thresholds is drawn in a neutral grey.  Node radius encodes how many
subsequences the node captures, edge width encodes the transition weight.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.graphoid import (
    edge_exclusivity,
    edge_representativity,
    node_exclusivity,
    node_representativity,
)
from repro.graph.layout import Position
from repro.graph.structure import TimeSeriesGraph
from repro.utils.validation import check_labels, check_probability
from repro.viz.svg import SVGCanvas
from repro.viz.theme import DEFAULT_THEME, NEUTRAL_COLOR, color_for_cluster


def _dominant_cluster(
    scores_by_cluster: Dict[int, Dict], key, lambda_scores: Dict[int, Dict], gamma: float, lam: float
) -> Optional[int]:
    """Cluster for which ``key`` passes both thresholds with the best product."""
    best_cluster = None
    best_value = 0.0
    for cluster in scores_by_cluster:
        exclusivity = scores_by_cluster[cluster].get(key, 0.0)
        representativity = lambda_scores[cluster].get(key, 0.0)
        if exclusivity >= gamma and representativity >= lam:
            value = exclusivity * representativity
            if value > best_value:
                best_value = value
                best_cluster = cluster
    return best_cluster


def render_graph(
    graph: TimeSeriesGraph,
    labels,
    *,
    positions: Dict[int, Position],
    lambda_threshold: float = 0.5,
    gamma_threshold: float = 0.5,
    width: int = 640,
    height: int = 480,
    selected_node: Optional[int] = None,
    title: str = "",
) -> str:
    """Render the graph as SVG with λ/γ cluster colouring.

    Parameters
    ----------
    graph:
        The transition graph to draw (usually the optimal-length graph).
    labels:
        Final cluster labels (used to compute representativity/exclusivity).
    positions:
        Node id -> ``(x, y)`` in the unit square, from one of the layouts of
        :mod:`repro.graph.layout`; nodes without a position are not drawn.
    lambda_threshold, gamma_threshold:
        The colouring thresholds exposed as sliders in the Graph frame.
    selected_node:
        Node to highlight with a red ring (the node-inspector selection).
    """
    labels = check_labels(labels, n_samples=graph.n_series)
    lambda_threshold = check_probability(lambda_threshold, "lambda_threshold")
    gamma_threshold = check_probability(gamma_threshold, "gamma_threshold")

    exclusivity = node_exclusivity(graph, labels)
    representativity = node_representativity(graph, labels)
    edge_excl = edge_exclusivity(graph, labels)
    edge_repr = edge_representativity(graph, labels)

    margin = 40.0
    canvas = SVGCanvas(width, height, background=DEFAULT_THEME.background)
    if title:
        canvas.text(width / 2, 20, title, size=DEFAULT_THEME.title_size, anchor="middle", bold=True)

    def to_pixels(position: Tuple[float, float]) -> Tuple[float, float]:
        x_value, y_value = position
        return (
            margin + x_value * (width - 2 * margin),
            margin + (1.0 - y_value) * (height - 2 * margin),
        )

    # Edges first so nodes draw on top.
    edge_weights = graph.edge_weights.tolist()
    max_weight = max(edge_weights, default=1)
    for edge, weight in zip(graph.edges(), edge_weights):
        source, target = edge
        if source not in positions or target not in positions:
            continue
        x1, y1 = to_pixels(positions[source])
        x2, y2 = to_pixels(positions[target])
        cluster = _dominant_cluster(edge_excl, edge, edge_repr, gamma_threshold, lambda_threshold)
        color = color_for_cluster(cluster) if cluster is not None else NEUTRAL_COLOR
        stroke_width = 0.5 + 2.5 * weight / max_weight
        canvas.arrow(x1, y1, x2, y2, stroke=color, stroke_width=stroke_width, opacity=0.55)

    node_weights = graph.node_weights.tolist()
    max_node_weight = max(node_weights, default=1)
    for node, weight in enumerate(node_weights):
        if node not in positions:
            continue
        x_pixel, y_pixel = to_pixels(positions[node])
        cluster = _dominant_cluster(exclusivity, node, representativity, gamma_threshold, lambda_threshold)
        color = color_for_cluster(cluster) if cluster is not None else NEUTRAL_COLOR
        radius = 4.0 + 10.0 * np.sqrt(weight / max_node_weight)
        best_exclusivity = max(exclusivity[c].get(node, 0.0) for c in exclusivity)
        best_representativity = max(representativity[c].get(node, 0.0) for c in representativity)
        tooltip = (
            f"node {node} | weight {weight} | "
            f"max exclusivity {best_exclusivity:.2f} | max representativity {best_representativity:.2f}"
        )
        canvas.circle(x_pixel, y_pixel, radius, fill=color, stroke="#333333", stroke_width=0.8, opacity=0.9, tooltip=tooltip)
        if selected_node is not None and node == selected_node:
            canvas.circle(x_pixel, y_pixel, radius + 4.0, fill="none", stroke="#d62728", stroke_width=2.5)
        canvas.text(x_pixel, y_pixel - radius - 3, str(node), size=9, anchor="middle", fill="#444444")

    # Legend: one swatch per cluster plus the neutral colour.
    legend_y = height - 16
    legend_x = margin
    for cluster in sorted(np.unique(labels).tolist()):
        canvas.circle(legend_x, legend_y, 5, fill=color_for_cluster(cluster))
        canvas.text(legend_x + 9, legend_y + 4, f"cluster {cluster}", size=10)
        legend_x += 90
    canvas.circle(legend_x, legend_y, 5, fill=NEUTRAL_COLOR)
    canvas.text(legend_x + 9, legend_y + 4, "below λ/γ", size=10)
    return canvas.to_svg()
