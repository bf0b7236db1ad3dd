"""2-D layouts for rendering a :class:`TimeSeriesGraph` in the Graph frame."""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.graph.structure import TimeSeriesGraph
from repro.utils.validation import check_positive_int, check_random_state

Position = Tuple[float, float]


def _unit_square(coords: np.ndarray) -> np.ndarray:
    """Rescale (n_nodes, 2) positions into the unit square (keeps aspect ratio)."""
    if coords.shape[0] == 0:
        return coords
    minimum = coords.min(axis=0)
    span = coords.max(axis=0) - minimum
    scale = float(span.max())
    if scale < 1e-12:
        scale = 1.0
    return (coords - minimum) / scale


def _by_node(coords: np.ndarray) -> Dict[int, Position]:
    return dict(enumerate(map(tuple, coords.tolist())))


def pca_layout(graph: TimeSeriesGraph) -> Dict[int, Position]:
    """Use the embedding's own PCA positions (the most faithful layout)."""
    return _by_node(_unit_square(graph.positions))


def circular_layout(graph: TimeSeriesGraph) -> Dict[int, Position]:
    """Nodes equally spaced on a circle, ordered by total weight."""
    # Heaviest first; a stable sort keeps equal weights in node order.
    nodes = np.argsort(-graph.node_weights, kind="stable").tolist()
    n = len(nodes)
    positions: Dict[int, Position] = {}
    for i, node in enumerate(nodes):
        angle = 2.0 * np.pi * i / max(n, 1)
        positions[node] = (0.5 + 0.5 * np.cos(angle), 0.5 + 0.5 * np.sin(angle))
    return positions


def force_directed_layout(
    graph: TimeSeriesGraph,
    *,
    random_state,
    n_iterations: int = 100,
) -> Dict[int, Position]:
    """Fruchterman-Reingold force-directed layout seeded from the PCA layout.

    Edge weights attract proportionally to ``log(1 + weight)`` so heavy
    transition edges pull their endpoints together without collapsing the
    whole graph.  ``random_state`` seeds the jitter added to the start
    positions; it has no default, so the same call always draws the same
    layout.
    """
    n_iterations = check_positive_int(n_iterations, "n_iterations")
    rng = check_random_state(random_state)
    n = graph.n_nodes
    if n == 0:
        return {}
    if n == 1:
        return {0: (0.5, 0.5)}

    positions = _unit_square(graph.positions)
    positions += rng.normal(0.0, 0.01, size=positions.shape)

    # Symmetric: a node pair's cell holds the weights of both directions.
    directed = np.zeros((n, n))
    directed[graph.edge_array[:, 0], graph.edge_array[:, 1]] = np.log1p(graph.edge_weights)
    adjacency = directed + directed.T

    optimal = 1.0 / np.sqrt(n)
    temperature = 0.1
    for iteration in range(n_iterations):
        delta = positions[:, None, :] - positions[None, :, :]
        distance = np.linalg.norm(delta, axis=2)
        np.fill_diagonal(distance, 1.0)
        distance = np.maximum(distance, 1e-6)

        repulsion = (optimal**2) / distance
        attraction = adjacency * (distance**2) / optimal
        force = (repulsion - attraction) / distance
        displacement = np.sum(delta * force[:, :, None], axis=1)

        length = np.linalg.norm(displacement, axis=1, keepdims=True)
        length = np.maximum(length, 1e-9)
        positions += displacement / length * np.minimum(length, temperature)
        temperature *= 0.95

    return _by_node(_unit_square(positions))
