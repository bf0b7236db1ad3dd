"""Reference transition graph for :class:`repro.graph.structure.TimeSeriesGraph`.

:class:`DictGraph` is the graph as nested dictionaries, recorded one visit
and one transition at a time; the library's graph derives the same
structure from three arrays in bulk.  The helpers compare graphs:
:func:`assert_graphs_identical` checks every array of two library graphs
bit for bit, :func:`assert_matches_oracle` checks a library graph against a
dict graph, and :func:`payload` reads any graph through the public
accessors into the JSON payload that model artifacts of formats v1-v3
stored as ``graphs.json``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import GraphConstructionError

Edge = Tuple[int, int]


class DictGraph:
    """The transition graph as dictionaries, with the library graph's read API."""

    def __init__(self, length: int, n_series: int) -> None:
        self.length = length
        self.n_series = n_series
        self._positions: Dict[int, Tuple[float, float]] = {}
        self._patterns: Dict[int, np.ndarray] = {}
        self._weights: Dict[int, int] = {}
        self._edges: Dict[Edge, int] = {}
        self._node_series: Dict[int, Dict[int, int]] = {}
        self._edge_series: Dict[Edge, Dict[int, int]] = {}
        self._trajectories: Dict[int, List[int]] = {}

    # construction
    def add_node(self, node_id: int, position, pattern) -> None:
        self._positions[node_id] = (float(position[0]), float(position[1]))
        self._patterns[node_id] = np.asarray(pattern, dtype=float)
        self._weights[node_id] = 0
        self._node_series[node_id] = {}

    def record_visit(self, node_id: int, series_index: int) -> None:
        if node_id not in self._positions:
            raise GraphConstructionError(f"unknown node {node_id}")
        bucket = self._node_series[node_id]
        bucket[series_index] = bucket.get(series_index, 0) + 1
        self._weights[node_id] += 1
        self._trajectories.setdefault(series_index, []).append(node_id)

    def record_transition(self, source: int, target: int, series_index: int) -> None:
        if source not in self._positions or target not in self._positions:
            raise GraphConstructionError(f"unknown edge endpoint in ({source}, {target})")
        edge = (source, target)
        self._edges[edge] = self._edges.get(edge, 0) + 1
        bucket = self._edge_series.setdefault(edge, {})
        bucket[series_index] = bucket.get(series_index, 0) + 1

    # accessors
    @property
    def n_nodes(self) -> int:
        return len(self._positions)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def nodes(self) -> List[int]:
        return sorted(self._positions)

    def edges(self) -> List[Edge]:
        return sorted(self._edges)

    def _check_node(self, node_id: int) -> None:
        if node_id not in self._positions:
            raise GraphConstructionError(f"unknown node {node_id}")

    def edge_weight(self, edge: Edge) -> int:
        return self._edges.get(tuple(edge), 0)

    def node_weight(self, node_id: int) -> int:
        self._check_node(node_id)
        return self._weights[node_id]

    def series_through_node(self, node_id: int) -> List[int]:
        self._check_node(node_id)
        return sorted(self._node_series[node_id])

    def series_through_edge(self, edge: Edge) -> List[int]:
        return sorted(self._edge_series.get(tuple(edge), {}))

    def node_visit_counts(self, node_id: int) -> Dict[int, int]:
        self._check_node(node_id)
        return dict(self._node_series[node_id])

    def edge_visit_counts(self, edge: Edge) -> Dict[int, int]:
        return dict(self._edge_series.get(tuple(edge), {}))

    def trajectory(self, series_index: int) -> List[int]:
        return list(self._trajectories.get(series_index, []))

    def node_positions(self) -> Dict[int, Tuple[float, float]]:
        return dict(self._positions)

    def node_pattern(self, node_id: int) -> np.ndarray:
        self._check_node(node_id)
        return self._patterns[node_id].copy()

    # matrices
    def _count_matrix(self, elements, counts_of, normalize: bool) -> np.ndarray:
        matrix = np.zeros((self.n_series, len(elements)))
        for column, element in enumerate(elements):
            for series_index, count in counts_of[element].items():
                matrix[series_index, column] = count
        if normalize:
            sums = matrix.sum(axis=1, keepdims=True)
            sums = np.where(sums == 0, 1.0, sums)
            matrix = matrix / sums
        return matrix

    def node_feature_matrix(self, normalize: bool = True) -> np.ndarray:
        return self._count_matrix(self.nodes(), self._node_series, normalize)

    def edge_feature_matrix(self, normalize: bool = True) -> np.ndarray:
        return self._count_matrix(self.edges(), self._edge_series, normalize)

    def feature_matrix(self, normalize: bool = True) -> np.ndarray:
        return np.hstack(
            [self.node_feature_matrix(normalize), self.edge_feature_matrix(normalize)]
        )

    def adjacency_matrix(self) -> np.ndarray:
        nodes = self.nodes()
        index = {node_id: i for i, node_id in enumerate(nodes)}
        matrix = np.zeros((len(nodes), len(nodes)))
        for (source, target), weight in self._edges.items():
            matrix[index[source], index[target]] = weight
        return matrix

    def summary(self) -> Dict[str, object]:
        weights = [self._weights[node] for node in self.nodes()]
        return {
            "length": self.length,
            "n_series": self.n_series,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "max_node_weight": int(max(weights)) if weights else 0,
            "mean_node_weight": float(np.mean(weights)) if weights else 0.0,
        }

    def to_payload(self) -> Dict[str, object]:
        """The ``graphs.json`` entry of this graph (formats v1-v3)."""
        return payload(self)


def record_trajectories(length: int, positions, patterns, trajectories) -> DictGraph:
    """The dict graph of these arrays, recorded one subsequence at a time."""
    trajectories = np.asarray(trajectories)
    graph = DictGraph(length, trajectories.shape[0])
    for node_id, (position, pattern) in enumerate(zip(positions, patterns)):
        graph.add_node(node_id, position, pattern)
    for series_index, row in enumerate(trajectories.tolist()):
        for step, node_id in enumerate(row):
            graph.record_visit(node_id, series_index)
            if step:
                graph.record_transition(row[step - 1], node_id, series_index)
    return graph


def payload(graph) -> Dict[str, object]:
    """Any graph's structure, through its accessors, as a JSON payload.

    The layout of the per-graph entries of ``graphs.json`` in model
    artifacts of formats v1-v3; node patterns are not part of it.
    """
    positions = graph.node_positions()
    edges = graph.edges()
    return {
        "length": int(graph.length),
        "n_series": int(graph.n_series),
        "nodes": [
            {
                "id": int(node),
                "position": [float(positions[node][0]), float(positions[node][1])],
                "n_subsequences": int(graph.node_weight(node)),
            }
            for node in graph.nodes()
        ],
        "edges": [[int(s), int(t), int(graph.edge_weight((s, t)))] for s, t in edges],
        "node_series": {
            str(node): {str(k): int(v) for k, v in graph.node_visit_counts(node).items()}
            for node in graph.nodes()
        },
        "edge_series": [
            [int(s), int(t), {str(k): int(v) for k, v in graph.edge_visit_counts((s, t)).items()}]
            for s, t in edges
        ],
        "trajectories": {
            str(series): [int(node) for node in graph.trajectory(series)]
            for series in range(graph.n_series)
            if graph.trajectory(series)
        },
    }


def graph_arrays(graph) -> Dict[str, np.ndarray]:
    """Every array of a library graph, by name: given and derived."""
    return {
        "positions": graph.positions,
        "patterns": graph.patterns,
        "trajectories": graph.trajectories,
        "edges": graph.edge_array,
        "node_weights": graph.node_weights,
        "edge_weights": graph.edge_weights,
        **{f"node_{name}": array for name, array in graph.node_crossings._asdict().items()},
        **{f"edge_{name}": array for name, array in graph.edge_crossings._asdict().items()},
    }


def assert_graphs_identical(left, right) -> None:
    """Two library graphs hold the same arrays: names, dtypes, shapes and bytes."""
    assert left.length == right.length
    left_arrays, right_arrays = graph_arrays(left), graph_arrays(right)
    assert left_arrays.keys() == right_arrays.keys()
    for name, array in left_arrays.items():
        other = right_arrays[name]
        assert (array.dtype, array.shape) == (other.dtype, other.shape), name
        assert array.tobytes() == other.tobytes(), name


def assert_matches_oracle(graph, oracle: DictGraph) -> None:
    """A library graph reads exactly like the dict graph, patterns included."""
    assert payload(graph) == payload(oracle)
    for node in oracle.nodes():
        assert graph.node_pattern(node).tobytes() == oracle.node_pattern(node).tobytes()
