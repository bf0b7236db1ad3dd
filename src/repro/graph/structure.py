"""The attributed directed graph produced by the k-Graph embedding.

A :class:`TimeSeriesGraph` for one subsequence length ℓ is fully determined
by three arrays:

* ``positions`` — (n_nodes, 2) node positions in the PCA projection;
* ``patterns`` — (n_nodes, ℓ) representative (mean) subsequence of each node;
* ``trajectories`` — (n_series, n_windows) node id of every subsequence of
  every series, in order.  Consecutive subsequences of a series form the
  directed edges.

The constructor derives everything else once, with NumPy: the edges as
``(source, target)`` rows in lexicographic order, node and edge weights
(subsequence and transition counts), and, for every node and edge, the
series that cross it and how often, stored as CSR :class:`Crossings` (one
entry per distinct (element, series) pair).  Accessors are slices or
lookups into these arrays; readers that visit every element (feature
matrices, graphoid scoring, layouts, rendering, model artifacts) read the
arrays directly.  Node ids are ``0 .. n_nodes - 1``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.exceptions import GraphConstructionError, ValidationError
from repro.utils.validation import check_positive_int

Edge = Tuple[int, int]

_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(upper: int) -> type:
    """int32 when values up to ``upper`` fit in it, else int64."""
    return np.int32 if upper <= _INT32_MAX else np.int64


class Crossings(NamedTuple):
    """Series counts of every node (or edge) in CSR form.

    Element ``e`` is crossed by the series ``series[ptr[e]:ptr[e + 1]]``
    (ascending), ``count[ptr[e]:ptr[e + 1]]`` times each.
    """

    ptr: np.ndarray
    series: np.ndarray
    count: np.ndarray

    @classmethod
    def build(
        cls, element: np.ndarray, series: np.ndarray, n_series: int
    ) -> Tuple[np.ndarray, "Crossings"]:
        """Aggregate parallel (element, series) arrays, one entry per occurrence.

        Returns the sorted distinct elements and their crossings, one row
        each, from one sort of the (element, series) pairs.
        """
        keys, count = np.unique(element.astype(np.int64) * n_series + series, return_counts=True)
        owner = keys // n_series
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        crossings = cls(
            np.append(starts, keys.size).astype(_index_dtype(keys.size)),
            (keys - owner * n_series).astype(_index_dtype(n_series)),
            count.astype(_index_dtype(element.size)),
        )
        return owner[starts], crossings

    def spread(self, elements: np.ndarray, n_elements: int) -> "Crossings":
        """These crossings of the sorted ``elements`` as rows 0 .. n_elements - 1.

        Rows of the ids missing from ``elements`` are empty.
        """
        return self._replace(ptr=self.ptr[np.searchsorted(elements, np.arange(n_elements + 1))])

    def totals(self) -> np.ndarray:
        """Sum of the counts of every element."""
        return np.diff(np.concatenate([[0], np.cumsum(self.count)])[self.ptr])

    def owners(self) -> np.ndarray:
        """Element position of every entry."""
        return np.repeat(np.arange(self.ptr.size - 1), np.diff(self.ptr))

    def dense(self, n_series: int, normalize: bool) -> np.ndarray:
        """(n_series, n_elements) float matrix of the counts.

        When ``normalize`` is true each row is divided by its sum (rows
        that sum to 0 stay 0).
        """
        matrix = np.zeros((n_series, self.ptr.size - 1))
        matrix[self.series, self.owners()] = self.count
        if normalize:
            sums = matrix.sum(axis=1, keepdims=True)
            sums = np.where(sums == 0, 1.0, sums)
            matrix = matrix / sums
        return matrix


def _float_matrix(value, name: str, shape: Tuple[Optional[int], int]) -> np.ndarray:
    """``value`` as a C-contiguous float matrix of ``shape`` (``None``: any rows)."""
    array = np.asarray(value)
    if not (np.issubdtype(array.dtype, np.floating) or np.issubdtype(array.dtype, np.integer)):
        raise ValidationError(f"{name} must be a real-valued array, got dtype {array.dtype}")
    rows, columns = shape
    if array.ndim != 2 or array.shape[1] != columns or rows not in (None, array.shape[0]):
        expected = f"({'n_nodes' if rows is None else rows}, {columns})"
        raise ValidationError(f"{name} must have shape {expected}, got {array.shape}")
    return np.ascontiguousarray(array, dtype=float)


class TimeSeriesGraph:
    """Directed transition graph over subsequence patterns.

    Parameters
    ----------
    length:
        Subsequence length ℓ this graph was built for.
    positions:
        (n_nodes, 2) node positions.
    patterns:
        (n_nodes, ℓ) node patterns.
    trajectories:
        (n_series, n_windows) integer node ids in [0, n_nodes); row ``s``
        is the node sequence series ``s`` visits.

    Shape and dtype errors raise :class:`ValidationError`, node ids out of
    range :class:`GraphConstructionError`; each message starts with the
    name of the offending argument.  The arrays are treated as read-only.
    """

    def __init__(self, length: int, positions, patterns, trajectories) -> None:
        self.length = check_positive_int(length, "length")
        self.positions = _float_matrix(positions, "positions", (None, 2))
        n_nodes = self.positions.shape[0]
        self.patterns = _float_matrix(patterns, "patterns", (n_nodes, self.length))
        trajectories = np.asarray(trajectories)
        if not np.issubdtype(trajectories.dtype, np.integer):
            raise ValidationError(
                f"trajectories must hold integer node ids, got dtype {trajectories.dtype}"
            )
        if trajectories.ndim != 2:
            raise ValidationError(
                f"trajectories must have shape (n_series, n_windows), got {trajectories.shape}"
            )
        if trajectories.size and (trajectories.min() < 0 or trajectories.max() >= n_nodes):
            bad = trajectories[(trajectories < 0) | (trajectories >= n_nodes)][0]
            raise GraphConstructionError(
                f"trajectories hold node id {int(bad)}, outside [0, {n_nodes})"
            )
        self.trajectories = trajectories.astype(_index_dtype(n_nodes))

        n_series, n_windows = trajectories.shape
        visited, crossings = Crossings.build(
            self.trajectories.ravel(), np.repeat(np.arange(n_series), n_windows), n_series
        )
        self.node_crossings = crossings.spread(visited, n_nodes)
        self.node_weights = self.node_crossings.totals()
        pairs = self.trajectories[:, :-1].astype(np.int64) * n_nodes + self.trajectories[:, 1:]
        self._edge_keys, self.edge_crossings = Crossings.build(
            pairs.ravel(), np.repeat(np.arange(n_series), pairs.shape[1]), n_series
        )
        self.edge_weights = self.edge_crossings.totals()
        self.edge_array = np.column_stack(
            [self._edge_keys // n_nodes, self._edge_keys % n_nodes]
        ).astype(_index_dtype(n_nodes))

    def __repr__(self) -> str:
        return (
            f"TimeSeriesGraph(length={self.length}, n_series={self.n_series}, "
            f"n_nodes={self.n_nodes}, n_edges={self.n_edges})"
        )

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def _node(self, node_id) -> int:
        if isinstance(node_id, (int, np.integer)) and 0 <= node_id < self.n_nodes:
            return int(node_id)
        raise GraphConstructionError(f"unknown node {node_id}")

    def _edge(self, edge) -> Optional[int]:
        """Row of ``edge`` in :attr:`edge_array`, ``None`` when absent."""
        source, target = edge
        n_nodes = self.n_nodes
        if not (0 <= source < n_nodes and 0 <= target < n_nodes):
            return None
        key = source * n_nodes + target
        row = int(np.searchsorted(self._edge_keys, key))
        if row < self._edge_keys.size and self._edge_keys[row] == key:
            return row
        return None

    @staticmethod
    def _slice(crossings: Crossings, row: Optional[int]) -> slice:
        if row is None:
            return slice(0, 0)
        return slice(int(crossings.ptr[row]), int(crossings.ptr[row + 1]))

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def n_series(self) -> int:
        """Number of time series in the dataset the graph embeds."""
        return self.trajectories.shape[0]

    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return self.positions.shape[0]

    @property
    def n_edges(self) -> int:
        """Number of distinct directed edges."""
        return self.edge_array.shape[0]

    def nodes(self) -> List[int]:
        """Sorted node identifiers."""
        return list(range(self.n_nodes))

    def edges(self) -> List[Edge]:
        """Sorted directed edges."""
        return list(map(tuple, self.edge_array.tolist()))

    def edge_weight(self, edge: Edge) -> int:
        """Total transition count of ``edge`` (0 when absent)."""
        row = self._edge(edge)
        return 0 if row is None else int(self.edge_weights[row])

    def node_weight(self, node_id: int) -> int:
        """Total number of subsequences mapped to ``node_id``."""
        return int(self.node_weights[self._node(node_id)])

    def series_through_node(self, node_id: int) -> List[int]:
        """Indices of the time series that traverse ``node_id`` at least once."""
        crossings = self.node_crossings
        return crossings.series[self._slice(crossings, self._node(node_id))].tolist()

    def series_through_edge(self, edge: Edge) -> List[int]:
        """Indices of the time series that traverse ``edge`` at least once."""
        crossings = self.edge_crossings
        return crossings.series[self._slice(crossings, self._edge(edge))].tolist()

    def node_visit_counts(self, node_id: int) -> Dict[int, int]:
        """Mapping series index -> number of subsequences of it in ``node_id``."""
        crossings = self.node_crossings
        rows = self._slice(crossings, self._node(node_id))
        return dict(zip(crossings.series[rows].tolist(), crossings.count[rows].tolist()))

    def edge_visit_counts(self, edge: Edge) -> Dict[int, int]:
        """Mapping series index -> number of traversals of ``edge``."""
        crossings = self.edge_crossings
        rows = self._slice(crossings, self._edge(edge))
        return dict(zip(crossings.series[rows].tolist(), crossings.count[rows].tolist()))

    def trajectory(self, series_index: int) -> List[int]:
        """Node sequence visited by ``series_index`` (empty when unseen)."""
        if isinstance(series_index, (int, np.integer)) and 0 <= series_index < self.n_series:
            return self.trajectories[series_index].tolist()
        return []

    def node_positions(self) -> Dict[int, Tuple[float, float]]:
        """Mapping node -> 2-D position from the embedding projection."""
        return dict(enumerate(map(tuple, self.positions.tolist())))

    def node_pattern(self, node_id: int) -> np.ndarray:
        """Representative (average) subsequence pattern of ``node_id``."""
        return self.patterns[self._node(node_id)].copy()

    # ------------------------------------------------------------------ #
    # matrices used by the Graph Clustering step
    # ------------------------------------------------------------------ #
    def node_feature_matrix(self, normalize: bool = True) -> np.ndarray:
        """(n_series, n_nodes) matrix of node crossing counts.

        When ``normalize`` is true each row is divided by its sum so series of
        different lengths (or stride effects) are comparable.
        """
        return self.node_crossings.dense(self.n_series, normalize)

    def edge_feature_matrix(self, normalize: bool = True) -> np.ndarray:
        """(n_series, n_edges) matrix of edge traversal counts."""
        return self.edge_crossings.dense(self.n_series, normalize)

    def feature_matrix(self, normalize: bool = True) -> np.ndarray:
        """Concatenated node + edge feature matrix (the paper's F_{D,ℓ})."""
        return np.hstack(
            [self.node_feature_matrix(normalize), self.edge_feature_matrix(normalize)]
        )

    def adjacency_matrix(self) -> np.ndarray:
        """(n_nodes, n_nodes) weighted adjacency matrix in node-sorted order."""
        matrix = np.zeros((self.n_nodes, self.n_nodes))
        matrix[self.edge_array[:, 0], self.edge_array[:, 1]] = self.edge_weights
        return matrix

    # ------------------------------------------------------------------ #
    # summaries
    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[str, object]:
        """JSON-serialisable summary for the Under-the-hood frame."""
        weights = self.node_weights
        return {
            "length": self.length,
            "n_series": self.n_series,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "max_node_weight": int(weights.max()) if weights.size else 0,
            "mean_node_weight": float(np.mean(weights)) if weights.size else 0.0,
        }
