"""The attributed directed graph produced by the k-Graph embedding.

A :class:`TimeSeriesGraph` stores, for one subsequence length ℓ:

* the node set (each node is a recurring subsequence pattern with a 2-D
  position in the PCA projection and a representative pattern),
* the weighted directed edge set (transition counts between patterns),
* for every node and edge, the multiset of time series that traverse it
  (needed to compute representativity and exclusivity), and
* for every time series, its node trajectory (the sequence of nodes visited
  by its consecutive subsequences) — this is what the Graph frame highlights
  when the user selects a node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphConstructionError, ValidationError

Edge = Tuple[int, int]


@dataclass
class NodeInfo:
    """Static attributes of one graph node."""

    node_id: int
    position: Tuple[float, float]
    pattern: np.ndarray
    n_subsequences: int = 0


@dataclass
class TimeSeriesGraph:
    """Directed transition graph over subsequence patterns.

    Parameters
    ----------
    length:
        Subsequence length ℓ this graph was built for.
    n_series:
        Number of time series in the dataset the graph embeds.
    """

    length: int
    n_series: int
    _nodes: Dict[int, NodeInfo] = field(default_factory=dict)
    _edges: Dict[Edge, int] = field(default_factory=dict)
    _node_series: Dict[int, Dict[int, int]] = field(default_factory=dict)
    _edge_series: Dict[Edge, Dict[int, int]] = field(default_factory=dict)
    _trajectories: Dict[int, List[int]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, node_id: int, position: Sequence[float], pattern: np.ndarray) -> None:
        """Register a node with its 2-D position and representative pattern."""
        if node_id in self._nodes:
            raise GraphConstructionError(f"node {node_id} already exists")
        if len(position) != 2:
            raise ValidationError("node position must be 2-dimensional")
        self._nodes[node_id] = NodeInfo(
            node_id=node_id,
            position=(float(position[0]), float(position[1])),
            pattern=np.asarray(pattern, dtype=float),
        )
        self._node_series[node_id] = {}

    def record_visit(self, node_id: int, series_index: int) -> None:
        """Record that a subsequence of ``series_index`` falls in ``node_id``.

        Thin wrapper over the bulk :meth:`add_visits` API; prefer the bulk
        call when recording many visits at once.
        """
        self.add_visits([node_id], [series_index])

    def record_transition(self, source: int, target: int, series_index: int) -> None:
        """Record a transition edge ``source -> target`` for ``series_index``.

        Thin wrapper over the bulk :meth:`add_transitions` API; prefer the
        bulk call when recording many transitions at once.
        """
        if source not in self._nodes or target not in self._nodes:
            raise GraphConstructionError(f"unknown edge endpoint in ({source}, {target})")
        self.add_transitions([source], [target], [series_index])

    def add_visits(self, node_ids, series_indices) -> None:
        """Record many (node, series) visits in one vectorised call.

        ``node_ids`` and ``series_indices`` are equal-length integer arrays:
        element ``t`` records that a subsequence of series
        ``series_indices[t]`` falls in node ``node_ids[t]``.  Per-series
        trajectories are extended in input order, so passing a dataset's
        assignments grouped by series reproduces exactly what a loop of
        :meth:`record_visit` calls would build, at NumPy speed: counts are
        aggregated with ``np.bincount`` and only the distinct (node, series)
        combinations touch Python dictionaries.
        """
        nodes = np.asarray(node_ids, dtype=int).ravel()
        series = np.asarray(series_indices, dtype=int).ravel()
        if nodes.shape[0] != series.shape[0]:
            raise ValidationError(
                f"node_ids and series_indices must have equal length, got "
                f"{nodes.shape[0]} and {series.shape[0]}"
            )
        if nodes.size == 0:
            return
        if nodes.size == 1:
            # Scalar fast path: keeps record_visit at its original per-call
            # cost (no unique/bincount setup for a single element).
            node_id, series_id = int(nodes[0]), int(series[0])
            if node_id not in self._nodes:
                raise GraphConstructionError(f"unknown node {node_id}")
            bucket = self._node_series[node_id]
            bucket[series_id] = bucket.get(series_id, 0) + 1
            self._nodes[node_id].n_subsequences += 1
            self._trajectories.setdefault(series_id, []).append(node_id)
            return
        unique_nodes, node_inverse = np.unique(nodes, return_inverse=True)
        node_list = unique_nodes.tolist()
        for node_id in node_list:
            if node_id not in self._nodes:
                raise GraphConstructionError(f"unknown node {node_id}")
        unique_series, series_inverse = np.unique(series, return_inverse=True)
        series_list = unique_series.tolist()

        node_totals = np.bincount(node_inverse, minlength=unique_nodes.size)
        for position, node_id in enumerate(node_list):
            self._nodes[node_id].n_subsequences += int(node_totals[position])

        key = node_inverse * unique_series.size + series_inverse
        counts = np.bincount(key, minlength=unique_nodes.size * unique_series.size)
        buckets = [self._node_series[node_id] for node_id in node_list]
        occupied = np.flatnonzero(counts)
        for flat, count in zip(occupied.tolist(), counts[occupied].tolist()):
            bucket = buckets[flat // unique_series.size]
            series_id = series_list[flat % unique_series.size]
            bucket[series_id] = bucket.get(series_id, 0) + count

        order = np.argsort(series, kind="stable")
        boundaries = np.flatnonzero(np.diff(series[order])) + 1
        for group in np.split(order, boundaries):
            series_id = int(series[group[0]])
            self._trajectories.setdefault(series_id, []).extend(
                nodes[group].tolist()
            )

    def add_transitions(self, sources, targets, series_indices) -> None:
        """Record many directed transitions in one vectorised call.

        Element ``t`` records a traversal of edge
        ``sources[t] -> targets[t]`` by series ``series_indices[t]``.  Edge
        weights and per-edge series counts are aggregated with
        ``np.bincount``; only distinct (edge, series) combinations touch
        Python dictionaries, so recording a whole dataset's transitions is
        O(total + distinct) instead of one dictionary update per traversal.
        """
        src = np.asarray(sources, dtype=int).ravel()
        dst = np.asarray(targets, dtype=int).ravel()
        series = np.asarray(series_indices, dtype=int).ravel()
        if not (src.shape[0] == dst.shape[0] == series.shape[0]):
            raise ValidationError(
                f"sources, targets and series_indices must have equal length, "
                f"got {src.shape[0]}, {dst.shape[0]} and {series.shape[0]}"
            )
        if src.size == 0:
            return
        if src.size == 1:
            # Scalar fast path mirroring record_transition's original cost.
            source, target = int(src[0]), int(dst[0])
            series_id = int(series[0])
            if source not in self._nodes or target not in self._nodes:
                raise GraphConstructionError(
                    f"unknown edge endpoint in ({source}, {target})"
                )
            edge = (source, target)
            self._edges[edge] = self._edges.get(edge, 0) + 1
            bucket = self._edge_series.setdefault(edge, {})
            bucket[series_id] = bucket.get(series_id, 0) + 1
            return
        for node_id in np.unique(np.concatenate([src, dst])).tolist():
            if node_id not in self._nodes:
                raise GraphConstructionError(
                    f"unknown edge endpoint in ({node_id}, ...)"
                )
        # Encode (source, target) pairs as one integer so the distinct
        # edges come from a fast 1-D unique instead of np.unique(axis=0).
        base = int(min(src.min(), dst.min()))
        span = int(max(src.max(), dst.max())) - base + 1
        unique_keys, pair_inverse = np.unique(
            (src - base) * span + (dst - base), return_inverse=True
        )
        edge_list = [
            (int(key) // span + base, int(key) % span + base)
            for key in unique_keys.tolist()
        ]
        unique_series, series_inverse = np.unique(series, return_inverse=True)
        series_list = unique_series.tolist()

        edge_totals = np.bincount(pair_inverse, minlength=unique_keys.size)
        for position, edge in enumerate(edge_list):
            self._edges[edge] = self._edges.get(edge, 0) + int(edge_totals[position])

        key = pair_inverse * unique_series.size + series_inverse
        counts = np.bincount(key, minlength=unique_keys.size * unique_series.size)
        buckets = [self._edge_series.setdefault(edge, {}) for edge in edge_list]
        occupied = np.flatnonzero(counts)
        for flat, count in zip(occupied.tolist(), counts[occupied].tolist()):
            bucket = buckets[flat // unique_series.size]
            series_id = series_list[flat % unique_series.size]
            bucket[series_id] = bucket.get(series_id, 0) + count

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        """Number of distinct directed edges."""
        return len(self._edges)

    def nodes(self) -> List[int]:
        """Sorted node identifiers."""
        return sorted(self._nodes)

    def edges(self) -> List[Edge]:
        """Sorted directed edges."""
        return sorted(self._edges)

    def node_info(self, node_id: int) -> NodeInfo:
        """Static attributes of ``node_id``."""
        if node_id not in self._nodes:
            raise GraphConstructionError(f"unknown node {node_id}")
        return self._nodes[node_id]

    def edge_weight(self, edge: Edge) -> int:
        """Total transition count of ``edge`` (0 when absent)."""
        return self._edges.get(tuple(edge), 0)

    def node_weight(self, node_id: int) -> int:
        """Total number of subsequences mapped to ``node_id``."""
        return self.node_info(node_id).n_subsequences

    def series_through_node(self, node_id: int) -> List[int]:
        """Indices of the time series that traverse ``node_id`` at least once."""
        if node_id not in self._nodes:
            raise GraphConstructionError(f"unknown node {node_id}")
        return sorted(self._node_series[node_id])

    def series_through_edge(self, edge: Edge) -> List[int]:
        """Indices of the time series that traverse ``edge`` at least once."""
        return sorted(self._edge_series.get(tuple(edge), {}))

    def node_visit_counts(self, node_id: int) -> Dict[int, int]:
        """Mapping series index -> number of subsequences of it in ``node_id``."""
        if node_id not in self._nodes:
            raise GraphConstructionError(f"unknown node {node_id}")
        return dict(self._node_series[node_id])

    def edge_visit_counts(self, edge: Edge) -> Dict[int, int]:
        """Mapping series index -> number of traversals of ``edge``."""
        return dict(self._edge_series.get(tuple(edge), {}))

    def trajectory(self, series_index: int) -> List[int]:
        """Node sequence visited by ``series_index`` (empty when unseen)."""
        return list(self._trajectories.get(series_index, []))

    def node_positions(self) -> Dict[int, Tuple[float, float]]:
        """Mapping node -> 2-D position from the embedding projection."""
        return {node_id: info.position for node_id, info in self._nodes.items()}

    def node_pattern(self, node_id: int) -> np.ndarray:
        """Representative (average) subsequence pattern of ``node_id``."""
        return self.node_info(node_id).pattern.copy()

    # ------------------------------------------------------------------ #
    # matrices used by the Graph Clustering step
    # ------------------------------------------------------------------ #
    def node_feature_matrix(self, normalize: bool = True) -> np.ndarray:
        """(n_series, n_nodes) matrix of node crossing counts.

        When ``normalize`` is true each row is divided by its sum so series of
        different lengths (or stride effects) are comparable.
        """
        nodes = self.nodes()
        index = {node_id: col for col, node_id in enumerate(nodes)}
        matrix = np.zeros((self.n_series, len(nodes)))
        for node_id, counts in self._node_series.items():
            for series_index, count in counts.items():
                matrix[series_index, index[node_id]] = count
        if normalize:
            sums = matrix.sum(axis=1, keepdims=True)
            sums = np.where(sums == 0, 1.0, sums)
            matrix = matrix / sums
        return matrix

    def edge_feature_matrix(self, normalize: bool = True) -> np.ndarray:
        """(n_series, n_edges) matrix of edge traversal counts."""
        edges = self.edges()
        index = {edge: col for col, edge in enumerate(edges)}
        matrix = np.zeros((self.n_series, len(edges)))
        for edge, counts in self._edge_series.items():
            for series_index, count in counts.items():
                matrix[series_index, index[edge]] = count
        if normalize:
            sums = matrix.sum(axis=1, keepdims=True)
            sums = np.where(sums == 0, 1.0, sums)
            matrix = matrix / sums
        return matrix

    def feature_matrix(self, normalize: bool = True) -> np.ndarray:
        """Concatenated node + edge feature matrix (the paper's F_{D,ℓ})."""
        return np.hstack(
            [self.node_feature_matrix(normalize), self.edge_feature_matrix(normalize)]
        )

    def adjacency_matrix(self) -> np.ndarray:
        """(n_nodes, n_nodes) weighted adjacency matrix in node-sorted order."""
        nodes = self.nodes()
        index = {node_id: i for i, node_id in enumerate(nodes)}
        matrix = np.zeros((len(nodes), len(nodes)))
        for (source, target), weight in self._edges.items():
            matrix[index[source], index[target]] = weight
        return matrix

    # ------------------------------------------------------------------ #
    # interop / summaries
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Convert to a :class:`networkx.DiGraph` with weights and attributes."""
        import networkx as nx

        graph = nx.DiGraph(length=self.length, n_series=self.n_series)
        for node_id, info in self._nodes.items():
            graph.add_node(
                node_id,
                position=info.position,
                weight=info.n_subsequences,
                n_series=len(self._node_series[node_id]),
            )
        for (source, target), weight in self._edges.items():
            graph.add_edge(source, target, weight=weight)
        return graph

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable summary for the Under-the-hood frame."""
        weights = [info.n_subsequences for info in self._nodes.values()]
        return {
            "length": self.length,
            "n_series": self.n_series,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "max_node_weight": int(max(weights)) if weights else 0,
            "mean_node_weight": float(np.mean(weights)) if weights else 0.0,
        }

    # ------------------------------------------------------------------ #
    # lossless serialisation (model artifacts, see repro.serve.artifacts)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> Dict[str, object]:
        """The structural (non-array) part of the graph as a JSON payload.

        Node patterns are excluded — they are float matrices and travel in
        the artifact's ``.npz`` file instead, stacked in node-sorted order
        (the same order the ``nodes`` list uses here).  The inverse is
        :meth:`from_payload`.
        """
        return {
            "length": int(self.length),
            "n_series": int(self.n_series),
            "nodes": [
                {
                    "id": int(node_id),
                    "position": [float(info.position[0]), float(info.position[1])],
                    "n_subsequences": int(info.n_subsequences),
                }
                for node_id, info in sorted(self._nodes.items())
            ],
            "edges": [
                [int(source), int(target), int(weight)]
                for (source, target), weight in sorted(self._edges.items())
            ],
            "node_series": {
                str(node_id): {str(series): int(count) for series, count in counts.items()}
                for node_id, counts in self._node_series.items()
            },
            "edge_series": [
                [
                    int(source),
                    int(target),
                    {str(series): int(count) for series, count in counts.items()},
                ]
                for (source, target), counts in sorted(self._edge_series.items())
            ],
            "trajectories": {
                str(series): [int(node) for node in trajectory]
                for series, trajectory in self._trajectories.items()
            },
        }

    @classmethod
    def from_payload(
        cls, payload: Dict[str, object], patterns: np.ndarray
    ) -> "TimeSeriesGraph":
        """Rebuild a graph from :meth:`to_payload` output + its pattern matrix.

        ``patterns`` rows must be in node-sorted order, matching the
        ``nodes`` list of the payload.
        """
        node_rows = payload["nodes"]
        if patterns.shape[0] != len(node_rows):
            raise ValidationError(
                f"graph for length {payload['length']} declares {len(node_rows)} "
                f"nodes but the pattern matrix has {patterns.shape[0]} rows"
            )
        graph = cls(length=int(payload["length"]), n_series=int(payload["n_series"]))
        for row, entry in enumerate(node_rows):
            node_id = int(entry["id"])
            graph._nodes[node_id] = NodeInfo(
                node_id=node_id,
                position=(float(entry["position"][0]), float(entry["position"][1])),
                pattern=np.ascontiguousarray(patterns[row], dtype=float),
                n_subsequences=int(entry["n_subsequences"]),
            )
            graph._node_series[node_id] = {}
        for source, target, weight in payload["edges"]:
            graph._edges[(int(source), int(target))] = int(weight)
        for node_key, counts in payload["node_series"].items():
            graph._node_series[int(node_key)] = {
                int(series): int(count) for series, count in counts.items()
            }
        for source, target, counts in payload["edge_series"]:
            graph._edge_series[(int(source), int(target))] = {
                int(series): int(count) for series, count in counts.items()
            }
        for series_key, trajectory in payload["trajectories"].items():
            graph._trajectories[int(series_key)] = [int(node) for node in trajectory]
        return graph
