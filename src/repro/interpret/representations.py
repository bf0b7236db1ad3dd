"""Cluster representations shown to the (simulated) quiz participant.

* For **k-Means** and **k-Shape** the representation of a cluster is its
  centroid series (exactly what the Graphint quiz displays).
* For **k-Graph** the representation is the cluster's graphoid: the set of
  exclusive/representative node patterns, each a short subsequence shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.kgraph import KGraph
from repro.exceptions import ValidationError
from repro.graph.graphoid import score_matrix
from repro.utils.normalization import znormalize, znormalize_dataset
from repro.utils.validation import check_array, check_labels


@dataclass
class ClusterRepresentation:
    """What the participant sees for one cluster under one method.

    Attributes
    ----------
    method:
        Clustering method name (``"kmeans"``, ``"kshape"``, ``"kgraph"``).
    cluster:
        Cluster identifier.
    kind:
        ``"centroid"`` (a single series) or ``"graphoid"`` (a set of node
        patterns with scores).
    centroid:
        The centroid series when ``kind == "centroid"``.
    patterns:
        Node patterns (short subsequences) when ``kind == "graphoid"``.
    pattern_scores:
        Exclusivity-weighted score of each pattern (same order as
        ``patterns``); used both for display and by the simulated user.
    graph_node_patterns:
        For graphoid representations: the z-normalised pattern of *every*
        node of the displayed graph (node-sorted order).  Together with
        ``cluster_profile`` this is what the Graph frame shows when it
        highlights a series' trajectory, and what the simulated user uses to
        place a query series on the graph.
    cluster_profile:
        For graphoid representations: the cluster's average node-visit
        distribution (same node order as ``graph_node_patterns``).
    """

    method: str
    cluster: int
    kind: str
    centroid: Optional[np.ndarray] = None
    patterns: List[np.ndarray] = field(default_factory=list)
    pattern_scores: List[float] = field(default_factory=list)
    graph_node_patterns: List[np.ndarray] = field(default_factory=list)
    cluster_profile: Optional[np.ndarray] = None

    def describe(self) -> Dict[str, object]:
        """JSON-friendly description for the quiz frame."""
        return {
            "method": self.method,
            "cluster": self.cluster,
            "kind": self.kind,
            "n_patterns": len(self.patterns),
            "centroid_length": None if self.centroid is None else int(self.centroid.shape[0]),
        }


def centroid_representation(
    method: str, data, labels
) -> Dict[int, ClusterRepresentation]:
    """Per-cluster centroid representations (k-Means / k-Shape style).

    The centroid of a cluster is the z-normalised mean of its members, which
    is what both baselines display in the demo.
    """
    array = check_array(data, name="data", ndim=2, min_rows=1)
    labels = check_labels(labels, n_samples=array.shape[0])
    representations: Dict[int, ClusterRepresentation] = {}
    for cluster in np.unique(labels):
        members = array[labels == cluster]
        if members.shape[0] == 0:
            raise ValidationError(f"cluster {cluster} has no members")
        centroid = znormalize(members.mean(axis=0))
        representations[int(cluster)] = ClusterRepresentation(
            method=method,
            cluster=int(cluster),
            kind="centroid",
            centroid=centroid,
        )
    return representations


def graphoid_representation(
    model: KGraph,
    *,
    max_patterns: int = 5,
) -> Dict[int, ClusterRepresentation]:
    """Per-cluster graphoid representations from a fitted k-Graph model.

    For each cluster the most exclusive nodes (weighted by representativity so
    rarely-visited flukes do not dominate) provide ``max_patterns`` short
    patterns; the quiz participant matches query series against them.
    """
    model._check_fitted()
    graph = model.result_.optimal_graph
    labels = model.result_.labels
    clusters, exclusivity = score_matrix(graph, labels, edges=False, exclusivity=True)
    _, representativity = score_matrix(graph, labels, edges=False, exclusivity=False)

    # The per-series node-visit distribution and the per-node patterns let the
    # quiz participant (human or simulated) place a query series on the graph,
    # which is exactly what the demo shows ("the subgraph corresponding to the
    # time series").
    node_features = graph.node_feature_matrix(normalize=True)
    all_patterns = [znormalize(pattern) for pattern in graph.patterns]

    representations: Dict[int, ClusterRepresentation] = {}
    for cluster, cluster_exclusivity, cluster_representativity in zip(
        clusters.tolist(), exclusivity, representativity
    ):
        scores = cluster_exclusivity * cluster_representativity
        # Best first; a stable sort keeps equal scores in node order.
        ranked = np.argsort(-scores, kind="stable")[:max_patterns]
        kept = ranked[scores[ranked] > 0]
        patterns = [znormalize(graph.patterns[node]) for node in kept]
        pattern_scores = scores[kept].tolist()
        if not patterns and graph.n_nodes:
            # Fall back to the most representative node so the representation
            # is never empty (mirrors the GUI which always shows something).
            best = int(np.argmax(cluster_representativity))
            patterns.append(znormalize(graph.patterns[best]))
            pattern_scores.append(float(cluster_representativity[best]))
        cluster_profile = node_features[labels == cluster].mean(axis=0)
        representations[cluster] = ClusterRepresentation(
            method="kgraph",
            cluster=cluster,
            kind="graphoid",
            patterns=patterns,
            pattern_scores=pattern_scores,
            graph_node_patterns=all_patterns,
            cluster_profile=cluster_profile,
        )
    return representations
