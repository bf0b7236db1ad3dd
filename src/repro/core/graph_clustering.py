"""Graph Clustering — step (c) of the k-Graph pipeline.

For each graph G_ℓ, two feature families are computed per time series: the
node-based features (how often the series crosses each node) and the
edge-based features (how often it traverses each edge).  The concatenated
feature matrix F_{D,ℓ} is clustered with k-Means, yielding the per-length
partition L_ℓ.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.kmeans import KMeans
from repro.exceptions import ValidationError
from repro.graph.structure import TimeSeriesGraph
from repro.utils.validation import check_positive_int


@dataclass
class GraphPartition:
    """The outcome of clustering one graph G_ℓ.

    The feature matrix that was clustered is not kept: it is
    ``graph_features(graph, feature_mode)`` of the graph of the same length.

    Attributes
    ----------
    length:
        Subsequence length ℓ of the graph.
    labels:
        Partition L_ℓ of the time series.
    inertia:
        k-Means inertia of the partition (used as a diagnostic in the
        Under-the-hood frame).
    """

    length: int
    labels: np.ndarray
    inertia: float


def graph_features(graph: TimeSeriesGraph, feature_mode: str) -> np.ndarray:
    """The feature matrix F_{D,ℓ} that ``feature_mode`` selects from ``graph``.

    ``"both"`` (paper default) gives the n_series x (n_nodes + n_edges)
    node and edge matrix, ``"nodes"`` or ``"edges"`` one half of it — the
    ablation benchmark compares these.
    """
    if feature_mode == "nodes":
        return graph.node_feature_matrix()
    if feature_mode == "edges":
        return graph.edge_feature_matrix()
    if feature_mode == "both":
        return graph.feature_matrix()
    raise ValidationError(
        f"feature_mode must be 'both', 'nodes' or 'edges', got {feature_mode!r}"
    )


def cluster_graph(
    graph: TimeSeriesGraph,
    n_clusters: int,
    *,
    feature_mode: str = "both",
    n_init: int = 5,
    random_state=None,
) -> GraphPartition:
    """Cluster the time series using the features induced by ``graph``.

    Parameters
    ----------
    graph:
        The transition graph G_ℓ built by the embedding step.
    n_clusters:
        Number of clusters ``k``.
    feature_mode:
        The features to cluster (see :func:`graph_features`).
    n_init, random_state:
        Passed to the underlying k-Means.
    """
    n_clusters = check_positive_int(n_clusters, "n_clusters")
    features = graph_features(graph, feature_mode)
    if n_clusters > graph.n_series:
        raise ValidationError(
            f"n_clusters ({n_clusters}) cannot exceed the number of series ({graph.n_series})"
        )
    if features.shape[1] == 0:
        raise ValidationError(
            f"graph for length {graph.length} produced an empty feature matrix"
        )

    kmeans = KMeans(
        n_clusters=n_clusters,
        n_init=n_init,
        random_state=random_state,
    )
    labels = kmeans.fit_predict(features)
    return GraphPartition(
        length=graph.length,
        labels=labels,
        inertia=float(kmeans.inertia_),
    )
