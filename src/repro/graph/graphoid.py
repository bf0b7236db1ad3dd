"""Graphoids: cluster-specific subgraphs with representativity / exclusivity.

Definitions (Section II of the paper):

* **Representativity** of a node N for cluster C_i, written ``|N|_{C_i}``:
  the proportion of time series *of the cluster* that pass through the node,
  i.e. ``|{T in C_i : T crosses N}| / |C_i|``.
* **Exclusivity** of a node N for cluster C_i, written ``Pr_{C_i}(N)``:
  the proportion of the series *crossing the node* that belong to the
  cluster, i.e. ``|{T in C_i : T crosses N}| / |{T in D : T crosses N}|``.
* The **λ-Graphoid** of a cluster keeps the nodes/edges whose representativity
  is at least λ; the **γ-Graphoid** keeps those whose exclusivity is at least
  γ.  The plain Graphoid is the λ=0, γ=0 case (everything the cluster touches).

The same definitions apply to edges, with "crossing" meaning "traversing the
edge at least once".

Scoring counts, for each cluster, the cluster's series that cross an
element and divides by an integer (the cluster's size or the number of
series crossing the element), so a score is the same float however the
count is made.  :func:`score_matrix` counts every cluster at once with one
``np.bincount`` over the graph's CSR crossings; the λ/γ extractors count
only the requested cluster, so re-extracting all k graphoids costs k
scorings, not k².
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.graph.structure import Edge, TimeSeriesGraph
from repro.utils.validation import check_labels, check_probability


class _Crossings(NamedTuple):
    """Every (element, series) crossing of a graph's nodes or edges."""

    owner: np.ndarray  # element (node id or edge row) of each crossing
    series: np.ndarray  # series index of each crossing
    totals: np.ndarray  # number of series crossing each element


def _crossings(graph: TimeSeriesGraph, edges: bool) -> _Crossings:
    """The crossings of the graph's sorted edges (or sorted nodes)."""
    crossings = graph.edge_crossings if edges else graph.node_crossings
    return _Crossings(crossings.owners(), crossings.series, np.diff(crossings.ptr))


def _elements(graph: TimeSeriesGraph, edges: bool, rows=None) -> list:
    """Node ids, or edge tuples, of ``rows`` (every element when ``None``)."""
    if edges:
        array = graph.edge_array if rows is None else graph.edge_array[rows]
        return list(map(tuple, array.tolist()))
    return graph.nodes() if rows is None else rows.tolist()


def _scores(crossings: _Crossings, group: np.ndarray, sizes: np.ndarray, exclusivity: bool) -> np.ndarray:
    """(n_groups, n_elements) scores; ``group`` maps each series to its group.

    The score is an integer count over an integer size (the group's size for
    representativity, the element's crossing total for exclusivity; 0.0 when
    the size is 0).
    """
    n_elements = crossings.totals.size
    counts = np.bincount(
        group[crossings.series] * n_elements + crossings.owner,
        minlength=sizes.size * n_elements,
    ).reshape(sizes.size, n_elements)
    if exclusivity:
        totals = crossings.totals
        return np.divide(counts, totals, out=np.zeros(counts.shape), where=totals > 0)
    return counts / np.maximum(sizes, 1)[:, None]


def score_matrix(graph: TimeSeriesGraph, labels, *, edges: bool, exclusivity: bool) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted clusters and their (n_clusters, n_elements) score matrix.

    Columns follow ``graph.edges()`` when ``edges`` is true, else
    ``graph.nodes()``; scores are exclusivity or representativity.
    """
    labels = check_labels(labels, n_samples=graph.n_series)
    clusters, group = np.unique(labels, return_inverse=True)
    scores = _scores(_crossings(graph, edges), group, np.bincount(group), exclusivity)
    return clusters, scores


def _all_cluster_scores(graph: TimeSeriesGraph, labels, edges: bool, exclusivity: bool) -> Dict[int, Dict]:
    clusters, scores = score_matrix(graph, labels, edges=edges, exclusivity=exclusivity)
    elements = _elements(graph, edges)
    return {
        int(cluster): dict(zip(elements, row))
        for cluster, row in zip(clusters.tolist(), scores.tolist())
    }


def node_representativity(graph: TimeSeriesGraph, labels) -> Dict[int, Dict[int, float]]:
    """``result[cluster][node]`` = representativity of the node for the cluster."""
    return _all_cluster_scores(graph, labels, edges=False, exclusivity=False)


def node_exclusivity(graph: TimeSeriesGraph, labels) -> Dict[int, Dict[int, float]]:
    """``result[cluster][node]`` = exclusivity of the node for the cluster."""
    return _all_cluster_scores(graph, labels, edges=False, exclusivity=True)


def edge_representativity(graph: TimeSeriesGraph, labels) -> Dict[int, Dict[Edge, float]]:
    """``result[cluster][edge]`` = representativity of the edge for the cluster."""
    return _all_cluster_scores(graph, labels, edges=True, exclusivity=False)


def edge_exclusivity(graph: TimeSeriesGraph, labels) -> Dict[int, Dict[Edge, float]]:
    """``result[cluster][edge]`` = exclusivity of the edge for the cluster."""
    return _all_cluster_scores(graph, labels, edges=True, exclusivity=True)


@dataclass
class Graphoid:
    """A cluster-specific subgraph plus the scores that selected it.

    Attributes
    ----------
    cluster:
        Cluster identifier the graphoid describes.
    nodes / edges:
        Selected node ids and directed edges.
    node_scores / edge_scores:
        The score (representativity or exclusivity, depending on the kind)
        of every *selected* node/edge.
    kind:
        ``"lambda"`` or ``"gamma"``.
    threshold:
        The λ or γ value used for the selection.
    """

    cluster: int
    nodes: List[int]
    edges: List[Edge]
    node_scores: Dict[int, float]
    edge_scores: Dict[Edge, float]
    kind: str
    threshold: float

    @property
    def n_nodes(self) -> int:
        """Number of selected nodes."""
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        """Number of selected edges."""
        return len(self.edges)

    def is_empty(self) -> bool:
        """True when neither nodes nor edges were selected."""
        return not self.nodes and not self.edges

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable summary for the Graph frame side panel."""
        return {
            "cluster": self.cluster,
            "kind": self.kind,
            "threshold": self.threshold,
            "n_nodes": self.n_nodes,
            "n_edges": self.n_edges,
            "top_nodes": sorted(self.node_scores, key=self.node_scores.get, reverse=True)[:5],
        }


def _cluster_group(labels: np.ndarray, cluster: int) -> Tuple[np.ndarray, np.ndarray]:
    """Series groups (1 in ``cluster``, 0 elsewhere) and the two group sizes."""
    group = (labels == cluster).astype(np.intp)
    if not group.any():
        raise ValidationError(f"cluster {cluster} not present in labels")
    return group, np.bincount(group, minlength=2)


def _threshold_graphoid(
    graph: TimeSeriesGraph, labels, cluster: int, threshold: float, kind: str
) -> Graphoid:
    """The λ- or γ-graphoid of ``cluster``, scoring that cluster only."""
    labels = check_labels(labels, n_samples=graph.n_series)
    group, sizes = _cluster_group(labels, cluster)

    def selected(edges: bool) -> Dict:
        scores = _scores(_crossings(graph, edges), group, sizes, kind == "gamma")[1]
        keep = np.flatnonzero((scores >= threshold) & (scores > 0))
        return dict(zip(_elements(graph, edges, keep), scores[keep].tolist()))

    nodes, edges = selected(edges=False), selected(edges=True)
    return Graphoid(
        cluster=int(cluster),
        nodes=list(nodes),
        edges=list(edges),
        node_scores=nodes,
        edge_scores=edges,
        kind=kind,
        threshold=threshold,
    )


def extract_lambda_graphoid(
    graph: TimeSeriesGraph, labels, cluster: int, lambda_threshold: float
) -> Graphoid:
    """λ-Graphoid: nodes/edges whose representativity for ``cluster`` >= λ."""
    lambda_threshold = check_probability(lambda_threshold, "lambda_threshold")
    return _threshold_graphoid(graph, labels, cluster, lambda_threshold, "lambda")


def extract_gamma_graphoid(
    graph: TimeSeriesGraph, labels, cluster: int, gamma_threshold: float
) -> Graphoid:
    """γ-Graphoid: nodes/edges whose exclusivity for ``cluster`` >= γ."""
    gamma_threshold = check_probability(gamma_threshold, "gamma_threshold")
    return _threshold_graphoid(graph, labels, cluster, gamma_threshold, "gamma")


def cluster_graphoids(
    graph: TimeSeriesGraph, labels, lambda_threshold: float, gamma_threshold: float
) -> Dict[str, Dict[int, Graphoid]]:
    """The λ- and γ-graphoid of every cluster in ``labels``.

    Returns ``{"lambda": {cluster: graphoid}, "gamma": {cluster: graphoid}}``,
    with clusters in sorted order: the graphoids a k-Graph fit attaches to
    its result, and those the Graph frame's sliders re-extract.
    """
    clusters = [int(cluster) for cluster in np.unique(labels)]
    return {
        "lambda": {
            cluster: extract_lambda_graphoid(graph, labels, cluster, lambda_threshold)
            for cluster in clusters
        },
        "gamma": {
            cluster: extract_gamma_graphoid(graph, labels, cluster, gamma_threshold)
            for cluster in clusters
        },
    }


def interpretability_factor(graph: TimeSeriesGraph, labels) -> float:
    """W_e: average over clusters of the maximum node exclusivity.

    This is the paper's interpretability factor used (together with the
    consistency W_c) to pick the most interpretable subsequence length.
    """
    _, exclusivity = score_matrix(graph, labels, edges=False, exclusivity=True)
    return float(np.mean(exclusivity.max(axis=1))) if exclusivity.size else 0.0
