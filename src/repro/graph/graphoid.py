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

Scoring is per cluster.  Both scores count the cluster's series that cross an
element and divide by an integer (the cluster's size or the number of series
crossing the element), and ``_cluster_scores`` makes that count for one
cluster over every element at once.  The λ/γ extractors score only the
requested cluster, so re-extracting all k graphoids costs k scorings, not
k².  The all-cluster tables (:func:`node_representativity` and the other
three) call the same helper once per cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, NamedTuple

import numpy as np

from repro.exceptions import ValidationError
from repro.graph.structure import Edge, TimeSeriesGraph
from repro.utils.validation import check_labels, check_probability


def _cluster_members(labels: np.ndarray) -> Dict[int, np.ndarray]:
    return {int(c): np.flatnonzero(labels == c) for c in np.unique(labels)}


class _Crossings(NamedTuple):
    """Every (element, series) crossing of a graph's nodes or edges."""

    elements: list
    owner: np.ndarray  # position in ``elements`` of each crossing
    series: np.ndarray  # series index of each crossing
    totals: np.ndarray  # number of series crossing each element


def _crossings(graph: TimeSeriesGraph, edges: bool) -> _Crossings:
    """The crossings of the graph's sorted edges (or sorted nodes)."""
    if edges:
        elements, series_of = graph.edges(), graph.series_through_edge
    else:
        elements, series_of = graph.nodes(), graph.series_through_node
    crossing = [series_of(element) for element in elements]
    totals = np.fromiter(map(len, crossing), dtype=np.intp, count=len(crossing))
    series = np.fromiter(chain.from_iterable(crossing), dtype=np.intp, count=int(totals.sum()))
    owner = np.repeat(np.arange(len(elements)), totals)
    return _Crossings(elements, owner, series, totals)


def _cluster_scores(crossings: _Crossings, members: np.ndarray, exclusivity: bool) -> Dict:
    """``{element: score}`` of every element for the cluster made of ``members``.

    The score is an integer count over an integer size (the cluster's size for
    representativity, the element's crossing total for exclusivity, 0.0 when
    nothing crosses the element), so it is the same float however the count
    is made.
    """
    hits = np.isin(crossings.series, members)
    counts = np.bincount(crossings.owner[hits], minlength=len(crossings.elements))
    if exclusivity:
        totals = crossings.totals
        scores = np.divide(counts, totals, out=np.zeros(counts.shape), where=totals > 0)
    else:
        scores = counts / members.size
    return dict(zip(crossings.elements, scores.tolist()))


def _all_cluster_scores(graph: TimeSeriesGraph, labels, edges: bool, exclusivity: bool) -> Dict[int, Dict]:
    labels = check_labels(labels, n_samples=graph.n_series)
    crossings = _crossings(graph, edges)
    return {
        cluster: _cluster_scores(crossings, members, exclusivity)
        for cluster, members in _cluster_members(labels).items()
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
        ``"graphoid"``, ``"lambda"`` or ``"gamma"``.
    threshold:
        The λ or γ value used for the selection (0.0 for the plain graphoid).
    """

    cluster: int
    nodes: List[int] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)
    node_scores: Dict[int, float] = field(default_factory=dict)
    edge_scores: Dict[Edge, float] = field(default_factory=dict)
    kind: str = "graphoid"
    threshold: float = 0.0

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


def extract_graphoid(graph: TimeSeriesGraph, labels, cluster: int) -> Graphoid:
    """The plain Graphoid: every node/edge traversed by at least one member."""
    labels = check_labels(labels, n_samples=graph.n_series)
    members = set(np.flatnonzero(labels == cluster).tolist())
    if not members:
        raise ValidationError(f"cluster {cluster} has no members")
    nodes = [
        node for node in graph.nodes()
        if members.intersection(graph.series_through_node(node))
    ]
    edges = [
        edge for edge in graph.edges()
        if members.intersection(graph.series_through_edge(edge))
    ]
    return Graphoid(
        cluster=int(cluster),
        nodes=nodes,
        edges=edges,
        node_scores={node: 1.0 for node in nodes},
        edge_scores={edge: 1.0 for edge in edges},
        kind="graphoid",
        threshold=0.0,
    )


def _threshold_graphoid(
    graph: TimeSeriesGraph, labels, cluster: int, threshold: float, kind: str
) -> Graphoid:
    """The λ- or γ-graphoid of ``cluster``, scoring that cluster only."""
    labels = check_labels(labels, n_samples=graph.n_series)
    members = _cluster_members(labels)
    if cluster not in members:
        raise ValidationError(f"cluster {cluster} not present in labels")
    def selected(edges: bool) -> Dict:
        scores = _cluster_scores(_crossings(graph, edges), members[cluster], kind == "gamma")
        return {
            element: score
            for element, score in scores.items()
            if score >= threshold and score > 0
        }

    nodes, edges = selected(edges=False), selected(edges=True)
    return Graphoid(
        cluster=int(cluster),
        nodes=sorted(nodes),
        edges=sorted(edges),
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


def interpretability_factor(graph: TimeSeriesGraph, labels) -> float:
    """W_e: average over clusters of the maximum node exclusivity.

    This is the paper's interpretability factor used (together with the
    consistency W_c) to pick the most interpretable subsequence length.
    """
    exclusivity = node_exclusivity(graph, labels)
    maxima = []
    for cluster, scores in exclusivity.items():
        if scores:
            maxima.append(max(scores.values()))
        else:
            maxima.append(0.0)
    return float(np.mean(maxima)) if maxima else 0.0
