"""k-Graph: the paper's core contribution.

* :mod:`repro.core.graph_clustering` — step (c): per-graph node/edge feature
  matrices clustered with k-Means, one partition L_ℓ per length.
* :mod:`repro.core.consensus` — step (d): consensus (co-association) matrix
  across partitions and spectral consensus clustering.
* :mod:`repro.core.interpretability` — consistency W_c(ℓ), interpretability
  factor W_e(ℓ), optimal length selection and graphoid computation.
* :mod:`repro.core.kgraph` — the :class:`KGraph` estimator tying everything
  together, and :class:`KGraphResult` exposing every intermediate artifact
  the Graphint frames visualise.
"""

from repro.core.consensus import build_consensus_matrix, consensus_clustering
from repro.core.graph_clustering import GraphPartition, cluster_graph, graph_features
from repro.core.interpretability import (
    LengthScore,
    consistency_score,
    interpretability_scores,
    select_optimal_length,
)
from repro.core.kgraph import KGraph, KGraphResult

__all__ = [
    "GraphPartition",
    "KGraph",
    "KGraphResult",
    "LengthScore",
    "build_consensus_matrix",
    "cluster_graph",
    "consensus_clustering",
    "consistency_score",
    "graph_features",
    "interpretability_scores",
    "select_optimal_length",
]
