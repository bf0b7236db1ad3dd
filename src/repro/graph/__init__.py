"""Graph substrate for k-Graph.

* :mod:`repro.graph.structure` — the directed, attributed transition graph
  produced by the embedding step (nodes = recurring subsequence patterns,
  edges = observed transitions), held as arrays: node positions, node
  patterns and per-series node trajectories determine it, and its edges,
  weights and per-element series counts (CSR) are derived from them once.
* :mod:`repro.graph.embedding` — the Graph Embedding step of the pipeline
  (subsequence extraction, PCA projection, radial-scan + KDE node extraction,
  edge construction).
* :mod:`repro.graph.graphoid` — node/edge representativity and exclusivity
  and the λ/γ-Graphoid extraction used by the Interpretability step.
* :mod:`repro.graph.layout` — 2-D layouts for rendering the graph in the
  Graph frame.
"""

from repro.graph.structure import TimeSeriesGraph
from repro.graph.embedding import GraphEmbedding
from repro.graph.graphoid import (
    Graphoid,
    edge_exclusivity,
    edge_representativity,
    extract_gamma_graphoid,
    extract_lambda_graphoid,
    node_exclusivity,
    node_representativity,
)
from repro.graph.layout import circular_layout, force_directed_layout, pca_layout

__all__ = [
    "GraphEmbedding",
    "Graphoid",
    "TimeSeriesGraph",
    "circular_layout",
    "edge_exclusivity",
    "edge_representativity",
    "extract_gamma_graphoid",
    "extract_lambda_graphoid",
    "force_directed_layout",
    "node_exclusivity",
    "node_representativity",
    "pca_layout",
]
