"""Scenario 3: dive into the algorithmic steps of k-Graph.

Run with::

    python examples/under_the_hood.py

Answers the two questions the demo asks the participant to investigate:

* *How is the subsequence length selected for the graph displayed in the
  Graph frame?* — by maximising the product of the consistency W_c(ℓ) and the
  interpretability factor W_e(ℓ).
* *How is the graph used to cluster the time series?* — through the node/edge
  feature matrix clustered per length, then a consensus matrix across lengths
  clustered spectrally.

The script prints each intermediate artifact for one dataset.
"""

from __future__ import annotations

import numpy as np

from repro import KGraph, generate_dataset
from repro.core import graph_features
from repro.metrics import adjusted_rand_index


def main() -> None:
    dataset = generate_dataset("seasonal_mixture", random_state=2)
    model = KGraph(n_clusters=dataset.n_classes, n_lengths=4, random_state=2)
    model.fit(dataset.data)
    result = model.result_

    print(f"dataset: {dataset.name} ({dataset.n_series} x {dataset.length})")
    print(f"\n--- step (b): graph embedding ({len(result.graphs)} graphs) ---")
    for length, graph in sorted(result.graphs.items()):
        print(f"  length {length:>3}: {graph.n_nodes:>3} nodes, {graph.n_edges:>4} edges")

    print("\n--- step (c): graph clustering (one partition per length) ---")
    for partition in result.partitions:
        ari = adjusted_rand_index(dataset.labels, partition.labels)
        features = graph_features(result.graphs[partition.length], model.feature_mode)
        print(f"  length {partition.length:>3}: feature matrix "
              f"{features.shape[0]}x{features.shape[1]}, "
              f"ARI vs truth = {ari:.3f}")

    print("\n--- step (d): consensus clustering ---")
    consensus = result.consensus_matrix
    same = consensus[dataset.labels[:, None] == dataset.labels[None, :]].mean()
    different = consensus[dataset.labels[:, None] != dataset.labels[None, :]].mean()
    print(f"  consensus matrix: {consensus.shape[0]}x{consensus.shape[1]}")
    print(f"  mean co-association within true classes : {same:.3f}")
    print(f"  mean co-association across true classes : {different:.3f}")
    print(f"  final ARI vs truth: {adjusted_rand_index(dataset.labels, result.labels):.3f}")

    print("\n--- interpretability computation: length selection ---")
    print("  length   W_c      W_e      W_c*W_e")
    for score in result.length_scores:
        marker = "  <-- selected" if score.length == result.optimal_length else ""
        print(f"  {score.length:>6}   {score.consistency:.3f}    "
              f"{score.interpretability:.3f}    {score.combined:.3f}{marker}")

    print("\n--- pipeline timings ---")
    for stage, seconds in result.timings.items():
        print(f"  {stage:<22} {seconds:.3f}s")

    print("\nchange the dataset name at the top of main() to explore other datasets,")
    print("as the demo scenario suggests.")


if __name__ == "__main__":
    main()
