"""Interpretability Computation — length selection and graphoid scoring.

k-Graph builds one graph per subsequence length but must present a single
graph to the analyst.  It selects the most useful one with two criteria
(Section II-B of the paper):

* **Consistency** ``W_c(ℓ) = ARI(L, L_ℓ)`` — how much the per-length
  partition agrees with the final consensus labels.
* **Interpretability factor** ``W_e(ℓ)`` — the average, over clusters, of the
  maximum node exclusivity in G_ℓ; a high value means every cluster owns at
  least one near-exclusive node.

The selected length ``¯ℓ`` maximises the product ``W_c(ℓ) · W_e(ℓ)``; the
corresponding graph is the one rendered by the Graph frame and used to
compute the graphoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.graph_clustering import GraphPartition
from repro.exceptions import ValidationError
from repro.graph.graphoid import interpretability_factor
from repro.graph.structure import TimeSeriesGraph
from repro.metrics.clustering import adjusted_rand_index
from repro.utils.validation import check_labels


@dataclass(frozen=True)
class LengthScore:
    """Scores attached to one candidate subsequence length."""

    length: int
    consistency: float
    interpretability: float

    @property
    def combined(self) -> float:
        """The selection criterion ``W_c(ℓ) · W_e(ℓ)``."""
        return self.consistency * self.interpretability


def consistency_score(final_labels, partition_labels) -> float:
    """``W_c(ℓ)``: ARI between the consensus labels and a per-length partition.

    ARI can be slightly negative for partitions worse than chance; the score
    is clipped at zero so the product criterion stays monotone in agreement.
    """
    value = adjusted_rand_index(final_labels, partition_labels)
    return float(max(value, 0.0))


def interpretability_scores(
    graphs: Dict[int, TimeSeriesGraph],
    partitions: Sequence[GraphPartition],
    final_labels,
) -> List[LengthScore]:
    """Compute :class:`LengthScore` for every candidate length.

    ``graphs`` maps length -> graph; ``partitions`` carries the matching
    per-length labels.  Both are produced by the k-Graph pipeline.  Each
    length costs one ARI and one bincount over the graph's node crossings,
    so the lengths are scored in a plain loop in the calling process.
    """
    final_labels = check_labels(final_labels)
    by_length = {partition.length: partition for partition in partitions}
    missing = set(graphs) - set(by_length)
    if missing:
        raise ValidationError(f"no partition available for lengths {sorted(missing)}")

    scores: List[LengthScore] = []
    for length in sorted(graphs):
        partition = by_length[length]
        if partition.labels.shape[0] != final_labels.shape[0]:
            raise ValidationError(
                f"partition for length {length} has {partition.labels.shape[0]} labels, "
                f"expected {final_labels.shape[0]}"
            )
        scores.append(
            LengthScore(
                length=int(length),
                consistency=consistency_score(final_labels, partition.labels),
                # W_e is computed with the *final* labels, because the graphoids
                # the analyst sees are defined with respect to the final clustering.
                interpretability=interpretability_factor(graphs[length], final_labels),
            )
        )
    return scores


def select_optimal_length(scores: Sequence[LengthScore]) -> int:
    """Return the length maximising ``W_c · W_e`` (ties go to the shorter length).

    When every combined score is zero (degenerate datasets), the length with
    the highest interpretability factor is returned so the Graph frame still
    has something meaningful to display.
    """
    if not scores:
        raise ValidationError("no length scores to select from")
    ordered = sorted(scores, key=lambda s: (-s.combined, s.length))
    best = ordered[0]
    if best.combined <= 0.0:
        ordered = sorted(scores, key=lambda s: (-s.interpretability, s.length))
        best = ordered[0]
    return int(best.length)
