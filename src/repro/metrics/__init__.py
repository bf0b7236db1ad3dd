"""Distances and clustering-quality measures.

This package replaces the scikit-learn / tslearn metric stack with
from-scratch NumPy implementations:

* :mod:`repro.metrics.distances` — Euclidean, shape-based distance (SBD),
  dynamic time warping, cross-correlation.
* :mod:`repro.metrics.contingency` — contingency tables and pair counts.
* :mod:`repro.metrics.clustering` — Rand index, adjusted Rand index, mutual
  information, NMI, AMI, homogeneity/completeness/V-measure, purity,
  Fowlkes-Mallows.
"""

from repro.metrics.distances import (
    cross_correlation,
    dtw_distance,
    euclidean_distance,
    pairwise_distances,
    sbd_distance,
    znormalized_euclidean_distance,
)
from repro.metrics.contingency import contingency_matrix, pair_confusion_matrix
from repro.metrics.clustering import (
    adjusted_mutual_information,
    adjusted_rand_index,
    clustering_report,
    completeness_score,
    fowlkes_mallows_index,
    homogeneity_score,
    mutual_information,
    normalized_mutual_information,
    purity_score,
    rand_index,
    v_measure_score,
)

__all__ = [
    "adjusted_mutual_information",
    "adjusted_rand_index",
    "clustering_report",
    "completeness_score",
    "contingency_matrix",
    "cross_correlation",
    "dtw_distance",
    "euclidean_distance",
    "fowlkes_mallows_index",
    "homogeneity_score",
    "mutual_information",
    "normalized_mutual_information",
    "pair_confusion_matrix",
    "pairwise_distances",
    "purity_score",
    "rand_index",
    "sbd_distance",
    "v_measure_score",
    "znormalized_euclidean_distance",
]
