"""Consensus Clustering — step (d) of the k-Graph pipeline.

The M per-length partitions L_ℓ are combined into a consensus
(co-association) matrix M_C whose entry (i, j) is the fraction of partitions
that put series i and j in the same cluster.  Spectral clustering on M_C
(interpreted as an affinity matrix) produces the final k-Graph labels L.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.cluster.spectral import SpectralClustering
from repro.exceptions import ValidationError
from repro.utils.validation import check_labels, check_positive_int


def build_consensus_matrix(partitions: Sequence[np.ndarray]) -> np.ndarray:
    """Co-association matrix over a sequence of partitions of the same samples.

    Entry (i, j) = (number of partitions where labels[i] == labels[j]) / M.
    The diagonal is 1 by construction and the matrix is symmetric.
    """
    if not partitions:
        raise ValidationError("at least one partition is required")
    cleaned: List[np.ndarray] = []
    n_samples = None
    for index, labels in enumerate(partitions):
        labels = check_labels(labels, name=f"partitions[{index}]")
        if n_samples is None:
            n_samples = labels.shape[0]
        elif labels.shape[0] != n_samples:
            raise ValidationError(
                f"partition {index} has {labels.shape[0]} samples, expected {n_samples}"
            )
        cleaned.append(labels)

    # One-hot GEMM: stacking the per-partition cluster indicators into one
    # (n_samples, sum of cluster counts) block matrix B turns the whole
    # co-association accumulation into a single B @ B.T — entry (i, j)
    # counts the partitions agreeing on (i, j).  The 0/1 dot products are
    # exact integers in float64, so the result is bit-identical to the
    # per-partition accumulation loop in ``tests/oracles/consensus.py``.
    blocks = []
    for labels in cleaned:
        clusters, inverse = np.unique(labels, return_inverse=True)
        onehot = np.zeros((n_samples, clusters.size))
        onehot[np.arange(n_samples), inverse] = 1.0
        blocks.append(onehot)
    indicators = np.hstack(blocks)
    matrix = (indicators @ indicators.T) / len(cleaned)
    np.fill_diagonal(matrix, 1.0)
    return matrix


def consensus_clustering(
    partitions: Sequence[np.ndarray],
    n_clusters: int,
    *,
    random_state=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Spectral consensus over a set of partitions.

    Returns
    -------
    labels:
        The final consensus partition L.
    consensus_matrix:
        The co-association matrix M_C the labels were derived from.
    """
    n_clusters = check_positive_int(n_clusters, "n_clusters")
    consensus = build_consensus_matrix(partitions)
    if n_clusters > consensus.shape[0]:
        raise ValidationError(
            f"n_clusters ({n_clusters}) cannot exceed the number of samples "
            f"({consensus.shape[0]})"
        )
    spectral = SpectralClustering(
        n_clusters=n_clusters,
        affinity="precomputed",
        random_state=random_state,
    )
    labels = spectral.fit_predict(consensus)
    return labels, consensus
