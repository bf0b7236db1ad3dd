"""Reference co-association matrix for :func:`repro.core.consensus.build_consensus_matrix`.

The library stacks one-hot cluster indicators and builds the matrix with
one GEMM.  This oracle accumulates one partition at a time; the 0/1 counts
are exact in float64, so the two must agree bit for bit.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_labels


def build_consensus_matrix_reference(partitions: Sequence[np.ndarray]) -> np.ndarray:
    """Per-partition accumulation of the co-association matrix."""
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

    matrix = np.zeros((n_samples, n_samples))
    for labels in cleaned:
        matrix += (labels[:, None] == labels[None, :]).astype(float)
    matrix /= len(cleaned)
    np.fill_diagonal(matrix, 1.0)
    return matrix
