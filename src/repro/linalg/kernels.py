"""Affinity kernels used by spectral clustering and consensus clustering."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.metrics.distances import pairwise_distances
from repro.utils.validation import check_array


def gaussian_kernel_matrix(distances, gamma: Optional[float] = None) -> np.ndarray:
    """Convert a distance matrix to Gaussian (RBF) affinities ``exp(-g d^2)``.

    When ``gamma`` is ``None`` it defaults to ``1 / median(d^2)`` over the
    strictly positive entries (the "median heuristic"), which keeps affinities
    well spread for arbitrary scales.
    """
    matrix = check_array(distances, name="distances", ndim=2)
    if matrix.shape[0] != matrix.shape[1]:
        raise ValidationError("distance matrix must be square")
    squared = matrix**2
    if gamma is None:
        positive = squared[squared > 0]
        scale = float(np.median(positive)) if positive.size else 1.0
        gamma = 1.0 / max(scale, 1e-12)
    elif gamma <= 0:
        raise ValidationError(f"gamma must be positive, got {gamma}")
    affinity = np.exp(-gamma * squared)
    np.fill_diagonal(affinity, 1.0)
    return affinity


def rbf_affinity(data, gamma: Optional[float] = None, metric: str = "euclidean") -> np.ndarray:
    """RBF affinity matrix computed directly from a feature matrix."""
    array = check_array(data, name="data", ndim=2)
    distances = pairwise_distances(array, metric=metric)
    return gaussian_kernel_matrix(distances, gamma=gamma)


def knn_affinity(data, n_neighbors: int = 10, metric: str = "euclidean") -> np.ndarray:
    """Symmetric k-nearest-neighbour connectivity affinity (0/1 entries).

    Neighbour selection is fully vectorised with ``np.argpartition``
    (O(n²) instead of the O(n² log n) argsort-per-row loop) and breaks
    distance ties deterministically by the smaller column index — the same
    semantics as the stable argsort-per-row oracle in
    ``tests/oracles/kernels.py``, which it is bit-identical to:
    strictly-closer points are always neighbours, and points tied with the
    k-th smallest distance fill the remaining slots in index order.

    .. note::
       The pre-vectorization implementation broke ties in ``np.argsort``
       (introsort) order, which was an unspecified implementation detail;
       on tied distances (duplicate or discrete-valued points) this
       deterministic rule may select different — equally near — neighbours
       than an older release did.
    """
    array = check_array(data, name="data", ndim=2)
    n = array.shape[0]
    if n_neighbors < 1:
        raise ValidationError(f"n_neighbors must be >= 1, got {n_neighbors}")
    n_neighbors = min(n_neighbors, n - 1)
    if n_neighbors == 0:
        return np.zeros((n, n))
    # pairwise_distances returns a fresh array on every path, so in-place
    # diagonal masking is safe without a defensive copy.
    distances = pairwise_distances(array, metric=metric)
    np.fill_diagonal(distances, np.inf)  # a point is never its own neighbour
    # k-th smallest distance per row: argpartition pivots the k smallest
    # values (ties arbitrary) before index k, so their max is the k-th order
    # statistic regardless of tie placement.
    partition = np.argpartition(distances, n_neighbors - 1, axis=1)[:, :n_neighbors]
    kth = np.take_along_axis(distances, partition, axis=1).max(axis=1)
    closer = distances < kth[:, None]
    n_closer = closer.sum(axis=1)
    # Fill the remaining slots from the boundary ties, smallest index first.
    tied = distances == kth[:, None]
    tie_rank = np.cumsum(tied, axis=1)
    fill = tied & (tie_rank <= (n_neighbors - n_closer)[:, None])
    affinity = (closer | fill).astype(float)
    # Symmetrise: connect if either endpoint lists the other as a neighbour.
    return np.maximum(affinity, affinity.T)
