"""Reference k-NN affinity for :func:`repro.linalg.kernels.knn_affinity`.

The library selects each row's neighbours with ``np.argpartition`` and
fills ties at the k-th distance in column order.  This oracle sorts every
row (stable, column index as tie-break) and takes the first k, so both
select the same neighbours under distance ties.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.metrics.distances import pairwise_distances
from repro.utils.validation import check_array


def knn_affinity_reference(
    data, n_neighbors: int = 10, metric: str = "euclidean"
) -> np.ndarray:
    """Argsort-per-row k-NN affinity (O(n² log n))."""
    array = check_array(data, name="data", ndim=2)
    n = array.shape[0]
    if n_neighbors < 1:
        raise ValidationError(f"n_neighbors must be >= 1, got {n_neighbors}")
    n_neighbors = min(n_neighbors, n - 1)
    if n_neighbors == 0:
        return np.zeros((n, n))
    distances = pairwise_distances(array, metric=metric)
    affinity = np.zeros((n, n))
    columns = np.arange(n)
    for i in range(n):
        order = np.lexsort((columns, distances[i]))
        neighbours = [j for j in order if j != i][:n_neighbors]
        affinity[i, neighbours] = 1.0
    return np.maximum(affinity, affinity.T)
