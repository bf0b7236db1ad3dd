"""z-normalisation helpers for time series."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.validation import check_array


def znormalize(series, epsilon: float = 1e-12) -> np.ndarray:
    """Return the z-normalised version of ``series``.

    Constant (zero-variance) series are returned as all zeros rather than
    dividing by zero; this matches the convention used by k-Shape and by the
    k-Graph embedding step.
    """
    array = check_array(series, name="series", ndim=1, min_rows=1)
    std = float(array.std())
    if std < epsilon:
        return np.zeros_like(array)
    return (array - array.mean()) / std


def znormalize_dataset(data, epsilon: float = 1e-12) -> np.ndarray:
    """Row-wise z-normalisation of a (n_series, length) dataset."""
    array = check_array(data, name="data", ndim=2, min_rows=1)
    means, scales = znormalization_stats(array, epsilon)
    return apply_znormalization(array.copy(), means, scales)


def znormalization_stats(
    array: np.ndarray, epsilon: float = 1e-12
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(means, scales)`` of a validated 2-D array.

    ``scales`` holds each row's standard deviation, or 0 for a row whose
    deviation is below ``epsilon``: such constant rows normalise to zeros.
    Split from :func:`apply_znormalization` so a caller can keep the
    statistics and rebuild the same normalised rows later.
    """
    stds = array.std(axis=1)
    return array.mean(axis=1), np.where(stds < epsilon, 0.0, stds)


def apply_znormalization(
    array: np.ndarray, means: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """z-normalise the rows of ``array`` in place and return it.

    ``means`` and ``scales`` come from :func:`znormalization_stats` of the
    same rows; the result is bit-identical to :func:`znormalize_dataset`.
    """
    constant = scales == 0.0
    array -= means[:, None]
    array /= np.where(constant, 1.0, scales)[:, None]
    array[constant] = 0.0
    return array
