"""Normalisation and re-sampling helpers for time series."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_array, check_positive_int


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


def minmax_scale(series, feature_range=(0.0, 1.0)) -> np.ndarray:
    """Scale ``series`` linearly into ``feature_range``."""
    array = check_array(series, name="series", ndim=1, min_rows=1)
    low, high = float(feature_range[0]), float(feature_range[1])
    if high <= low:
        raise ValidationError(f"feature_range must be increasing, got {feature_range}")
    minimum, maximum = float(array.min()), float(array.max())
    if np.isclose(maximum, minimum):
        return np.full_like(array, (low + high) / 2.0)
    scaled = (array - minimum) / (maximum - minimum)
    return scaled * (high - low) + low


def paa(series, n_segments: int) -> np.ndarray:
    """Piecewise Aggregate Approximation of ``series`` into ``n_segments`` means.

    Used to build coarse representations of node patterns in the Graph frame
    and to speed up feature extraction on long series.
    """
    array = check_array(series, name="series", ndim=1, min_rows=1)
    n_segments = check_positive_int(n_segments, "n_segments")
    n = array.shape[0]
    if n_segments >= n:
        return array.copy()
    # Distribute points as evenly as possible across segments.
    edges = np.linspace(0, n, n_segments + 1).astype(int)
    return np.array([array[edges[i]: edges[i + 1]].mean() for i in range(n_segments)])


def resample_length(series, target_length: int) -> np.ndarray:
    """Resample ``series`` to ``target_length`` points by linear interpolation."""
    array = check_array(series, name="series", ndim=1, min_rows=2)
    target_length = check_positive_int(target_length, "target_length", minimum=2)
    if array.shape[0] == target_length:
        return array.copy()
    source = np.linspace(0.0, 1.0, array.shape[0])
    target = np.linspace(0.0, 1.0, target_length)
    return np.interp(target, source, array)


def resample_dataset(data, target_length: int) -> np.ndarray:
    """Resample every row of a dataset to ``target_length`` points."""
    array = check_array(data, name="data", ndim=2, min_rows=1)
    return np.vstack([resample_length(row, target_length) for row in array])
