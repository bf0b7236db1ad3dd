"""Sliding-window (subsequence) extraction utilities.

The k-Graph embedding operates on *all* overlapping subsequences of every
series for several subsequence lengths.  Stacked, those windows are ℓ times
the dataset, so the embedding and the batched predict path walk them in
blocks of whole series (:func:`window_blocks`): each block is a fresh copy
of at most :data:`WINDOW_BLOCK_VALUES` values of a stride-tricked view, and
the full windows matrix is never built.  :func:`sliding_window_matrix` and
:func:`subsequences_of_dataset` still materialise every window, for callers
that want them all at once.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_array, check_positive_int

#: float64 values in one block of stacked windows (2**19 values, 4 MiB).  A
#: block this size stays in the CPU caches while it is normalised and
#: reduced, and bounds the transient memory of a pass over the windows.  It
#: is a constant, never derived from the worker count or free memory, so
#: every process cuts a dataset into the same blocks.
WINDOW_BLOCK_VALUES = 1 << 19


def subsequence_count(series_length: int, window: int, stride: int = 1) -> int:
    """Number of windows of size ``window`` with ``stride`` in a series of given length."""
    series_length = check_positive_int(series_length, "series_length")
    window = check_positive_int(window, "window")
    stride = check_positive_int(stride, "stride")
    if window > series_length:
        return 0
    return (series_length - window) // stride + 1


def sliding_window_matrix(series, window: int, stride: int = 1) -> np.ndarray:
    """Return all subsequences of ``series`` as a (n_windows, window) matrix.

    The result is a copy (C-contiguous) so callers may normalise it in place.
    """
    array = check_array(series, name="series", ndim=1, min_rows=1)
    window = check_positive_int(window, "window")
    stride = check_positive_int(stride, "stride")
    if window > array.shape[0]:
        raise ValidationError(
            f"window ({window}) is larger than the series length ({array.shape[0]})"
        )
    view = np.lib.stride_tricks.sliding_window_view(array, window)[::stride]
    # A real copy: a single-window view counts as contiguous, so
    # np.ascontiguousarray would hand back the read-only view itself.
    return view.copy()


def subsequences_of_dataset(
    data, window: int, stride: int = 1
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract subsequences from every series of a dataset.

    Returns
    -------
    subsequences:
        Array of shape ``(total_windows, window)``.
    series_index:
        For each subsequence, the index of the series it came from.
    position_index:
        For each subsequence, its starting offset within its series.
    """
    array = check_array(data, name="data", ndim=2, min_rows=1)
    window = check_positive_int(window, "window")
    if window > array.shape[1]:
        raise ValidationError(
            f"window ({window}) is larger than the series length ({array.shape[1]})"
        )
    stride = check_positive_int(stride, "stride")
    view = np.lib.stride_tricks.sliding_window_view(array, window, axis=1)[:, ::stride]
    n_series, n_windows = view.shape[:2]
    # One copy of the strided (series, window, offset) view, C order, so
    # rows come out series by series in window order.
    return (
        view.copy().reshape(n_series * n_windows, window),
        np.repeat(np.arange(n_series, dtype=int), n_windows),
        np.tile(np.arange(0, n_windows * stride, stride, dtype=int), n_series),
    )


def window_blocks(
    array: np.ndarray, window: int, stride: int = 1
) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Yield the windows of a dataset in consecutive blocks of whole series.

    ``array`` is an already validated (n_series, length) float array with
    ``window <= length``.  Each item is ``(start, stop, windows)``: series
    ``start:stop`` and their windows as a fresh, writeable
    ``((stop - start) * n_windows, window)`` matrix in the row order of
    :func:`subsequences_of_dataset`.  A block holds as many series as fit in
    :data:`WINDOW_BLOCK_VALUES` values, and at least one.
    """
    view = np.lib.stride_tricks.sliding_window_view(array, window, axis=1)[:, ::stride]
    n_series, n_windows = view.shape[:2]
    per_block = max(1, WINDOW_BLOCK_VALUES // (n_windows * window))
    for start in range(0, n_series, per_block):
        stop = min(n_series, start + per_block)
        yield start, stop, view[start:stop].copy().reshape(-1, window)


def length_grid(series_length: int, n_lengths: int, minimum: int = 8, maximum_fraction: float = 0.4) -> List[int]:
    """Build the grid of subsequence lengths used by the k-Graph embedding.

    Lengths are spread geometrically between ``minimum`` and
    ``maximum_fraction * series_length`` and deduplicated, mirroring the
    multi-length design of the paper (M graphs for M lengths).
    """
    series_length = check_positive_int(series_length, "series_length", minimum=4)
    n_lengths = check_positive_int(n_lengths, "n_lengths")
    minimum = check_positive_int(minimum, "minimum", minimum=2)
    upper = max(minimum + 1, int(series_length * maximum_fraction))
    upper = min(upper, series_length - 1)
    if upper <= minimum:
        return [min(minimum, series_length - 1)]
    values = np.unique(
        np.round(np.geomspace(minimum, upper, n_lengths)).astype(int)
    )
    return [int(v) for v in values if v >= 2]
