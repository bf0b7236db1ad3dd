"""Time series distance measures.

Implements the distances used across the paper's method population:

* plain and z-normalised Euclidean distance (k-Means, feature spaces),
* shape-based distance (SBD) built on the normalised cross-correlation,
  which is the core of k-Shape,
* dynamic time warping with an optional Sakoe-Chiba band, reachable
  through the ``metric=`` of the distance-matrix clusterers (k-Medoids,
  DBSCAN, OPTICS, agglomerative).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_array
from repro.utils.normalization import znormalize


def euclidean_distance(a, b) -> float:
    """Euclidean distance between two equal-length vectors."""
    x = check_array(a, name="a", ndim=1)
    y = check_array(b, name="b", ndim=1)
    if x.shape[0] != y.shape[0]:
        raise ValidationError(
            f"series must have equal length, got {x.shape[0]} and {y.shape[0]}"
        )
    return float(np.sqrt(np.sum((x - y) ** 2)))


def znormalized_euclidean_distance(a, b) -> float:
    """Euclidean distance between the z-normalised versions of two series."""
    return euclidean_distance(znormalize(a), znormalize(b))


def cross_correlation(a, b) -> np.ndarray:
    """Full normalised cross-correlation sequence (NCCc) between two series.

    Returns an array of length ``2 * n - 1`` whose maximum is reached at the
    shift best aligning ``b`` to ``a``.  Values are normalised by the product
    of the L2 norms so they lie in [-1, 1].
    """
    x = check_array(a, name="a", ndim=1)
    y = check_array(b, name="b", ndim=1)
    if x.shape[0] != y.shape[0]:
        raise ValidationError(
            f"series must have equal length, got {x.shape[0]} and {y.shape[0]}"
        )
    n = x.shape[0]
    # FFT-based correlation: pad to the next power of two >= 2n-1 for speed.
    size = 1 << int(np.ceil(np.log2(2 * n - 1)))
    fx = np.fft.rfft(x, size)
    fy = np.fft.rfft(y, size)
    cc = np.fft.irfft(fx * np.conj(fy), size)
    # Rearrange so index 0 corresponds to shift -(n-1) and 2n-2 to +(n-1).
    cc = np.concatenate([cc[-(n - 1):], cc[:n]]) if n > 1 else cc[:1]
    denom = float(np.linalg.norm(x) * np.linalg.norm(y))
    if denom < 1e-12:
        return np.zeros(2 * n - 1)
    return cc / denom


def sbd_distance(a, b, return_shift: bool = False):
    """Shape-based distance: ``1 - max(NCCc(a, b))``.

    This is the distance at the heart of k-Shape; it is shift-invariant and
    lies in [0, 2].  When ``return_shift`` is true, also return the shift (in
    samples) that maximises the cross-correlation, which k-Shape uses to align
    members before extracting a new centroid.
    """
    ncc = cross_correlation(a, b)
    best = int(np.argmax(ncc))
    distance = float(1.0 - ncc[best])
    if not return_shift:
        return distance
    n = (ncc.shape[0] + 1) // 2
    shift = best - (n - 1)
    return distance, int(shift)


def align_by_sbd(reference, series) -> np.ndarray:
    """Shift ``series`` so it best aligns with ``reference`` (zero-padded)."""
    ref = check_array(reference, name="reference", ndim=1)
    ser = check_array(series, name="series", ndim=1)
    _, shift = sbd_distance(ref, ser, return_shift=True)
    n = ser.shape[0]
    aligned = np.zeros(n)
    if shift >= 0:
        aligned[shift:] = ser[: n - shift]
    else:
        aligned[: n + shift] = ser[-shift:]
    return aligned


def _dtw_band(n: int, m: int, window: Optional[int]) -> int:
    """Resolve the Sakoe-Chiba band width for series of lengths n, m."""
    if window is None:
        return max(n, m)
    if window < 0:
        raise ValidationError(f"window must be non-negative, got {window}")
    return max(int(window), abs(n - m))


def _dtw_batch(x: np.ndarray, y: np.ndarray, band: int) -> np.ndarray:
    """Banded DTW accumulated costs for a batch of pairs, vectorised.

    ``x`` has shape (P, n) and ``y`` shape (P, m); pair ``p`` is
    ``(x[p], y[p])``.  The dynamic program sweeps the n x m cost matrix by
    anti-diagonals: every cell on diagonal ``d`` (i + j == d) depends only on
    diagonals ``d - 1`` and ``d - 2``, so one NumPy slice updates a whole
    diagonal across all P pairs at once — the only Python-level loop is the
    O(n + m) sweep over diagonals.  Each cell computes exactly
    ``(x[i-1] - y[j-1])**2 + min(up, left, diag)``, the same scalar operations
    as the reference row-scan, so results are bit-identical to
    :func:`dtw_distance_reference`.

    Returns the (P,) accumulated squared costs D[n, m] (callers apply the
    final square root).
    """
    pairs, n = x.shape
    m = y.shape[1]
    # y addressed by diagonal index becomes a contiguous ascending slice of
    # the reversed series: y[j - 1] == y_reversed[m - d + i] for j = d - i.
    y_reversed = np.ascontiguousarray(y[:, ::-1])
    # Diagonal d is stored indexed by i: diag[p, i] == D[i, d - i].
    prev2 = np.full((pairs, n + 1), np.inf)  # diagonal d - 2
    prev1 = np.full((pairs, n + 1), np.inf)  # diagonal d - 1
    current = np.full((pairs, n + 1), np.inf)
    prev1[:, 0] = 0.0  # diagonal 0 holds only D[0, 0] = 0
    for d in range(1, n + m + 1):
        # Cells on this diagonal: 1 <= i <= n, 1 <= j = d - i <= m and
        # |i - j| = |2i - d| <= band.
        lo = max(1, d - m, (d - band + 1) // 2)
        hi = min(n, d - 1, (d + band) // 2)
        current.fill(np.inf)
        if lo <= hi:
            cost = (x[:, lo - 1 : hi] - y_reversed[:, m - d + lo : m - d + hi + 1]) ** 2
            best = np.minimum(prev1[:, lo - 1 : hi], prev1[:, lo : hi + 1])
            np.minimum(best, prev2[:, lo - 1 : hi], out=best)
            current[:, lo : hi + 1] = cost + best
        prev2, prev1, current = prev1, current, prev2
    return prev1[:, n].copy()


def dtw_distance(a, b, window: Optional[int] = None) -> float:
    """Dynamic time warping distance with an optional Sakoe-Chiba band.

    Vectorised anti-diagonal sweep (see :func:`_dtw_batch`); bit-identical
    to the retained :func:`dtw_distance_reference` row-scan.

    Parameters
    ----------
    window:
        Maximum allowed |i - j| misalignment.  ``None`` means unconstrained.
    """
    x = check_array(a, name="a", ndim=1)
    y = check_array(b, name="b", ndim=1)
    band = _dtw_band(x.shape[0], y.shape[0], window)
    return float(np.sqrt(_dtw_batch(x[None, :], y[None, :], band)[0]))


def dtw_distance_reference(a, b, window: Optional[int] = None) -> float:
    """Reference O(n·m) Python row-scan DTW.

    Retained as the implementation :func:`dtw_distance` is benchmarked and
    equivalence-tested against (E13); not used on any hot path.
    """
    x = check_array(a, name="a", ndim=1)
    y = check_array(b, name="b", ndim=1)
    n, m = x.shape[0], y.shape[0]
    band = _dtw_band(n, m, window)

    previous = np.full(m + 1, np.inf)
    current = np.full(m + 1, np.inf)
    previous[0] = 0.0
    for i in range(1, n + 1):
        current.fill(np.inf)
        j_start = max(1, i - band)
        j_end = min(m, i + band)
        for j in range(j_start, j_end + 1):
            cost = (x[i - 1] - y[j - 1]) ** 2
            current[j] = cost + min(previous[j], current[j - 1], previous[j - 1])
        previous, current = current, previous
    return float(np.sqrt(previous[m]))


_METRIC_FUNCTIONS: dict = {
    "euclidean": euclidean_distance,
    "zeuclidean": znormalized_euclidean_distance,
    "sbd": sbd_distance,
    "dtw": dtw_distance,
}


def get_metric(name: str) -> Callable[[np.ndarray, np.ndarray], float]:
    """Look up a distance function by name."""
    key = name.strip().lower()
    if key not in _METRIC_FUNCTIONS:
        raise ValidationError(
            f"unknown metric {name!r}; expected one of {sorted(_METRIC_FUNCTIONS)}"
        )
    return _METRIC_FUNCTIONS[key]


def _euclidean_block_rows(total_rows: int, length: int) -> int:
    """Row-block size keeping the (rows, n, length) difference tensor ~32 MB."""
    per_row = max(1, total_rows * max(1, length) * 8)
    return max(1, (32 * 1024 * 1024) // per_row)


def _pairwise_euclidean_blocked(array: np.ndarray, block_size: Optional[int]) -> np.ndarray:
    """Blockwise direct-difference Euclidean distance matrix.

    Computes ``sqrt(sum((x - y)**2))`` with the exact per-element operations
    of :func:`euclidean_distance`, broadcast over row blocks so the temporary
    difference tensor stays bounded — bit-identical to the per-pair loop.
    """
    n, length = array.shape
    if block_size is None:
        block_size = _euclidean_block_rows(n, length)
    block_size = min(block_size, n)
    out = np.empty((n, n))
    # One reusable difference buffer: allocation churn, not arithmetic,
    # dominates this kernel, and out=-style updates keep the exact same
    # per-element operations (and therefore bit-identical results).
    diff = np.empty((block_size, n, length))
    for start in range(0, n, block_size):
        stop = min(n, start + block_size)
        window = diff[: stop - start]
        np.subtract(array[start:stop, None, :], array[None, :, :], out=window)
        np.multiply(window, window, out=window)
        np.sum(window, axis=-1, out=out[start:stop])
    np.sqrt(out, out=out)
    return out


def _pairwise_sbd(array: np.ndarray) -> np.ndarray:
    """FFT-batched shape-based distance matrix.

    The per-row FFTs are computed once; each row ``i`` then correlates
    against all rows ``j > i`` in one batched inverse transform, exactly
    reproducing :func:`sbd_distance` pair by pair (the 1-D FFT is applied
    per row, and ``max(cc) / denom`` equals ``max(cc / denom)`` because
    division by a positive scalar is monotone).
    """
    n, m = array.shape
    matrix = np.zeros((n, n))
    if n < 2:
        return matrix
    size = 1 << int(np.ceil(np.log2(2 * m - 1))) if m > 1 else 1
    transforms = np.fft.rfft(array, size, axis=1)
    conjugates = np.conj(transforms)
    # 1-D np.linalg.norm (BLAS dot) per row: the axis= form sums in a
    # different order and is not bit-identical to the scalar reference.
    norms = np.array([float(np.linalg.norm(row)) for row in array])
    for i in range(n - 1):
        cc = np.fft.irfft(transforms[i][None, :] * conjugates[i + 1 :], size, axis=1)
        if m > 1:
            cc = np.concatenate([cc[:, -(m - 1) :], cc[:, :m]], axis=1)
        else:
            cc = cc[:, :1]
        best = cc.max(axis=1)
        denom = norms[i] * norms[i + 1 :]
        degenerate = denom < 1e-12
        safe = np.where(degenerate, 1.0, denom)
        values = np.where(degenerate, 1.0, 1.0 - best / safe)
        matrix[i, i + 1 :] = values
        matrix[i + 1 :, i] = values
    return matrix


def _pairwise_dtw(
    array: np.ndarray, window: Optional[int], block_size: Optional[int]
) -> np.ndarray:
    """Pair-batched banded DTW distance matrix.

    All upper-triangle pairs run through the anti-diagonal sweep of
    :func:`_dtw_batch` together (in bounded blocks), so the whole matrix
    costs O(n + m) sequential NumPy steps per block instead of one Python
    DP per pair.
    """
    n, m = array.shape
    band = _dtw_band(m, m, window)
    matrix = np.zeros((n, n))
    rows, cols = np.triu_indices(n, k=1)
    if rows.size == 0:
        return matrix
    if block_size is None:
        # Three (pairs, m + 1) float64 diagonals per sweep: keep them ~48 MB.
        block_size = max(1, (2 * 1024 * 1024) // max(1, m + 1))
    for start in range(0, rows.size, block_size):
        ii = rows[start : start + block_size]
        jj = cols[start : start + block_size]
        values = np.sqrt(_dtw_batch(array[ii], array[jj], band))
        matrix[ii, jj] = values
        matrix[jj, ii] = values
    return matrix


def _pairwise_euclidean_gram(array: np.ndarray) -> np.ndarray:
    """Gram-matrix (GEMM) Euclidean distance matrix.

    ``sqrt(|x|^2 + |y|^2 - 2 x.y)`` computed with one BLAS GEMM — the
    fastest formulation and the library's long-standing default for the
    euclidean metric.  Accurate to normal floating-point rounding but *not*
    bit-identical to the direct-difference form; pass ``exact=True`` to
    :func:`pairwise_distances` when exactness matters more than speed.
    """
    squared = np.sum(array**2, axis=1)
    gram = array @ array.T
    dist2 = np.maximum(squared[:, None] + squared[None, :] - 2.0 * gram, 0.0)
    return np.sqrt(dist2)


def pairwise_distances(
    data,
    metric: str = "euclidean",
    *,
    block_size: Optional[int] = None,
    exact: bool = False,
    **metric_kwargs,
) -> np.ndarray:
    """Symmetric pairwise distance matrix for the rows of ``data``.

    ``metric`` may be ``"euclidean"``, ``"zeuclidean"``, ``"sbd"`` or
    ``"dtw"``.  All four run vectorised: the euclidean metric uses one BLAS
    GEMM (its long-standing fast path; pass ``exact=True`` for the
    blockwise direct-difference kernel that is bit-identical to
    :func:`pairwise_distances_reference` at some speed cost), while
    zeuclidean (direct-difference on z-normalised rows), SBD (batched FFT
    correlation) and DTW (pair-batched anti-diagonal sweep) are
    bit-identical to the reference loop by construction.  ``block_size``
    bounds the temporary memory per block (rows for difference-based
    metrics, pairs for DTW) and is chosen automatically when ``None``.
    Unknown metric keyword arguments fall back to the reference per-pair
    loop.
    """
    array = check_array(data, name="data", ndim=2, min_rows=1)
    key = metric.strip().lower() if isinstance(metric, str) else metric
    if key == "euclidean" and not metric_kwargs:
        if exact:
            return _pairwise_euclidean_blocked(array, block_size)
        return _pairwise_euclidean_gram(array)
    if key == "zeuclidean" and not metric_kwargs:
        normalized = np.vstack([znormalize(row) for row in array])
        return _pairwise_euclidean_blocked(normalized, block_size)
    if key == "sbd" and not metric_kwargs:
        return _pairwise_sbd(array)
    if key == "dtw" and set(metric_kwargs) <= {"window"}:
        return _pairwise_dtw(array, metric_kwargs.get("window"), block_size)
    return pairwise_distances_reference(array, metric, **metric_kwargs)


def pairwise_distances_reference(
    data, metric: str = "euclidean", **metric_kwargs
) -> np.ndarray:
    """Reference per-pair O(n²) loop over the scalar metric functions.

    Retained as the implementation :func:`pairwise_distances` is benchmarked
    and equivalence-tested against (E13); DTW pairs run through
    :func:`dtw_distance_reference` so the loop exercises the original
    Python dynamic program end to end.
    """
    array = check_array(data, name="data", ndim=2, min_rows=1)
    n = array.shape[0]
    func = get_metric(metric)
    if func is dtw_distance:
        func = dtw_distance_reference
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            value = func(array[i], array[j], **metric_kwargs)
            if isinstance(value, tuple):
                value = value[0]
            matrix[i, j] = matrix[j, i] = value
    return matrix
