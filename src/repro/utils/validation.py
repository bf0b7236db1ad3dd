"""Input validation helpers shared by every estimator in the library.

The goal is to fail early with a :class:`repro.exceptions.ValidationError`
carrying a readable message, instead of letting NumPy broadcast errors
surface deep inside an algorithm.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.exceptions import ValidationError

ArrayLike = Union[np.ndarray, Sequence[float], Sequence[Sequence[float]]]


def check_random_state(seed: Union[None, int, np.random.Generator]) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh entropy), an integer seed, or an existing generator
        (returned unchanged).
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValidationError(f"random seed must be non-negative, got {seed}")
        return np.random.default_rng(int(seed))
    raise ValidationError(
        f"random_state must be None, an int, or a numpy Generator, got {type(seed).__name__}"
    )


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an integer >= ``minimum`` and return it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_probability(value: float, name: str, *, inclusive: bool = True) -> float:
    """Validate that ``value`` lies in [0, 1] (or (0, 1) when not inclusive)."""
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        # An integer past float range is named by its size: its repr can be
        # past the interpreter's digit limit, and then raises itself.
        shown = f"an integer of {value.bit_length()} bits" if isinstance(value, int) else repr(value)
        raise ValidationError(f"{name} must be a float in [0, 1], got {shown}") from exc
    if np.isnan(value):
        raise ValidationError(f"{name} must not be NaN")
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValidationError(f"{name} must be in [0, 1], got {value}")
    else:
        if not 0.0 < value < 1.0:
            raise ValidationError(f"{name} must be in (0, 1), got {value}")
    return value


def _ragged_row_lengths(data) -> Optional[list]:
    """Distinct row lengths of a sequence-of-sequences, or ``None``.

    Used to turn the opaque "could not broadcast" conversion failure of a
    ragged dataset into an actionable message naming the offending lengths.
    """
    if isinstance(data, np.ndarray) or isinstance(data, (str, bytes)):
        return None
    try:
        rows = list(data)
    except TypeError:
        return None
    lengths = set()
    for row in rows:
        if isinstance(row, (str, bytes)):
            return None
        try:
            lengths.add(len(row))
        except TypeError:
            return None
    distinct = sorted(lengths)
    return distinct if len(distinct) > 1 else None


def check_array(
    data: ArrayLike,
    *,
    name: str = "X",
    ndim: Optional[int] = None,
    min_rows: int = 1,
    min_cols: int = 1,
    allow_nan: bool = False,
    dtype: type = float,
) -> np.ndarray:
    """Convert ``data`` to a contiguous ndarray and validate its shape.

    Parameters
    ----------
    data:
        Anything convertible to a numeric ndarray.
    ndim:
        Required number of dimensions (1 or 2).  ``None`` accepts both.
    min_rows, min_cols:
        Minimum size along the first / second axis (second only if 2-D).
    allow_nan:
        When ``False`` (default) any NaN or infinite value is rejected
        with a message locating the first offending value.
    """
    try:
        array = np.asarray(data, dtype=dtype)
    except (TypeError, ValueError) as exc:
        ragged = _ragged_row_lengths(data)
        if ragged is not None:
            raise ValidationError(
                f"{name} is ragged: series have differing lengths "
                f"{ragged[:8]}; every series must share one length "
                "(truncate or pad the data before fitting)"
            ) from exc
        raise ValidationError(f"{name} could not be converted to a numeric array: {exc}") from exc
    if array.dtype == object:
        # Older NumPy built an object array from ragged input instead of
        # raising; normalise both eras to the same actionable error.
        ragged = _ragged_row_lengths(data)
        if ragged is not None:
            raise ValidationError(
                f"{name} is ragged: series have differing lengths "
                f"{ragged[:8]}; every series must share one length "
                "(truncate or pad the data before fitting)"
            )
        raise ValidationError(f"{name} could not be converted to a numeric array")

    if array.ndim == 0:
        raise ValidationError(f"{name} must be at least 1-dimensional, got a scalar")
    if ndim is not None and array.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got ndim={array.ndim}")
    if array.ndim > 2:
        raise ValidationError(f"{name} must be 1- or 2-dimensional, got ndim={array.ndim}")

    if array.shape[0] < min_rows:
        raise ValidationError(
            f"{name} must have at least {min_rows} rows, got {array.shape[0]}"
        )
    if array.ndim == 2 and array.shape[1] < min_cols:
        raise ValidationError(
            f"{name} must have at least {min_cols} columns, got {array.shape[1]}"
        )

    if not allow_nan:
        finite = np.isfinite(array)
        if not finite.all():
            bad = np.argwhere(~finite)
            first = bad[0]
            where = (
                f"series {int(first[0])}, position {int(first[1])}"
                if array.ndim == 2
                else f"position {int(first[0])}"
            )
            raise ValidationError(
                f"{name} contains {int(bad.shape[0])} NaN or infinite "
                f"value(s) (first at {where}); clean or impute the data first"
            )
    return np.ascontiguousarray(array)


def check_labels(labels: Iterable, *, name: str = "labels", n_samples: Optional[int] = None) -> np.ndarray:
    """Validate a 1-D integer label vector and return it as an int ndarray."""
    array = np.asarray(list(labels) if not isinstance(labels, np.ndarray) else labels)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be 1-dimensional, got ndim={array.ndim}")
    if array.shape[0] == 0:
        raise ValidationError(f"{name} must not be empty")
    if n_samples is not None and array.shape[0] != n_samples:
        raise ValidationError(
            f"{name} has {array.shape[0]} entries but {n_samples} samples were expected"
        )
    if array.dtype.kind == "f":
        if not np.all(np.isfinite(array)):
            raise ValidationError(f"{name} contains NaN or infinite values")
        if not np.all(array == np.round(array)):
            raise ValidationError(f"{name} must contain integer-valued labels")
        array = array.astype(int)
    elif array.dtype.kind in "iu":
        array = array.astype(int)
    else:
        # Map arbitrary hashable labels (strings etc.) to dense integer codes.
        _, array = np.unique(array, return_inverse=True)
    return array


def check_time_series_dataset(
    data: ArrayLike,
    *,
    name: str = "X",
    min_series: int = 2,
    min_length: int = 3,
) -> np.ndarray:
    """Validate an equal-length time series dataset of shape (n_series, length)."""
    array = check_array(data, name=name, min_rows=min_series)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.shape[0] < min_series:
        raise ValidationError(
            f"{name} must contain at least {min_series} time series, got {array.shape[0]}"
        )
    if array.shape[1] < min_length:
        raise ValidationError(
            f"time series in {name} must have length >= {min_length}, got {array.shape[1]}"
        )
    return array


def check_consistent_length(*arrays: np.ndarray) -> None:
    """Raise if the given arrays do not share the same first-axis length."""
    lengths = {np.asarray(a).shape[0] for a in arrays if a is not None}
    if len(lengths) > 1:
        raise ValidationError(f"inconsistent first-axis lengths: {sorted(lengths)}")
