"""Shared utilities: validation, containers, windowing, normalisation, RNG.

These helpers are the lowest layer of the library; every other subpackage
builds on them.  They deliberately contain no domain logic beyond generic
time series handling so they stay easy to test in isolation.
"""

from repro.utils.validation import (
    check_array,
    check_labels,
    check_positive_int,
    check_probability,
    check_random_state,
    check_time_series_dataset,
)
from repro.utils.containers import TimeSeriesDataset
from repro.utils.normalization import znormalize, znormalize_dataset
from repro.utils.windows import (
    sliding_window_matrix,
    subsequence_count,
    subsequences_of_dataset,
)
from repro.utils.rng import SeedSequencePool, spawn_rng
from repro.utils.timing import Stopwatch, format_duration

__all__ = [
    "TimeSeriesDataset",
    "SeedSequencePool",
    "Stopwatch",
    "check_array",
    "check_labels",
    "check_positive_int",
    "check_probability",
    "check_random_state",
    "check_time_series_dataset",
    "format_duration",
    "sliding_window_matrix",
    "spawn_rng",
    "subsequence_count",
    "subsequences_of_dataset",
    "znormalize",
    "znormalize_dataset",
]
