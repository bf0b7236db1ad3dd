"""Unit tests for normalisation helpers and sliding-window extraction."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.normalization import (
    apply_znormalization,
    znormalization_stats,
    znormalize,
    znormalize_dataset,
)
from repro.utils.windows import (
    length_grid,
    sliding_window_matrix,
    subsequence_count,
    subsequences_of_dataset,
)


class TestZNormalize:
    def test_zero_mean_unit_std(self, rng):
        series = rng.normal(5.0, 3.0, 100)
        normalized = znormalize(series)
        assert abs(normalized.mean()) < 1e-10
        assert abs(normalized.std() - 1.0) < 1e-10

    def test_constant_series_maps_to_zeros(self):
        assert np.all(znormalize(np.full(10, 7.0)) == 0.0)

    def test_dataset_rowwise(self, rng):
        data = rng.normal(0.0, 2.0, (5, 50)) + np.arange(5)[:, None]
        normalized = znormalize_dataset(data)
        assert np.allclose(normalized.mean(axis=1), 0.0, atol=1e-10)
        assert np.allclose(normalized.std(axis=1), 1.0, atol=1e-10)

    def test_dataset_constant_row(self):
        data = np.vstack([np.full(10, 3.0), np.arange(10, dtype=float)])
        normalized = znormalize_dataset(data)
        assert np.all(normalized[0] == 0.0)
        assert normalized[1].std() > 0

    def test_dataset_leaves_its_input_alone(self, rng):
        data = rng.normal(size=(4, 9))
        before = data.copy()
        znormalize_dataset(data)
        assert np.array_equal(data, before)

    def test_kept_statistics_rebuild_identical_rows(self, rng):
        # Statistics taken once and applied to a fresh copy of any subset
        # of rows give the rows znormalize_dataset gives, bit for bit.
        data = rng.normal(3.0, 2.0, (12, 30))
        data[4] = -1.25
        means, scales = znormalization_stats(data)
        assert scales[4] == 0.0
        rows = slice(3, 8)
        rebuilt = apply_znormalization(data[rows].copy(), means[rows], scales[rows])
        assert np.array_equal(rebuilt, znormalize_dataset(data)[rows])
        assert np.array_equal(rebuilt, znormalize_dataset(data[rows]))


class TestSlidingWindows:
    def test_count_formula(self):
        assert subsequence_count(10, 3) == 8
        assert subsequence_count(10, 3, stride=2) == 4
        assert subsequence_count(3, 10) == 0

    def test_matrix_contents(self):
        series = np.arange(6, dtype=float)
        windows = sliding_window_matrix(series, 3)
        assert windows.shape == (4, 3)
        assert np.array_equal(windows[0], [0, 1, 2])
        assert np.array_equal(windows[-1], [3, 4, 5])

    def test_matrix_stride(self):
        windows = sliding_window_matrix(np.arange(10, dtype=float), 4, stride=3)
        assert windows.shape == (3, 4)
        assert np.array_equal(windows[1], [3, 4, 5, 6])

    def test_window_too_large(self):
        with pytest.raises(ValidationError):
            sliding_window_matrix(np.arange(3, dtype=float), 5)

    @pytest.mark.parametrize(("window", "stride"), [(8, 1), (5, 4), (3, 1), (3, 2)])
    def test_matrix_is_a_fresh_writeable_copy(self, window, stride):
        # (8, 1) and (5, 4) leave a single window, which a contiguity check
        # alone would hand back as a read-only view of the series.
        series = np.arange(8, dtype=float)
        windows = sliding_window_matrix(series, window, stride)
        assert windows.flags.writeable and windows.flags.c_contiguous
        assert not np.shares_memory(windows, series)
        windows -= windows.mean(axis=1, keepdims=True)
        assert np.array_equal(series, np.arange(8, dtype=float))

    def test_dataset_extraction_indices(self):
        data = np.vstack([np.arange(8.0), np.arange(8.0) + 100])
        windows, series_idx, positions = subsequences_of_dataset(data, 4)
        assert windows.shape == (10, 4)
        assert series_idx.tolist() == [0] * 5 + [1] * 5
        assert positions.tolist() == list(range(5)) * 2

    @pytest.mark.parametrize("stride", [1, 3])
    def test_dataset_extraction_matches_per_row_stack(self, rng, stride):
        # Oracle: one sliding_window_matrix per series, stacked in order.
        data = rng.normal(size=(7, 40))
        rows = [sliding_window_matrix(row, 9, stride) for row in data]
        expected = (
            np.vstack(rows),
            np.concatenate([np.full(len(r), i, dtype=int) for i, r in enumerate(rows)]),
            np.concatenate([np.arange(0, len(r) * stride, stride, dtype=int) for r in rows]),
        )
        got = subsequences_of_dataset(data, 9, stride)
        for ours, theirs in zip(got, expected):
            assert ours.dtype == theirs.dtype
            assert np.array_equal(ours, theirs)
        # A fresh array callers may normalise in place, not a view of data.
        assert got[0].flags.c_contiguous and got[0].flags.writeable
        assert not np.shares_memory(got[0], data)

    def test_dataset_extraction_single_point_windows_copy(self):
        data = np.arange(5.0).reshape(1, 5)
        windows, _, _ = subsequences_of_dataset(data, 1)
        windows[0, 0] = -1.0
        assert data[0, 0] == 0.0

    @pytest.mark.parametrize(
        ("data", "window", "stride", "message"),
        [
            (np.zeros((2, 5)), 6, 1, r"window \(6\) is larger than the series length \(5\)"),
            (np.zeros((2, 5)), 0, 1, "window must be >= 1, got 0"),
            (np.zeros((2, 5)), 2, 0, "stride must be >= 1, got 0"),
            (np.zeros(5), 2, 1, "data must be 2-dimensional, got ndim=1"),
            (np.zeros((0, 5)), 2, 1, "data must have at least 1 rows, got 0"),
            (np.zeros((2, 5)), 2.5, 1, "window must be an integer, got float"),
        ],
    )
    def test_dataset_extraction_errors(self, data, window, stride, message):
        with pytest.raises(ValidationError, match=message):
            subsequences_of_dataset(data, window, stride)


class TestPadAndLengthGrid:
    def test_length_grid_properties(self):
        grid = length_grid(128, 4)
        assert len(grid) <= 4
        assert all(g < 128 for g in grid)
        assert grid == sorted(grid)
        assert len(set(grid)) == len(grid)

    def test_length_grid_short_series(self):
        grid = length_grid(16, 5)
        assert all(2 <= g < 16 for g in grid)
