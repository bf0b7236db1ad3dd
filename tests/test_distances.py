"""Unit tests for time series distance measures."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.metrics.distances import (
    align_by_sbd,
    cross_correlation,
    dtw_distance,
    euclidean_distance,
    get_metric,
    pairwise_distances,
    pairwise_distances_reference,
    sbd_distance,
    znormalized_euclidean_distance,
)


class TestEuclidean:
    def test_known_value(self):
        assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_identity(self, rng):
        series = rng.normal(size=20)
        assert euclidean_distance(series, series) == pytest.approx(0.0)

    def test_symmetry(self, rng):
        a, b = rng.normal(size=20), rng.normal(size=20)
        assert euclidean_distance(a, b) == pytest.approx(euclidean_distance(b, a))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            euclidean_distance([1, 2], [1, 2, 3])

    def test_znormalized_ignores_scale_and_offset(self, rng):
        a = rng.normal(size=50)
        b = 3.0 * a + 10.0
        assert znormalized_euclidean_distance(a, b) == pytest.approx(0.0, abs=1e-8)


class TestCrossCorrelationAndSBD:
    def test_ncc_length(self, rng):
        a, b = rng.normal(size=32), rng.normal(size=32)
        assert cross_correlation(a, b).shape == (63,)

    def test_ncc_self_peak_is_one_at_zero_shift(self, rng):
        a = rng.normal(size=64)
        ncc = cross_correlation(a, a)
        assert ncc[63] == pytest.approx(1.0, abs=1e-8)
        assert np.argmax(ncc) == 63

    def test_sbd_identity_and_bounds(self, rng):
        a = rng.normal(size=40)
        assert sbd_distance(a, a) == pytest.approx(0.0, abs=1e-8)
        b = rng.normal(size=40)
        assert 0.0 <= sbd_distance(a, b) <= 2.0

    def test_sbd_tolerates_small_shifts(self):
        # SBD normalises by the full-length norms, so a shift of s out of n
        # points costs at most about s/n; it must stay far below the distance
        # to an uncorrelated series.
        t = np.linspace(0, 4 * np.pi, 100)
        a = np.sin(t)
        shifted = np.roll(a, 5)
        unrelated = np.cos(7.3 * t + 1.0)
        assert sbd_distance(a, shifted) < 0.12
        assert sbd_distance(a, shifted) < sbd_distance(a, unrelated)

    def test_sbd_returns_shift(self):
        a = np.zeros(50)
        a[10:20] = 1.0
        b = np.roll(a, 7)
        _, shift = sbd_distance(a, b, return_shift=True)
        assert abs(shift) == 7

    def test_sbd_zero_series(self):
        assert sbd_distance(np.zeros(10), np.zeros(10)) == pytest.approx(1.0)

    def test_align_by_sbd_reduces_distance(self):
        a = np.zeros(60)
        a[10:25] = 1.0
        b = np.roll(a, 9)
        aligned = align_by_sbd(a, b)
        assert euclidean_distance(a, aligned) < euclidean_distance(a, b)


class TestDTW:
    def test_identity(self, rng):
        series = rng.normal(size=30)
        assert dtw_distance(series, series) == pytest.approx(0.0)

    def test_upper_bounded_by_euclidean(self, rng):
        a, b = rng.normal(size=30), rng.normal(size=30)
        assert dtw_distance(a, b) <= euclidean_distance(a, b) + 1e-9

    def test_handles_warping(self):
        a = np.sin(np.linspace(0, 2 * np.pi, 50))
        b = np.sin(np.linspace(0, 2 * np.pi, 70))
        assert dtw_distance(a, b) < 1.0

    def test_window_constraint_increases_distance(self):
        a = np.sin(np.linspace(0, 2 * np.pi, 50))
        b = np.roll(a, 10)
        unconstrained = dtw_distance(a, b)
        constrained = dtw_distance(a, b, window=1)
        assert constrained >= unconstrained

    def test_negative_window_rejected(self):
        with pytest.raises(ValidationError):
            dtw_distance([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], window=-1)


class TestPairwise:
    def test_euclidean_fast_path_matches_loop(self, rng):
        data = rng.normal(size=(8, 12))
        fast = pairwise_distances(data, metric="euclidean")
        slow = np.array(
            [[euclidean_distance(a, b) for b in data] for a in data]
        )
        assert np.allclose(fast, slow, atol=1e-6)

    def test_symmetric_zero_diagonal(self, rng):
        data = rng.normal(size=(6, 20))
        for metric in ("euclidean", "sbd", "dtw"):
            matrix = pairwise_distances(data, metric=metric)
            assert np.allclose(matrix, matrix.T, atol=1e-10)
            assert np.allclose(np.diag(matrix), 0.0, atol=1e-6)

    def test_unknown_metric(self):
        with pytest.raises(ValidationError):
            get_metric("manhattan-ish")

    def test_unhandled_metric_kwargs_fall_back_to_reference(self, rng):
        # No fast path takes return_shift, so the call runs the reference
        # per-pair loop instead of failing.
        data = rng.normal(size=(4, 8))
        result = pairwise_distances(data, metric="sbd", return_shift=False)
        expected = pairwise_distances_reference(data, metric="sbd", return_shift=False)
        assert np.array_equal(result, expected)
