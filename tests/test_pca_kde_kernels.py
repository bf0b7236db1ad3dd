"""Unit tests for the numerical substrates: PCA, KDE and affinity kernels."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.linalg.kde import KernelDensityEstimator, local_maxima_1d, scott_bandwidth, silverman_bandwidth
from repro.linalg.kernels import gaussian_kernel_matrix, knn_affinity, rbf_affinity
from repro.linalg.pca import PCA


class TestPCA:
    def test_recovers_dominant_direction(self, rng):
        # Points along y = 2x with small orthogonal noise.
        x = rng.normal(size=200)
        data = np.column_stack([x, 2 * x + rng.normal(0, 0.05, 200)])
        pca = PCA(n_components=1).fit(data)
        direction = pca.components_[0] / np.linalg.norm(pca.components_[0])
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert abs(abs(direction @ expected) - 1.0) < 1e-3
        assert pca.explained_variance_ratio_[0] > 0.99

    def test_transform_shape_and_centering(self, rng):
        data = rng.normal(size=(50, 8))
        pca = PCA(n_components=3)
        projected = pca.fit_transform(data)
        assert projected.shape == (50, 3)
        assert np.allclose(projected.mean(axis=0), 0.0, atol=1e-8)

    def test_explained_variance_sorted(self, rng):
        data = rng.normal(size=(60, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        pca = PCA(n_components=6).fit(data)
        variances = pca.explained_variance_
        assert np.all(np.diff(variances) <= 1e-9)
        assert pca.explained_variance_ratio_.sum() == pytest.approx(1.0, abs=1e-8)

    def test_inverse_transform_roundtrip(self, rng):
        data = rng.normal(size=(40, 5))
        pca = PCA(n_components=5).fit(data)
        reconstructed = pca.inverse_transform(pca.transform(data))
        assert np.allclose(reconstructed, data, atol=1e-8)

    def test_whiten_unit_variance(self, rng):
        data = rng.normal(size=(100, 4)) * np.array([10, 5, 1, 0.1])
        projected = PCA(n_components=2, whiten=True).fit_transform(data)
        assert np.allclose(projected.std(axis=0, ddof=1), 1.0, atol=1e-6)

    def test_not_fitted_errors(self):
        with pytest.raises(NotFittedError):
            PCA(2).transform(np.zeros((3, 4)))

    def test_too_many_components(self, rng):
        with pytest.raises(ValidationError):
            PCA(n_components=10).fit(rng.normal(size=(5, 3)))

    def test_feature_mismatch_on_transform(self, rng):
        pca = PCA(2).fit(rng.normal(size=(10, 4)))
        with pytest.raises(ValidationError):
            pca.transform(rng.normal(size=(3, 5)))


def _svd_oracle(data):
    """Every principal axis, singular value and variance from an economy SVD."""
    centered = data - data.mean(axis=0)
    _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
    variance = singular_values**2 / (data.shape[0] - 1)
    return vt, singular_values, variance, variance / variance.sum()


def _flip_signs(components):
    """The sign rule: each axis's largest-magnitude entry is positive."""
    pivots = np.argmax(np.abs(components), axis=1)
    return components * np.sign(components[np.arange(len(components)), pivots])[:, None]


def _tall(rng):
    return rng.normal(size=(3000, 12)) * np.linspace(12.0, 1.0, 12)


def _rank_deficient(rng):
    # Rank 4 after centring, with 6 numerically zero singular values.
    return rng.normal(size=(300, 4)) @ rng.normal(size=(4, 10)) * np.array(
        [1.0, 3.0, 0.5, 2.0, 1.0, 1.5, 4.0, 0.2, 1.0, 2.5]
    ) + 7.0


def _constant_column(rng):
    data = rng.normal(size=(400, 6)) * np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
    data[:, 2] = 5.0
    return data


class TestPCAAgainstSVD:
    """The Gram-matrix PCA against an np.linalg.svd oracle."""

    @pytest.mark.parametrize(
        ("make", "determined"),
        [(_tall, 12), (_rank_deficient, 4), (_constant_column, 5)],
    )
    def test_matches_svd_oracle(self, rng, make, determined):
        data = make(rng)
        n_components = min(data.shape)
        pca = PCA(n_components=n_components).fit(data)
        vt, singular_values, variance, ratio = _svd_oracle(data)

        top = singular_values[0]
        np.testing.assert_allclose(
            pca.singular_values_, singular_values, rtol=1e-10, atol=1e-10 * top
        )
        np.testing.assert_allclose(
            pca.explained_variance_, variance, rtol=1e-10, atol=1e-10 * variance[0]
        )
        np.testing.assert_allclose(
            pca.explained_variance_ratio_, ratio, rtol=1e-10, atol=1e-10
        )
        # Axes with distinct non-zero singular values are unique up to sign.
        np.testing.assert_allclose(
            pca.components_[:determined], _flip_signs(vt[:determined]), atol=1e-10
        )
        # The rest span the null space: orthonormal, and the centred data
        # has no extent along them.
        np.testing.assert_allclose(
            pca.components_ @ pca.components_.T, np.eye(n_components), atol=1e-10
        )
        null = (data - data.mean(axis=0)) @ pca.components_[determined:].T
        assert np.all(np.abs(null) <= 1e-10 * top)

    @pytest.mark.parametrize("make", [_tall, _rank_deficient, _constant_column])
    def test_whitened_projection_matches_oracle(self, rng, make):
        data = make(rng)
        n_components = min(data.shape)
        projected = PCA(n_components=n_components, whiten=True).fit_transform(data)
        vt, _, variance, _ = _svd_oracle(data)
        scale = np.sqrt(variance)
        # Numerically zero variance is not scaled (see PCA.transform).
        scale = np.where(scale < 1e-12, 1.0, scale)
        expected = (data - data.mean(axis=0)) @ _flip_signs(vt).T / scale
        live = variance > 1e-12 * variance[0]
        np.testing.assert_allclose(projected[:, live], expected[:, live], atol=1e-8)
        np.testing.assert_allclose(projected[:, live].std(axis=0, ddof=1), 1.0, atol=1e-10)
        assert np.all(np.abs(projected[:, ~live]) <= 1e-8)

    def test_signs_are_deterministic(self, rng):
        data = _tall(rng)
        first = PCA(n_components=5).fit(data)
        second = PCA(n_components=5).fit(data)
        assert np.array_equal(first.components_, second.components_)
        # Reordering the rows changes the rounding, never the signs.
        shuffled = PCA(n_components=5).fit(data[rng.permutation(len(data))])
        np.testing.assert_allclose(shuffled.components_, first.components_, atol=1e-10)
        pivots = np.argmax(np.abs(first.components_), axis=1)
        assert np.all(first.components_[np.arange(5), pivots] > 0)

    @pytest.mark.parametrize("whiten", [False, True])
    @pytest.mark.parametrize("make", [_tall, _rank_deficient, _constant_column])
    def test_fit_transform_equals_fit_then_transform(self, rng, make, whiten):
        data = make(rng)
        n_components = min(data.shape) - 1
        one_pass = PCA(n_components=n_components, whiten=whiten).fit_transform(data)
        two_pass = PCA(n_components=n_components, whiten=whiten).fit(data).transform(data)
        np.testing.assert_allclose(one_pass, two_pass, rtol=0, atol=1e-12)


class TestKDE:
    def test_bandwidth_rules_positive(self, rng):
        data = rng.normal(size=(100, 2))
        assert scott_bandwidth(data) > 0
        assert silverman_bandwidth(data) > 0

    def test_density_higher_at_mode(self, rng):
        sample = np.concatenate([rng.normal(-3, 0.3, 200), rng.normal(3, 0.3, 200)])
        kde = KernelDensityEstimator(bandwidth=0.3).fit(sample)
        densities = kde.score_samples(np.array([[-3.0], [0.0], [3.0]]))
        assert densities[0] > densities[1]
        assert densities[2] > densities[1]

    def test_grid_evaluation_finds_two_modes(self, rng):
        sample = np.concatenate([rng.normal(-2, 0.2, 300), rng.normal(2, 0.2, 300)])
        kde = KernelDensityEstimator(bandwidth=0.25).fit(sample)
        grid, density = kde.evaluate_grid_1d(-4, 4, 200)
        maxima = local_maxima_1d(density, min_prominence=0.05 * (density.max() - density.min()))
        modes = sorted(grid[m] for m in maxima)
        assert len(modes) >= 2
        assert abs(modes[0] + 2) < 0.5 and abs(modes[-1] - 2) < 0.5

    def test_epanechnikov_kernel(self, rng):
        sample = rng.normal(size=100)
        kde = KernelDensityEstimator(bandwidth=0.5, kernel="epanechnikov").fit(sample)
        assert np.all(kde.score_samples(np.array([[0.0], [100.0]])) >= 0.0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KernelDensityEstimator().score_samples(np.zeros((2, 1)))

    def test_invalid_bandwidth(self):
        with pytest.raises(ValidationError):
            KernelDensityEstimator(bandwidth=-1.0)
        with pytest.raises(ValidationError):
            KernelDensityEstimator(bandwidth="magic")

    def test_dimension_mismatch(self, rng):
        kde = KernelDensityEstimator().fit(rng.normal(size=(20, 2)))
        with pytest.raises(ValidationError):
            kde.score_samples(np.zeros((3, 3)))


class TestLocalMaxima:
    def test_simple_peak(self):
        assert local_maxima_1d(np.array([0, 1, 3, 1, 0])) == [2]

    def test_plateau_reports_once(self):
        values = np.array([0, 2, 2, 2, 0, 1, 0])
        maxima = local_maxima_1d(values)
        assert maxima == [1, 5]

    def test_boundary_maxima(self):
        assert local_maxima_1d(np.array([5, 1, 0, 1, 6])) == [0, 4]

    def test_prominence_filter(self):
        values = np.array([0.0, 1.0, 0.9, 0.95, 0.0, 5.0, 0.0])
        strict = local_maxima_1d(values, min_prominence=2.0)
        assert strict == [5]


class TestKernels:
    def test_gaussian_kernel_range(self, blob_data):
        points, _ = blob_data
        from repro.metrics.distances import pairwise_distances

        affinity = gaussian_kernel_matrix(pairwise_distances(points))
        assert np.all(affinity >= 0.0) and np.all(affinity <= 1.0)
        assert np.allclose(np.diag(affinity), 1.0)

    def test_rbf_affinity_symmetric(self, blob_data):
        points, _ = blob_data
        affinity = rbf_affinity(points)
        assert np.allclose(affinity, affinity.T)

    def test_gamma_validation(self, blob_data):
        points, _ = blob_data
        from repro.metrics.distances import pairwise_distances

        with pytest.raises(ValidationError):
            gaussian_kernel_matrix(pairwise_distances(points), gamma=0.0)

    def test_knn_affinity_symmetric_binary(self, blob_data):
        points, _ = blob_data
        affinity = knn_affinity(points, n_neighbors=5)
        assert np.allclose(affinity, affinity.T)
        assert set(np.unique(affinity)).issubset({0.0, 1.0})
        assert np.all(affinity.sum(axis=1) >= 5)
