"""Principal Component Analysis via the eigendecomposition of the Gram matrix.

Used by the k-Graph embedding to project all subsequences of a given length
into a low-dimensional space (two or three components) while keeping the
dominant shape information, exactly as described in Section II-A of the
paper ("For each graph, PCA is applied, allowing us to project the
subsequences into a two-dimensional space while retaining their essential
shapes").

The principal axes are the eigenvectors of the ℓ×ℓ Gram matrix of the
centred data (:func:`principal_axes`).  An economy SVD would give the same
axes but also builds the n×ℓ left singular vectors, which nothing reads.
Working from the Gram matrix also means the rows never have to be in memory
at once: the k-Graph embedding (:mod:`repro.graph.embedding`) adds its
subsequences into the Gram matrix block by block and takes its axes from the
same function, so both paths share one eigensolver and one sign rule.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.utils.validation import check_array, check_positive_int


def principal_axes(gram: np.ndarray, n_components: int) -> np.ndarray:
    """The ``n_components`` leading principal axes of a centred Gram matrix.

    Returns an ``(n_components, n_features)`` array whose rows are unit
    eigenvectors of ``gram`` in order of decreasing eigenvalue.
    """
    # eigh sorts eigenvalues ascending: the principal axes are its last
    # eigenvectors, taken in reverse.
    _, eigenvectors = np.linalg.eigh(gram)
    components = np.ascontiguousarray(eigenvectors[:, ::-1][:, :n_components].T)
    # An eigenvector's sign is arbitrary; make each axis's largest-magnitude
    # entry positive (scikit-learn's svd_flip rule) so every fit of the same
    # data projects the same way.
    pivots = np.argmax(np.abs(components), axis=1)
    components *= np.sign(components[np.arange(n_components), pivots])[:, None]
    return components


class PCA:
    """Exact PCA with the scikit-learn ``fit`` / ``transform`` API.

    Parameters
    ----------
    n_components:
        Number of principal directions to keep.  Must not exceed
        ``min(n_samples, n_features)`` at fit time.
    whiten:
        When true, scale projected coordinates to unit variance per component.

    Attributes
    ----------
    components_:
        Array of shape ``(n_components, n_features)``; rows are principal axes.
    explained_variance_:
        Variance captured by each component.
    explained_variance_ratio_:
        Fraction of the total variance captured by each component.
    mean_:
        Per-feature mean removed before projection.
    """

    def __init__(self, n_components: int = 2, whiten: bool = False) -> None:
        self.n_components = check_positive_int(n_components, "n_components")
        self.whiten = bool(whiten)
        self.components_: Optional[np.ndarray] = None
        self.explained_variance_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None
        self.singular_values_: Optional[np.ndarray] = None
        self.mean_: Optional[np.ndarray] = None
        self.n_samples_: int = 0
        self.n_features_: int = 0

    # ------------------------------------------------------------------ #
    def fit(self, data) -> "PCA":
        """Estimate the principal axes of ``data`` (shape n_samples x n_features)."""
        self._fit(data)
        return self

    def _fit(self, data) -> np.ndarray:
        """Fit the axes and return the (unwhitened) projection of ``data``."""
        array = check_array(data, name="data", ndim=2, min_rows=2)
        n_samples, n_features = array.shape
        if self.n_components > min(n_samples, n_features):
            raise ValidationError(
                f"n_components={self.n_components} exceeds min(n_samples, n_features)="
                f"{min(n_samples, n_features)}"
            )
        self.mean_ = array.mean(axis=0)
        centered = array - self.mean_
        gram = centered.T @ centered
        components = principal_axes(gram, self.n_components)
        projected = centered @ components.T
        # Singular values are the projections' norms, not square roots of
        # Gram eigenvalues: squaring loses the small end of the spectrum to
        # rounding, the norms keep it.
        singular_values = np.linalg.norm(projected, axis=0)
        total_variance = float(np.trace(gram)) / (n_samples - 1)

        self.components_ = components
        self.singular_values_ = singular_values
        self.explained_variance_ = (singular_values**2) / (n_samples - 1)
        if total_variance > 0:
            self.explained_variance_ratio_ = self.explained_variance_ / total_variance
        else:
            self.explained_variance_ratio_ = np.zeros(self.n_components)
        self.n_samples_ = n_samples
        self.n_features_ = n_features
        return projected

    def _check_fitted(self) -> None:
        if self.components_ is None:
            raise NotFittedError("PCA instance is not fitted yet; call fit() first")

    def transform(self, data) -> np.ndarray:
        """Project ``data`` onto the fitted principal axes."""
        self._check_fitted()
        array = check_array(data, name="data", ndim=2, min_rows=1)
        if array.shape[1] != self.n_features_:
            raise ValidationError(
                f"data has {array.shape[1]} features, PCA was fitted with {self.n_features_}"
            )
        return self._whiten((array - self.mean_) @ self.components_.T)

    def _whiten(self, projected: np.ndarray) -> np.ndarray:
        if self.whiten:
            scale = np.sqrt(self.explained_variance_)
            scale = np.where(scale < 1e-12, 1.0, scale)
            projected = projected / scale
        return projected

    def fit_transform(self, data) -> np.ndarray:
        """Fit the model on ``data`` and return its projection.

        Projects the centred matrix the fit already built, so ``data`` is
        centred once; the result equals ``fit(data).transform(data)``.
        """
        return self._whiten(self._fit(data))

    def inverse_transform(self, projected) -> np.ndarray:
        """Map projected coordinates back to the original feature space."""
        self._check_fitted()
        array = check_array(projected, name="projected", ndim=2, min_rows=1)
        if array.shape[1] != self.components_.shape[0]:
            raise ValidationError(
                f"projected data has {array.shape[1]} components, expected "
                f"{self.components_.shape[0]}"
            )
        if self.whiten:
            scale = np.sqrt(self.explained_variance_)
            array = array * scale
        return array @ self.components_ + self.mean_
