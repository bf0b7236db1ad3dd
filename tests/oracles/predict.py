"""Reference prediction for :func:`repro.core.kgraph.predict_with_state`.

The library predicts a batch in blocks of whole series: one
z-normalisation, one GEMM against the node patterns and one segmented
bincount per block.  This oracle predicts one series at a time from its
full window matrix.  Both map node-visit profiles to clusters through the
library's ``_profiles_to_predictions``, so the equivalence tests compare the
profile computation, not two copies of the centroid assignment.
"""

from __future__ import annotations

import numpy as np

from repro.core.kgraph import PredictionState, _profiles_to_predictions
from repro.utils.normalization import znormalize_dataset
from repro.utils.windows import sliding_window_matrix


def predict_with_state_reference(
    state: PredictionState, array: np.ndarray
) -> np.ndarray:
    """One-series-at-a-time prediction loop."""
    predictions = np.empty(array.shape[0], dtype=int)
    for index, series in enumerate(array):
        windows = sliding_window_matrix(series, state.length, state.stride)
        windows = znormalize_dataset(windows)
        distances = (
            np.sum(windows**2, axis=1)[:, None]
            - 2.0 * windows @ state.patterns.T
            + state.patterns_sq[None, :]
        )
        assignments = np.argmin(distances, axis=1)
        profile = np.bincount(assignments, minlength=state.n_nodes).astype(float)
        total = profile.sum()
        if total > 0:
            profile /= total
        predictions[index] = _profiles_to_predictions(
            state, profile[None, :]
        )[0]
    return predictions
