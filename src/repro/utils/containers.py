"""Dataset container used throughout the library.

A :class:`TimeSeriesDataset` bundles an equal-length univariate time series
collection with optional ground-truth labels and descriptive metadata (the
Benchmark frame of Graphint filters datasets by this metadata).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional

import numpy as np

from repro.exceptions import ValidationError
from repro.utils.validation import check_labels, check_time_series_dataset


@dataclass(frozen=True)
class TimeSeriesDataset:
    """An immutable labelled collection of equal-length univariate time series.

    Attributes
    ----------
    data:
        Array of shape ``(n_series, length)``.
    labels:
        Optional ground-truth integer labels, shape ``(n_series,)``.
    name:
        Human-readable dataset name (used by the catalogue and the GUI).
    dataset_type:
        Free-form category such as ``"synthetic-shape"`` or ``"sensor"``;
        the Benchmark frame filters on it.
    metadata:
        Extra key/value annotations.
    """

    data: np.ndarray
    labels: Optional[np.ndarray] = None
    name: str = "unnamed"
    dataset_type: str = "synthetic"
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        data = check_time_series_dataset(self.data, name="data", min_series=1, min_length=3)
        object.__setattr__(self, "data", data)
        if self.labels is not None:
            labels = check_labels(self.labels, n_samples=data.shape[0])
            object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "metadata", dict(self.metadata))

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.data.shape[0])

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.data)

    def __getitem__(self, index) -> np.ndarray:
        return self.data[index]

    # ------------------------------------------------------------------ #
    # derived properties
    # ------------------------------------------------------------------ #
    @property
    def n_series(self) -> int:
        """Number of time series in the dataset."""
        return int(self.data.shape[0])

    @property
    def length(self) -> int:
        """Length (number of points) of each time series."""
        return int(self.data.shape[1])

    @property
    def n_classes(self) -> int:
        """Number of distinct ground-truth classes (0 when unlabelled)."""
        if self.labels is None:
            return 0
        return int(np.unique(self.labels).size)

    @property
    def has_labels(self) -> bool:
        """Whether ground-truth labels are available."""
        return self.labels is not None

    def default_cluster_count(self, fallback: int = 3) -> int:
        """Default ``k`` for estimators run on this dataset.

        The labelled class count when the dataset carries a usable ground
        truth (>= 2 classes), else ``fallback`` — the single defaulting
        rule shared by the CLI, the benchmark harness and the baselines.
        """
        return self.n_classes if self.n_classes >= 2 else int(fallback)

    def class_counts(self) -> Dict[int, int]:
        """Return a mapping from class label to number of series."""
        if self.labels is None:
            return {}
        values, counts = np.unique(self.labels, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def with_labels(self, labels) -> "TimeSeriesDataset":
        """Return a copy of the dataset with new ground-truth labels."""
        return replace(self, labels=check_labels(labels, n_samples=self.n_series))

    def subset(self, indices) -> "TimeSeriesDataset":
        """Return a new dataset restricted to ``indices`` (keeps metadata)."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape[0] != self.n_series:
                raise ValidationError("boolean mask length does not match dataset size")
            indices = np.flatnonzero(indices)
        if indices.size == 0:
            raise ValidationError("cannot build an empty dataset subset")
        data = self.data[indices]
        labels = self.labels[indices] if self.labels is not None else None
        return replace(self, data=data, labels=labels)

    def summary(self) -> Dict[str, object]:
        """Return a JSON-serialisable description used by the GUI and catalogue."""
        return {
            "name": self.name,
            "dataset_type": self.dataset_type,
            "n_series": self.n_series,
            "length": self.length,
            "n_classes": self.n_classes,
            "class_counts": self.class_counts(),
            "metadata": dict(self.metadata),
        }
