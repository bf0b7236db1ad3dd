"""Unit tests for the TimeSeriesDataset container."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.utils.containers import TimeSeriesDataset


@pytest.fixture()
def dataset() -> TimeSeriesDataset:
    data = np.arange(40, dtype=float).reshape(8, 5)
    labels = [0, 0, 1, 1, 2, 2, 0, 1]
    return TimeSeriesDataset(data=data, labels=labels, name="toy", dataset_type="unit-test")


class TestConstruction:
    def test_shape_properties(self, dataset):
        assert dataset.n_series == 8
        assert dataset.length == 5
        assert dataset.n_classes == 3
        assert dataset.has_labels

    def test_unlabelled(self):
        unlabelled = TimeSeriesDataset(data=np.zeros((3, 6)))
        assert unlabelled.n_classes == 0
        assert not unlabelled.has_labels

    def test_label_length_mismatch(self):
        with pytest.raises(ValidationError):
            TimeSeriesDataset(data=np.zeros((3, 6)), labels=[0, 1])

    def test_too_short_series_rejected(self):
        with pytest.raises(ValidationError):
            TimeSeriesDataset(data=np.zeros((3, 2)))

    def test_len_iter_getitem(self, dataset):
        assert len(dataset) == 8
        assert len(list(iter(dataset))) == 8
        assert np.array_equal(dataset[0], dataset.data[0])


class TestClassAccessors:
    def test_class_counts(self, dataset):
        assert dataset.class_counts() == {0: 3, 1: 3, 2: 2}


class TestTransformations:
    def test_with_labels(self, dataset):
        relabelled = dataset.with_labels([1] * 8)
        assert relabelled.n_classes == 1
        assert dataset.n_classes == 3  # original untouched

    def test_subset_by_indices(self, dataset):
        subset = dataset.subset([0, 2, 4])
        assert subset.n_series == 3
        assert subset.labels.tolist() == [0, 1, 2]

    def test_subset_by_mask(self, dataset):
        mask = dataset.labels == 0
        subset = dataset.subset(mask)
        assert subset.n_series == 3

    def test_subset_empty_rejected(self, dataset):
        with pytest.raises(ValidationError):
            dataset.subset(np.zeros(8, dtype=bool))

    def test_subset_mask_length_mismatch(self, dataset):
        with pytest.raises(ValidationError):
            dataset.subset(np.zeros(5, dtype=bool))

    def test_summary_is_serialisable(self, dataset):
        import json

        text = json.dumps(dataset.summary())
        assert "toy" in text
