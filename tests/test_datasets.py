"""Unit tests for the synthetic dataset generators, catalogue and UCR loader."""

import numpy as np
import pytest

from repro.datasets import (
    default_catalogue,
    generate_dataset,
    list_dataset_names,
    load_ucr_dataset,
    parse_ucr_lines,
    save_ucr_dataset,
)
from repro.datasets.catalogue import DatasetCatalogue, DatasetSpec
from repro.datasets.synthetic import (
    make_cylinder_bell_funnel,
    make_mixed_bag,
    make_noise_only,
    make_shapelet_classes,
    make_two_patterns,
)
from repro.exceptions import DatasetError
from repro.features.bank import extract_features
from repro.metrics.clustering import adjusted_rand_index


class TestSyntheticGenerators:
    @pytest.mark.parametrize("name", [
        "cylinder_bell_funnel",
        "two_patterns",
        "gun_point_like",
        "sine_families",
        "seasonal_mixture",
        "trend_classes",
        "random_walk_regimes",
        "shapelet_classes",
        "spiky_patterns",
        "mixed_bag",
        "noise_only",
    ])
    def test_every_catalogue_dataset_matches_its_spec(self, name):
        spec = default_catalogue().get(name)
        dataset = spec.generate(random_state=0)
        assert dataset.n_series == spec.n_series
        assert dataset.length == spec.length
        assert dataset.n_classes == spec.n_classes
        assert dataset.has_labels
        assert np.all(np.isfinite(dataset.data))

    def test_generators_are_deterministic(self):
        a = make_two_patterns(n_series=20, length=64, random_state=5)
        b = make_two_patterns(n_series=20, length=64, random_state=5)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seeds_differ(self):
        a = make_cylinder_bell_funnel(n_series=12, length=64, random_state=0)
        b = make_cylinder_bell_funnel(n_series=12, length=64, random_state=1)
        assert not np.array_equal(a.data, b.data)

    def test_classes_balanced(self):
        dataset = make_mixed_bag(n_series=82, length=64, random_state=0)
        counts = list(dataset.class_counts().values())
        assert max(counts) - min(counts) <= 1

    def test_classes_are_separable(self):
        # A nearest-centroid classifier in feature space should do far better
        # than chance on pattern datasets; this guards against degenerate
        # generators that produce indistinguishable classes.
        dataset = make_shapelet_classes(n_series=30, length=96, noise=0.2, random_state=0)
        features = extract_features(dataset.data)
        labels = dataset.labels
        centroids = np.vstack([features[labels == c].mean(axis=0) for c in np.unique(labels)])
        assigned = np.argmin(
            np.linalg.norm(features[:, None, :] - centroids[None, :, :], axis=2), axis=1
        )
        assert adjusted_rand_index(labels, assigned) > 0.3

    def test_noise_only_has_no_structure(self):
        dataset = make_noise_only(n_series=30, length=64, random_state=0)
        # Labels are random: the per-class means must be statistically identical.
        means = [dataset.data[dataset.labels == c].mean() for c in range(dataset.n_classes)]
        assert abs(means[0] - means[1]) < 0.5

    def test_too_few_series_rejected(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            make_two_patterns(n_series=2, length=64)

    def test_negative_noise_rejected(self):
        with pytest.raises(DatasetError):
            make_cylinder_bell_funnel(n_series=12, length=64, noise=-0.1)


class TestCatalogue:
    def test_default_catalogue_size(self):
        catalogue = default_catalogue()
        assert len(catalogue) >= 10
        assert list_dataset_names() == catalogue.names()

    def test_generate_dataset_by_name(self):
        dataset = generate_dataset("trend_classes", random_state=1)
        assert dataset.name == "trend_classes"

    def test_unknown_name(self):
        with pytest.raises(DatasetError):
            generate_dataset("does_not_exist")

    def test_filtering(self):
        catalogue = default_catalogue()
        shape_only = catalogue.filter(dataset_type="synthetic-shape")
        assert all(spec.dataset_type == "synthetic-shape" for spec in shape_only)
        assert len(shape_only) >= 2
        two_class = catalogue.filter(min_classes=2, max_classes=2)
        assert all(spec.n_classes == 2 for spec in two_class)
        long_series = catalogue.filter(min_length=140)
        assert all(spec.length >= 140 for spec in long_series)

    def test_summary_rows(self):
        rows = default_catalogue().summary_rows()
        assert {"name", "type", "n_series", "length", "n_classes"} <= set(rows[0])

    def test_duplicate_registration_rejected(self):
        catalogue = DatasetCatalogue()
        spec = DatasetSpec(
            name="x",
            generator=lambda random_state=None, n_series=10, length=32: make_two_patterns(
                n_series=n_series, length=length, random_state=random_state
            ),
            dataset_type="t",
            n_series=10,
            length=32,
            n_classes=4,
        )
        catalogue.register(spec)
        with pytest.raises(DatasetError):
            catalogue.register(spec)

    def test_spec_shape_mismatch_detected(self):
        spec = DatasetSpec(
            name="broken",
            generator=lambda random_state=None, n_series=10, length=32: make_two_patterns(
                n_series=12, length=64, random_state=random_state
            ),
            dataset_type="t",
            n_series=10,
            length=32,
            n_classes=4,
        )
        with pytest.raises(DatasetError):
            spec.generate()


class TestUCRFormat:
    def test_parse_tab_separated(self):
        lines = ["1\t0.1\t0.2\t0.3\t0.4", "2\t1.0\t1.1\t1.2\t1.3"]
        dataset = parse_ucr_lines(lines, name="demo")
        assert dataset.n_series == 2
        assert dataset.length == 4
        assert dataset.n_classes == 2

    def test_parse_comma_and_whitespace(self):
        comma = parse_ucr_lines(["1,0.0,1.0,2.0,3.0"])
        space = parse_ucr_lines(["1 0.0 1.0 2.0 3.0"])
        assert np.array_equal(comma.data, space.data)

    def test_blank_lines_skipped(self):
        dataset = parse_ucr_lines(["", "1\t1\t2\t3\t4", "   ", "2\t4\t3\t2\t1"])
        assert dataset.n_series == 2

    def test_inconsistent_lengths_rejected(self):
        with pytest.raises(DatasetError):
            parse_ucr_lines(["1\t1\t2\t3\t4", "2\t1\t2\t3"])

    def test_non_numeric_rejected(self):
        with pytest.raises(DatasetError):
            parse_ucr_lines(["1\ta\tb\tc\td"])

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            parse_ucr_lines([])

    def test_roundtrip_via_files(self, tmp_path, small_dataset):
        path = tmp_path / "train.tsv"
        save_ucr_dataset(small_dataset, path)
        loaded = load_ucr_dataset(path, name="roundtrip")
        assert loaded.n_series == small_dataset.n_series
        assert loaded.length == small_dataset.length
        assert np.allclose(loaded.data, small_dataset.data, atol=1e-5)
        assert adjusted_rand_index(loaded.labels, small_dataset.labels) == pytest.approx(1.0)

    def test_train_test_concatenation(self, tmp_path, small_dataset):
        held_out = np.arange(small_dataset.n_series) % 3 == 0
        train, test = small_dataset.subset(~held_out), small_dataset.subset(held_out)
        train_path = save_ucr_dataset(train, tmp_path / "d_TRAIN.tsv")
        test_path = save_ucr_dataset(test, tmp_path / "d_TEST.tsv")
        combined = load_ucr_dataset(train_path, test_path=test_path)
        assert combined.n_series == small_dataset.n_series

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_ucr_dataset(tmp_path / "missing.tsv")

    def test_save_requires_labels(self, tmp_path):
        from repro.utils.containers import TimeSeriesDataset

        unlabelled = TimeSeriesDataset(data=np.zeros((3, 8)))
        with pytest.raises(DatasetError):
            save_ucr_dataset(unlabelled, tmp_path / "x.tsv")
