"""Unit tests for external clustering-quality measures."""

import numpy as np
import pytest

from repro.metrics.clustering import (
    adjusted_mutual_information,
    adjusted_rand_index,
    clustering_report,
    completeness_score,
    expected_mutual_information,
    fowlkes_mallows_index,
    homogeneity_score,
    mutual_information,
    normalized_mutual_information,
    purity_score,
    rand_index,
    v_measure_score,
)
from repro.metrics.contingency import contingency_matrix, pair_confusion_matrix, pair_counts

TRUE = [0, 0, 0, 1, 1, 1, 2, 2, 2]
PERFECT = [2, 2, 2, 0, 0, 0, 1, 1, 1]  # same partition, permuted labels
BAD = [0, 1, 2, 0, 1, 2, 0, 1, 2]


class TestContingency:
    def test_shape_and_totals(self):
        table = contingency_matrix(TRUE, PERFECT)
        assert table.shape == (3, 3)
        assert table.sum() == 9

    def test_perfect_is_permutation_matrix(self):
        table = contingency_matrix(TRUE, PERFECT)
        assert sorted(table.max(axis=1).tolist()) == [3, 3, 3]
        assert np.count_nonzero(table) == 3

    def test_pair_confusion_consistency(self):
        matrix = pair_confusion_matrix(TRUE, BAD)
        n = len(TRUE)
        assert matrix.sum() == n * (n - 1)

    def test_pair_counts_identity(self):
        tn, fp, fn, tp = pair_counts(TRUE, TRUE)
        assert fp == fn == 0
        assert tp == 9  # 3 classes x C(3,2)


class TestRandIndices:
    def test_perfect_agreement(self):
        assert rand_index(TRUE, PERFECT) == pytest.approx(1.0)
        assert adjusted_rand_index(TRUE, PERFECT) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        assert adjusted_rand_index(TRUE, PERFECT) == pytest.approx(
            adjusted_rand_index(PERFECT, TRUE)
        )

    def test_bad_partition_scores_low(self):
        # BAD splits every class across every cluster: worse than chance.
        value = adjusted_rand_index(TRUE, BAD)
        assert -1.0 <= value < 0.1

    def test_single_cluster_prediction(self):
        value = adjusted_rand_index(TRUE, [0] * 9)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_known_value_from_literature(self):
        # Example with hand-computable ARI.
        a = [0, 0, 1, 1]
        b = [0, 0, 1, 2]
        assert adjusted_rand_index(a, b) == pytest.approx(0.5714285, abs=1e-5)

    def test_ri_bounds(self, rng):
        a = rng.integers(0, 3, 30)
        b = rng.integers(0, 4, 30)
        assert 0.0 <= rand_index(a, b) <= 1.0


class TestInformationMeasures:
    def test_nmi_perfect(self):
        assert normalized_mutual_information(TRUE, PERFECT) == pytest.approx(1.0)

    def test_nmi_bounds(self, rng):
        a = rng.integers(0, 3, 40)
        b = rng.integers(0, 5, 40)
        assert 0.0 <= normalized_mutual_information(a, b) <= 1.0

    def test_mi_nonnegative(self, rng):
        a = rng.integers(0, 3, 40)
        b = rng.integers(0, 3, 40)
        assert mutual_information(a, b) >= -1e-12

    def test_nmi_average_modes(self):
        for mode in ("arithmetic", "geometric", "min", "max"):
            value = normalized_mutual_information(TRUE, BAD, average=mode)
            assert 0.0 <= value <= 1.0
        with pytest.raises(ValueError):
            normalized_mutual_information(TRUE, BAD, average="bogus")

    def test_emi_between_zero_and_mi(self):
        emi = expected_mutual_information(TRUE, PERFECT)
        mi = mutual_information(TRUE, PERFECT)
        assert 0.0 <= emi <= mi + 1e-12

    def test_ami_perfect_and_random(self):
        assert adjusted_mutual_information(TRUE, PERFECT) == pytest.approx(1.0)
        assert adjusted_mutual_information(TRUE, [0] * 9) == pytest.approx(0.0, abs=1e-9)

    def test_ami_near_zero_for_random(self, rng):
        values = []
        for _ in range(5):
            a = rng.integers(0, 3, 60)
            b = rng.integers(0, 3, 60)
            values.append(adjusted_mutual_information(a, b))
        assert abs(float(np.mean(values))) < 0.15


class TestOtherMeasures:
    def test_homogeneity_completeness_vmeasure(self):
        assert homogeneity_score(TRUE, PERFECT) == pytest.approx(1.0)
        assert completeness_score(TRUE, PERFECT) == pytest.approx(1.0)
        assert v_measure_score(TRUE, PERFECT) == pytest.approx(1.0)

    def test_over_segmentation_keeps_homogeneity(self):
        # Splitting a class keeps clusters pure but hurts completeness.
        pred = [0, 0, 3, 1, 1, 4, 2, 2, 5]
        assert homogeneity_score(TRUE, pred) == pytest.approx(1.0)
        assert completeness_score(TRUE, pred) < 1.0

    def test_purity(self):
        assert purity_score(TRUE, PERFECT) == pytest.approx(1.0)
        assert purity_score(TRUE, [0] * 9) == pytest.approx(1 / 3)

    def test_fowlkes_mallows(self):
        assert fowlkes_mallows_index(TRUE, PERFECT) == pytest.approx(1.0)
        assert 0.0 <= fowlkes_mallows_index(TRUE, BAD) <= 1.0

    def test_clustering_report_keys(self):
        report = clustering_report(TRUE, BAD)
        assert set(report) == {"ari", "ri", "nmi", "ami", "purity", "vmeasure", "fmi"}
