"""E5 — Under-the-hood frame / Scenario 3 (Fig. 3, frame 4).

Regenerates the three panels of the frame for one dataset per family:

* 4.1 — the length-selection curves W_c(ℓ), W_e(ℓ), W_c·W_e and the selected
  length ¯ℓ,
* 4.2 — the dimensions and sparsity of the feature matrix of the selected
  graph,
* 4.3 — the block structure of the consensus matrix (mean co-association
  within vs across final clusters).
"""

from __future__ import annotations

import numpy as np
import pytest

from bench_utils import bench_catalogue, format_table, report
from repro.core.graph_clustering import graph_features
from repro.core.kgraph import KGraph

DATASETS = ("cylinder_bell_funnel", "seasonal_mixture", "random_walk_regimes")


def _run_under_the_hood():
    catalogue = bench_catalogue()
    length_rows, matrix_rows = [], []
    for name in DATASETS:
        dataset = catalogue.get(name).generate(random_state=3)
        model = KGraph(n_clusters=dataset.n_classes, n_lengths=4, random_state=3)
        model.fit(dataset.data)
        result = model.result_

        for score in result.length_scores:
            length_rows.append(
                {
                    "dataset": name,
                    "length": score.length,
                    "W_c": score.consistency,
                    "W_e": score.interpretability,
                    "W_c*W_e": score.combined,
                    "selected": "yes" if score.length == result.optimal_length else "",
                }
            )

        features = graph_features(result.optimal_graph, model.feature_mode)
        labels = result.labels
        consensus = result.consensus_matrix
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        within = float(consensus[same].mean()) if same.any() else float("nan")
        across = float(consensus[~same & ~np.eye(len(labels), dtype=bool)].mean())
        matrix_rows.append(
            {
                "dataset": name,
                "optimal_length": result.optimal_length,
                "feature_rows": features.shape[0],
                "feature_cols": features.shape[1],
                "feature_sparsity": float((features == 0).mean()),
                "consensus_within": within,
                "consensus_across": across,
            }
        )
    return length_rows, matrix_rows


@pytest.mark.benchmark(group="E5-under-the-hood")
def test_bench_under_the_hood(benchmark):
    length_rows, matrix_rows = benchmark.pedantic(_run_under_the_hood, rounds=1, iterations=1)
    sections = [
        "--- 4.1 length selection (W_c, W_e and the selected length) ---\n"
        + format_table(length_rows, ["dataset", "length", "W_c", "W_e", "W_c*W_e", "selected"]),
        "--- 4.2 feature matrix and 4.3 consensus matrix ---\n"
        + format_table(
            matrix_rows,
            [
                "dataset",
                "optimal_length",
                "feature_rows",
                "feature_cols",
                "feature_sparsity",
                "consensus_within",
                "consensus_across",
            ],
        ),
        "Paper expectation: the selected length maximises W_c*W_e and the consensus "
        "matrix shows a block structure (within-cluster co-association >> across).",
    ]
    report("E5: Under-the-hood frame", "\n\n".join(sections))
    benchmark.extra_info["datasets"] = [row["dataset"] for row in matrix_rows]
    # Shape assertions: block structure and argmax selection.
    for row in matrix_rows:
        assert row["consensus_within"] > row["consensus_across"]
    for dataset in {row["dataset"] for row in length_rows}:
        rows = [row for row in length_rows if row["dataset"] == dataset]
        best = max(rows, key=lambda r: r["W_c*W_e"])
        selected = next(row for row in rows if row["selected"] == "yes")
        assert selected["W_c*W_e"] == pytest.approx(best["W_c*W_e"])
