"""Under-the-hood frame (Fig. 3, frame 4).

Exposes the internal artifacts of the k-Graph run for the selected dataset:

* panel 4.1 — the length-selection curves W_c(ℓ), W_e(ℓ) and their product,
  with the selected length ¯ℓ marked;
* panel 4.2 — the feature matrix F_{D,¯ℓ} of the selected graph;
* panel 4.3 — the consensus matrix M_C (rows/columns ordered by the final
  labels so the block structure is visible);
* a per-length summary table (graph sizes, partition inertia).
"""

from __future__ import annotations

import numpy as np

from repro.core.graph_clustering import graph_features
from repro.core.kgraph import KGraph
from repro.exceptions import VisualizationError
from repro.viz.frames.base import Frame, Panel, html_table
from repro.viz.plots import curve_comparison, heatmap


def build_under_the_hood_frame(model: KGraph) -> Frame:
    """Build the frame from a fitted k-Graph model."""
    model._check_fitted()
    result = model.result_

    frame = Frame(
        frame_id="under-the-hood",
        title="Under the hood",
        description=(
            "How k-Graph produced the final clustering: the subsequence-length "
            "selection criteria, the graph feature matrix, and the consensus matrix."
        ),
        metadata={
            "optimal_length": result.optimal_length,
            "lengths": sorted(result.graphs),
        },
    )

    # 4.1 length selection curves.
    scores = sorted(result.length_scores, key=lambda s: s.length)
    lengths = [score.length for score in scores]
    curves = {
        "consistency W_c": [score.consistency for score in scores],
        "interpretability W_e": [score.interpretability for score in scores],
        "W_c x W_e": [score.combined for score in scores],
    }
    frame.add_panel(
        Panel(
            title="4.1 Length selection",
            svg=curve_comparison(
                lengths,
                curves,
                title="length selection criteria",
                x_label="subsequence length ℓ",
                y_label="score",
                marker=float(result.optimal_length),
            ),
            caption=(
                f"The selected length ¯ℓ = {result.optimal_length} maximises "
                "W_c(ℓ) · W_e(ℓ) (dashed line)."
            ),
        )
    )

    # 4.2 feature matrix of the selected graph.
    features = graph_features(result.optimal_graph, model.feature_mode)
    order = np.argsort(result.labels, kind="stable")
    frame.add_panel(
        Panel(
            title="4.2 Feature matrix",
            svg=heatmap(
                features[order],
                title=f"feature matrix F (ℓ = {result.optimal_length})",
                x_label="graph nodes and edges",
                y_label="time series (sorted by final cluster)",
            ),
            caption=(
                f"{features.shape[0]} series x {features.shape[1]} node/edge "
                "features; rows sorted by the final k-Graph labels."
            ),
        )
    )

    # 4.3 consensus matrix, ordered by final labels.
    consensus = result.consensus_matrix[np.ix_(order, order)]
    frame.add_panel(
        Panel(
            title="4.3 Consensus matrix",
            svg=heatmap(
                consensus,
                title="consensus matrix M_C",
                x_label="time series",
                y_label="time series",
            ),
            caption=(
                "Fraction of per-length partitions grouping each pair of series together; "
                "the block-diagonal structure is what the final spectral step clusters."
            ),
        )
    )

    # Per-length summary table.
    rows = []
    for score in scores:
        graph = result.graphs[score.length]
        partition = result.partition_for(score.length)
        rows.append(
            {
                "length": score.length,
                "n_nodes": graph.n_nodes,
                "n_edges": graph.n_edges,
                "W_c": score.consistency,
                "W_e": score.interpretability,
                "W_c*W_e": score.combined,
                "kmeans_inertia": partition.inertia,
                "selected": "yes" if score.length == result.optimal_length else "",
            }
        )
    frame.add_panel(
        Panel(
            title="Per-length summary",
            html_body=html_table(rows),
            caption="One graph and one partition per candidate subsequence length.",
        )
    )

    # Stage breakdown (pipeline-driven fits record one stage:<name> section
    # per pipeline stage; reference-monolith fits and old artifacts do not).
    stage_timings = result.stage_timings()
    if stage_timings:
        frame.add_panel(
            Panel(
                title="Pipeline stage breakdown",
                html_body=html_table(
                    [
                        {"stage": stage, "seconds": seconds}
                        for stage, seconds in stage_timings.items()
                    ]
                ),
                caption=(
                    "Wall-clock seconds per pipeline stage (embed -> graph_cluster "
                    "-> consensus -> length_selection -> interpretability); "
                    "stages replayed from a checkpoint cache show near-zero time."
                ),
            )
        )

    # Fine-grained timing sections (worker-side busy time per sub-step).
    timing_rows = [
        {"section": section, "seconds": seconds}
        for section, seconds in result.timings.items()
        if not section.startswith("stage:")
    ]
    if timing_rows:
        frame.add_panel(
            Panel(
                title="Pipeline timings",
                html_body=html_table(timing_rows),
                caption="Busy time spent in each pipeline section.",
            )
        )
    return frame
