"""Reference graph construction for :class:`repro.graph.embedding.GraphEmbedding`.

:meth:`GraphEmbedding.fit` never holds every subsequence at once; it walks
blocks of series three times.  This oracle builds the full z-normalised
subsequence matrix instead, assigns every subsequence to its nearest node
over the whole matrix, and records the graph one subsequence at a time into
the dict graph of :mod:`oracles.graph`.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from oracles.graph import DictGraph
from repro.utils.normalization import znormalize_dataset
from repro.utils.windows import subsequences_of_dataset


def reference_inputs(
    embedding, data: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Subsequences, series index, dense assignments and used node positions.

    ``embedding`` is a fitted ``GraphEmbedding``; its ``projection_`` and
    ``node_positions_`` (every node the radial scan found) seed the
    assignment.
    """
    subsequences, series_index, _ = subsequences_of_dataset(
        data, embedding.length, embedding.stride
    )
    subsequences = znormalize_dataset(subsequences)
    projection = embedding.projection_
    node_positions = embedding.node_positions_
    distances = (projection[:, 0, None] - node_positions[None, :, 0]) ** 2 + (
        projection[:, 1, None] - node_positions[None, :, 1]
    ) ** 2
    assignments = np.argmin(distances, axis=1)
    # Drop nodes that attract no subsequence and re-index densely.
    used_nodes = np.unique(assignments)
    remap: Dict[int, int] = {old: new for new, old in enumerate(used_nodes)}
    assignments = np.array([remap[a] for a in assignments])
    return subsequences, series_index, assignments, node_positions[used_nodes]


def record_graph(
    length: int,
    n_series: int,
    subsequences: np.ndarray,
    series_index: np.ndarray,
    assignments: np.ndarray,
    node_positions: np.ndarray,
) -> DictGraph:
    """Per-subsequence recording loop: node means, then visits and transitions."""
    graph = DictGraph(length, n_series)
    for new_id in range(node_positions.shape[0]):
        members = subsequences[assignments == new_id]
        pattern = members.mean(axis=0) if members.shape[0] else np.zeros(length)
        graph.add_node(new_id, node_positions[new_id], pattern)

    previous_series = -1
    previous_node = -1
    for subseq_idx in range(subsequences.shape[0]):
        series = int(series_index[subseq_idx])
        node = int(assignments[subseq_idx])
        graph.record_visit(node, series)
        if series == previous_series:
            graph.record_transition(previous_node, node, series)
        previous_series = series
        previous_node = node
    return graph


def embedding_graph_reference(embedding, data: np.ndarray) -> DictGraph:
    """The graph ``embedding.fit(data)`` must build, from its fitted projection."""
    data = np.asarray(data, dtype=float)
    subsequences, series_index, assignments, node_positions = reference_inputs(
        embedding, data
    )
    return record_graph(
        embedding.length,
        data.shape[0],
        subsequences,
        series_index,
        assignments,
        node_positions,
    )
