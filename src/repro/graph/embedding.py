"""Graph Embedding — step (b) of the k-Graph pipeline (Fig. 1).

For one subsequence length ℓ the embedding:

1. extracts every overlapping subsequence of length ℓ from every series and
   z-normalises it (shape, not level, defines a pattern);
2. projects the subsequences to two dimensions with PCA, "retaining their
   essential shapes";
3. extracts nodes as dense regions of the projection using a **radial scan**:
   the projected cloud is swept by angular sectors around its centre and, in
   every sector, the kernel density estimate of the radial coordinate is
   searched for local maxima — each maximum becomes a node (this is the
   Series2Graph-inspired node-creation rule described in the paper);
4. assigns every subsequence to its nearest node and connects consecutive
   subsequences of the same series with directed edges, yielding the
   transition graph.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphConstructionError
from repro.graph.structure import TimeSeriesGraph
from repro.linalg.kde import KernelDensityEstimator, local_maxima_1d
from repro.linalg.pca import PCA
from repro.utils.normalization import znormalize_dataset
from repro.utils.validation import (
    check_array,
    check_positive_int,
    check_random_state,
)
from repro.utils.windows import subsequences_of_dataset


class GraphEmbedding:
    """Builds a :class:`TimeSeriesGraph` for one subsequence length.

    Parameters
    ----------
    length:
        Subsequence length ℓ.
    stride:
        Step between consecutive subsequences (1 keeps every subsequence; a
        larger stride trades resolution for speed on long series).
    n_sectors:
        Number of angular sectors of the radial scan.
    max_nodes_per_sector:
        Upper bound on KDE local maxima kept per sector (highest-density first).
    density_grid:
        Number of radial grid points at which the KDE is evaluated.
    min_prominence_fraction:
        Minimum prominence of a density maximum, as a fraction of the sector's
        density range, for it to become a node (filters spurious maxima).
    random_state:
        Present for API symmetry; the embedding itself is deterministic.
    vectorized:
        When true (the default) the graph is assembled with bulk NumPy
        accumulation (:meth:`TimeSeriesGraph.add_visits` /
        :meth:`TimeSeriesGraph.add_transitions`); when false the original
        per-subsequence recording loop runs instead.  Both paths build
        bit-identical graphs — the reference loop is retained for the
        equivalence tests and the hot-path benchmark (E13).
    """

    def __init__(
        self,
        length: int,
        *,
        stride: int = 1,
        n_sectors: int = 24,
        max_nodes_per_sector: int = 4,
        density_grid: int = 64,
        min_prominence_fraction: float = 0.05,
        random_state=None,
        vectorized: bool = True,
    ) -> None:
        self.length = check_positive_int(length, "length", minimum=2)
        self.stride = check_positive_int(stride, "stride")
        self.n_sectors = check_positive_int(n_sectors, "n_sectors", minimum=2)
        self.max_nodes_per_sector = check_positive_int(max_nodes_per_sector, "max_nodes_per_sector")
        self.density_grid = check_positive_int(density_grid, "density_grid", minimum=8)
        if not 0.0 <= min_prominence_fraction < 1.0:
            raise GraphConstructionError(
                f"min_prominence_fraction must be in [0, 1), got {min_prominence_fraction}"
            )
        self.min_prominence_fraction = float(min_prominence_fraction)
        self.random_state = check_random_state(random_state)
        self.vectorized = bool(vectorized)

        self.pca_: Optional[PCA] = None
        self.projection_: Optional[np.ndarray] = None
        self.node_positions_: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    def _extract_nodes(self, projection: np.ndarray) -> List[Tuple[float, float]]:
        """Radial-scan + KDE node extraction; returns node positions."""
        centre = projection.mean(axis=0)
        offsets = projection - centre
        radii = np.linalg.norm(offsets, axis=1)
        angles = np.arctan2(offsets[:, 1], offsets[:, 0])  # [-pi, pi]

        positions: List[Tuple[float, float]] = []
        sector_edges = np.linspace(-np.pi, np.pi, self.n_sectors + 1)
        for sector in range(self.n_sectors):
            low, high = sector_edges[sector], sector_edges[sector + 1]
            mask = (angles >= low) & (angles < high)
            if sector == self.n_sectors - 1:
                mask |= angles == high
            sector_radii = radii[mask]
            if sector_radii.size == 0:
                continue
            angle_centre = 0.5 * (low + high)
            if sector_radii.size < 3 or float(sector_radii.std()) < 1e-9:
                # Too few points for a KDE: one node at the median radius.
                radius = float(np.median(sector_radii))
                positions.append(
                    (
                        centre[0] + radius * np.cos(angle_centre),
                        centre[1] + radius * np.sin(angle_centre),
                    )
                )
                continue
            kde = KernelDensityEstimator(bandwidth="scott").fit(sector_radii.reshape(-1, 1))
            grid, density = kde.evaluate_grid_1d(
                float(sector_radii.min()), float(sector_radii.max()), self.density_grid
            )
            density_range = float(density.max() - density.min())
            prominence = self.min_prominence_fraction * density_range
            maxima = local_maxima_1d(density, min_prominence=prominence)
            if not maxima:
                maxima = [int(np.argmax(density))]
            # Keep the densest maxima first.
            maxima = sorted(maxima, key=lambda idx: -density[idx])[: self.max_nodes_per_sector]
            for idx in maxima:
                radius = float(grid[idx])
                positions.append(
                    (
                        centre[0] + radius * np.cos(angle_centre),
                        centre[1] + radius * np.sin(angle_centre),
                    )
                )
        if not positions:
            raise GraphConstructionError("radial scan produced no nodes")
        return positions

    # ------------------------------------------------------------------ #
    def fit(self, data) -> TimeSeriesGraph:
        """Build and return the transition graph for the dataset ``data``."""
        array = check_array(data, name="data", ndim=2, min_rows=1)
        if self.length >= array.shape[1]:
            raise GraphConstructionError(
                f"subsequence length ({self.length}) must be smaller than the series "
                f"length ({array.shape[1]})"
            )
        subsequences, series_index, _ = subsequences_of_dataset(
            array, self.length, self.stride
        )
        subsequences = znormalize_dataset(subsequences)

        n_components = 2 if subsequences.shape[1] >= 2 else 1
        self.pca_ = PCA(n_components=n_components)
        projection = self.pca_.fit_transform(subsequences)
        if projection.shape[1] == 1:
            projection = np.hstack([projection, np.zeros_like(projection)])
        self.projection_ = projection

        node_positions = np.asarray(self._extract_nodes(projection))
        self.node_positions_ = node_positions

        # Assign every subsequence to its nearest node.
        distances = (
            np.sum(projection**2, axis=1)[:, None]
            - 2.0 * projection @ node_positions.T
            + np.sum(node_positions**2, axis=1)[None, :]
        )
        assignments = np.argmin(distances, axis=1)

        # Drop nodes that attract no subsequence and re-index densely.
        used_nodes = np.unique(assignments)
        if self.vectorized:
            # used_nodes is sorted, so searchsorted is an O(n log k) dense
            # re-index with no Python-level dict round-trip.
            assignments = np.searchsorted(used_nodes, assignments)
        else:
            remap: Dict[int, int] = {old: new for new, old in enumerate(used_nodes)}
            assignments = np.array([remap[a] for a in assignments])
        node_positions = node_positions[used_nodes]

        graph = TimeSeriesGraph(length=self.length, n_series=array.shape[0])
        if self.vectorized:
            self._assemble_vectorized(
                graph, subsequences, assignments, series_index, node_positions
            )
        else:
            self._assemble_reference(
                graph, subsequences, assignments, series_index, node_positions
            )
        return graph

    def _assemble_vectorized(
        self,
        graph: TimeSeriesGraph,
        subsequences: np.ndarray,
        assignments: np.ndarray,
        series_index: np.ndarray,
        node_positions: np.ndarray,
    ) -> None:
        """Bulk NumPy graph assembly (bit-identical to the reference loop)."""
        n_nodes = node_positions.shape[0]
        # Node patterns: grouped mean via one weighted bincount per column.
        # bincount accumulates in subsequence order, matching the sequential
        # row-reduction of members.mean(axis=0) bit for bit.
        counts = np.bincount(assignments, minlength=n_nodes)
        sums = np.empty((n_nodes, subsequences.shape[1]))
        for column in range(subsequences.shape[1]):
            sums[:, column] = np.bincount(
                assignments, weights=subsequences[:, column], minlength=n_nodes
            )
        patterns = sums / counts[:, None]
        for new_id in range(n_nodes):
            graph.add_node(new_id, node_positions[new_id], patterns[new_id])

        graph.add_visits(assignments, series_index)
        # Consecutive subsequences of the same series form transitions.
        same_series = series_index[1:] == series_index[:-1]
        graph.add_transitions(
            assignments[:-1][same_series],
            assignments[1:][same_series],
            series_index[1:][same_series],
        )

    def _assemble_reference(
        self,
        graph: TimeSeriesGraph,
        subsequences: np.ndarray,
        assignments: np.ndarray,
        series_index: np.ndarray,
        node_positions: np.ndarray,
    ) -> None:
        """Original per-subsequence recording loop.

        Retained as the reference implementation the vectorized assembly is
        benchmarked and equivalence-tested against (E13).
        """
        for new_id in range(node_positions.shape[0]):
            members = subsequences[assignments == new_id]
            pattern = members.mean(axis=0) if members.shape[0] else np.zeros(self.length)
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


def build_graph(
    data,
    length: int,
    *,
    stride: int = 1,
    n_sectors: int = 24,
    random_state=None,
) -> TimeSeriesGraph:
    """One-call helper: build the transition graph of ``data`` for ``length``."""
    embedding = GraphEmbedding(
        length,
        stride=stride,
        n_sectors=n_sectors,
        random_state=random_state,
    )
    return embedding.fit(data)
