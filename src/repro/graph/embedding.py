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

The stacked subsequences are ℓ times the dataset (252 MB for 500 series of
512 points at ℓ = 204), so they are never built.  :meth:`GraphEmbedding.fit`
makes three passes over blocks of whole series
(:func:`~repro.utils.windows.window_blocks`), each block a fresh copy of a
few MB:

* pass 1 z-normalises each block, keeps every window's mean and scale, and
  adds the block into the column sums and the ℓ×ℓ Gram matrix that give the
  PCA axes (:func:`~repro.linalg.pca.principal_axes`);
* pass 2 rebuilds each block from the kept statistics and projects it;
* after node extraction, pass 3 rebuilds each block once more and adds it
  into the node-pattern sums.

Rebuilt rows are bit-identical to :func:`~repro.utils.normalization.znormalize_dataset`
of the stacked windows, and the pattern sums add rows in subsequence order,
so the patterns equal the per-subsequence means exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.exceptions import GraphConstructionError, ValidationError
from repro.graph.structure import TimeSeriesGraph
from repro.linalg.kde import KernelDensityEstimator, local_maxima_1d
from repro.linalg.pca import principal_axes
from repro.utils import windows
from repro.utils.normalization import apply_znormalization, znormalization_stats
from repro.utils.validation import (
    check_array,
    check_positive_int,
    check_random_state,
)
from repro.utils.windows import subsequence_count, window_blocks


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

    Attributes
    ----------
    projection_:
        The (n_subsequences, 2) PCA projection, rows in the order of
        :func:`~repro.utils.windows.subsequences_of_dataset`.
    node_positions_:
        Positions of every node the radial scan found, including nodes no
        subsequence is nearest to (the graph drops those).
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
        n_series, series_length = array.shape
        if self.length >= series_length:
            raise GraphConstructionError(
                f"subsequence length ({self.length}) must be smaller than the series "
                f"length ({series_length})"
            )
        n_windows = subsequence_count(series_length, self.length, self.stride)
        n_rows = n_series * n_windows
        if n_rows < 2:
            raise ValidationError(f"data must have at least 2 subsequences, got {n_rows}")

        # Pass 1: per-window statistics, column sums and the Gram matrix.
        means, scales = np.empty(n_rows), np.empty(n_rows)
        column_sums = np.zeros(self.length)
        gram = np.zeros((self.length, self.length))
        for rows, block in self._blocks(array, n_windows):
            means[rows], scales[rows] = znormalization_stats(block)
            apply_znormalization(block, means[rows], scales[rows])
            column_sums += block.sum(axis=0)
            gram += block.T @ block
        # Finite data can still overflow while it is normalised; any NaN or
        # infinite window value reaches its column's Gram diagonal.
        if not np.isfinite(gram).all():
            raise ValidationError(
                f"data z-normalises to NaN or infinite subsequences at length "
                f"{self.length}; rescale the data first"
            )
        mean = column_sums / n_rows
        axes = principal_axes(gram - n_rows * np.outer(mean, mean), 2)

        # Pass 2: project the centred subsequences onto the two axes.
        projection = np.empty((n_rows, 2))
        for rows, block in self._blocks(array, n_windows):
            apply_znormalization(block, means[rows], scales[rows])
            block -= mean
            np.matmul(block, axes.T, out=projection[rows])
        self.projection_ = projection

        node_positions = np.asarray(self._extract_nodes(projection))
        self.node_positions_ = node_positions
        assignments = _nearest_nodes(projection, node_positions)
        # Drop nodes that attract no subsequence and re-index densely;
        # used_nodes is sorted, so searchsorted is the dense re-index.
        used_nodes = np.unique(assignments)
        assignments = np.searchsorted(used_nodes, assignments)

        # Pass 3 runs inside _assemble_graph, over freshly rebuilt blocks.
        blocks = (
            apply_znormalization(block, means[rows], scales[rows])
            for rows, block in self._blocks(array, n_windows)
        )
        return self._assemble_graph(
            n_series, blocks, assignments, node_positions[used_nodes]
        )

    def _blocks(self, array: np.ndarray, n_windows: int) -> Iterator[Tuple[slice, np.ndarray]]:
        """Blocks of raw subsequences, each with the slice of its rows."""
        for start, stop, block in window_blocks(array, self.length, self.stride):
            yield slice(start * n_windows, stop * n_windows), block

    def _assemble_graph(
        self,
        n_series: int,
        blocks: Iterable[np.ndarray],
        assignments: np.ndarray,
        node_positions: np.ndarray,
    ) -> TimeSeriesGraph:
        """Build the transition graph from densely numbered node assignments.

        ``blocks`` yields the z-normalised subsequences in order, in blocks
        of whole series; ``assignments`` gives each subsequence's node, so
        reshaped to (n_series, n_windows) it is the graph's trajectories.
        Every node in ``node_positions`` has at least one subsequence.  Node
        patterns are the mean of their subsequences: ``np.add.at`` adds rows
        in subsequence order, the order ``members.mean(axis=0)`` adds them
        in, so the patterns are bit-identical to the per-node means.
        """
        n_nodes = node_positions.shape[0]
        n_windows = assignments.shape[0] // n_series
        sums = np.zeros((n_nodes, self.length))
        start = 0
        for block in blocks:
            stop = start + block.shape[0]
            nodes = assignments[start:stop]
            for column in range(self.length):
                np.add.at(sums[:, column], nodes, block[:, column])
            start = stop
        patterns = sums / np.bincount(assignments, minlength=n_nodes)[:, None]
        return TimeSeriesGraph(
            self.length,
            node_positions,
            patterns,
            assignments.reshape(n_series, n_windows),
        )


def _nearest_nodes(points: np.ndarray, node_positions: np.ndarray) -> np.ndarray:
    """Index of the nearest node for every 2-D point (lowest index on ties).

    The squared distance is computed directly, coordinate by coordinate, so
    each point's answer is independent of the block it is computed in — the
    expanded ``|p|² - 2p·n + |n|²`` form goes through a different BLAS
    kernel for a one-row block and can round differently.
    """
    assignments = np.empty(points.shape[0], dtype=np.intp)
    per_block = max(1, windows.WINDOW_BLOCK_VALUES // node_positions.shape[0])
    for start in range(0, points.shape[0], per_block):
        block = points[start : start + per_block]
        distances = (block[:, 0, None] - node_positions[None, :, 0]) ** 2
        distances += (block[:, 1, None] - node_positions[None, :, 1]) ** 2
        assignments[start : start + per_block] = np.argmin(distances, axis=1)
    return assignments
