"""Reference heatmap and series grid for :mod:`repro.viz.plots`.

The library draws a heatmap's cells as one PNG image (block means per
column bin, one colour per distinct value) and a series grid's polylines in
bulk (every coordinate formatted once).  These oracles draw the same plots
one block, one cell and one point at a time through :meth:`SVGCanvas.rect`
and :meth:`SVGCanvas.polyline`.  The equivalence tests require each pixel
of the library's heatmap image to have its oracle cell's fill and the rest
of the heatmap SVG to equal the oracle's byte for byte, and the two series
grid SVG strings to be equal byte for byte.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.exceptions import VisualizationError
from repro.utils.validation import check_array
from repro.viz.svg import SVGCanvas
from repro.viz.theme import DEFAULT_THEME, color_for_cluster, sequential_color


def downsample_reference(values: np.ndarray, target: int) -> np.ndarray:
    """Block means of ``values`` on at most ``target`` bins per axis, one block at a time."""
    if values.shape[0] <= target and values.shape[1] <= target:
        return values
    row_bins = min(values.shape[0], target)
    col_bins = min(values.shape[1], target)
    row_edges = np.linspace(0, values.shape[0], row_bins + 1).astype(int)
    col_edges = np.linspace(0, values.shape[1], col_bins + 1).astype(int)
    output = np.zeros((row_bins, col_bins))
    for i in range(row_bins):
        for j in range(col_bins):
            block = values[row_edges[i]: row_edges[i + 1], col_edges[j]: col_edges[j + 1]]
            output[i, j] = block.mean() if block.size else 0.0
    return output


def heatmap_reference(
    matrix,
    *,
    width: int = 420,
    height: int = 380,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    max_cells: int = 200,
) -> str:
    """:func:`repro.viz.plots.heatmap`, one ``rect`` call per cell."""
    array = check_array(matrix, name="matrix", ndim=2, allow_nan=False)
    array = downsample_reference(array, max_cells)
    minimum, maximum = float(array.min()), float(array.max())
    span = maximum - minimum if maximum > minimum else 1.0

    canvas = SVGCanvas(width, height, background=DEFAULT_THEME.background)
    top, right, bottom, left = (36.0, 14.0, 30.0, 40.0)
    plot_width = width - left - right
    plot_height = height - top - bottom
    cell_width = plot_width / array.shape[1]
    cell_height = plot_height / array.shape[0]
    for i in range(array.shape[0]):
        for j in range(array.shape[1]):
            value = (array[i, j] - minimum) / span
            canvas.rect(
                left + j * cell_width,
                top + i * cell_height,
                cell_width + 0.5,
                cell_height + 0.5,
                fill=sequential_color(value),
                stroke="none",
            )
    canvas.rect(left, top, plot_width, plot_height, fill="none", stroke="#555555")
    if title:
        canvas.text(width / 2, 20, title, size=DEFAULT_THEME.title_size, anchor="middle", bold=True)
    if x_label:
        canvas.text(left + plot_width / 2, height - 8, x_label, size=11, anchor="middle", fill="#555555")
    if y_label:
        canvas.text(14, top + plot_height / 2, y_label, size=11, anchor="middle", rotate=-90, fill="#555555")
    return canvas.to_svg()


def series_grid_reference(
    data,
    labels,
    *,
    colors: Optional[Sequence[int]] = None,
    width: int = 460,
    height: int = 240,
    title: str = "",
) -> str:
    """:func:`repro.viz.plots.series_grid`, one point tuple at a time."""
    array = check_array(data, name="data", ndim=2)
    labels = np.asarray(labels, dtype=int)
    if labels.shape[0] != array.shape[0]:
        raise VisualizationError("labels length does not match the number of series")
    color_source = np.asarray(colors, dtype=int) if colors is not None else labels

    clusters = sorted(np.unique(labels).tolist())
    n_panels = len(clusters)
    canvas = SVGCanvas(width, height, background=DEFAULT_THEME.background)
    if title:
        canvas.text(width / 2, 16, title, size=DEFAULT_THEME.title_size, anchor="middle", bold=True)
    panel_height = (height - 26) / max(n_panels, 1)
    y_min, y_max = float(array.min()), float(array.max())
    for panel_index, cluster in enumerate(clusters):
        top = 22 + panel_index * panel_height
        members = np.flatnonzero(labels == cluster)
        canvas.text(6, top + 12, f"cluster {cluster} ({members.size})", size=10, fill="#555555")
        for member in members:
            row = array[member]
            points = [
                (
                    40 + (width - 50) * i / max(row.shape[0] - 1, 1),
                    top + 4 + (panel_height - 10)
                    * (1.0 - (row[i] - y_min) / max(y_max - y_min, 1e-9)),
                )
                for i in range(row.shape[0])
            ]
            canvas.polyline(
                points,
                stroke=color_for_cluster(int(color_source[member])),
                stroke_width=0.8,
                opacity=0.75,
            )
    return canvas.to_svg()
