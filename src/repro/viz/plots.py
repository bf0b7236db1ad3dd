"""Plot types used by the Graphint frames, rendered as SVG strings.

Each function returns a complete ``<svg>`` element.  The plots cover what
the five frames need: time series line plots (clustering comparison),
multi-series grids, box plots (benchmark frame), heatmaps (feature and
consensus matrices), bar charts (node exclusivity/representativity) and
curve comparisons (W_c / W_e against the subsequence length).
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import VisualizationError
from repro.utils.validation import check_array
from repro.viz.svg import SVGCanvas
from repro.viz.theme import DEFAULT_THEME, color_for_cluster, sequential_color

Margins = Tuple[float, float, float, float]  # top, right, bottom, left
_DEFAULT_MARGINS: Margins = (30.0, 15.0, 30.0, 45.0)


class _Axes:
    """Maps data coordinates to pixel coordinates inside a margin box."""

    def __init__(
        self,
        canvas: SVGCanvas,
        x_range: Tuple[float, float],
        y_range: Tuple[float, float],
        margins: Margins = _DEFAULT_MARGINS,
    ) -> None:
        self.canvas = canvas
        top, right, bottom, left = margins
        self.left = left
        self.top = top
        self.plot_width = canvas.width - left - right
        self.plot_height = canvas.height - top - bottom
        if self.plot_width <= 0 or self.plot_height <= 0:
            raise VisualizationError("canvas too small for the requested margins")
        x_min, x_max = x_range
        y_min, y_max = y_range
        if x_max <= x_min:
            x_max = x_min + 1.0
        if y_max <= y_min:
            y_max = y_min + 1.0
        self.x_min, self.x_max = float(x_min), float(x_max)
        self.y_min, self.y_max = float(y_min), float(y_max)

    def x(self, value: float) -> float:
        """Pixel x for a data x."""
        fraction = (float(value) - self.x_min) / (self.x_max - self.x_min)
        return self.left + fraction * self.plot_width

    def y(self, value: float) -> float:
        """Pixel y for a data y (flipped: larger values are higher)."""
        fraction = (float(value) - self.y_min) / (self.y_max - self.y_min)
        return self.top + (1.0 - fraction) * self.plot_height

    def draw_frame(self, x_label: str = "", y_label: str = "", title: str = "") -> None:
        """Draw the axes box, tick labels and captions."""
        theme = DEFAULT_THEME
        canvas = self.canvas
        canvas.rect(
            self.left,
            self.top,
            self.plot_width,
            self.plot_height,
            fill="none",
            stroke=theme.axis_color,
            stroke_width=1.0,
        )
        for fraction in (0.0, 0.5, 1.0):
            x_value = self.x_min + fraction * (self.x_max - self.x_min)
            y_value = self.y_min + fraction * (self.y_max - self.y_min)
            canvas.text(
                self.x(x_value),
                self.top + self.plot_height + 14,
                f"{x_value:.3g}",
                size=theme.font_size - 2,
                anchor="middle",
                fill=theme.axis_color,
            )
            canvas.text(
                self.left - 6,
                self.y(y_value) + 4,
                f"{y_value:.3g}",
                size=theme.font_size - 2,
                anchor="end",
                fill=theme.axis_color,
            )
        if title:
            canvas.text(
                self.left + self.plot_width / 2,
                self.top - 10,
                title,
                size=theme.title_size,
                anchor="middle",
                bold=True,
            )
        if x_label:
            canvas.text(
                self.left + self.plot_width / 2,
                self.top + self.plot_height + 26,
                x_label,
                size=theme.font_size,
                anchor="middle",
                fill=theme.axis_color,
            )
        if y_label:
            canvas.text(
                14,
                self.top + self.plot_height / 2,
                y_label,
                size=theme.font_size,
                anchor="middle",
                fill=theme.axis_color,
                rotate=-90,
            )


# --------------------------------------------------------------------------- #
def line_plot(
    series: Sequence[Sequence[float]],
    *,
    labels: Optional[Sequence[int]] = None,
    highlight: Optional[Sequence[Tuple[int, int, int]]] = None,
    width: int = 460,
    height: int = 240,
    title: str = "",
    x_label: str = "time",
    y_label: str = "value",
) -> str:
    """Overlayed line plot of one or more series, coloured by ``labels``.

    ``highlight`` lists ``(series_index, start, end)`` ranges drawn thicker in
    the highlight colour (used to show the subsequences captured by a node).
    """
    rows = [np.asarray(s, dtype=float) for s in series]
    if not rows:
        raise VisualizationError("line_plot needs at least one series")
    x_max = max(row.shape[0] for row in rows) - 1
    y_min = min(float(row.min()) for row in rows)
    y_max = max(float(row.max()) for row in rows)

    canvas = SVGCanvas(width, height, background=DEFAULT_THEME.background)
    axes = _Axes(canvas, (0, max(x_max, 1)), (y_min, y_max))
    axes.draw_frame(x_label, y_label, title)

    for index, row in enumerate(rows):
        color = color_for_cluster(labels[index]) if labels is not None else "#4e79a7"
        points = [(axes.x(i), axes.y(v)) for i, v in enumerate(row)]
        if len(points) >= 2:
            canvas.polyline(points, stroke=color, stroke_width=1.1, opacity=0.85)
    if highlight:
        for series_index, start, end in highlight:
            if series_index >= len(rows):
                continue
            row = rows[series_index]
            start = max(0, int(start))
            end = min(row.shape[0], int(end))
            if end - start < 2:
                continue
            points = [(axes.x(i), axes.y(row[i])) for i in range(start, end)]
            canvas.polyline(points, stroke="#d62728", stroke_width=2.6, opacity=0.95)
    return canvas.to_svg()


def series_grid(
    data,
    labels,
    *,
    colors: Optional[Sequence[int]] = None,
    width: int = 460,
    height: int = 240,
    title: str = "",
) -> str:
    """Small-multiple view: one panel per cluster, series coloured by ``colors``.

    This is the layout of the Clustering-comparison frame: panels are the
    *predicted* clusters while colours encode the *true* labels, so mixed
    colours inside a panel reveal clustering errors at a glance.

    Each panel is drawn in bulk: one NumPy expression gives the pixel y of
    every point of the panel's series, and :meth:`SVGCanvas.polylines`
    formats the shared x coordinates once.  The arithmetic is the same
    per-point formula, element by element, so the SVG is byte-identical to
    drawing each point on its own (the oracle in ``tests/oracles/plots.py``).
    """
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
    length = array.shape[1]
    x_values = [40 + (width - 50) * i / max(length - 1, 1) for i in range(length)]
    # How far below a panel's top each point sits, as a share of the panel.
    depth = 1.0 - (array - y_min) / max(y_max - y_min, 1e-9)
    for panel_index, cluster in enumerate(clusters):
        top = 22 + panel_index * panel_height
        members = np.flatnonzero(labels == cluster)
        canvas.text(6, top + 12, f"cluster {cluster} ({members.size})", size=10, fill="#555555")
        canvas.polylines(
            x_values,
            (top + 4 + (panel_height - 10) * depth[members]).tolist(),
            [color_for_cluster(int(color_source[member])) for member in members],
            stroke_width=0.8,
            opacity=0.75,
        )
    return canvas.to_svg()


def box_plot(
    groups: Dict[str, Sequence[float]],
    *,
    width: int = 940,
    height: int = 320,
    title: str = "",
    y_label: str = "score",
    highlight: Optional[str] = None,
) -> str:
    """Box plot of one distribution per named group (the Benchmark frame plot)."""
    if not groups:
        raise VisualizationError("box_plot needs at least one group")
    names = list(groups)
    values = {name: np.asarray(list(groups[name]), dtype=float) for name in names}
    for name, array in values.items():
        if array.size == 0:
            raise VisualizationError(f"group {name!r} is empty")
    y_min = min(float(v.min()) for v in values.values())
    y_max = max(float(v.max()) for v in values.values())

    canvas = SVGCanvas(width, height, background=DEFAULT_THEME.background)
    axes = _Axes(canvas, (0, len(names)), (min(y_min, 0.0), max(y_max, 1.0)), (30, 15, 70, 45))
    axes.draw_frame("", y_label, title)

    slot = axes.plot_width / len(names)
    for index, name in enumerate(names):
        array = values[name]
        q1, median, q3 = np.percentile(array, [25, 50, 75])
        low, high = float(array.min()), float(array.max())
        centre = axes.left + slot * (index + 0.5)
        half = min(slot * 0.3, 22.0)
        color = "#d62728" if highlight is not None and name == highlight else "#4e79a7"

        canvas.line(centre, axes.y(low), centre, axes.y(high), stroke="#666666")
        canvas.rect(
            centre - half,
            axes.y(q3),
            2 * half,
            max(axes.y(q1) - axes.y(q3), 1.0),
            fill=color,
            opacity=0.55,
            stroke="#333333",
            tooltip=f"{name}: median={median:.3f}",
        )
        canvas.line(centre - half, axes.y(median), centre + half, axes.y(median), stroke="#111111", stroke_width=1.6)
        canvas.text(
            centre,
            axes.top + axes.plot_height + 12,
            name,
            size=9,
            anchor="end",
            rotate=-35,
            fill="#333333",
        )
    return canvas.to_svg()


def _block_means(values: np.ndarray, target: int) -> np.ndarray:
    """Means of ``values`` over at most ``target`` blocks per axis.

    Each output cell is bit-identical to ``block.mean()`` of its block.
    When every row is its own bin (at most ``target`` rows, as for every
    dashboard dataset), one ``mean(axis=1)`` per column bin reduces each row
    of the bin exactly as ``block.mean()`` reduces the 1-row block: the same
    contiguous values, summed pairwise, divided by the same count.
    Two-dimensional blocks keep one ``block.mean()`` each.
    """
    n_rows, n_cols = values.shape
    if n_rows <= target and n_cols <= target:
        return values
    col_edges = np.linspace(0, n_cols, min(n_cols, target) + 1).astype(int).tolist()
    col_bins = list(zip(col_edges[:-1], col_edges[1:]))
    if n_rows <= target:
        return np.column_stack([values[:, c0:c1].mean(axis=1) for c0, c1 in col_bins])
    row_edges = np.linspace(0, n_rows, min(n_rows, target) + 1).astype(int).tolist()
    output = np.zeros((len(row_edges) - 1, len(col_bins)))
    for i, (r0, r1) in enumerate(zip(row_edges[:-1], row_edges[1:])):
        for j, (c0, c1) in enumerate(col_bins):
            output[i, j] = values[r0:r1, c0:c1].mean()
    return output


def _png(pixels: np.ndarray) -> bytes:
    """An 8-bit RGB PNG of a ``(rows, columns, 3)`` uint8 array.

    Built from the PNG specification (https://www.w3.org/TR/png/) with the
    standard library: a signature, then IHDR, one IDAT holding every
    scanline behind filter type 0 (none) as one zlib stream, and IEND, each
    chunk closed by the CRC-32 of its type and data.
    """
    rows, columns, _ = pixels.shape
    scanlines = np.zeros((rows, 1 + 3 * columns), dtype=np.uint8)
    scanlines[:, 1:] = pixels.reshape(rows, 3 * columns)
    chunks = (
        (b"IHDR", struct.pack(">IIBBBBB", columns, rows, 8, 2, 0, 0, 0)),
        (b"IDAT", zlib.compress(scanlines.tobytes())),
        (b"IEND", b""),
    )
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        struct.pack(">I", len(data)) + kind + data + struct.pack(">I", zlib.crc32(kind + data))
        for kind, data in chunks
    )


def heatmap(
    matrix,
    *,
    width: int = 420,
    height: int = 380,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    max_cells: int = 200,
) -> str:
    """Heatmap of a matrix (consensus matrix, feature matrix).

    Matrices larger than ``max_cells`` along an axis are downsampled by block
    averaging so the image stays small while preserving the visual structure.

    The cells are one PNG image with one pixel per cell, stretched over the
    plot box.  Block means are exact (see :func:`_block_means`), and each
    *distinct* normalised value goes through :func:`sequential_color` once.
    Every pixel has the colour the per-cell oracle in
    ``tests/oracles/plots.py`` gives its cell, and the rest of the SVG
    (frame, title, labels) equals the oracle's byte for byte.
    """
    array = check_array(matrix, name="matrix", ndim=2, allow_nan=False)
    array = _block_means(array, max_cells)
    minimum, maximum = float(array.min()), float(array.max())
    span = maximum - minimum if maximum > minimum else 1.0
    distinct, codes = np.unique((array - minimum) / span, return_inverse=True)
    palette = np.frombuffer(
        bytes.fromhex("".join(sequential_color(value)[1:] for value in distinct.tolist())),
        dtype=np.uint8,
    ).reshape(-1, 3)

    canvas = SVGCanvas(width, height, background=DEFAULT_THEME.background)
    top, right, bottom, left = (36.0, 14.0, 30.0, 40.0)
    plot_width = width - left - right
    plot_height = height - top - bottom
    canvas.image(left, top, plot_width, plot_height, _png(palette[codes.reshape(array.shape)]))
    canvas.rect(left, top, plot_width, plot_height, fill="none", stroke="#555555")
    if title:
        canvas.text(width / 2, 20, title, size=DEFAULT_THEME.title_size, anchor="middle", bold=True)
    if x_label:
        canvas.text(left + plot_width / 2, height - 8, x_label, size=11, anchor="middle", fill="#555555")
    if y_label:
        canvas.text(14, top + plot_height / 2, y_label, size=11, anchor="middle", rotate=-90, fill="#555555")
    return canvas.to_svg()


def bar_chart(
    values: Dict[str, float],
    *,
    width: int = 420,
    height: int = 220,
    title: str = "",
    y_label: str = "",
    colors: Optional[Dict[str, str]] = None,
) -> str:
    """Vertical bar chart (node exclusivity / representativity per cluster)."""
    if not values:
        raise VisualizationError("bar_chart needs at least one value")
    names = list(values)
    heights = np.array([float(values[name]) for name in names])
    canvas = SVGCanvas(width, height, background=DEFAULT_THEME.background)
    axes = _Axes(canvas, (0, len(names)), (min(0.0, float(heights.min())), max(1.0, float(heights.max()))), (30, 15, 44, 45))
    axes.draw_frame("", y_label, title)
    slot = axes.plot_width / len(names)
    for index, name in enumerate(names):
        value = heights[index]
        color = (colors or {}).get(name, color_for_cluster(index))
        x_position = axes.left + slot * index + slot * 0.15
        canvas.rect(
            x_position,
            axes.y(max(value, 0.0)),
            slot * 0.7,
            abs(axes.y(0.0) - axes.y(value)),
            fill=color,
            opacity=0.8,
            stroke="#333333",
            tooltip=f"{name}: {value:.3f}",
        )
        canvas.text(
            axes.left + slot * (index + 0.5),
            axes.top + axes.plot_height + 14,
            name,
            size=9,
            anchor="middle",
            fill="#333333",
        )
    return canvas.to_svg()


def curve_comparison(
    x_values: Sequence[float],
    curves: Dict[str, Sequence[float]],
    *,
    width: int = 460,
    height: int = 260,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    marker: Optional[float] = None,
) -> str:
    """Several named curves over the same x grid (W_c / W_e vs length plot).

    ``marker`` draws a dashed vertical line (the selected length ¯ℓ).
    """
    if not curves:
        raise VisualizationError("curve_comparison needs at least one curve")
    x_array = np.asarray(list(x_values), dtype=float)
    all_values = np.concatenate([np.asarray(list(c), dtype=float) for c in curves.values()])
    canvas = SVGCanvas(width, height, background=DEFAULT_THEME.background)
    axes = _Axes(
        canvas,
        (float(x_array.min()), float(x_array.max())),
        (min(0.0, float(all_values.min())), max(1.0, float(all_values.max()))),
    )
    axes.draw_frame(x_label, y_label, title)
    for index, (name, values) in enumerate(curves.items()):
        y_array = np.asarray(list(values), dtype=float)
        if y_array.shape[0] != x_array.shape[0]:
            raise VisualizationError(f"curve {name!r} length does not match x_values")
        color = color_for_cluster(index)
        points = [(axes.x(x), axes.y(y)) for x, y in zip(x_array, y_array)]
        if len(points) >= 2:
            canvas.polyline(points, stroke=color, stroke_width=2.0)
        else:
            canvas.circle(points[0][0], points[0][1], 3.0, fill=color)
        for x, y in zip(x_array, y_array):
            canvas.circle(axes.x(x), axes.y(y), 2.6, fill=color)
        canvas.text(axes.left + axes.plot_width - 4, axes.top + 14 + 14 * index, name, size=11, anchor="end", fill=color)
    if marker is not None:
        canvas.line(axes.x(marker), axes.top, axes.x(marker), axes.top + axes.plot_height, stroke="#d62728", dashed=True, stroke_width=1.6)
    return canvas.to_svg()
