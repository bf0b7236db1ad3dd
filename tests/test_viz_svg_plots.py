"""Unit tests for the SVG canvas and the plot functions."""

import base64
import re
import struct
import zlib

import numpy as np
import pytest
from oracles.plots import downsample_reference, heatmap_reference, series_grid_reference

from repro.exceptions import ValidationError, VisualizationError
from repro.viz.plots import (
    _block_means,
    bar_chart,
    box_plot,
    curve_comparison,
    heatmap,
    line_plot,
    series_grid,
)
from repro.utils.validation import check_array
from repro.viz.svg import SVGCanvas
from repro.viz.theme import CLUSTER_PALETTE, color_for_cluster, sequential_color


def _is_svg(text: str) -> bool:
    return text.startswith("<svg") and text.rstrip().endswith("</svg>")


class TestSVGCanvas:
    def test_empty_canvas_serialises(self):
        canvas = SVGCanvas(100, 50)
        svg = canvas.to_svg()
        assert _is_svg(svg)
        assert 'width="100"' in svg and 'height="50"' in svg

    def test_primitives_appear_in_output(self):
        canvas = SVGCanvas(200, 200, background="#ffffff")
        canvas.rect(10, 10, 50, 20, fill="#ff0000", tooltip="a box")
        canvas.line(0, 0, 100, 100, dashed=True)
        canvas.polyline([(0, 0), (10, 5), (20, 0)], stroke="#00ff00")
        canvas.circle(50, 50, 5, tooltip="a node")
        canvas.text(5, 5, "hello <world>")
        canvas.arrow(0, 0, 30, 30)
        svg = canvas.to_svg()
        for tag in ("<rect", "<line", "<polyline", "<circle", "<text"):
            assert tag in svg
        assert "stroke-dasharray" in svg
        assert "&lt;world&gt;" in svg  # text is escaped
        assert "<title>a node</title>" in svg

    def test_invalid_dimensions(self):
        with pytest.raises(VisualizationError):
            SVGCanvas(0, 10)

    def test_polyline_needs_two_points(self):
        canvas = SVGCanvas(10, 10)
        with pytest.raises(VisualizationError):
            canvas.polyline([(1, 1)])


class TestTheme:
    def test_cluster_colors_cycle(self):
        assert color_for_cluster(0) == CLUSTER_PALETTE[0]
        assert color_for_cluster(len(CLUSTER_PALETTE)) == CLUSTER_PALETTE[0]

    def test_sequential_color_range(self):
        for value in (-1.0, 0.0, 0.5, 1.0, 2.0):
            color = sequential_color(value)
            assert color.startswith("#") and len(color) == 7


class TestPlots:
    def test_line_plot(self, rng):
        svg = line_plot([rng.normal(size=50), rng.normal(size=50)], labels=[0, 1], title="demo")
        assert _is_svg(svg)
        assert "demo" in svg

    def test_line_plot_highlight(self, rng):
        svg = line_plot([rng.normal(size=60)], highlight=[(0, 10, 30)])
        assert _is_svg(svg)
        assert "#d62728" in svg  # highlight colour present

    def test_line_plot_empty_rejected(self):
        with pytest.raises(VisualizationError):
            line_plot([])

    def test_series_grid(self, small_dataset):
        svg = series_grid(small_dataset.data, small_dataset.labels, title="clusters")
        assert _is_svg(svg)
        # One panel label per cluster.
        for cluster in np.unique(small_dataset.labels):
            assert f"cluster {cluster}" in svg

    def test_series_grid_label_mismatch(self, small_dataset):
        with pytest.raises(VisualizationError):
            series_grid(small_dataset.data, small_dataset.labels[:-1])

    def test_box_plot(self, rng):
        groups = {f"method_{i}": rng.normal(0.5, 0.1, 20).tolist() for i in range(4)}
        svg = box_plot(groups, title="ARI", highlight="method_2")
        assert _is_svg(svg)
        assert "method_3" in svg

    def test_box_plot_empty_group(self):
        with pytest.raises(VisualizationError):
            box_plot({"a": []})

    def test_heatmap_small_and_downsampled(self, rng):
        small = heatmap(rng.normal(size=(10, 12)), title="matrix")
        assert _is_svg(small)
        large = heatmap(rng.normal(size=(300, 500)), max_cells=50)
        assert _is_svg(large)
        # Downsampling keeps the SVG compact.
        assert len(large) < 1_000_000

    def test_bar_chart(self):
        svg = bar_chart({"cluster 0": 0.8, "cluster 1": 0.3}, title="exclusivity")
        assert _is_svg(svg)
        assert "exclusivity" in svg

    def test_bar_chart_empty(self):
        with pytest.raises(VisualizationError):
            bar_chart({})

    def test_curve_comparison_with_marker(self):
        svg = curve_comparison(
            [8, 16, 32],
            {"W_c": [0.5, 0.9, 0.7], "W_e": [0.3, 0.4, 0.6]},
            marker=16.0,
            title="length selection",
        )
        assert _is_svg(svg)
        assert "W_c" in svg and "W_e" in svg

    def test_curve_length_mismatch(self):
        with pytest.raises(VisualizationError):
            curve_comparison([1, 2, 3], {"a": [0.1, 0.2]})


def _feature_like(generator: np.random.Generator, n_series: int, n_features: int) -> np.ndarray:
    """Row-normalised crossing counts, like a k-Graph feature matrix."""
    counts = generator.integers(0, 4, size=(n_series, n_features)).astype(float)
    return counts / np.maximum(counts.sum(axis=1, keepdims=True), 1.0)


def _consensus_like(n_series: int) -> np.ndarray:
    """Co-association fractions of 4 partitions, in label order."""
    groups = np.repeat(np.arange(3), n_series // 3 + 1)[:n_series]
    together = (groups[:, None] == groups[None, :]).astype(float)
    together[: n_series // 4, -n_series // 4:] = 0.25
    return together


_HEATMAP_CASES = {
    "feature_like": lambda g: _feature_like(g, 40, 450),
    "consensus_like": lambda g: _consensus_like(60),
    "normal_column_bins": lambda g: g.normal(size=(80, 450)),
    "integer_counts": lambda g: g.integers(0, 9, size=(30, 500)),
    "constant": lambda g: np.full((12, 300), 0.7),
    "one_by_one": lambda g: np.array([[3.5]]),
    "one_row": lambda g: g.normal(size=(1, 999)),
    "one_column": lambda g: g.normal(size=(7, 1)),
    "tall_column": lambda g: g.normal(size=(201, 3)),
    "scaled": lambda g: 1e6 * g.normal(size=(20, 333)) + 3.0,
}


_IMAGE = re.compile(
    r'<image x="(?P<x>[^"]*)" y="(?P<y>[^"]*)" width="(?P<width>[^"]*)" '
    r'height="(?P<height>[^"]*)" preserveAspectRatio="none" '
    r'style="image-rendering: pixelated" href="data:image/png;base64,(?P<png>[A-Za-z0-9+/=]+)"/>'
)
_BOX = re.compile(r'<rect x="([^"]*)" y="([^"]*)" width="([^"]*)" height="([^"]*)" ')


def _decode_png(data: bytes) -> np.ndarray:
    """The (rows, columns, 3) pixels of an 8-bit RGB PNG, checking its chunks.

    Requires the signature, chunks IHDR, IDAT, IEND with valid CRC-32s, and
    filter type 0 on every scanline (the only filter the library writes).
    """
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    chunks, offset = [], 8
    while offset < len(data):
        (length,) = struct.unpack(">I", data[offset: offset + 4])
        kind = data[offset + 4: offset + 8]
        body = data[offset + 8: offset + 8 + length]
        (crc,) = struct.unpack(">I", data[offset + 8 + length: offset + 12 + length])
        assert crc == zlib.crc32(kind + body), kind
        chunks.append((kind, body))
        offset += 12 + length
    assert offset == len(data)
    assert [kind for kind, _ in chunks] == [b"IHDR", b"IDAT", b"IEND"]
    columns, rows, depth, color_type, *methods = struct.unpack(">IIBBBBB", chunks[0][1])
    assert (depth, color_type, methods) == (8, 2, [0, 0, 0])  # 8-bit RGB, no interlace
    scanlines = np.frombuffer(zlib.decompress(chunks[1][1]), dtype=np.uint8)
    scanlines = scanlines.reshape(rows, 1 + 3 * columns)
    assert not scanlines[:, 0].any()
    return scanlines[:, 1:].reshape(rows, columns, 3)


def _assert_heatmap_matches_oracle(matrix, **kwargs) -> None:
    """The library's heatmap shows the oracle's per-cell colours, one pixel each.

    The oracle draws one ``<rect>`` per cell; the library draws one
    ``<image>`` in their place.  The PNG must hold one pixel per cell with
    that cell's fill, the image must cover the plot frame, and every other
    element (background, frame, title, labels) must equal the oracle's.
    """
    shape = downsample_reference(
        check_array(matrix, name="matrix", ndim=2), kwargs.get("max_cells", 200)
    ).shape
    library = heatmap(matrix, **kwargs).split("\n")
    oracle = heatmap_reference(matrix, **kwargs).split("\n")
    cells = oracle[2: 2 + shape[0] * shape[1]]
    assert library[:2] + library[3:] == oracle[:2] + oracle[2 + len(cells):]
    image = _IMAGE.fullmatch(library[2])
    assert image is not None, library[2][:200]
    frame = _BOX.match(library[3]).groups()
    assert (image["x"], image["y"], image["width"], image["height"]) == frame
    fills = "".join(re.search(r'fill="#([0-9a-f]{6})"', cell).group(1) for cell in cells)
    expected = np.frombuffer(bytes.fromhex(fills), dtype=np.uint8).reshape(*shape, 3)
    pixels = _decode_png(base64.b64decode(image["png"], validate=True))
    assert pixels.shape == expected.shape
    assert np.array_equal(pixels, expected)


class TestBulkPlotsMatchOracles:
    """The bulk heatmap and series grid draw what the oracles draw."""

    @pytest.mark.parametrize("case", sorted(_HEATMAP_CASES))
    def test_heatmap(self, case):
        matrix = _HEATMAP_CASES[case](np.random.default_rng(17))
        _assert_heatmap_matches_oracle(matrix, title=case, x_label="features", y_label="series")

    def test_block_means_are_exact(self):
        # A colour rarely moves with the last ulp of a mean, so the bytes
        # alone would not catch inexact means (np.add.reduceat differs from
        # block.mean() in the last ulp on 80x450 normal data).
        values = np.random.default_rng(11).normal(size=(80, 450))
        for target in (200, 60):
            assert _block_means(values, target).tobytes() == downsample_reference(
                values, target
            ).tobytes()

    def test_heatmap_two_dimensional_blocks(self):
        # 250 rows > max_cells, so blocks span several rows and columns.
        matrix = np.random.default_rng(3).normal(size=(250, 300))
        _assert_heatmap_matches_oracle(matrix, max_cells=50)

    def test_heatmap_transposed_input(self):
        # A Fortran-ordered view: block means must not depend on the layout.
        matrix = np.random.default_rng(5).normal(size=(450, 30)).T
        _assert_heatmap_matches_oracle(matrix)

    @pytest.mark.parametrize(
        "n_series, length, n_clusters, with_colors",
        [(12, 64, 1, True), (24, 96, 4, True), (24, 96, 4, False), (9, 2, 3, True)],
    )
    def test_series_grid(self, n_series, length, n_clusters, with_colors):
        generator = np.random.default_rng(n_series * length)
        data = generator.normal(size=(n_series, length)).cumsum(axis=1)
        labels = np.arange(n_series) % n_clusters
        colors = generator.integers(0, 3, size=n_series) if with_colors else None
        assert series_grid(data, labels, colors=colors, title="grid") == series_grid_reference(
            data, labels, colors=colors, title="grid"
        )

    def test_series_grid_constant_dataset(self):
        data = np.full((6, 40), -2.0)
        labels = np.array([0, 1, 0, 1, 2, 2])
        assert series_grid(data, labels) == series_grid_reference(data, labels)

    @pytest.mark.parametrize(
        "plot, args, error",
        [
            ("heatmap", (np.array([[1.0, np.nan]]),), ValidationError),
            ("series_grid", (np.zeros((3, 1)), [0, 1, 0]), VisualizationError),
            ("series_grid", (np.zeros((3, 8)), [0, 1]), VisualizationError),
        ],
    )
    def test_rejected_inputs_stay_rejected(self, plot, args, error):
        library = {"heatmap": heatmap, "series_grid": series_grid}[plot]
        oracle = {"heatmap": heatmap_reference, "series_grid": series_grid_reference}[plot]
        for draw in (library, oracle):
            with pytest.raises(error):
                draw(*args)
