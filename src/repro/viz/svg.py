"""Minimal SVG drawing canvas.

All Graphint plots are rendered to Scalable Vector Graphics strings that can
be embedded directly in HTML.  The canvas exposes the handful of primitives
the plot functions need (lines, polylines, rectangles, circles, text and
embedded PNG images) with data-space -> pixel-space mapping handled by the
plot layer.
"""

from __future__ import annotations

import base64
import html
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import VisualizationError


def _fmt(value: float) -> str:
    """Compact float formatting for SVG attributes."""
    return f"{float(value):.2f}".rstrip("0").rstrip(".")


class SVGCanvas:
    """An append-only SVG document of fixed pixel size.

    Each element kind has one writer.  :meth:`polyline` draws one line;
    :meth:`polylines` draws many with the same markup, formatting the shared
    x coordinates once.

    Parameters
    ----------
    width, height:
        Pixel dimensions of the drawing.
    background:
        Optional background fill colour.
    """

    def __init__(self, width: int, height: int, background: Optional[str] = None) -> None:
        if width <= 0 or height <= 0:
            raise VisualizationError("canvas dimensions must be positive")
        self.width = int(width)
        self.height = int(height)
        self._elements: List[str] = []
        if background:
            self.rect(0, 0, self.width, self.height, fill=background, stroke="none")

    # ------------------------------------------------------------------ #
    def rect(
        self,
        x: float,
        y: float,
        width: float,
        height: float,
        *,
        fill: str = "none",
        stroke: str = "#000000",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
        rx: float = 0.0,
        tooltip: Optional[str] = None,
    ) -> None:
        """Draw a rectangle."""
        title = f"<title>{html.escape(tooltip)}</title>" if tooltip else ""
        self._elements.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(width)}" height="{_fmt(height)}" '
            f'rx="{_fmt(rx)}" fill="{fill}" stroke="{stroke}" stroke-width="{_fmt(stroke_width)}" '
            f'opacity="{_fmt(opacity)}">{title}</rect>'
        )

    def image(self, x: float, y: float, width: float, height: float, png: bytes) -> None:
        """Draw a PNG stretched over a box, each pixel a sharp-edged block.

        The image is embedded as a ``data:`` URI, so the SVG stays
        self-contained; ``preserveAspectRatio="none"`` fills the box exactly
        and ``image-rendering: pixelated`` keeps browsers from blurring the
        upscaled pixels.
        """
        uri = "data:image/png;base64," + base64.b64encode(png).decode("ascii")
        self._elements.append(
            f'<image x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(width)}" height="{_fmt(height)}" '
            f'preserveAspectRatio="none" style="image-rendering: pixelated" href="{uri}"/>'
        )

    def line(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        *,
        stroke: str = "#000000",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
        dashed: bool = False,
    ) -> None:
        """Draw a straight line segment."""
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        self._elements.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}" opacity="{_fmt(opacity)}"{dash}/>'
        )

    def polyline(
        self,
        points: Sequence[Tuple[float, float]],
        *,
        stroke: str = "#000000",
        stroke_width: float = 1.2,
        opacity: float = 1.0,
        fill: str = "none",
    ) -> None:
        """Draw a connected series of points."""
        self.polylines(
            [x for x, _ in points],
            [[y for _, y in points]],
            [stroke],
            stroke_width=stroke_width,
            opacity=opacity,
            fill=fill,
        )

    def polylines(
        self,
        xs: Sequence[float],
        rows: Sequence[Sequence[float]],
        strokes: Sequence[str],
        *,
        stroke_width: float = 1.2,
        opacity: float = 1.0,
        fill: str = "none",
    ) -> None:
        """Draw one polyline per row of y values, all on the x coordinates ``xs``.

        Row ``k`` is stroked with ``strokes[k]``.  The markup equals one
        :meth:`polyline` call per row, but each x is formatted once for all
        rows (the series of a grid panel share their time axis).
        """
        if len(xs) < 2:
            raise VisualizationError("a polyline needs at least two points")
        x_text = [_fmt(x) for x in xs]
        style = f'stroke-width="{_fmt(stroke_width)}" opacity="{_fmt(opacity)}"/>'
        for row, stroke in zip(rows, strokes, strict=True):
            path = " ".join([f"{x},{_fmt(y)}" for x, y in zip(x_text, row, strict=True)])
            self._elements.append(
                f'<polyline points="{path}" fill="{fill}" stroke="{stroke}" {style}'
            )

    def circle(
        self,
        cx: float,
        cy: float,
        radius: float,
        *,
        fill: str = "#000000",
        stroke: str = "none",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
        tooltip: Optional[str] = None,
    ) -> None:
        """Draw a circle (optionally with a hover tooltip)."""
        title = f"<title>{html.escape(tooltip)}</title>" if tooltip else ""
        self._elements.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(radius)}" fill="{fill}" '
            f'stroke="{stroke}" stroke-width="{_fmt(stroke_width)}" opacity="{_fmt(opacity)}">'
            f"{title}</circle>"
        )

    def text(
        self,
        x: float,
        y: float,
        content: str,
        *,
        size: int = 12,
        fill: str = "#222222",
        anchor: str = "start",
        rotate: Optional[float] = None,
        bold: bool = False,
        font_family: str = "Helvetica, Arial, sans-serif",
    ) -> None:
        """Draw a text label."""
        transform = f' transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"' if rotate else ""
        weight = ' font-weight="bold"' if bold else ""
        self._elements.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" fill="{fill}" '
            f'text-anchor="{anchor}" font-family="{font_family}"{weight}{transform}>'
            f"{html.escape(str(content))}</text>"
        )

    def arrow(
        self,
        x1: float,
        y1: float,
        x2: float,
        y2: float,
        *,
        stroke: str = "#888888",
        stroke_width: float = 1.0,
        opacity: float = 1.0,
        head_size: float = 4.0,
    ) -> None:
        """Draw a straight arrow from (x1, y1) to (x2, y2)."""
        import math

        self.line(x1, y1, x2, y2, stroke=stroke, stroke_width=stroke_width, opacity=opacity)
        angle = math.atan2(y2 - y1, x2 - x1)
        for offset in (math.pi / 7, -math.pi / 7):
            hx = x2 - head_size * math.cos(angle + offset)
            hy = y2 - head_size * math.sin(angle + offset)
            self.line(x2, y2, hx, hy, stroke=stroke, stroke_width=stroke_width, opacity=opacity)

    # ------------------------------------------------------------------ #
    def to_svg(self) -> str:
        """Serialise the canvas to a standalone ``<svg>`` element."""
        body = "\n".join(self._elements)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f"{body}\n</svg>"
        )

    def __str__(self) -> str:
        return self.to_svg()
