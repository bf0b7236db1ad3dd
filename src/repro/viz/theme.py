"""Colours and sizing shared by every Graphint frame."""

from __future__ import annotations

from dataclasses import dataclass

#: Categorical palette used to colour clusters / true labels (colour-blind safe).
CLUSTER_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#e15759",
    "#76b7b2",
    "#59a14f",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)

#: Colour used for de-emphasised elements (nodes below threshold, grid lines).
NEUTRAL_COLOR = "#c8c8c8"

#: Colour used for highlighted elements (selected node, selected series).
HIGHLIGHT_COLOR = "#d62728"


def color_for_cluster(cluster: int) -> str:
    """Stable colour for a cluster identifier."""
    return CLUSTER_PALETTE[int(cluster) % len(CLUSTER_PALETTE)]


def sequential_color(value: float) -> str:
    """Map a value in [0, 1] to a white -> blue sequential colour (hex)."""
    value = min(max(float(value), 0.0), 1.0)
    # Interpolate between near-white (247) and a saturated blue (#2166ac).
    red = int(247 + (33 - 247) * value)
    green = int(251 + (102 - 251) * value)
    blue = int(255 + (172 - 255) * value)
    return f"#{red:02x}{green:02x}{blue:02x}"


@dataclass(frozen=True)
class Theme:
    """Sizing and typography defaults for the frames."""

    frame_width: int = 960
    panel_width: int = 460
    panel_height: int = 260
    font_family: str = "Helvetica, Arial, sans-serif"
    font_size: int = 12
    title_size: int = 15
    background: str = "#ffffff"
    axis_color: str = "#555555"
    grid_color: str = "#e6e6e6"


DEFAULT_THEME = Theme()
