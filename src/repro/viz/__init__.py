"""Graphint visualisation layer (dependency-free HTML/SVG).

The original demo is a Streamlit + Plotly web application.  Neither is
available in this environment, so the tool is re-implemented as:

* :mod:`repro.viz.svg` / :mod:`repro.viz.plots` — an SVG drawing substrate
  and the plot types the frames need (line, series grid, box plot,
  heatmap, bar chart, curve comparison),
* :mod:`repro.viz.graph_render` — graph drawing with λ/γ colouring,
* :mod:`repro.viz.frames` — one builder per GUI frame (clustering
  comparison, benchmark, graph, interpretability test, under the hood),
* :mod:`repro.viz.dashboard` — assembly of all frames into a single static
  HTML dashboard,
* :mod:`repro.viz.server` — a stdlib HTTP server exposing the dashboard with
  query-parameter interactivity (dataset selection, λ/γ thresholds),
* :mod:`repro.viz.cli` — the ``graphint`` command-line entry point.
"""

from repro.viz.svg import SVGCanvas
from repro.viz.plots import (
    bar_chart,
    box_plot,
    heatmap,
    line_plot,
    series_grid,
)
from repro.viz.graph_render import render_graph
from repro.viz.dashboard import build_dashboard
from repro.viz.theme import CLUSTER_PALETTE, Theme, color_for_cluster

__all__ = [
    "CLUSTER_PALETTE",
    "SVGCanvas",
    "Theme",
    "bar_chart",
    "box_plot",
    "build_dashboard",
    "color_for_cluster",
    "heatmap",
    "line_plot",
    "render_graph",
    "series_grid",
]
