"""Dashboard assembly: all five frames in one self-contained HTML page.

This replaces the Streamlit multi-page app with a static artifact that can be
opened in any browser (or served by :mod:`repro.viz.server` for widget-style
interactivity via query parameters).
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.benchmark.runner import BenchmarkResult
from repro.exceptions import VisualizationError
from repro.viz.frames import build_benchmark_frame, build_graph_frame
from repro.viz.session import GraphintSession

_STYLE = """
body { font-family: Helvetica, Arial, sans-serif; margin: 0; background: #f4f5f7; color: #222; }
header { background: #1f2a44; color: #fff; padding: 18px 28px; }
header h1 { margin: 0; font-size: 22px; }
header p { margin: 4px 0 0; color: #c7d0e0; font-size: 13px; }
nav { background: #2b3a5e; padding: 8px 28px; }
nav a { color: #dce4f5; margin-right: 18px; text-decoration: none; font-size: 13px; }
main { padding: 20px 28px; }
section.frame { background: #fff; border-radius: 8px; padding: 16px 20px; margin-bottom: 26px;
                box-shadow: 0 1px 3px rgba(0,0,0,0.12); }
section.frame h2 { margin-top: 0; font-size: 18px; color: #1f2a44; }
p.frame-description { color: #555; font-size: 13px; }
div.panel-grid { display: flex; flex-wrap: wrap; gap: 16px; }
div.panel { border: 1px solid #e3e6ec; border-radius: 6px; padding: 10px; background: #fcfcfd; }
div.panel h3 { margin: 0 0 6px; font-size: 14px; color: #33415c; }
p.caption { color: #777; font-size: 11px; margin: 6px 0 0; max-width: 460px; }
table.data-table { border-collapse: collapse; font-size: 12px; }
table.data-table th, table.data-table td { border: 1px solid #d8dce4; padding: 4px 8px; text-align: left; }
table.data-table th { background: #eef1f6; }
footer { padding: 14px 28px; color: #888; font-size: 12px; }
"""


def _page(title: str, subtitle: str, body: str, nav_items: Sequence[str]) -> str:
    nav = "".join(
        f'<a href="#{item}">{html.escape(item.replace("-", " ").title())}</a>' for item in nav_items
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{html.escape(title)}</title>"
        f"<style>{_STYLE}</style></head><body>"
        f"<header><h1>{html.escape(title)}</h1><p>{html.escape(subtitle)}</p></header>"
        f"<nav>{nav}</nav>"
        f"<main>{body}</main>"
        "<footer>Graphint reproduction — graph-based interpretable time series clustering "
        "(k-Graph). Generated offline; all plots are self-contained SVG.</footer>"
        "</body></html>"
    )


def build_dashboard(
    session: GraphintSession,
    *,
    benchmark_results: Optional[Sequence[BenchmarkResult]] = None,
    measure: str = "ari",
    lambda_threshold: Optional[float] = None,
    gamma_threshold: Optional[float] = None,
    selected_node: Optional[int] = None,
    output_path: Optional[Union[str, Path]] = None,
) -> str:
    """Render the full dashboard for one fitted session.

    Only the benchmark and graph frames are rendered per call.  The other
    three frames and the graph layout depend on the session alone and come
    from it, rendered on the session's first page
    (:meth:`GraphintSession.static_frames`,
    :meth:`GraphintSession.graph_layout`).

    Parameters
    ----------
    session:
        A fitted :class:`GraphintSession` (``fit()`` is called if needed).
    benchmark_results:
        Optional pre-computed benchmark campaign; when omitted the Benchmark
        frame is skipped (it is the only frame needing multi-dataset data).
    measure, lambda_threshold, gamma_threshold, selected_node:
        Widget values forwarded to the frames.
    output_path:
        When given, the HTML is also written to this file.

    Returns
    -------
    The dashboard HTML as a string.
    """
    session.fit()
    session.build_quizzes()

    head, *tail = session.static_frames()
    frames = []
    if benchmark_results:
        frames.append(build_benchmark_frame(benchmark_results, measure=measure))
    frames.append(
        build_graph_frame(
            session.kgraph,
            session.dataset,
            positions=session.graph_layout(),
            lambda_threshold=lambda_threshold,
            gamma_threshold=gamma_threshold,
            selected_node=selected_node,
        )
    )
    sections = [head, *((frame.frame_id, frame.to_html()) for frame in frames), *tail]

    body = "\n".join(text for _, text in sections)
    summary = session.summary()
    subtitle = (
        f"dataset: {session.dataset.name} | {session.dataset.n_series} series x "
        f"{session.dataset.length} points | k = {session.n_clusters} | "
        f"k-Graph ARI = {summary['ari']['kgraph']:.3f}"
    )
    page = _page("Graphint", subtitle, body, [frame_id for frame_id, _ in sections])

    if output_path is not None:
        path = Path(output_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(page, encoding="utf-8")
    if not page.strip():
        raise VisualizationError("dashboard rendering produced an empty page")
    return page
