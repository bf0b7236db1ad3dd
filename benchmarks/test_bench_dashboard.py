"""E10 — Figure 2: the Graphint system overview (dashboard generation).

Builds every frame of the tool for one dataset (the path the Streamlit app
takes when the analyst selects a dataset) and reports generation time and
artifact sizes.  This is the "system" half of the demo: the experiment checks
that the full dashboard — all five frames with every plot — can be produced
end-to-end from a single fitted session.
"""

from __future__ import annotations

import time

import pytest

from bench_utils import RESULTS_DIR, bench_catalogue, format_table, report
from repro.benchmark.runner import BenchmarkRunner
from repro.viz.dashboard import build_dashboard
from repro.viz.session import GraphintSession


def _run_dashboard_build():
    catalogue = bench_catalogue()
    dataset = catalogue.get("cylinder_bell_funnel").generate(random_state=6)

    timings = {}
    start = time.perf_counter()
    session = GraphintSession(dataset, n_lengths=3, random_state=6).fit()
    timings["fit session (k-Graph + k-Means + k-Shape)"] = time.perf_counter() - start

    start = time.perf_counter()
    session.build_quizzes(n_users=3)
    timings["build + answer quizzes"] = time.perf_counter() - start

    start = time.perf_counter()
    results = BenchmarkRunner(
        ["kmeans", "kshape", "featts_like", "gmm", "kgraph"],
        catalogue=catalogue,
        random_state=6,
    ).run(["cylinder_bell_funnel", "trend_classes"])
    timings["small benchmark campaign (Benchmark frame)"] = time.perf_counter() - start

    start = time.perf_counter()
    output_path = RESULTS_DIR / "graphint_dashboard.html"
    page = build_dashboard(session, benchmark_results=results, output_path=output_path)
    timings["render all five frames to HTML"] = time.perf_counter() - start
    return page, timings


@pytest.mark.benchmark(group="E10-dashboard")
def test_bench_dashboard_generation(benchmark):
    page, timings = benchmark.pedantic(_run_dashboard_build, rounds=1, iterations=1)
    rows = [{"step": step, "seconds": seconds} for step, seconds in timings.items()]
    frame_ids = [
        "clustering-comparison",
        "benchmark",
        "graph-frame",
        "interpretability-test",
        "under-the-hood",
    ]
    present = [frame_id for frame_id in frame_ids if f'id="{frame_id}"' in page]
    summary = (
        format_table(rows, ["step", "seconds"])
        + f"\n\ndashboard size: {len(page) / 1024:.0f} KiB, embedded SVG plots: {page.count('<svg')}"
        + f"\nframes present: {', '.join(present)}"
        + f"\nwritten to {(RESULTS_DIR / 'graphint_dashboard.html').relative_to(RESULTS_DIR.parents[1])}"
    )
    report("E10: Dashboard generation (Fig. 2 system overview)", summary)
    benchmark.extra_info["dashboard_kib"] = round(len(page) / 1024)
    benchmark.extra_info["svg_count"] = page.count("<svg")
    assert set(present) == set(frame_ids)
