"""Which public functions each layer is traced at, and the per-layer metrics.

Layers are named after the ``src/repro`` packages.  A span name is
``<layer>.<what>``, so a layer's self time is the summed self time of the
spans whose name starts with it.  Every per-layer metric is reported on every
workload (0 where the workload never reaches that layer); amounts are per
traced operation (one fit, page request, predict request or grid sweep), as
``trace.ops`` states.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Tuple

from tracer import Tracer

LAYERS = (
    "linalg",
    "graph",
    "core",
    "cluster",
    "pipeline",
    "parallel",
    "serve",
    "viz",
    "interpret",
    "benchmark",
)

STAGES = ("embed", "graph_cluster", "consensus", "length_selection", "interpretability")

#: (metric name, unit, how it is measured) in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"layer.{layer}.self_s", "s", f"self time of {layer} spans") for layer in LAYERS]
    + [
        ("linalg.pca_s", "s", "PCA.fit_transform"),
        ("linalg.kde_s", "s", "KernelDensityEstimator.fit + evaluate_grid_1d"),
        ("graph.embedding_self_s", "s", "GraphEmbedding.fit minus PCA/KDE"),
        ("graph.graphoid_s", "s", "extract_lambda_graphoid + extract_gamma_graphoid"),
        ("graph.layout_s", "s", "force_directed_layout / pca_layout / circular_layout"),
        ("core.graph_clustering_s", "s", "cluster_graph"),
        ("core.consensus_s", "s", "consensus_clustering"),
        ("core.length_selection_s", "s", "interpretability_scores"),
        ("core.predict_batch_ms", "ms", "PredictionState.predict_batch, mean per call"),
        ("cluster.kmeans_s", "s", "KMeans.fit, every caller"),
        ("cluster.kshape_s", "s", "KShape.fit"),
        ("interpret.quiz_s", "s", "GraphintSession.build_quizzes"),
        ("viz.session_fit_s", "s", "GraphintSession.fit"),
        ("viz.frame.clustering_comparison_s", "s", "build_clustering_comparison_frame"),
        ("viz.frame.graph_s", "s", "build_graph_frame"),
        ("viz.frame.interpretability_s", "s", "build_interpretability_frame"),
        ("viz.frame.under_the_hood_s", "s", "build_under_the_hood_frame"),
        ("viz.html_bytes", "bytes", "mean dashboard page size"),
        ("pipeline.fingerprint_s", "s", "repro.pipeline.fingerprint.fingerprint"),
        ("pipeline.fingerprint_calls", "count", "fingerprint calls"),
    ]
    + [
        (f"pipeline.stage.{stage}_s", "s", f"KGraphResult.stage_timings()[{stage!r}]")
        for stage in STAGES
    ]
    + [
        ("pipeline.cache_get_s", "s", "MemoryStageCache.get"),
        ("pipeline.cache_put_s", "s", "MemoryStageCache.put"),
        ("pipeline.stages_cached", "count", "pipeline_report_.cached"),
        ("pipeline.stages_executed", "count", "pipeline_report_.executed"),
        ("pipeline.cached_ratio", "ratio", "stages_cached / (stages_cached + stages_executed)"),
        ("parallel.map_jobs_calls", "count", "ProcessBackend/ThreadBackend.map_jobs calls"),
        ("parallel.map_jobs_s", "s", "ProcessBackend/ThreadBackend.map_jobs wall"),
        (
            "parallel.dispatch_overhead_s",
            "s",
            "map_jobs wall minus worker-reported busy seconds / pool size",
        ),
        ("parallel.bytes_shipped", "bytes", "KGraphResult.bytes_shipped"),
        ("serve.handle_ms", "ms", "ServeApplication.handle_request, mean per request"),
        (
            "serve.queue_wait_ms",
            "ms",
            "InferenceEngine.predict[_many] span minus the predict_batch calls inside it",
        ),
        ("serve.http_ms", "ms", "client latency minus handle_ms, means"),
        ("serve.mean_batch_size", "count", "engine stats from GET /healthz"),
        ("serve.flush_size", "count", "size-triggered flushes in the traced phase"),
        ("serve.flush_timeout", "count", "timer-triggered flushes in the traced phase"),
        ("trace.ops", "count", "traced operations the per-op amounts divide by"),
        ("trace.spans", "count", "spans recorded per operation"),
        ("trace.overhead_pct", "%", "traced minus untraced operation time, over untraced"),
    ]
)


def install(tracer: Tracer, fit_log: List[dict]) -> None:
    """Wrap the public functions every layer metric is read from.

    ``fit_log`` receives the program's own report of every traced
    ``KGraph.fit``: stage timings, worker-side sections, shipped bytes and
    cache replays.
    """
    from repro.benchmark.runner import BenchmarkRunner
    from repro.cluster.kmeans import KMeans
    from repro.cluster.kshape import KShape
    from repro.core import consensus, graph_clustering, interpretability
    from repro.core.kgraph import KGraph, PredictionState
    from repro.graph import graphoid, layout
    from repro.graph.embedding import GraphEmbedding
    from repro.linalg.kde import KernelDensityEstimator
    from repro.linalg.pca import PCA
    from repro.parallel.backends import ProcessBackend, ThreadBackend
    from repro.pipeline.fingerprint import fingerprint
    from repro.pipeline.cache import MemoryStageCache
    from repro.pipeline.runner import Pipeline
    from repro.serve.engine import InferenceEngine
    from repro.serve.service import ServeApplication
    from repro.viz import dashboard, frames
    from repro.viz.server import DashboardApplication
    from repro.viz.session import GraphintSession

    methods = [
        (PCA, "fit_transform", "linalg.pca"),
        (KernelDensityEstimator, "fit", "linalg.kde"),
        (KernelDensityEstimator, "evaluate_grid_1d", "linalg.kde"),
        (GraphEmbedding, "fit", "graph.embedding"),
        (PredictionState, "predict_batch", "core.predict_batch"),
        (KMeans, "fit", "cluster.kmeans"),
        (KShape, "fit", "cluster.kshape"),
        (GraphintSession, "fit", "viz.session_fit"),
        (GraphintSession, "build_quizzes", "interpret.quiz"),
        (DashboardApplication, "handle", "viz.handle"),
        (Pipeline, "run", "pipeline.run"),
        (MemoryStageCache, "get", "pipeline.cache_get"),
        (MemoryStageCache, "put", "pipeline.cache_put"),
        (ProcessBackend, "map_jobs", "parallel.map_jobs"),
        (ThreadBackend, "map_jobs", "parallel.map_jobs"),
        (ServeApplication, "handle_request", "serve.handle"),
        (InferenceEngine, "predict", "serve.engine_predict"),
        (InferenceEngine, "predict_many", "serve.engine_predict"),
        (BenchmarkRunner, "run_estimator_grid", "benchmark.grid"),
    ]
    for cls, attr, name in methods:
        tracer.wrap_method(cls, attr, name)
    functions = [
        (graph_clustering.cluster_graph, "core.graph_clustering"),
        (consensus.consensus_clustering, "core.consensus"),
        (interpretability.interpretability_scores, "core.length_selection"),
        (graphoid.extract_lambda_graphoid, "graph.graphoid"),
        (graphoid.extract_gamma_graphoid, "graph.graphoid"),
        (layout.force_directed_layout, "graph.layout"),
        (layout.pca_layout, "graph.layout"),
        (layout.circular_layout, "graph.layout"),
        (fingerprint, "pipeline.fingerprint"),
        (frames.build_clustering_comparison_frame, "viz.frame.clustering_comparison"),
        (frames.build_graph_frame, "viz.frame.graph"),
        (frames.build_interpretability_frame, "viz.frame.interpretability"),
        (frames.build_under_the_hood_frame, "viz.frame.under_the_hood"),
        (dashboard.build_dashboard, "viz.dashboard"),
    ]
    for function, name in functions:
        tracer.wrap_function(function, name)

    def log_fit(span, args, _fitted) -> None:
        result, report = args[0].result_, args[0].pipeline_report_
        fit_log.append(
            {
                "thread": span.thread,
                "start": span.start,
                "end": span.end,
                "stage_timings": result.stage_timings(),
                "timings": dict(result.timings),
                "bytes_shipped": int(sum(result.bytes_shipped.values())),
                "cached": len(report.cached) if report else 0,
                "executed": len(report.executed) if report else 0,
            }
        )

    tracer.wrap_method(KGraph, "fit", "core.fit", on_return=log_fit)


def span_cost_s(samples: int = 5000) -> float:
    """Mean cost of opening and closing one span, on a throwaway tracer."""
    probe = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with probe.span("probe"):
            pass
    return (time.perf_counter() - start) / samples


def table(tracer: Tracer, metrics: Dict[str, float], details: Dict[str, object]) -> List[str]:
    """The per-layer table of a traced run, one row per layer.

    Columns: self time and span count per operation, time spent waiting,
    useful/attempted work with its base, and the tracing overhead the
    layer's spans cost (span count x the measured cost of one span).
    """
    ops = metrics["trace.ops"]
    cost = span_cost_s()
    cached, executed = metrics["pipeline.stages_cached"], metrics["pipeline.stages_executed"]
    waiting, useful = {}, {}
    if metrics["serve.handle_ms"]:
        waiting["serve"] = f"queue {metrics['serve.queue_wait_ms']:.3f} ms/req"
    if cached + executed:
        useful["pipeline"] = f"cached {cached * ops:.0f}/{(cached + executed) * ops:.0f} stages"
    lines = [
        f"  {'layer':<10} {'self s/op':>12} {'spans/op':>10}  {'waiting':<22} "
        f"{'useful/attempted':<24} {'trace overhead s/op':>20}"
    ]
    for layer in LAYERS:
        spans = sum(1 for span in tracer.spans if span.layer == layer) / ops
        lines.append(
            f"  {layer:<10} {metrics[f'layer.{layer}.self_s']:>12.6f} {spans:>10.1f}  "
            f"{waiting.get(layer, '-'):<22} {useful.get(layer, '-'):<24} {spans * cost:>20.6f}"
        )
    lines.append(
        f"  {'all':<10} traced {details['traced_s']:.4f} s"
        f" vs untraced {details['untraced_s']:.4f} s -> overhead {metrics['trace.overhead_pct']:+.2f} % "
        f"(one span costs {cost * 1e6:.2f} us)"
    )
    return lines


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def compute(
    tracer: Tracer,
    fit_log: List[dict],
    *,
    ops: int,
    overhead_pct: float,
    pool_size: int = 1,
    html_bytes: float = 0.0,
    client_ms: Optional[List[float]] = None,
    engine_stats: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric, amounts divided by ``ops``."""
    ops = max(1, int(ops))
    self_times = tracer.self_times()
    spans = tracer.spans
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (
            sum(self_times[s.span_id] for s in spans if s.layer == layer) / ops
        )

    def per_op(name: str) -> float:
        return tracer.total(name) / ops

    out["linalg.pca_s"] = per_op("linalg.pca")
    out["linalg.kde_s"] = per_op("linalg.kde")
    out["graph.embedding_self_s"] = (
        sum(self_times[s.span_id] for s in tracer.by_name("graph.embedding")) / ops
    )
    out["graph.graphoid_s"] = per_op("graph.graphoid")
    out["graph.layout_s"] = per_op("graph.layout")
    out["core.graph_clustering_s"] = per_op("core.graph_clustering")
    out["core.consensus_s"] = per_op("core.consensus")
    out["core.length_selection_s"] = per_op("core.length_selection")
    out["core.predict_batch_ms"] = 1e3 * _mean(
        [s.duration for s in tracer.by_name("core.predict_batch")]
    )
    out["cluster.kmeans_s"] = per_op("cluster.kmeans")
    out["cluster.kshape_s"] = per_op("cluster.kshape")
    out["interpret.quiz_s"] = per_op("interpret.quiz")
    out["viz.session_fit_s"] = per_op("viz.session_fit")
    for frame in ("clustering_comparison", "graph", "interpretability", "under_the_hood"):
        out[f"viz.frame.{frame}_s"] = per_op(f"viz.frame.{frame}")
    out["viz.html_bytes"] = float(html_bytes)
    out["pipeline.fingerprint_s"] = per_op("pipeline.fingerprint")
    out["pipeline.fingerprint_calls"] = len(tracer.by_name("pipeline.fingerprint")) / ops
    for stage in STAGES:
        out[f"pipeline.stage.{stage}_s"] = (
            sum(fit["stage_timings"].get(stage, 0.0) for fit in fit_log) / ops
        )
    out["pipeline.cache_get_s"] = per_op("pipeline.cache_get")
    out["pipeline.cache_put_s"] = per_op("pipeline.cache_put")
    cached = sum(fit["cached"] for fit in fit_log)
    executed = sum(fit["executed"] for fit in fit_log)
    out["pipeline.stages_cached"] = cached / ops
    out["pipeline.stages_executed"] = executed / ops
    out["pipeline.cached_ratio"] = cached / (cached + executed) if cached + executed else 0.0

    dispatches = tracer.by_name("parallel.map_jobs")
    out["parallel.map_jobs_calls"] = len(dispatches) / ops
    out["parallel.map_jobs_s"] = per_op("parallel.map_jobs")
    overhead = 0.0
    for fit in fit_log:
        inside = [
            s.duration
            for s in dispatches
            if s.thread == fit["thread"] and fit["start"] <= s.start and s.end <= fit["end"]
        ]
        if inside:
            busy = fit["timings"].get("graph_embedding", 0.0) + fit["timings"].get(
                "graph_clustering", 0.0
            )
            overhead += sum(inside) - busy / pool_size
    out["parallel.dispatch_overhead_s"] = overhead / ops
    out["parallel.bytes_shipped"] = sum(fit["bytes_shipped"] for fit in fit_log) / ops

    handles = [s.duration for s in tracer.by_name("serve.handle")]
    out["serve.handle_ms"] = 1e3 * _mean(handles)
    batches = sorted(tracer.by_name("core.predict_batch"), key=lambda s: s.start)
    waits = []
    for request in tracer.by_name("serve.engine_predict"):
        computed = sum(
            b.duration for b in batches if request.start <= b.start and b.end <= request.end
        )
        waits.append(request.duration - computed)
    out["serve.queue_wait_ms"] = 1e3 * _mean(waits)
    out["serve.http_ms"] = (
        _mean(client_ms) - out["serve.handle_ms"] if client_ms and handles else 0.0
    )
    stats = engine_stats or {}
    out["serve.mean_batch_size"] = float(stats.get("mean_batch_size", 0.0))
    out["serve.flush_size"] = float(stats.get("flush_size", 0))
    out["serve.flush_timeout"] = float(stats.get("flush_timeout", 0))

    out["trace.ops"] = float(ops)
    out["trace.spans"] = len(spans) / ops
    out["trace.overhead_pct"] = float(overhead_pct)
    return out
