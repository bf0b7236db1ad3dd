"""``graphint`` command-line interface.

Sub-commands:

* ``graphint datasets``                       — list the dataset catalogue
* ``graphint cluster  --dataset NAME``        — run k-Graph and print a report
* ``graphint dashboard --dataset NAME -o F``  — write the static HTML dashboard
* ``graphint benchmark -o results.json``      — run the benchmark campaign
* ``graphint serve --port 8050``              — start the interactive server
  (add ``--registry DIR`` to mount the model-serving JSON API on the same
  port: ``POST /predict``, ``GET /models``, ``GET /healthz``)
* ``graphint worker --port 0``                — start a distributed execution
  worker (``--data-plane DIR`` shares large arrays by fingerprint instead of
  shipping them); point any ``--backend`` at a pool of workers with
  ``distributed:HOST:PORT[,HOST:PORT...][@PLANE_DIR]``
* ``graphint quiz --dataset NAME``            — run the simulated interpretability test
* ``graphint export-model --dataset NAME -o DIR`` — fit k-Graph and save a
  servable model artifact (or publish it with ``--registry DIR``)
* ``graphint import-model ARTIFACT --registry DIR`` — copy an existing
  artifact into a registry
* ``graphint pipeline run --dataset NAME --cache DIR`` — run the staged
  k-Graph pipeline with checkpointing; ``--resume`` replays unchanged
  stages from the cache, ``--stage-backend embed=thread`` picks the backend
  of one of the two stages that fan out over the lengths (``embed``,
  ``graph_cluster``), ``--cache-budget BYTES --cache-policy lru|lfu`` bound
  the checkpoint directory
* ``graphint pipeline inspect --cache DIR`` — list the checkpoints of a
  pipeline cache directory
* ``graphint estimators list`` — every estimator registry name (k-Graph
  plus the baselines) with family and description
* ``graphint estimators describe NAME`` — one estimator's typed config:
  fields, defaults, pipeline stages, help

``cluster``, ``benchmark`` and ``pipeline run`` accept ``--config FILE``
(a JSON estimator-config payload, sparse files allowed) and repeatable
``--set KEY=VALUE`` overrides; values parse as JSON with a plain-string
fallback (``--set feature_mode=edges --set lengths=[10,20]``).

Every command with ``--backend``/``--jobs`` also accepts the
fault-tolerance knobs: ``--retries N`` (attempts per failed job),
``--job-timeout SECONDS`` (watchdog that abandons hung jobs) and
``--fallback CHAIN`` (comma-separated degradation chain, e.g.
``thread,serial``).  Results stay bit-identical — retries and demotions
trade speed for survival, never correctness.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.config import KGraphConfig
from repro.benchmark.aggregate import summarize_by_method
from repro.benchmark.runner import BenchmarkRunner
from repro.benchmark.store import load_results, save_results
from repro.datasets.catalogue import default_catalogue
from repro.exceptions import PipelineError, ValidationError
from repro.metrics.clustering import adjusted_rand_index
from repro.pipeline.kgraph_stages import KGRAPH_FANOUT_STAGES
from repro.viz.dashboard import build_dashboard
from repro.viz.session import GraphintSession


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON estimator-config file (a KGraphConfig payload for "
        "cluster/pipeline, any config fields for benchmark); sparse files "
        "are allowed — absent fields keep their defaults",
    )
    parser.add_argument(
        "--set",
        dest="set_options",
        action="append",
        default=None,
        metavar="KEY=VALUE",
        help="config field override (repeatable); VALUE parses as JSON "
        "with a plain-string fallback, e.g. --set n_sectors=16 "
        "--set feature_mode=edges",
    )


def _parse_config_options(
    args: argparse.Namespace,
) -> Tuple[Optional[Dict[str, object]], Dict[str, object]]:
    """Read ``--config FILE`` and parse ``--set KEY=VALUE`` overrides."""
    payload: Optional[Dict[str, object]] = None
    if getattr(args, "config", None):
        text = Path(args.config).read_text(encoding="utf-8")
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValidationError(
                f"--config file {args.config} must hold a JSON object, got "
                f"{type(payload).__name__}"
            )
    overrides: Dict[str, object] = {}
    for entry in getattr(args, "set_options", None) or []:
        key, separator, value = entry.partition("=")
        key = key.strip()
        if not separator or not key:
            raise ValidationError(f"--set expects KEY=VALUE, got {entry!r}")
        try:
            overrides[key] = json.loads(value)
        except json.JSONDecodeError:
            overrides[key] = value
    return payload, overrides


def _resolve_kgraph_config(
    args: argparse.Namespace, dataset, *, default_seed: Optional[int]
) -> Optional[KGraphConfig]:
    """Build the KGraphConfig a command should fit with, or ``None``.

    Returns ``None`` when neither ``--config`` nor ``--set`` was given, so
    commands keep their legacy flag-driven path.  Explicit ``--clusters``
    / ``--lengths`` flags override the config file; unset knobs default
    from the dataset (``n_clusters``) and the command seed.
    """
    payload, overrides = _parse_config_options(args)
    if payload is None and not overrides:
        return None
    merged_keys = set(payload or {}) | set(overrides)
    if getattr(args, "clusters", None) is not None:
        overrides["n_clusters"] = args.clusters
    if getattr(args, "lengths", None) is not None:
        overrides["n_lengths"] = args.lengths
    merged_keys |= set(overrides)
    if "n_clusters" not in merged_keys:
        overrides["n_clusters"] = dataset.default_cluster_count()
    if "random_state" not in merged_keys and default_seed is not None:
        overrides["random_state"] = default_seed
    return KGraphConfig.from_options(payload, overrides)


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help=(
            "execution backend for the parallel pipeline stages (default: "
            "serial); one of serial|thread|process, or "
            "'distributed:HOST:PORT[,HOST:PORT...][@PLANE_DIR]' to fan out "
            "over graphint worker services"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker count; results are identical to the serial run for a fixed seed",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="retry failed parallel jobs up to N attempts total "
        "(default: no failure retries; worker-loss recovery is always on)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job timeout; a job still running after this long is "
        "abandoned and reported as timed out",
    )
    parser.add_argument(
        "--fallback",
        default=None,
        metavar="CHAIN",
        help="comma-separated degradation chain tried when the primary "
        "backend exhausts its pool rebuilds, e.g. 'process,thread,serial'",
    )


def _parallel_options(args: argparse.Namespace):
    """Build the ``(retry, fallback)`` pair from the parallel CLI flags."""
    from repro.parallel import RetryPolicy

    retry = None
    if args.retries is not None or args.job_timeout is not None:
        retry = RetryPolicy(
            max_attempts=args.retries if args.retries is not None else 3,
            timeout=args.job_timeout,
        )
    fallback = None
    if args.fallback:
        names = tuple(name.strip() for name in args.fallback.split(",") if name.strip())
        if names:
            fallback = names
    return retry, fallback


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphint",
        description="Graphint: graph-based interpretable time series clustering tool",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list available datasets")

    cluster = subparsers.add_parser("cluster", help="run k-Graph on one dataset")
    cluster.add_argument("--dataset", default="cylinder_bell_funnel")
    cluster.add_argument("--clusters", type=int, default=None)
    cluster.add_argument(
        "--lengths", type=int, default=None,
        help="number of subsequence lengths (default 4, or the --config value)",
    )
    cluster.add_argument("--seed", type=int, default=0)
    _add_config_arguments(cluster)
    _add_parallel_arguments(cluster)

    dashboard = subparsers.add_parser("dashboard", help="build the static HTML dashboard")
    dashboard.add_argument("--dataset", default="cylinder_bell_funnel")
    dashboard.add_argument("--output", "-o", default="graphint_dashboard.html")
    dashboard.add_argument("--benchmark-file", default=None, help="JSON results to feed the Benchmark frame")
    dashboard.add_argument("--seed", type=int, default=0)
    _add_parallel_arguments(dashboard)

    benchmark = subparsers.add_parser("benchmark", help="run the benchmark campaign")
    benchmark.add_argument("--output", "-o", default="benchmark_results.json")
    benchmark.add_argument("--methods", nargs="*", default=None)
    benchmark.add_argument("--datasets", nargs="*", default=None)
    benchmark.add_argument("--runs", type=int, default=1)
    benchmark.add_argument("--seed", type=int, default=0)
    _add_config_arguments(benchmark)
    _add_parallel_arguments(benchmark)

    serve = subparsers.add_parser("serve", help="start the interactive dashboard server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8050)
    serve.add_argument("--benchmark-file", default=None)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--registry",
        default=None,
        help="model registry directory; mounts POST /predict, GET /models and "
        "GET /healthz next to the dashboard routes",
    )
    serve.add_argument("--max-batch-size", type=int, default=32)
    _add_parallel_arguments(serve)

    worker = subparsers.add_parser(
        "worker", help="start a distributed execution worker service"
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to listen on (default 0: an OS-assigned ephemeral port, "
        "announced on stdout once bound)",
    )
    worker.add_argument(
        "--inner-backend",
        default=None,
        metavar="SPEC",
        help="backend the worker runs its own chunk's jobs on (default "
        "serial; the coordinator already spreads chunks across workers)",
    )
    worker.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker-local parallelism for --inner-backend",
    )
    worker.add_argument(
        "--data-plane",
        default=None,
        metavar="DIR",
        help="shared directory this worker may resolve data-plane array "
        "fingerprints against (omit to require inline payloads)",
    )

    quiz = subparsers.add_parser("quiz", help="run the simulated interpretability test")
    quiz.add_argument("--dataset", default="cylinder_bell_funnel")
    quiz.add_argument("--users", type=int, default=5)
    quiz.add_argument("--seed", type=int, default=0)

    export_model = subparsers.add_parser(
        "export-model", help="fit k-Graph and save a servable model artifact"
    )
    export_model.add_argument("--dataset", default="cylinder_bell_funnel")
    export_model.add_argument("--clusters", type=int, default=None)
    export_model.add_argument("--lengths", type=int, default=4, help="number of subsequence lengths")
    export_model.add_argument("--seed", type=int, default=0)
    export_model.add_argument("--output", "-o", default=None, help="artifact directory to write")
    export_model.add_argument("--registry", default=None, help="publish into this registry instead")
    export_model.add_argument("--model-id", default=None, help="registry model id (default: next vN)")
    _add_parallel_arguments(export_model)

    import_model = subparsers.add_parser(
        "import-model", help="copy a model artifact into a registry"
    )
    import_model.add_argument("artifact", help="artifact directory written by export-model")
    import_model.add_argument("--registry", required=True)
    import_model.add_argument("--dataset", default=None, help="override the dataset recorded in the manifest")
    import_model.add_argument("--model-id", default=None)

    pipeline = subparsers.add_parser(
        "pipeline", help="run or inspect the staged k-Graph pipeline"
    )
    pipeline_sub = pipeline.add_subparsers(dest="pipeline_command", required=True)

    pipeline_run = pipeline_sub.add_parser(
        "run", help="fit k-Graph through the checkpointed stage pipeline"
    )
    pipeline_run.add_argument("--dataset", default="cylinder_bell_funnel")
    pipeline_run.add_argument("--clusters", type=int, default=None)
    pipeline_run.add_argument(
        "--lengths", type=int, default=None,
        help="number of subsequence lengths (default 4, or the --config value)",
    )
    pipeline_run.add_argument("--seed", type=int, default=0)
    _add_config_arguments(pipeline_run)
    pipeline_run.add_argument(
        "--cache",
        default=None,
        help="stage checkpoint directory (created if needed); omit to run "
        "without checkpointing",
    )
    pipeline_run.add_argument(
        "--resume",
        action="store_true",
        help="replay unchanged stages from --cache instead of clearing it first",
    )
    pipeline_run.add_argument(
        "--cache-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="evict checkpoints so --cache never exceeds this many bytes",
    )
    pipeline_run.add_argument(
        "--cache-policy",
        choices=("lru", "lfu"),
        default="lru",
        help="eviction order under --cache-budget (default: lru)",
    )
    pipeline_run.add_argument(
        "--stage-backend",
        action="append",
        default=None,
        metavar="STAGE=BACKEND",
        help="per-stage backend override, e.g. 'embed=thread' (repeatable); "
        f"only the per-length stages take one: {', '.join(KGRAPH_FANOUT_STAGES)}",
    )
    _add_parallel_arguments(pipeline_run)

    pipeline_inspect = pipeline_sub.add_parser(
        "inspect", help="list the checkpoints of a pipeline cache directory"
    )
    pipeline_inspect.add_argument("--cache", required=True, help="stage checkpoint directory")

    estimators = subparsers.add_parser(
        "estimators", help="list registered estimators or describe one"
    )
    estimators_sub = estimators.add_subparsers(dest="estimators_command", required=True)
    estimators_sub.add_parser("list", help="every estimator registry name")
    estimators_describe = estimators_sub.add_parser(
        "describe", help="one estimator's typed config: fields, defaults, help"
    )
    estimators_describe.add_argument("name", help="estimator registry name, e.g. kgraph")
    return parser


# --------------------------------------------------------------------------- #
def _cmd_datasets(_: argparse.Namespace) -> int:
    catalogue = default_catalogue()
    rows = catalogue.summary_rows()
    width = max(len(row["name"]) for row in rows)
    print(f"{'name':<{width}}  type                 series  length  classes")
    for row in rows:
        print(
            f"{row['name']:<{width}}  {row['type']:<20} {row['n_series']:>6}  "
            f"{row['length']:>6}  {row['n_classes']:>7}"
        )
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    dataset = default_catalogue().get(args.dataset).generate(random_state=args.seed)
    try:
        config = _resolve_kgraph_config(args, dataset, default_seed=args.seed)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    retry, fallback = _parallel_options(args)
    session = GraphintSession(
        dataset,
        n_clusters=args.clusters if config is None else config.n_clusters,
        n_lengths=(args.lengths if args.lengths is not None else 4),
        random_state=args.seed,
        backend=args.backend,
        n_jobs=args.jobs,
        retry=retry,
        fallback=fallback,
        kgraph_config=config,
    ).fit()
    summary = session.summary()
    print(f"dataset            : {dataset.name} ({dataset.n_series} x {dataset.length})")
    print(f"clusters (k)       : {session.n_clusters}")
    print(f"optimal length     : {summary['optimal_length']}")
    for method, ari in sorted(summary["ari"].items()):
        print(f"ARI {method:<14} : {ari:.3f}")
    return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    dataset = default_catalogue().get(args.dataset).generate(random_state=args.seed)
    retry, fallback = _parallel_options(args)
    session = GraphintSession(
        dataset,
        random_state=args.seed,
        backend=args.backend,
        n_jobs=args.jobs,
        retry=retry,
        fallback=fallback,
    )
    benchmark_results = load_results(args.benchmark_file) if args.benchmark_file else None
    build_dashboard(session, benchmark_results=benchmark_results, output_path=args.output)
    print(f"dashboard written to {Path(args.output).resolve()}")
    return 0


def _cmd_benchmark(args: argparse.Namespace) -> int:
    try:
        payload, overrides = _parse_config_options(args)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    config_overrides = {**(payload or {}), **overrides}
    # A full config file carries its schema version; the campaign applies
    # field overrides only.
    config_overrides.pop("version", None)
    retry, fallback = _parallel_options(args)
    runner = BenchmarkRunner(
        args.methods,
        n_runs=args.runs,
        random_state=args.seed,
        backend=args.backend,
        n_jobs=args.jobs,
        retry=retry,
        fallback=fallback,
        config_overrides=config_overrides or None,
    )

    def progress(method: str, dataset: str, result) -> None:
        status = "FAILED" if result.failed else f"ari={result.measures.get('ari', float('nan')):.3f}"
        print(f"[{dataset:<22}] {method:<16} {status}")

    results = runner.run(args.datasets, progress=progress)
    save_results(results, args.output)
    print(f"\nresults written to {Path(args.output).resolve()}")
    print("\nmean scores per method:")
    for method, values in sorted(summarize_by_method(results).items()):
        ari = values.get("ari", float("nan"))
        print(f"  {method:<16} ari={ari:.3f}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.viz.server import DashboardApplication, serve_application

    benchmark_results = load_results(args.benchmark_file) if args.benchmark_file else None
    retry, fallback = _parallel_options(args)
    application = DashboardApplication(
        benchmark_results=benchmark_results,
        random_state=args.seed,
        backend=args.backend,
        n_jobs=args.jobs,
        retry=retry,
        fallback=fallback,
    )
    if args.registry is not None:
        from repro.serve import CombinedApplication, ModelRegistry, ServeApplication

        serving = ServeApplication(
            ModelRegistry(args.registry),
            max_batch_size=args.max_batch_size,
            backend=args.backend,
            n_jobs=args.jobs,
        )
        application = CombinedApplication(application, serving)
        print(f"model registry mounted from {Path(args.registry).resolve()}")

    def announce(server) -> None:
        # Printed from the ready hook, after bind: with --port 0 the OS
        # assigns the port, so only the bound server knows the real one.
        print(
            f"serving Graphint on http://{args.host}:{server.server_port} "
            "(Ctrl+C to stop)",
            flush=True,
        )

    try:
        serve_application(
            application, host=args.host, port=args.port, ready=announce
        )
    finally:
        if hasattr(application, "close"):
            application.close()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import os

    from repro.distributed import WORKER_PROCESS_ENV, WorkerApplication, serve_worker

    # Mark this process sacrificial: chaos 'kill' faults may os._exit it.
    os.environ[WORKER_PROCESS_ENV] = "1"
    application = WorkerApplication(
        backend=args.inner_backend,
        n_jobs=args.jobs,
        data_plane=args.data_plane,
    )

    def announce(server) -> None:
        # One parseable line: supervisors (and the test-suite) read the
        # bound port and pid from it when --port 0 was used.
        print(
            f"worker listening on http://{args.host}:{server.server_port} "
            f"(pid {os.getpid()})",
            flush=True,
        )

    try:
        serve_worker(
            application, host=args.host, port=args.port, ready=announce
        )
    finally:
        application.close()
    return 0


def _cmd_export_model(args: argparse.Namespace) -> int:
    from repro.core.kgraph import KGraph
    from repro.serve import ModelRegistry, save_model

    if (args.output is None) == (args.registry is None):
        print("export-model needs exactly one of --output DIR or --registry DIR", file=sys.stderr)
        return 2
    dataset = default_catalogue().get(args.dataset).generate(random_state=args.seed)
    n_clusters = args.clusters
    if n_clusters is None:
        n_clusters = dataset.default_cluster_count()
    retry, fallback = _parallel_options(args)
    model = KGraph(
        n_clusters,
        n_lengths=args.lengths,
        random_state=args.seed,
        backend=args.backend,
        n_jobs=args.jobs,
        retry=retry,
        fallback=fallback,
    ).fit(dataset.data)
    if args.registry is not None:
        record = ModelRegistry(args.registry).publish(
            model, args.dataset, model_id=args.model_id
        )
        print(f"published {record.dataset}/{record.model_id} -> {record.path.resolve()}")
    else:
        path = save_model(model, args.output, dataset=args.dataset)
        print(f"model artifact written to {path.resolve()}")
    print(
        f"fitted on {dataset.n_series} series, k={model.n_clusters}, "
        f"optimal length {model.optimal_length_}"
    )
    return 0


def _cmd_import_model(args: argparse.Namespace) -> int:
    from repro.serve import ModelRegistry

    record = ModelRegistry(args.registry).import_artifact(
        args.artifact, dataset=args.dataset, model_id=args.model_id
    )
    print(f"imported {record.dataset}/{record.model_id} -> {record.path.resolve()}")
    return 0


def _parse_stage_backends(entries) -> dict:
    """Parse repeated ``--stage-backend STAGE=BACKEND`` options."""
    overrides = {}
    for entry in entries or []:
        stage, separator, backend = entry.partition("=")
        stage = stage.strip()
        backend = backend.strip()
        if not separator or not stage or not backend:
            raise ValueError(
                f"--stage-backend expects STAGE=BACKEND, got {entry!r}"
            )
        if stage not in KGRAPH_FANOUT_STAGES:
            raise ValueError(
                f"unknown stage {stage!r} in --stage-backend; only the per-length "
                f"stages take a backend: {', '.join(KGRAPH_FANOUT_STAGES)}"
            )
        overrides[stage] = backend
    return overrides


def _cmd_pipeline_run(args: argparse.Namespace) -> int:
    from repro.core.kgraph import KGraph
    from repro.pipeline import DiskStageCache

    try:
        stage_backends = _parse_stage_backends(args.stage_backend)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    dataset = default_catalogue().get(args.dataset).generate(random_state=args.seed)
    try:
        config = _resolve_kgraph_config(args, dataset, default_seed=args.seed)
    except (ValidationError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if config is None:
        n_clusters = args.clusters
        if n_clusters is None:
            n_clusters = dataset.default_cluster_count()
        config = KGraphConfig.from_options(
            overrides={
                "n_clusters": n_clusters,
                "n_lengths": args.lengths if args.lengths is not None else 4,
                "random_state": args.seed,
            }
        )

    cache = None
    if args.cache is not None:
        try:
            cache = DiskStageCache(
                args.cache,
                budget_bytes=args.cache_budget,
                policy=args.cache_policy,
            )
        except PipelineError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        if not args.resume:
            # A fresh run must not silently replay stale checkpoints from a
            # previous configuration; --resume is the explicit opt-in.
            cache.clear()
    elif args.resume:
        print("--resume requires --cache DIR", file=sys.stderr)
        return 2
    elif args.cache_budget is not None:
        print("--cache-budget requires --cache DIR", file=sys.stderr)
        return 2

    retry, fallback = _parallel_options(args)
    model = KGraph.from_config(
        config,
        backend=args.backend,
        n_jobs=args.jobs,
        retry=retry,
        fallback=fallback,
        stage_backends=stage_backends or None,
        stage_cache=cache,
    ).fit(dataset.data)

    report = model.pipeline_report_
    print(f"dataset            : {dataset.name} ({dataset.n_series} x {dataset.length})")
    print(f"clusters (k)       : {model.n_clusters}")
    print(f"optimal length     : {model.optimal_length_}")
    if dataset.labels is not None:
        ari = adjusted_rand_index(dataset.labels, model.labels_)
        print(f"ARI                : {ari:.3f}")
    print()
    print(
        f"{'stage':<18} {'status':<8} {'seconds':>9} {'shipped':>10} "
        f"{'att':>4} {'t/o':>4} {'rbld':>5}  key"
    )
    for record in report.records:
        status = "cached" if record.cached else "ran"
        print(
            f"{record.name:<18} {status:<8} {record.seconds:>9.4f} "
            f"{record.bytes_shipped:>10} {record.attempts:>4} "
            f"{record.timeouts:>4} {record.pool_rebuilds:>5}  {record.key[:12]}"
        )
    if cache is not None:
        stats = cache.stats()
        print(
            f"\ncheckpoints in {Path(args.cache).resolve()}: "
            f"{stats['entries']} ({stats['total_bytes']} bytes"
            + (
                f", budget {stats['budget_bytes']}, "
                f"{stats['evictions']} eviction(s), policy {stats['policy']})"
                if stats.get("budget_bytes")
                else ")"
            )
        )
        if not args.resume:
            print("re-run with --resume to replay unchanged stages")
    return 0


def _cmd_pipeline_inspect(args: argparse.Namespace) -> int:
    from repro.pipeline import DiskStageCache

    directory = Path(args.cache)
    if not directory.is_dir():
        print(f"no pipeline cache at {directory.resolve()}", file=sys.stderr)
        return 2
    cache = DiskStageCache(directory)
    entries = cache.entries()
    if not entries:
        print(f"no checkpoints in {directory.resolve()}")
        return 0
    print(f"{'stage':<18} {'key':<14} {'seconds':>9} {'bytes':>10}  outputs")
    for entry in entries:
        print(
            f"{entry.stage:<18} {entry.key[:12]:<14} {entry.seconds:>9.4f} "
            f"{entry.payload_bytes:>10}  {', '.join(entry.outputs)}"
        )
    print(
        f"\n{len(entries)} checkpoint(s), {cache.total_bytes()} bytes "
        f"in {directory.resolve()}"
    )
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    if args.pipeline_command == "run":
        return _cmd_pipeline_run(args)
    return _cmd_pipeline_inspect(args)


def _cmd_estimators_list(_: argparse.Namespace) -> int:
    from repro.api import default_registry

    specs = default_registry().specs()
    width = max(len(spec.name) for spec in specs)
    print(f"{'name':<{width}}  family   config          serve  description")
    for spec in specs:
        servable = "yes" if spec.servable else "no"
        print(
            f"{spec.name:<{width}}  {spec.family:<8} "
            f"{spec.config_cls.__name__:<15} {servable:<6} {spec.description}"
        )
    return 0


def _cmd_estimators_describe(args: argparse.Namespace) -> int:
    from repro.api import default_registry

    try:
        spec = default_registry().get(args.name)
    except ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    info = spec.describe()
    print(f"name        : {info['name']}")
    print(f"family      : {info['family']}")
    print(f"servable    : {'yes' if info['servable'] else 'no'}")
    print(f"config      : {info['config']} (version {info['config_version']})")
    print(f"description : {info['description']}")
    print()
    name_width = max(len(row["name"]) for row in info["fields"])
    print(f"{'field':<{name_width}}  {'default':<12} help")
    for row in info["fields"]:
        default = json.dumps(row["default"])
        help_text = row["help"]
        if row.get("stages"):
            help_text += f" [stages: {', '.join(row['stages'])}]"
        print(f"{row['name']:<{name_width}}  {default:<12} {help_text}")
    return 0


def _cmd_estimators(args: argparse.Namespace) -> int:
    if args.estimators_command == "describe":
        return _cmd_estimators_describe(args)
    return _cmd_estimators_list(args)


def _cmd_quiz(args: argparse.Namespace) -> int:
    dataset = default_catalogue().get(args.dataset).generate(random_state=args.seed)
    session = GraphintSession(dataset, random_state=args.seed).fit()
    session.build_quizzes(n_users=args.users)
    print(f"interpretability test on {dataset.name} ({args.users} simulated users)")
    for method, score in sorted(session.quiz_scores.items(), key=lambda item: -item[1]):
        print(f"  {method:<10} score = {score:.2f}")
    best = max(session.quiz_scores, key=session.quiz_scores.get)
    print(f"most interpretable representation: {best}")
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "cluster": _cmd_cluster,
    "dashboard": _cmd_dashboard,
    "benchmark": _cmd_benchmark,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
    "quiz": _cmd_quiz,
    "export-model": _cmd_export_model,
    "import-model": _cmd_import_model,
    "pipeline": _cmd_pipeline,
    "estimators": _cmd_estimators,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point (also exposed as the ``graphint`` console script)."""
    parser = _build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
