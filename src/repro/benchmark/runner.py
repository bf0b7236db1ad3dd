"""Benchmark runner: methods x datasets x measures.

One :class:`BenchmarkResult` is produced per (method, dataset) pair and
carries every evaluation measure plus the dataset attributes the Benchmark
frame filters on.  Failures of individual methods are recorded (not raised)
so a single brittle baseline cannot take down a whole campaign — mirroring
how published benchmark harnesses handle method errors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.baselines.registry import all_baseline_names, get_method
from repro.datasets.catalogue import DatasetCatalogue, DatasetSpec, default_catalogue
from repro.exceptions import BenchmarkError
from repro.metrics.clustering import clustering_report
from repro.parallel import ExecutionBackend, RetryPolicy, backend_scope
from repro.utils.containers import TimeSeriesDataset
from repro.utils.rng import SeedSequencePool
from repro.utils.validation import check_positive_int


@dataclass
class BenchmarkResult:
    """Outcome of one (method, dataset) benchmark run."""

    method: str
    family: str
    dataset: str
    dataset_type: str
    n_series: int
    length: int
    n_classes: int
    measures: Dict[str, float] = field(default_factory=dict)
    runtime_seconds: float = 0.0
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        """Whether the method raised instead of producing labels."""
        return self.error is not None

    def to_dict(self) -> Dict[str, object]:
        """Flat JSON-serialisable representation."""
        row: Dict[str, object] = {
            "method": self.method,
            "family": self.family,
            "dataset": self.dataset,
            "dataset_type": self.dataset_type,
            "n_series": self.n_series,
            "length": self.length,
            "n_classes": self.n_classes,
            "runtime_seconds": self.runtime_seconds,
            "error": self.error,
        }
        row.update(self.measures)
        return row

    @classmethod
    def from_dict(cls, row: Dict[str, object]) -> "BenchmarkResult":
        """Inverse of :meth:`to_dict`."""
        known = {
            "method",
            "family",
            "dataset",
            "dataset_type",
            "n_series",
            "length",
            "n_classes",
            "runtime_seconds",
            "error",
        }
        measures = {
            key: float(value)
            for key, value in row.items()
            if key not in known and isinstance(value, (int, float))
        }
        return cls(
            method=str(row["method"]),
            family=str(row.get("family", "")),
            dataset=str(row["dataset"]),
            dataset_type=str(row.get("dataset_type", "")),
            n_series=int(row.get("n_series", 0)),
            length=int(row.get("length", 0)),
            n_classes=int(row.get("n_classes", 0)),
            measures=measures,
            runtime_seconds=float(row.get("runtime_seconds", 0.0)),
            error=row.get("error"),
        )


def run_single_benchmark(
    method_name: str,
    dataset: TimeSeriesDataset,
    random_state=None,
    *,
    config_overrides: Optional[Dict[str, object]] = None,
) -> BenchmarkResult:
    """Run one registered estimator on one (already materialised) dataset.

    Module-level (hence picklable) so campaign jobs can be dispatched
    through any :class:`~repro.parallel.ExecutionBackend`.  The method is
    resolved through the estimator registry and run via the
    :class:`~repro.api.Estimator` protocol, so any registry name —
    k-Graph or baseline — benchmarks identically.

    ``config_overrides`` applies config-field overrides to every method
    whose config declares the field (e.g. ``{"n_sectors": 16}`` reaches
    k-Graph but is a no-op for k-Means); values for fields a method does
    not declare are skipped, so one override set can drive a mixed-method
    campaign.  The method identity itself (``method``) is never
    overridable — a row labelled ``kshape`` must hold k-Shape's numbers.
    """
    from repro.api.registry import default_registry

    spec = default_registry().get(method_name)
    # A live Generator cannot live in a (serialisable) config; forward it
    # verbatim through the legacy method shim instead, exactly as the
    # pre-registry harness did.
    simple_seed = random_state is None or isinstance(random_state, (int, np.integer))
    params: Dict[str, object] = {"n_clusters": dataset.default_cluster_count()}
    if simple_seed:
        params["random_state"] = random_state
    if config_overrides:
        known = set(spec.config_cls.field_names()) - {"method"}
        params.update(
            {key: value for key, value in config_overrides.items() if key in known}
        )
    result = BenchmarkResult(
        method=spec.name,
        family=spec.family,
        dataset=dataset.name,
        dataset_type=dataset.dataset_type,
        n_series=dataset.n_series,
        length=dataset.length,
        n_classes=dataset.n_classes,
    )
    start = time.perf_counter()
    try:
        if simple_seed:
            estimator = spec.build(spec.make_config(**params))
            labels = estimator.fit_predict(dataset.data)
        else:
            labels = get_method(spec.name).fit_predict(
                dataset, int(params["n_clusters"]), random_state=random_state
            )
        result.runtime_seconds = time.perf_counter() - start
        if dataset.labels is not None:
            result.measures = clustering_report(dataset.labels, labels)
    except Exception as exc:  # noqa: BLE001 - a failing baseline must not stop the campaign
        result.runtime_seconds = time.perf_counter() - start
        result.error = f"{type(exc).__name__}: {exc}"
    return result


@dataclass(frozen=True)
class _CampaignJob:
    """One (method, dataset, run) cell of the campaign grid.

    Seeds are pre-drawn by the parent in the exact order the serial loop
    would draw them, so campaigns are bit-identical across backends.
    """

    method_name: str
    spec: DatasetSpec
    run_index: int
    dataset_seed: int
    method_seed: int
    config_overrides: Optional[Dict[str, object]] = None


def _execute_campaign_job(job: _CampaignJob) -> BenchmarkResult:
    """Materialise the dataset and run one method on it (picklable)."""
    dataset = job.spec.generate(random_state=job.dataset_seed)
    return run_single_benchmark(
        job.method_name,
        dataset,
        random_state=job.method_seed,
        config_overrides=job.config_overrides,
    )


def _combo_label(spec_name: str, combo: Dict[str, object]) -> str:
    """The result label of one grid combination, e.g. ``kgraph[k=3]``."""
    label = spec_name
    if combo:
        label += "[" + ",".join(
            f"{key}={combo[key]}" for key in sorted(combo)
        ) + "]"
    return label


def _grid_params(
    spec_name: str,
    dataset: TimeSeriesDataset,
    base_fields: Dict[str, object],
    combo: Dict[str, object],
    random_state,
) -> Dict[str, object]:
    """One combination's full config parameters (shared defaulting).

    ``n_clusters`` falls back to the dataset's class count and the seed to
    the shared ``random_state`` whenever neither base nor combo pins them —
    a base *config* carries ``random_state=None`` for "unset", which must
    not mean fresh entropy here (a shared seed is what makes stage
    checkpoints hit across the grid).  The estimator identity is never
    rebindable through a grid.  Module-level so the serial sweep and the
    sharded (distributed) path agree bit-for-bit.
    """
    params = dict(base_fields)
    params.update(combo)
    if params.get("method") not in (None, spec_name):
        raise BenchmarkError(
            f"a grid for estimator {spec_name!r} cannot rebind "
            f"'method' to {params['method']!r}; sweep the other "
            "estimator by name instead"
        )
    if params.get("n_clusters") is None:
        params["n_clusters"] = dataset.default_cluster_count()
    if params.get("random_state") is None:
        params["random_state"] = random_state
    return params


@dataclass(frozen=True)
class _GridJob:
    """One self-contained grid combination for sharded dispatch.

    Carries the materialised dataset and every config ingredient, so a
    worker (local or remote) rebuilds the exact combination the serial
    sweep would run — including its shared seed — without any coordinator
    state.  A bad combination fails inside its own job, preserving the
    per-combination error isolation of the serial path.
    """

    estimator: str
    dataset: TimeSeriesDataset
    base_fields: Dict[str, object]
    combo: Dict[str, object]
    random_state: int
    stage_cache_dir: Optional[str] = None
    cache_budget: Optional[int] = None
    cache_policy: str = "lru"


def _execute_grid_combo(job: _GridJob) -> BenchmarkResult:
    """Run one grid combination end to end (picklable, registered)."""
    from repro.api.registry import default_registry

    spec = default_registry().get(job.estimator)
    dataset = job.dataset
    result = BenchmarkResult(
        method=_combo_label(spec.name, job.combo),
        family=spec.family,
        dataset=dataset.name,
        dataset_type=dataset.dataset_type,
        n_series=dataset.n_series,
        length=dataset.length,
        n_classes=dataset.n_classes,
    )
    start = time.perf_counter()
    try:
        params = _grid_params(
            spec.name, dataset, job.base_fields, job.combo, job.random_state
        )
        cache = None
        if spec.name == "kgraph" and job.stage_cache_dir is not None:
            from repro.pipeline import resolve_stage_cache

            cache = resolve_stage_cache(
                job.stage_cache_dir,
                budget_bytes=job.cache_budget,
                policy=job.cache_policy,
            )
        estimator = spec.build(spec.make_config(**params), stage_cache=cache)
        labels = estimator.fit_predict(dataset.data)
        result.runtime_seconds = time.perf_counter() - start
        if dataset.labels is not None:
            result.measures = clustering_report(dataset.labels, labels)
        report = getattr(estimator, "pipeline_report_", None)
        if report is not None:
            result.measures["stages_cached"] = float(len(report.cached))
            result.measures["stages_executed"] = float(len(report.executed))
    except Exception as exc:  # noqa: BLE001 - one bad combo must not stop the sweep
        result.runtime_seconds = time.perf_counter() - start
        result.error = f"{type(exc).__name__}: {exc}"
    return result


ProgressCallback = Callable[[str, str, BenchmarkResult], None]


class BenchmarkRunner:
    """Runs a set of methods over a set of datasets.

    Parameters
    ----------
    methods:
        Method names from the baseline registry; defaults to the 14
        Benchmark-frame baselines plus ``"kgraph"``.
    catalogue:
        Dataset catalogue; defaults to :func:`repro.datasets.default_catalogue`.
    n_runs:
        Repetitions per (method, dataset) pair with different seeds; measures
        are averaged over runs (the Benchmark frame shows one point per pair).
    random_state:
        Seed pool controlling dataset generation and method seeds.
    backend, n_jobs:
        Execution backend for the ``methods x datasets x runs`` grid.
        Defaults to serial; ``n_jobs=4`` selects a 4-worker thread pool,
        ``backend="process"`` a process pool (which requires picklable
        catalogue generators).  Seeds are pre-drawn in serial order, so
        results are identical across backends — see :mod:`repro.parallel`.
    config_overrides:
        Optional config-field overrides applied to every campaign cell
        whose estimator config declares the field (the CLI's ``--config``
        / ``--set`` plumbing) — see :func:`run_single_benchmark`.
    retry:
        Optional :class:`~repro.parallel.RetryPolicy` applied to the
        campaign fan-out (bounded retries, per-attempt timeouts, fan-out
        deadline).  Runtime-only: cell seeds are pre-drawn, so a retried
        cell reproduces its original result.
    fallback:
        Optional degradation chain (backend spec or sequence) demoted to
        when the primary backend's pool-rebuild budget is exhausted — see
        :func:`repro.parallel.resolve_backend`.
    """

    def __init__(
        self,
        methods: Optional[Sequence[str]] = None,
        *,
        catalogue: Optional[DatasetCatalogue] = None,
        n_runs: int = 1,
        random_state=None,
        backend: Union[None, str, ExecutionBackend] = None,
        n_jobs: Optional[int] = None,
        config_overrides: Optional[Dict[str, object]] = None,
        retry: Optional[RetryPolicy] = None,
        fallback: Union[None, str, ExecutionBackend, Sequence] = None,
    ) -> None:
        if methods is None:
            methods = all_baseline_names() + ["kgraph"]
        if not methods:
            raise BenchmarkError("at least one method is required")
        self.methods = [get_method(name).name for name in methods]
        self.catalogue = catalogue if catalogue is not None else default_catalogue()
        self.n_runs = check_positive_int(n_runs, "n_runs")
        self.backend = backend
        self.n_jobs = n_jobs
        self.config_overrides = dict(config_overrides) if config_overrides else None
        self.retry = retry
        self.fallback = fallback
        self._seed_pool = SeedSequencePool(random_state)

    # ------------------------------------------------------------------ #
    def _job_result(self, job: _CampaignJob, outcome) -> BenchmarkResult:
        """Turn a job outcome into a result, capturing job-level failures.

        Method errors are already recorded by :func:`run_single_benchmark`;
        this additionally isolates failures of the job itself (dataset
        generation, or pickling for the process backend) so one broken cell
        cannot take down a whole campaign.
        """
        if outcome.ok:
            return outcome.value
        return BenchmarkResult(
            method=job.method_name,
            family=get_method(job.method_name).family,
            dataset=job.spec.name,
            dataset_type=job.spec.dataset_type,
            n_series=job.spec.n_series,
            length=job.spec.length,
            n_classes=job.spec.n_classes,
            error=outcome.error,
        )

    def run(
        self,
        dataset_names: Optional[Sequence[str]] = None,
        *,
        progress: Optional[ProgressCallback] = None,
    ) -> List[BenchmarkResult]:
        """Run the full campaign and return one averaged result per pair.

        Parameters
        ----------
        dataset_names:
            Subset of catalogue names; ``None`` runs the whole catalogue.
        progress:
            Optional callback ``(method, dataset, result)`` invoked after each
            individual run (used by the CLI to stream progress).  With a
            parallel backend the callback fires in completion order.
        """
        names = list(dataset_names) if dataset_names is not None else self.catalogue.names()
        # Build the campaign grid with seeds drawn in the exact nested-loop
        # order of the serial implementation (dataset -> method -> run).
        jobs: List[_CampaignJob] = []
        for dataset_name in names:
            spec = self.catalogue.get(dataset_name)
            for method_name in self.methods:
                for run_index in range(self.n_runs):
                    jobs.append(
                        _CampaignJob(
                            method_name=method_name,
                            spec=spec,
                            run_index=run_index,
                            dataset_seed=self._seed_pool.next_seed(),
                            method_seed=self._seed_pool.next_seed(),
                            config_overrides=self.config_overrides,
                        )
                    )
        if not jobs:
            raise BenchmarkError("the benchmark campaign produced no results")

        # Convert each outcome exactly once, so the object streamed to the
        # progress callback is the same one that enters the averaging step.
        converted: Dict[int, BenchmarkResult] = {}

        def _result_for(outcome) -> BenchmarkResult:
            # setdefault keeps this safe even against a backend that violates
            # the calling-thread contract of on_result: the same object always
            # wins, so progress and averaging never see diverging results.
            if outcome.index not in converted:
                converted.setdefault(
                    outcome.index, self._job_result(jobs[outcome.index], outcome)
                )
            return converted[outcome.index]

        on_result = None
        if progress is not None:
            def on_result(outcome) -> None:
                job = jobs[outcome.index]
                progress(job.method_name, job.spec.name, _result_for(outcome))

        with backend_scope(
            self.backend, self.n_jobs, retry=self.retry, fallback=self.fallback
        ) as backend:
            if self.retry is not None:
                outcomes = backend.map_jobs(
                    _execute_campaign_job,
                    jobs,
                    on_result=on_result,
                    retry=self.retry,
                )
            else:
                outcomes = backend.map_jobs(
                    _execute_campaign_job, jobs, on_result=on_result
                )
        # Group by the outcome's own job index rather than list position, so
        # a third-party backend returning completion order cannot silently
        # misalign the per-pair averages.
        by_index = {outcome.index: outcome for outcome in outcomes}
        if sorted(by_index) != list(range(len(jobs))):
            raise BenchmarkError(
                f"execution backend returned outcomes for {sorted(by_index)} "
                f"but the campaign submitted {len(jobs)} jobs"
            )

        results: List[BenchmarkResult] = []
        for start in range(0, len(jobs), self.n_runs):
            per_run = [
                _result_for(by_index[index])
                for index in range(start, start + self.n_runs)
            ]
            results.append(self._average(per_run))
        return results

    def run_estimator_grid(
        self,
        dataset: TimeSeriesDataset,
        name: str,
        grid,
        *,
        base: Union[None, Dict[str, object], "EstimatorConfig"] = None,
        stage_cache=None,
        cache_budget: Optional[int] = None,
        cache_policy: str = "lru",
        random_state=0,
        progress: Optional[ProgressCallback] = None,
        shard: Optional[bool] = None,
    ) -> List[BenchmarkResult]:
        """Sweep one registered estimator's config grid on one dataset.

        Accepts *any* estimator registry name.  Each combination becomes a
        typed config (one validation code path — an invalid value fails
        naming the offending field), the estimator is built through the
        registry, and for k-Graph every combination fits through the stage
        pipeline with a *shared* :class:`~repro.pipeline.StageCache`, so
        sweeping a parameter that only affects downstream stages replays
        the expensive per-length embedding checkpoints instead of
        refitting from scratch — results are bit-identical to independent
        cold fits.

        Parameters
        ----------
        dataset:
            The materialised dataset every combination runs on.
        grid:
            Either a dict-of-lists expanded deterministically via
            :meth:`~repro.api.EstimatorConfig.expand_grid` (any invalid
            combination fails up front), or an explicit sequence of
            override dicts (combinations are isolated: a bad combo is
            recorded as a failed result, the sweep continues).
        base:
            Config fields shared by every combination — a plain dict of
            overrides or a full :class:`~repro.api.EstimatorConfig`.
        stage_cache:
            k-Graph only: checkpoint store shared across the grid (a
            :class:`~repro.pipeline.StageCache`, a directory path, or
            ``None`` for a fresh in-memory cache scoped to this call).
        cache_budget, cache_policy:
            k-Graph only: byte budget and eviction policy (``"lru"`` /
            ``"lfu"``) applied when ``stage_cache`` is a directory path —
            a paper-scale sweep can share one bounded on-disk cache.
            Rejected when ``stage_cache`` is an already-configured
            :class:`~repro.pipeline.StageCache` instance.
        random_state:
            Seed used by *every* combination — a shared seed is what makes
            upstream checkpoints hit across the grid.
        progress:
            Optional ``(method, dataset, result)`` callback per combination.
        shard:
            Dispatch each combination as one job through the runner's
            backend instead of the serial in-process loop.  ``None``
            (default) auto-enables sharding when the backend is
            distributed (a ``"distributed:..."`` spec or a
            ``DistributedBackend``); ``True`` forces it through any
            backend, ``False`` keeps the serial sweep.  Combinations carry
            the shared seed, so sharded results are bit-identical to the
            serial sweep (``runtime_seconds`` and the ``stages_cached`` /
            ``stages_executed`` accounting may differ — workers do not
            share an in-memory stage cache; pass a directory
            ``stage_cache`` to share checkpoints through the filesystem).

        Returns one :class:`BenchmarkResult` per combination, in grid
        order; for k-Graph, ``measures["stages_cached"]`` /
        ``measures["stages_executed"]`` record how much of each fit was
        replayed.
        """
        from typing import Mapping

        from repro.api.config import EstimatorConfig, grid_combinations
        from repro.api.registry import default_registry

        spec = default_registry().get(name)
        is_kgraph = spec.name == "kgraph"

        base_fields: Dict[str, object] = {}
        if isinstance(base, EstimatorConfig):
            if not isinstance(base, spec.config_cls):
                raise BenchmarkError(
                    f"estimator {spec.name!r} expects a "
                    f"{spec.config_cls.__name__} base, got {type(base).__name__}"
                )
            base_fields = {
                field_name: getattr(base, field_name)
                for field_name in spec.config_cls.field_names()
            }
        elif base is not None:
            base_fields = dict(base)

        def _combo_params(combo: Dict[str, object]) -> Dict[str, object]:
            """One combination's parameters (see :func:`_grid_params`)."""
            return _grid_params(spec.name, dataset, base_fields, combo, random_state)

        if isinstance(grid, Mapping):
            # Dict-of-lists grids are declarative: expand through the shared
            # deterministic-order helper and validate every combination
            # before any fit starts, so a bad value fails here with the
            # offending field named.
            combos = grid_combinations(grid)
            for combo in combos:
                spec.make_config(**_combo_params(combo))
        else:
            combos = [dict(combo) for combo in grid]
        if not combos:
            raise BenchmarkError(
                f"run_estimator_grid needs at least one combination for {spec.name!r}"
            )

        if shard is None:
            # Auto-shard when the backend is distributed: a grid swept
            # in-process would leave the worker pool idle.
            shard = (
                isinstance(self.backend, str)
                and self.backend.strip().startswith("distributed")
            ) or getattr(self.backend, "name", None) in ("distributed", "fallback")
            if getattr(self.backend, "name", None) == "fallback":
                shard = (
                    getattr(getattr(self.backend, "active", None), "name", None)
                    == "distributed"
                )
        if shard:
            return self._run_grid_sharded(
                spec,
                dataset,
                combos,
                base_fields=base_fields,
                stage_cache=stage_cache,
                cache_budget=cache_budget,
                cache_policy=cache_policy,
                random_state=random_state,
                progress=progress,
            )

        cache = None
        if is_kgraph:
            from repro.pipeline import MemoryStageCache, resolve_stage_cache

            cache = resolve_stage_cache(
                stage_cache, budget_bytes=cache_budget, policy=cache_policy
            )
            if cache is None:
                cache = MemoryStageCache(max_entries=64)

        results: List[BenchmarkResult] = []
        # One resolved backend serves every combination, so a named pool is
        # built once per sweep and the runner's retry/fallback reach every
        # fit, as in run() and the sharded path.
        with backend_scope(
            self.backend, self.n_jobs, retry=self.retry, fallback=self.fallback
        ) as backend:
            for combo in combos:
                label = _combo_label(spec.name, combo)
                result = BenchmarkResult(
                    method=label,
                    family=spec.family,
                    dataset=dataset.name,
                    dataset_type=dataset.dataset_type,
                    n_series=dataset.n_series,
                    length=dataset.length,
                    n_classes=dataset.n_classes,
                )
                start = time.perf_counter()
                try:
                    estimator = spec.build(
                        spec.make_config(**_combo_params(combo)),
                        backend=backend,
                        stage_cache=cache,
                        retry=self.retry,
                    )
                    labels = estimator.fit_predict(dataset.data)
                    result.runtime_seconds = time.perf_counter() - start
                    if dataset.labels is not None:
                        result.measures = clustering_report(dataset.labels, labels)
                    report = getattr(estimator, "pipeline_report_", None)
                    if report is not None:
                        result.measures["stages_cached"] = float(len(report.cached))
                        result.measures["stages_executed"] = float(len(report.executed))
                except Exception as exc:  # noqa: BLE001 - one bad combo must not stop the sweep
                    result.runtime_seconds = time.perf_counter() - start
                    result.error = f"{type(exc).__name__}: {exc}"
                if progress is not None:
                    progress(label, dataset.name, result)
                results.append(result)
        return results

    def _run_grid_sharded(
        self,
        spec,
        dataset: TimeSeriesDataset,
        combos: List[Dict[str, object]],
        *,
        base_fields: Dict[str, object],
        stage_cache,
        cache_budget: Optional[int],
        cache_policy: str,
        random_state,
        progress: Optional[ProgressCallback],
    ) -> List[BenchmarkResult]:
        """Dispatch one :func:`_execute_grid_combo` job per combination.

        Workers cannot reach an in-memory stage cache, so sharding accepts
        only a directory path (shared through the filesystem) or no cache
        at all; each job is self-contained and a killed worker's
        combinations are recovered by the backend's quarantine/bisection
        machinery — results stay bit-identical to the serial sweep.
        """
        from pathlib import Path as _Path

        from repro.pipeline.cache import StageCache

        if isinstance(stage_cache, StageCache):
            raise BenchmarkError(
                "a sharded grid cannot share an in-memory StageCache "
                "instance across workers; pass a cache directory path "
                "instead (workers share checkpoints through the filesystem)"
            )
        cache_dir = (
            str(stage_cache)
            if spec.name == "kgraph"
            and isinstance(stage_cache, (str, _Path))
            else None
        )
        jobs = [
            _GridJob(
                estimator=spec.name,
                dataset=dataset,
                base_fields=dict(base_fields),
                combo=dict(combo),
                random_state=random_state,
                stage_cache_dir=cache_dir,
                cache_budget=cache_budget,
                cache_policy=cache_policy,
            )
            for combo in combos
        ]

        converted: Dict[int, BenchmarkResult] = {}

        def _result_for(outcome) -> BenchmarkResult:
            if outcome.index not in converted:
                if outcome.ok:
                    converted.setdefault(outcome.index, outcome.value)
                else:
                    job = jobs[outcome.index]
                    converted.setdefault(
                        outcome.index,
                        BenchmarkResult(
                            method=_combo_label(spec.name, job.combo),
                            family=spec.family,
                            dataset=dataset.name,
                            dataset_type=dataset.dataset_type,
                            n_series=dataset.n_series,
                            length=dataset.length,
                            n_classes=dataset.n_classes,
                            error=outcome.error,
                        ),
                    )
            return converted[outcome.index]

        on_result = None
        if progress is not None:
            def on_result(outcome) -> None:
                result = _result_for(outcome)
                progress(result.method, dataset.name, result)

        with backend_scope(
            self.backend, self.n_jobs, retry=self.retry, fallback=self.fallback
        ) as backend:
            if self.retry is not None:
                outcomes = backend.map_jobs(
                    _execute_grid_combo, jobs, on_result=on_result, retry=self.retry
                )
            else:
                outcomes = backend.map_jobs(
                    _execute_grid_combo, jobs, on_result=on_result
                )
        by_index = {outcome.index: outcome for outcome in outcomes}
        if sorted(by_index) != list(range(len(jobs))):
            raise BenchmarkError(
                f"execution backend returned outcomes for {sorted(by_index)} "
                f"but the grid submitted {len(jobs)} jobs"
            )
        return [_result_for(by_index[index]) for index in range(len(jobs))]

    @staticmethod
    def _average(runs: List[BenchmarkResult]) -> BenchmarkResult:
        """Average measures/runtime over repeated runs of the same pair."""
        successful = [run for run in runs if not run.failed]
        template = successful[0] if successful else runs[0]
        if not successful:
            return template
        measures: Dict[str, float] = {}
        for key in successful[0].measures:
            measures[key] = float(np.mean([run.measures[key] for run in successful]))
        return BenchmarkResult(
            method=template.method,
            family=template.family,
            dataset=template.dataset,
            dataset_type=template.dataset_type,
            n_series=template.n_series,
            length=template.length,
            n_classes=template.n_classes,
            measures=measures,
            runtime_seconds=float(np.mean([run.runtime_seconds for run in successful])),
            error=None,
        )


# Register the campaign/grid job functions for distributed dispatch:
# `BenchmarkRunner.run` and sharded `run_estimator_grid` fan these out
# through whatever backend the runner was given, including a pool of
# `graphint worker` services (see repro.distributed.registry).
from repro.distributed.registry import register_worker_function  # noqa: E402

register_worker_function(_execute_campaign_job)
register_worker_function(_execute_grid_combo)
