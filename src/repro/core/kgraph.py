"""The :class:`KGraph` estimator — the full pipeline of Figure 1.

``KGraph.fit`` runs, in order:

1. **Graph Embedding** — one :class:`~repro.graph.structure.TimeSeriesGraph`
   per subsequence length in the length grid (M graphs).
2. **Graph Clustering** — per-graph node/edge feature matrices clustered with
   k-Means, giving M partitions L_ℓ.
3. **Consensus Clustering** — co-association matrix over the M partitions and
   spectral clustering on it, giving the final labels L.
4. **Interpretability Computation** — consistency W_c(ℓ) and interpretability
   factor W_e(ℓ) per length, selection of the optimal length ¯ℓ, and λ/γ
   graphoid extraction on the selected graph.

Every intermediate artifact is kept on the fitted estimator (and bundled in
:class:`KGraphResult`) because the Graphint frames visualise all of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.config import KGraphConfig
from repro.core.graph_clustering import GraphPartition
from repro.core.interpretability import LengthScore
from repro.exceptions import NotFittedError, ValidationError
from repro.graph.graphoid import Graphoid, cluster_graphoids, score_matrix
from repro.graph.structure import TimeSeriesGraph
from repro.parallel import ExecutionBackend, RetryPolicy, backend_scope
from repro.utils.normalization import (
    apply_znormalization,
    znormalization_stats,
)
from repro.utils.rng import spawn_rng
from repro.utils.validation import (
    check_probability,
    check_random_state,
    check_time_series_dataset,
)
from repro.utils.windows import (
    length_grid,
    subsequence_count,
    window_blocks,
)


@dataclass
class KGraphResult:
    """Everything the Graphint frames need about one fitted k-Graph model.

    Attributes
    ----------
    labels:
        Final consensus labels L.
    graphs:
        Mapping length ℓ -> transition graph G_ℓ.
    partitions:
        Per-length partitions (labels L_ℓ and k-Means inertia).
    consensus_matrix:
        Co-association matrix M_C used by the consensus step.
    length_scores:
        ``W_c`` / ``W_e`` per length (Under-the-hood frame, panel 4.1).
    optimal_length:
        The selected length ¯ℓ.
    graphoids:
        Mapping cluster -> λ-Graphoid and γ-Graphoid on the selected graph.
    timings:
        Wall-clock seconds per timing section: the worker-side sections
        (``graph_embedding``, ``graph_clustering``, ...) plus — for
        pipeline-driven fits — one ``stage:<name>`` section per pipeline
        stage (see :meth:`stage_timings`).
    """

    labels: np.ndarray
    graphs: Dict[int, TimeSeriesGraph]
    partitions: List[GraphPartition]
    consensus_matrix: np.ndarray
    length_scores: List[LengthScore]
    optimal_length: int
    lambda_graphoids: Dict[int, Graphoid] = field(default_factory=dict)
    gamma_graphoids: Dict[int, Graphoid] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    #: Per-stage pickled payload bytes shipped to process backends during
    #: the fit (stage name -> bytes); empty for serial/thread fits and for
    #: models loaded from artifacts.
    bytes_shipped: Dict[str, int] = field(default_factory=dict)

    @property
    def optimal_graph(self) -> TimeSeriesGraph:
        """The graph G_{¯ℓ} rendered by the Graph frame."""
        return self.graphs[self.optimal_length]

    @property
    def n_clusters(self) -> int:
        """Number of clusters in the final labels."""
        return int(np.unique(self.labels).size)

    def partition_for(self, length: int) -> GraphPartition:
        """The per-length partition L_ℓ."""
        for partition in self.partitions:
            if partition.length == length:
                return partition
        raise ValidationError(f"no partition for length {length}")

    def stage_timings(self) -> Dict[str, float]:
        """Per-pipeline-stage wall-clock seconds, in execution order.

        Extracted from the ``stage:<name>`` Stopwatch sections the pipeline
        records around each stage (including near-zero entries for stages
        replayed from a cache).  Empty for models loaded from pre-pipeline
        artifacts.
        """
        prefix = "stage:"
        return {
            name[len(prefix):]: float(seconds)
            for name, seconds in self.timings.items()
            if name.startswith(prefix)
        }

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable run summary (Under-the-hood frame header)."""
        return {
            "n_series": int(self.labels.shape[0]),
            "n_clusters": self.n_clusters,
            "lengths": sorted(self.graphs),
            "optimal_length": self.optimal_length,
            "length_scores": [
                {
                    "length": score.length,
                    "consistency": score.consistency,
                    "interpretability": score.interpretability,
                    "combined": score.combined,
                }
                for score in self.length_scores
            ],
            "graph_sizes": {
                length: graph.summary() for length, graph in self.graphs.items()
            },
            "timings": dict(self.timings),
            "stage_timings": self.stage_timings(),
            "stage_bytes_shipped": {
                name: int(value) for name, value in self.bytes_shipped.items()
            },
        }


@dataclass(frozen=True)
class PredictionState:
    """Everything ``predict`` needs, extracted from a fitted model once.

    The state is a plain bundle of NumPy arrays (hence picklable), so the
    serving layer can prepare it once per model and dispatch prediction
    micro-batches through any :class:`~repro.parallel.ExecutionBackend`
    without re-deriving patterns and centroids per request — that
    per-request preparation dominates the cost of a naive single-series
    ``predict`` call.

    Attributes
    ----------
    length:
        Selected subsequence length ¯ℓ of the graph predictions run on.
    stride:
        Subsequence extraction stride of the fitted model.
    patterns:
        (n_nodes, ¯ℓ) matrix of node patterns in node-sorted order.
    patterns_sq:
        Per-row squared norms of ``patterns`` (pre-computed once so the
        window-to-pattern distance evaluation never recomputes them).
    centroids:
        (n_clusters, n_nodes) mean training node-visit profile per cluster.
    centroids_sq:
        Per-row squared norms of ``centroids`` (pre-computed once for the
        profile-to-centroid assignment).
    clusters:
        Cluster identifiers aligned with the ``centroids`` rows.
    """

    length: int
    stride: int
    patterns: np.ndarray
    patterns_sq: np.ndarray
    centroids: np.ndarray
    centroids_sq: np.ndarray
    clusters: np.ndarray

    @property
    def n_nodes(self) -> int:
        """Number of nodes of the selected graph."""
        return int(self.patterns.shape[0])

    def predict_batch(self, array: np.ndarray) -> np.ndarray:
        """Assign validated series to clusters (the ServableState contract).

        The method form of :func:`predict_with_state`, so the serving
        engine can dispatch *any* estimator's prepared state — k-Graph's
        graph-profile assignment here, a baseline's centroid assignment
        elsewhere — through one uniform call.
        """
        return predict_with_state(self, array)


def _profiles_to_predictions(
    state: PredictionState, profiles: np.ndarray
) -> np.ndarray:
    """Map normalised node-visit profiles to cluster labels.

    Uses the pre-computed ``centroids_sq`` (hoisted on the state) in the
    expanded squared-distance form ``|p|^2 - 2 p.c + |c|^2``, shared by
    :func:`predict_with_state` and the reference oracle in
    ``tests/oracles/predict.py`` so their assignments can never drift.

    .. note::
       Pre-vectorization releases computed
       ``np.linalg.norm(centroids - profile)`` directly.  The expanded form
       is what makes the hoisted ``centroids_sq`` useful, but it rounds
       differently in the last ulps, so a profile sitting almost exactly
       between two centroids may resolve to the other — equally near —
       cluster than an older release chose.
    """
    distances = (
        np.sum(profiles**2, axis=1)[:, None]
        - 2.0 * profiles @ state.centroids.T
        + state.centroids_sq[None, :]
    )
    nearest = np.argmin(distances, axis=1)
    return state.clusters[nearest].astype(int)


def predict_with_state(state: PredictionState, array: np.ndarray) -> np.ndarray:
    """Assign already-validated series to clusters using a prepared state.

    Module-level (hence picklable) so serving micro-batches can be
    dispatched through process backends too.  The batch of equal-length
    series is processed in blocks of whole series, the blocks the graph
    embedding uses (:func:`~repro.utils.windows.window_blocks`): per block,
    one z-normalisation, one GEMM against the node patterns and one
    segmented bincount produce every series' node-visit profile at once.
    The per-series maths is unchanged, so results are bit-identical to
    the one-series-at-a-time oracle in ``tests/oracles/predict.py`` and a
    prediction never depends on which batch its series travelled in.
    Transient memory is bounded by the block size, not by the batch's
    stacked windows.
    """
    n_series = array.shape[0]
    if n_series == 0:
        return np.empty(0, dtype=int)
    n_windows = subsequence_count(array.shape[1], state.length, state.stride)
    predictions = np.empty(n_series, dtype=int)
    for start, stop, stacked in window_blocks(array, state.length, state.stride):
        stacked = apply_znormalization(stacked, *znormalization_stats(stacked))
        distances = (
            np.sum(stacked**2, axis=1)[:, None]
            - 2.0 * stacked @ state.patterns.T
            + state.patterns_sq[None, :]
        )
        assignments = np.argmin(distances, axis=1)
        # Segmented bincount: offset each series' assignments into its own
        # block of node ids, count once, reshape into per-series profiles.
        series_of_window = np.repeat(np.arange(stop - start), n_windows)
        profiles = np.bincount(
            series_of_window * state.n_nodes + assignments,
            minlength=(stop - start) * state.n_nodes,
        ).astype(float)
        profiles = profiles.reshape(stop - start, state.n_nodes)
        totals = profiles.sum(axis=1, keepdims=True)
        profiles /= np.where(totals > 0, totals, 1.0)
        predictions[start:stop] = _profiles_to_predictions(state, profiles)
    return predictions


#: Sentinel distinguishing "kwarg not passed" from any real value, so the
#: constructor shim can tell explicit overrides apart from defaults.
_UNSET = object()


class KGraph:
    """Graph-based interpretable time series clustering.

    The full parameterisation lives in a
    :class:`~repro.api.config.KGraphConfig` (``config=``); the individual
    keyword parameters below remain accepted and are folded into the
    config, so ``KGraph(**old_kwargs)`` keeps working.  Passing a kwarg
    that *conflicts* with an explicit ``config`` emits a
    ``DeprecationWarning`` (the kwarg wins — it is the more explicit
    request), nudging callers toward one source of parameter truth.

    Parameters
    ----------
    config:
        Optional :class:`~repro.api.config.KGraphConfig` carrying every
        algorithm parameter; validation happens at config construction.
    n_clusters:
        Number of clusters ``k``.
    n_lengths:
        Number of subsequence lengths M in the grid (ignored when ``lengths``
        is given explicitly).
    lengths:
        Optional explicit list of subsequence lengths.
    stride:
        Subsequence extraction stride (1 = every subsequence).
    n_sectors:
        Angular sectors of the radial-scan node extraction.
    feature_mode:
        ``"both"`` (node + edge features, the paper's design), ``"nodes"`` or
        ``"edges"`` — exposed for the ablation study.
    lambda_threshold, gamma_threshold:
        Default λ / γ used for the graphoids attached to the result (the Graph
        frame lets the user change them interactively afterwards).
    random_state:
        Seed or generator controlling every stochastic sub-step.
    backend, n_jobs:
        Execution backend for the two stages that fan out over the M
        candidate lengths: per-length embedding and per-length graph
        clustering.  Consensus, length selection and graphoid extraction
        each work on one consensus labelling and run in the calling
        process.  Defaults to serial execution; ``n_jobs=4`` selects a
        4-worker thread pool, ``backend="process"`` a process pool.  Results
        are bit-identical across backends for a fixed ``random_state`` —
        see :mod:`repro.parallel`.
    stage_backends:
        Optional per-stage backend overrides, mapping ``embed`` or
        ``graph_cluster`` to a backend name or
        :class:`~repro.parallel.ExecutionBackend` instance — e.g.
        ``{"embed": "thread"}`` runs only the per-length embedding fan-out
        on a thread pool.  Stages without an override use ``backend``; any
        other stage name is a :class:`~repro.exceptions.ValidationError`.
    stage_cache:
        Optional stage checkpoint store: a
        :class:`~repro.pipeline.StageCache` instance (share one across fits
        to reuse upstream stages over a parameter grid) or a directory path
        (selects a :class:`~repro.pipeline.DiskStageCache` for
        cross-session resume).  With a cache, a re-fit with one changed
        parameter replays every stage whose cache key is
        unchanged and re-executes only the affected stages — results are
        identical either way.  ``fit`` records what happened on
        ``pipeline_report_``.
    retry:
        Optional :class:`~repro.parallel.RetryPolicy` applied to every
        stage fan-out (bounded retries, per-attempt timeouts, fan-out
        deadline).  Runtime-only: jobs carry their own seeds, so retrying
        one never changes results.
    fallback:
        Optional degradation chain — one backend spec or a sequence (e.g.
        ``("process", "thread")``): when the primary backend's worker-pool
        rebuild budget is exhausted, the fit demotes to the next backend
        with a structured warning and bit-identical results (see
        :class:`~repro.parallel.FallbackBackend`).

    Examples
    --------
    >>> from repro.datasets import generate_dataset
    >>> from repro.core import KGraph
    >>> dataset = generate_dataset("cylinder_bell_funnel", random_state=0)
    >>> model = KGraph(n_clusters=3, n_lengths=3, random_state=0)
    >>> labels = model.fit_predict(dataset.data)
    >>> labels.shape == (dataset.n_series,)
    True
    """

    def __init__(
        self,
        n_clusters: int = _UNSET,
        *,
        config: Optional[KGraphConfig] = None,
        n_lengths: int = _UNSET,
        lengths: Optional[Sequence[int]] = _UNSET,
        stride: int = _UNSET,
        n_sectors: int = _UNSET,
        feature_mode: str = _UNSET,
        lambda_threshold: float = _UNSET,
        gamma_threshold: float = _UNSET,
        random_state=_UNSET,
        backend: Union[None, str, ExecutionBackend] = None,
        n_jobs: Optional[int] = None,
        stage_backends: Optional[Dict[str, Union[str, ExecutionBackend]]] = None,
        stage_cache=None,
        retry: Optional[RetryPolicy] = None,
        fallback: Union[None, str, ExecutionBackend, Sequence] = None,
    ) -> None:
        overrides = {
            name: value
            for name, value in (
                ("n_clusters", n_clusters),
                ("n_lengths", n_lengths),
                ("lengths", lengths),
                ("stride", stride),
                ("n_sectors", n_sectors),
                ("feature_mode", feature_mode),
                ("lambda_threshold", lambda_threshold),
                ("gamma_threshold", gamma_threshold),
                ("random_state", random_state),
            )
            if value is not _UNSET
        }
        # A live Generator cannot live in a (serialisable) config; it stays
        # on the instance and the config records no seed — the same nulling
        # rule model artifacts have always applied.
        self._runtime_random_state: Optional[np.random.Generator] = None
        if isinstance(overrides.get("random_state"), np.random.Generator):
            self._runtime_random_state = overrides["random_state"]
            overrides["random_state"] = None
        if config is None:
            self.config = KGraphConfig(**overrides)
        else:
            if not isinstance(config, KGraphConfig):
                raise ValidationError(
                    f"config must be a KGraphConfig, got {type(config).__name__}"
                )
            candidate = config.replace(**overrides) if overrides else config
            conflicts = sorted(
                name
                for name in overrides
                if getattr(candidate, name) != getattr(config, name)
            )
            if conflicts:
                warnings.warn(
                    f"KGraph received both config= and conflicting keyword(s) "
                    f"{conflicts}; the keywords win, but overriding an explicit "
                    "config this way is deprecated — build the config you mean "
                    "with config.replace(...) instead",
                    DeprecationWarning,
                    stacklevel=2,
                )
            self.config = candidate
        self.backend = backend
        self.n_jobs = n_jobs
        if stage_backends is not None:
            if not isinstance(stage_backends, dict):
                raise ValidationError(
                    "stage_backends must be a dict mapping stage names to backends, "
                    f"got {type(stage_backends).__name__}"
                )
            # Imported lazily: the stages module imports this one's siblings.
            from repro.pipeline.kgraph_stages import KGRAPH_FANOUT_STAGES

            unknown = sorted(set(stage_backends) - set(KGRAPH_FANOUT_STAGES))
            if unknown:
                raise ValidationError(
                    f"unknown stage names in stage_backends: {unknown}; only the "
                    f"per-length stages take a backend: {list(KGRAPH_FANOUT_STAGES)}"
                )
        self.stage_backends = stage_backends
        self.stage_cache = stage_cache
        if retry is not None and not isinstance(retry, RetryPolicy):
            raise ValidationError(
                f"retry must be a RetryPolicy or None, got {type(retry).__name__}"
            )
        self.retry = retry
        self.fallback = fallback

        self.result_: Optional[KGraphResult] = None
        self.labels_: Optional[np.ndarray] = None
        #: Per-stage ledger of the last pipeline-driven fit (cache keys,
        #: cached-vs-executed flags, wall-clock seconds); ``None`` before
        #: fitting and on loaded artifacts.
        self.pipeline_report_ = None

    # ------------------------------------------------------------------ #
    # config-backed parameter views (the config is the source of truth)
    # ------------------------------------------------------------------ #
    @property
    def n_clusters(self) -> int:
        """Number of clusters ``k`` (from the config)."""
        return self.config.n_clusters

    @property
    def n_lengths(self) -> int:
        """Size of the automatic length grid (from the config)."""
        return self.config.n_lengths

    @property
    def lengths(self) -> Optional[Tuple[int, ...]]:
        """Explicit subsequence lengths, or ``None`` (from the config)."""
        return self.config.lengths

    @property
    def stride(self) -> int:
        """Subsequence extraction stride (from the config)."""
        return self.config.stride

    @property
    def n_sectors(self) -> int:
        """Radial-scan sector count (from the config)."""
        return self.config.n_sectors

    @property
    def feature_mode(self) -> str:
        """Graph feature mode (from the config)."""
        return self.config.feature_mode

    @property
    def lambda_threshold(self) -> float:
        """Default λ-graphoid threshold (from the config)."""
        return self.config.lambda_threshold

    @property
    def gamma_threshold(self) -> float:
        """Default γ-graphoid threshold (from the config)."""
        return self.config.gamma_threshold

    @property
    def random_state(self):
        """The seed in effect: a runtime Generator if one was passed, else
        the config's integer seed (or ``None``)."""
        if self._runtime_random_state is not None:
            return self._runtime_random_state
        return self.config.random_state

    # ------------------------------------------------------------------ #
    # Estimator protocol: config round-trip
    # ------------------------------------------------------------------ #
    def get_config(self) -> KGraphConfig:
        """The typed config carrying this estimator's full parameterisation."""
        return self.config

    @classmethod
    def from_config(
        cls,
        config: KGraphConfig,
        *,
        backend: Union[None, str, ExecutionBackend] = None,
        n_jobs: Optional[int] = None,
        stage_backends: Optional[Dict[str, Union[str, ExecutionBackend]]] = None,
        stage_cache=None,
        retry: Optional[RetryPolicy] = None,
        fallback: Union[None, str, ExecutionBackend, Sequence] = None,
    ) -> "KGraph":
        """Build an estimator from its config plus runtime-only knobs.

        ``from_config(est.get_config())`` refits bit-identically to ``est``
        under the same seed: the config carries every result-affecting
        parameter, and the runtime knobs (backend, jobs, caches, retry
        policy, fallback chain) never change results.
        """
        return cls(
            config=config,
            backend=backend,
            n_jobs=n_jobs,
            stage_backends=stage_backends,
            stage_cache=stage_cache,
            retry=retry,
            fallback=fallback,
        )

    def summary(self) -> Dict[str, object]:
        """JSON-serialisable description of the fitted estimator.

        The fitted-result summary of :meth:`KGraphResult.summary` plus the
        estimator identity and config — the uniform shape every registered
        estimator returns.
        """
        self._check_fitted()
        return {
            "estimator": "kgraph",
            "config": self.config.to_dict(),
            **self.result_.summary(),
        }

    # ------------------------------------------------------------------ #
    def _resolve_lengths(self, series_length: int) -> List[int]:
        if self.lengths is not None:
            resolved = sorted({int(v) for v in self.lengths if 2 <= v < series_length})
            if not resolved:
                raise ValidationError(
                    "none of the requested subsequence lengths is valid for series of "
                    f"length {series_length}"
                )
            return resolved
        return length_grid(series_length, self.n_lengths)

    def validate_fit_input(self, data) -> np.ndarray:
        """Validate training ``data`` and return it as a 2-D array.

        The shared dataset checks give ``fit`` the same actionable failure
        modes :meth:`validate_predict_input` gives ``predict``: ragged
        inputs name the differing series lengths, NaN/infinite values are
        located (series and position), and datasets with fewer series than
        clusters or too-short series state the requirement in the message —
        instead of letting the failure surface deep in the windowing code.
        """
        return check_time_series_dataset(
            data, name="training data", min_series=self.n_clusters
        )

    def fit(
        self,
        data,
        *,
        backend: Union[None, str, ExecutionBackend] = None,
        n_jobs: Optional[int] = None,
        retry: Optional[RetryPolicy] = None,
        fallback: Union[None, str, ExecutionBackend, Sequence] = None,
    ) -> "KGraph":
        """Run the full k-Graph pipeline on ``data`` (n_series x length).

        The fit is driven by the five-stage pipeline of
        :mod:`repro.pipeline.kgraph_stages` (embed -> graph_cluster ->
        consensus -> length_selection -> interpretability).  Each stage is
        individually timeable and checkpointable (``stage_cache=``), the
        two per-length fan-outs are dispatchable on their own backends
        (``stage_backends=``), and results are bit-identical whichever
        backends run the stages and whichever stages replay a checkpoint.
        The per-stage ledger of what ran versus what was replayed lands on
        :attr:`pipeline_report_`.

        The keyword-only arguments override the estimator's runtime knobs
        for this fit only (``None`` falls back to the instance values) —
        all runtime-only, never result-affecting: ``backend``/``n_jobs``
        select execution, ``retry`` applies a
        :class:`~repro.parallel.RetryPolicy` to every stage fan-out, and
        ``fallback`` names the degradation chain (see
        :func:`repro.parallel.resolve_backend`).
        """
        array = self.validate_fit_input(data)
        rng = check_random_state(self.random_state)
        # Imported lazily: the concrete stages import the sibling core
        # modules, so a module-level import here would be circular.
        from repro.pipeline import resolve_stage_cache, stage_backend_scope

        cache = resolve_stage_cache(self.stage_cache)
        backend = backend if backend is not None else self.backend
        n_jobs = n_jobs if n_jobs is not None else self.n_jobs
        retry = retry if retry is not None else self.retry
        fallback = fallback if fallback is not None else self.fallback
        # Pooled workers of a backend we create here are released when the
        # fit ends; a caller-supplied backend instance stays open.
        with backend_scope(
            backend, n_jobs, retry=retry, fallback=fallback
        ) as resolved:
            with stage_backend_scope(self.stage_backends, n_jobs) as per_stage:
                return self._fit_via_pipeline(
                    array, rng, resolved, per_stage, cache, retry=retry
                )

    def _fit_via_pipeline(
        self,
        array: np.ndarray,
        rng: np.random.Generator,
        backend: ExecutionBackend,
        stage_backends: Dict[str, ExecutionBackend],
        cache,
        retry: Optional[RetryPolicy] = None,
    ) -> "KGraph":
        from repro.pipeline import PipelineContext, build_kgraph_pipeline

        lengths = self._resolve_lengths(array.shape[1])
        # Pre-spawn one child stream per length (plus one for the consensus
        # step), so the stages stay deterministic no matter which backend
        # runs them or which checkpoints are replayed.
        child_rngs = spawn_rng(rng, len(lengths) + 1)
        consensus_rng, per_length_rngs = child_rngs[0], child_rngs[1:]

        pipeline = build_kgraph_pipeline()
        ctx = PipelineContext(
            # The stages' flat config view is derived from the typed config,
            # so the cache-key inputs and the estimator's parameters share
            # one source of truth.
            config=self.config.stage_config(),
            values={
                "array": array,
                "lengths": lengths,
                "per_length_rngs": list(per_length_rngs),
                "consensus_rng": consensus_rng,
            },
            backend=backend,
            stage_backends=stage_backends,
            retry=retry,
        )
        report = pipeline.run(
            ctx, cache=cache, config_hash=self.config.config_hash()
        )

        self.result_ = KGraphResult(
            labels=ctx.values["labels"],
            graphs=ctx.values["graphs"],
            partitions=ctx.values["partitions"],
            consensus_matrix=ctx.values["consensus_matrix"],
            length_scores=ctx.values["length_scores"],
            optimal_length=ctx.values["optimal_length"],
            lambda_graphoids=ctx.values["lambda_graphoids"],
            gamma_graphoids=ctx.values["gamma_graphoids"],
            timings=ctx.watch.totals(),
            bytes_shipped=dict(ctx.bytes_shipped),
        )
        self.labels_ = self.result_.labels
        self.pipeline_report_ = report
        return self

    def fit_predict(self, data) -> np.ndarray:
        """Fit the pipeline and return the final labels."""
        return self.fit(data).labels_

    def prediction_state(self) -> PredictionState:
        """Extract the prepared :class:`PredictionState` of the fitted model.

        ``predict`` derives this on every call; long-lived servers (see
        :mod:`repro.serve`) extract it once per model and reuse it across
        requests, which amortises the pattern/centroid preparation that
        otherwise dominates single-series prediction latency.
        """
        self._check_fitted()
        graph = self.result_.optimal_graph
        labels = self.result_.labels
        # Node patterns are stored as mean z-normalised subsequences.
        patterns = graph.patterns
        training_profiles = graph.node_feature_matrix(normalize=True)
        clusters = np.unique(labels)
        centroids = np.vstack([
            training_profiles[labels == cluster].mean(axis=0) for cluster in clusters
        ])
        return PredictionState(
            length=graph.length,
            stride=self.stride,
            patterns=patterns,
            patterns_sq=np.sum(patterns**2, axis=1),
            centroids=centroids,
            centroids_sq=np.sum(centroids**2, axis=1),
            clusters=clusters,
        )

    def validate_predict_input(self, data) -> np.ndarray:
        """Validate ``data`` for ``predict`` and return it as a 2-D array.

        Raises a :class:`~repro.exceptions.ValidationError` with an
        actionable message for every malformed input (wrong dimensionality,
        non-numeric values, NaNs, series too short for the selected
        subsequence length) instead of letting the failure surface deep in
        the windowing code.
        """
        self._check_fitted()
        array = check_time_series_dataset(data, name="predict input", min_series=1)
        length = self.result_.optimal_graph.length
        if array.shape[1] <= length:
            raise ValidationError(
                f"predict input series have length {array.shape[1]} but the fitted "
                f"model selected subsequence length {length}; series must be "
                f"longer than {length} to contain at least one strict subsequence "
                f"(pass series with length >= {length + 1})"
            )
        return array

    def predict(self, data) -> np.ndarray:
        """Assign new series to the fitted clusters (out-of-sample).

        Each new series is placed on the selected graph G_{¯ℓ} by assigning its
        z-normalised subsequences to the nearest node pattern, producing the
        same normalised node-visit profile the graph-clustering step uses for
        the training series.  The series is then assigned to the cluster whose
        average training profile is closest (Euclidean).

        This mirrors how the Graph frame overlays a new series' trajectory on
        the displayed graph, and gives k-Graph a standard estimator-style
        ``predict`` without refitting.
        """
        array = self.validate_predict_input(data)
        return predict_with_state(self.prediction_state(), array)

    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if self.result_ is None:
            raise NotFittedError(
                "this KGraph instance is not fitted yet; call fit(data) first, "
                "or load a previously fitted model with repro.serve.load_model()"
            )

    @property
    def optimal_length_(self) -> int:
        """Selected subsequence length ¯ℓ."""
        self._check_fitted()
        return self.result_.optimal_length

    @property
    def optimal_graph_(self) -> TimeSeriesGraph:
        """Graph associated with the selected length."""
        self._check_fitted()
        return self.result_.optimal_graph

    @property
    def consensus_matrix_(self) -> np.ndarray:
        """Co-association matrix M_C."""
        self._check_fitted()
        return self.result_.consensus_matrix

    @property
    def length_scores_(self) -> List[LengthScore]:
        """W_c / W_e scores per candidate length."""
        self._check_fitted()
        return self.result_.length_scores

    def graphoids(self, kind: str = "gamma") -> Dict[int, Graphoid]:
        """Graphoids of the fitted clustering (``kind`` is 'lambda' or 'gamma')."""
        self._check_fitted()
        if kind == "lambda":
            return dict(self.result_.lambda_graphoids)
        if kind == "gamma":
            return dict(self.result_.gamma_graphoids)
        raise ValidationError(f"kind must be 'lambda' or 'gamma', got {kind!r}")

    def recompute_graphoids(
        self, lambda_threshold: float, gamma_threshold: float
    ) -> Dict[str, Dict[int, Graphoid]]:
        """Re-extract graphoids at new thresholds without refitting.

        This is what the Graph frame's advanced-settings sliders call when the
        analyst moves λ or γ.
        """
        self._check_fitted()
        lambda_threshold = check_probability(lambda_threshold, "lambda_threshold")
        gamma_threshold = check_probability(gamma_threshold, "gamma_threshold")
        return cluster_graphoids(
            self.result_.optimal_graph,
            self.result_.labels,
            lambda_threshold,
            gamma_threshold,
        )

    def node_statistics(self) -> Dict[int, Dict[str, Dict[int, float]]]:
        """Per-node representativity and exclusivity on the optimal graph.

        Returns a mapping ``node -> {"representativity": {cluster: value},
        "exclusivity": {cluster: value}}`` — the histogram the Graph frame
        shows when the analyst selects a node.
        """
        self._check_fitted()
        graph = self.result_.optimal_graph
        labels = self.result_.labels
        clusters, representativity = score_matrix(graph, labels, edges=False, exclusivity=False)
        _, exclusivity = score_matrix(graph, labels, edges=False, exclusivity=True)
        clusters = clusters.tolist()
        return {
            node: {
                "representativity": dict(zip(clusters, representativity_row)),
                "exclusivity": dict(zip(clusters, exclusivity_row)),
            }
            for node, (representativity_row, exclusivity_row) in enumerate(
                zip(representativity.T.tolist(), exclusivity.T.tolist())
            )
        }
