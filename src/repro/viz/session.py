"""Analysis session: every artifact the dashboard needs for one dataset.

A :class:`GraphintSession` mirrors what the Streamlit app computes when the
user picks a dataset from the sidebar: it fits k-Graph and the two reference
baselines (k-Means, k-Shape), builds the quiz representations, and exposes
the fitted objects to the frame builders.  The session caches everything so
the dashboard/server can re-render frames with different widget values (λ, γ,
selected node, measure) without recomputation: that includes the HTML of the
frames no widget changes and the graph frame's force layout.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.api.config import KGraphConfig
from repro.cluster.kmeans import KMeans
from repro.cluster.kshape import KShape
from repro.core.kgraph import KGraph
from repro.exceptions import ValidationError
from repro.graph.layout import Position, force_directed_layout
from repro.interpret.quiz import Quiz, build_quiz
from repro.interpret.representations import (
    centroid_representation,
    graphoid_representation,
)
from repro.interpret.user_model import score_methods
from repro.parallel import ExecutionBackend, RetryPolicy
from repro.utils.containers import TimeSeriesDataset
from repro.utils.normalization import znormalize_dataset
from repro.utils.rng import SeedSequencePool
from repro.utils.validation import check_positive_int
from repro.viz.frames import (
    build_clustering_comparison_frame,
    build_interpretability_frame,
    build_under_the_hood_frame,
)


@dataclass
class GraphintSession:
    """Fitted artifacts for one dataset.

    Parameters
    ----------
    dataset:
        The labelled dataset to analyse.
    n_clusters:
        Number of clusters; defaults to the dataset's number of classes.
    n_lengths:
        Number of subsequence lengths for the k-Graph grid.
    random_state:
        Seed controlling every stochastic step of the session.
    backend, n_jobs:
        Execution backend forwarded to :class:`~repro.core.kgraph.KGraph`
        so the dashboard's k-Graph fit can use the parallel pipeline stages
        (see :mod:`repro.parallel`).  Serial by default; results are
        identical across backends for a fixed seed.
    retry, fallback:
        Fault-tolerance knobs forwarded to the k-Graph fit: an optional
        :class:`~repro.parallel.RetryPolicy` and an optional degradation
        chain (see :func:`repro.parallel.resolve_backend`).  Runtime-only,
        never result-affecting.
    kgraph_config:
        Optional :class:`~repro.api.KGraphConfig` governing the k-Graph
        fit (the CLI's ``--config`` / ``--set`` plumbing).  When given it
        is the source of truth for every k-Graph parameter except the
        seed, which the session always draws from its own pool so the
        whole analysis stays reproducible from one ``random_state``;
        ``n_clusters`` defaults to the config's value and ``n_lengths``
        is ignored in favour of the config.
    """

    dataset: TimeSeriesDataset
    n_clusters: Optional[int] = None
    n_lengths: int = 4
    random_state: Optional[int] = None
    backend: Union[None, str, ExecutionBackend] = None
    n_jobs: Optional[int] = None
    retry: Optional["RetryPolicy"] = None
    fallback: Union[None, str, ExecutionBackend, tuple] = None
    kgraph_config: Optional["KGraphConfig"] = None

    kgraph: KGraph = field(init=False)
    method_labels: Dict[str, np.ndarray] = field(init=False, default_factory=dict)
    quizzes: Dict[str, Quiz] = field(init=False, default_factory=dict)
    quiz_scores: Dict[str, float] = field(init=False, default_factory=dict)
    # Parts of every page that depend on the fitted session alone, filled on
    # first use.  Dashboard server threads share a session, so they are
    # filled under the lock, each exactly once.
    _static_frames: Optional[Tuple[Tuple[str, str], ...]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _layout: Optional[Dict[int, Position]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _parts_lock: threading.Lock = field(
        init=False, repr=False, compare=False, default_factory=threading.Lock
    )

    def __post_init__(self) -> None:
        if self.dataset.labels is None:
            raise ValidationError("GraphintSession requires a labelled dataset")
        if self.kgraph_config is not None and not isinstance(
            self.kgraph_config, KGraphConfig
        ):
            raise ValidationError(
                "kgraph_config must be a KGraphConfig, got "
                f"{type(self.kgraph_config).__name__}"
            )
        if self.n_clusters is None:
            if self.kgraph_config is not None:
                self.n_clusters = self.kgraph_config.n_clusters
            else:
                self.n_clusters = max(self.dataset.n_classes, 2)
        self.n_clusters = check_positive_int(self.n_clusters, "n_clusters", minimum=2)
        self.n_lengths = check_positive_int(self.n_lengths, "n_lengths")
        self._pool = SeedSequencePool(self.random_state)
        self._fitted = False

    # ------------------------------------------------------------------ #
    def fit(self) -> "GraphintSession":
        """Fit k-Graph, k-Means and k-Shape on the dataset."""
        if self._fitted:
            return self
        data = self.dataset.data

        if self.kgraph_config is not None:
            config = self.kgraph_config.replace(
                n_clusters=self.n_clusters,
                random_state=self._pool.next_seed(),
            )
            self.kgraph = KGraph.from_config(
                config,
                backend=self.backend,
                n_jobs=self.n_jobs,
                retry=self.retry,
                fallback=self.fallback,
            )
        else:
            self.kgraph = KGraph(
                n_clusters=self.n_clusters,
                n_lengths=self.n_lengths,
                random_state=self._pool.next_seed(),
                backend=self.backend,
                n_jobs=self.n_jobs,
                retry=self.retry,
                fallback=self.fallback,
            )
        self.method_labels["kgraph"] = self.kgraph.fit_predict(data)

        kmeans = KMeans(
            n_clusters=self.n_clusters, n_init=5, random_state=self._pool.next_seed()
        )
        self.method_labels["kmeans"] = kmeans.fit_predict(znormalize_dataset(data))

        kshape = KShape(
            n_clusters=self.n_clusters, n_init=2, random_state=self._pool.next_seed()
        )
        self.method_labels["kshape"] = kshape.fit_predict(data)

        self._fitted = True
        return self

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise ValidationError("session is not fitted yet; call fit() first")

    # ------------------------------------------------------------------ #
    def build_quizzes(self, *, n_questions: int = 5, n_users: int = 5) -> Dict[str, Quiz]:
        """Build and answer the interpretability quizzes for all three methods."""
        self._check_fitted()
        if self.quizzes:
            return self.quizzes
        seed = self._pool.next_seed()
        representations = {
            "kmeans": centroid_representation(
                "kmeans", self.dataset.data, self.method_labels["kmeans"]
            ),
            "kshape": centroid_representation(
                "kshape", self.dataset.data, self.method_labels["kshape"]
            ),
            "kgraph": graphoid_representation(self.kgraph),
        }
        for method, reps in representations.items():
            self.quizzes[method] = build_quiz(
                self.dataset,
                method,
                self.method_labels[method],
                reps,
                n_questions=n_questions,
                random_state=seed,  # same questions for every method, as in the demo
            )
        self.quiz_scores = score_methods(
            self.quizzes,
            n_users=n_users,
            random_state=self._pool.next_seed(),
        )
        return self.quizzes

    def graph_layout(self) -> Dict[int, Position]:
        """Force-directed positions of the optimal graph's nodes.

        Seeded by the session's ``random_state`` and computed once: the graph
        frame draws the same graph on every page, whatever the widgets say.
        """
        self._check_fitted()
        with self._parts_lock:
            if self._layout is None:
                self._layout = force_directed_layout(
                    self.kgraph.result_.optimal_graph, random_state=self.random_state
                )
            return self._layout

    def static_frames(self) -> Tuple[Tuple[str, str], ...]:
        """``(frame id, HTML)`` of the frames no widget changes, in page order.

        The clustering comparison, the interpretability test (quizzes are
        built first if needed) and under the hood depend on the fitted
        session alone, so each is rendered once per session.
        """
        self._check_fitted()
        with self._parts_lock:
            if self._static_frames is None:
                self.build_quizzes()
                frames = (
                    build_clustering_comparison_frame(self.dataset, self.method_labels),
                    build_interpretability_frame(self.quizzes, self.quiz_scores),
                    build_under_the_hood_frame(self.kgraph),
                )
                self._static_frames = tuple((frame.frame_id, frame.to_html()) for frame in frames)
            return self._static_frames

    def summary(self) -> Dict[str, object]:
        """Session-level summary (used by the dashboard header and tests)."""
        self._check_fitted()
        from repro.metrics.clustering import adjusted_rand_index

        return {
            "dataset": self.dataset.summary(),
            "n_clusters": self.n_clusters,
            "ari": {
                method: adjusted_rand_index(self.dataset.labels, labels)
                for method, labels in self.method_labels.items()
            },
            "optimal_length": self.kgraph.optimal_length_,
            "quiz_scores": dict(self.quiz_scores),
        }
