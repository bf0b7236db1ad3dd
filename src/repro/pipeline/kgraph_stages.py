"""The k-Graph method of Figure 1 as five cacheable pipeline stages.

``embed -> graph_cluster -> consensus -> length_selection -> interpretability``

Stage boundaries were chosen along the paper's own figure, but also along
the *parameter dependency* lines that make checkpoints useful: ``embed``
depends only on the data, the length grid, the stride and the sector count,
so sweeping ``feature_mode``, ``n_clusters`` or the graphoid thresholds
replays the embedding checkpoints instead of rebuilding M graphs.

Determinism contract (bit-identity with the serial reference fit in
``tests/oracles/kgraph.py``): the driver pre-spawns one child generator per
length plus one for the consensus step, exactly as the reference does.
Each length's generator goes through ``embed`` and on to ``graph_cluster``:
:class:`GraphEmbedding` never draws from it, so it reaches ``cluster_graph``
in the same state as in the reference, and the ``embed`` stage still
threads the post-embedding generators through the context
(``cluster_rngs``) so the contract survives an embedding that *does* start
drawing randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from repro.api.config import KGraphConfig
from repro.core.consensus import consensus_clustering
from repro.core.graph_clustering import GraphPartition, cluster_graph
from repro.core.interpretability import (
    interpretability_scores,
    select_optimal_length,
)
from repro.graph.embedding import GraphEmbedding
from repro.graph.graphoid import (
    Graphoid,
    extract_gamma_graphoid,
    extract_lambda_graphoid,
)
from repro.graph.structure import TimeSeriesGraph
from repro.pipeline.runner import Pipeline
from repro.pipeline.stage import PipelineContext, Stage
from repro.utils.timing import Stopwatch

#: Seed values the k-Graph driver must place in the context before running.
KGRAPH_SEED_INPUTS: Tuple[str, ...] = (
    "array",
    "lengths",
    "per_length_rngs",
    "consensus_rng",
)


def kgraph_pipeline_config(
    *,
    n_clusters: int,
    stride: int,
    n_sectors: int,
    feature_mode: str,
    lambda_threshold: float,
    gamma_threshold: float,
) -> Dict[str, object]:
    """The flat config mapping the k-Graph stages draw their keys from.

    A convenience wrapper over :meth:`KGraphConfig.stage_config` — the
    parameters are validated by the typed config, so a caller building the
    mapping by hand gets exactly the checks (and error messages) the
    estimator constructor applies.
    """
    return KGraphConfig(
        n_clusters=n_clusters,
        stride=stride,
        n_sectors=n_sectors,
        feature_mode=feature_mode,
        lambda_threshold=lambda_threshold,
        gamma_threshold=gamma_threshold,
    ).stage_config()


# --------------------------------------------------------------------------- #
# picklable per-length jobs (dispatched through ExecutionBackend)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _EmbedJob:
    """One per-length graph-embedding job (picklable; array is shareable)."""

    length: int
    array: np.ndarray
    stride: int
    n_sectors: int
    rng: np.random.Generator


@dataclass
class _EmbedFit:
    """What one embedding job sends back: the graph plus the threaded rng."""

    length: int
    graph: TimeSeriesGraph
    rng: np.random.Generator
    timings: Dict[str, float]
    counts: Dict[str, int]


def _embed_one_length(job: _EmbedJob) -> _EmbedFit:
    """Build the transition graph G_ℓ for one length (worker-side)."""
    watch = Stopwatch()
    with watch.section("graph_embedding"):
        embedding = GraphEmbedding(
            job.length,
            stride=job.stride,
            n_sectors=job.n_sectors,
            random_state=job.rng,
        )
        graph = embedding.fit(job.array)
    return _EmbedFit(
        length=job.length,
        graph=graph,
        rng=job.rng,
        timings=watch.totals(),
        counts=watch.counts(),
    )


@dataclass(frozen=True)
class _ClusterJob:
    """One per-length graph-clustering job (picklable)."""

    length: int
    graph: TimeSeriesGraph
    n_clusters: int
    feature_mode: str
    rng: np.random.Generator


@dataclass
class _ClusterFit:
    """What one clustering job sends back."""

    length: int
    partition: GraphPartition
    timings: Dict[str, float]
    counts: Dict[str, int]


def _cluster_one_graph(job: _ClusterJob) -> _ClusterFit:
    """Cluster one graph's node/edge features into a partition L_ℓ."""
    watch = Stopwatch()
    with watch.section("graph_clustering"):
        partition = cluster_graph(
            job.graph,
            job.n_clusters,
            feature_mode=job.feature_mode,
            random_state=job.rng,
        )
    return _ClusterFit(
        length=job.length,
        partition=partition,
        timings=watch.totals(),
        counts=watch.counts(),
    )


@dataclass(frozen=True)
class _GraphoidJob:
    """Picklable payload for extracting one cluster's graphoids."""

    graph: TimeSeriesGraph
    labels: np.ndarray
    cluster: int
    lambda_threshold: float
    gamma_threshold: float


def _extract_cluster_graphoids(job: _GraphoidJob) -> Tuple[int, Graphoid, Graphoid]:
    """Extract the λ- and γ-graphoid of one cluster (deterministic)."""
    lam = extract_lambda_graphoid(
        job.graph, job.labels, job.cluster, job.lambda_threshold
    )
    gam = extract_gamma_graphoid(
        job.graph, job.labels, job.cluster, job.gamma_threshold
    )
    return job.cluster, lam, gam


# --------------------------------------------------------------------------- #
# stages
# --------------------------------------------------------------------------- #
class EmbedStage(Stage):
    """Graph Embedding — one :class:`TimeSeriesGraph` per candidate length."""

    name = "embed"
    inputs = ("array", "lengths", "per_length_rngs")
    outputs = ("graphs", "cluster_rngs")
    #: v2: PCA axes carry a fixed sign, so node positions and ids differ
    #: from v1 graphs.  v3: the blocked embedding sums the Gram matrix in
    #: another order, so node positions differ from v2 in the last ulps.
    #: v4: OpenBLAS runs one thread (``repro.utils.blas``), so on a
    #: multi-core host the Gram matrix differs from v3 in the last ulps.
    #: v5: graphs are the array-native :class:`TimeSeriesGraph`; v4 disk
    #: checkpoints pickle the dict-based class.
    version = 5
    # Derived from the fields KGraphConfig tags with this stage, so the
    # cache-key inputs and the typed config can never drift apart.
    config_keys = KGraphConfig.stage_config_keys("embed")

    def run(self, ctx: PipelineContext) -> Mapping[str, object]:
        array = ctx.require("array")
        lengths = ctx.require("lengths")
        rngs = ctx.require("per_length_rngs")
        jobs = [
            _EmbedJob(
                length=int(length),
                array=array,
                stride=int(ctx.config["stride"]),
                n_sectors=int(ctx.config["n_sectors"]),
                rng=rng,
            )
            for length, rng in zip(lengths, rngs)
        ]
        graphs: Dict[int, TimeSeriesGraph] = {}
        cluster_rngs: List[np.random.Generator] = []
        for outcome in ctx.dispatch(self.name, _embed_one_length, jobs):
            fitted: _EmbedFit = outcome.unwrap()
            graphs[fitted.length] = fitted.graph
            cluster_rngs.append(fitted.rng)
            ctx.watch.merge(fitted.timings, fitted.counts)
        return {"graphs": graphs, "cluster_rngs": cluster_rngs}


class GraphClusterStage(Stage):
    """Graph Clustering — one partition L_ℓ per graph, via k-Means."""

    name = "graph_cluster"
    inputs = ("graphs", "cluster_rngs")
    outputs = ("partitions",)
    config_keys = KGraphConfig.stage_config_keys("graph_cluster")

    def run(self, ctx: PipelineContext) -> Mapping[str, object]:
        graphs = ctx.require("graphs")
        rngs = ctx.require("cluster_rngs")
        jobs = [
            _ClusterJob(
                length=int(length),
                graph=graph,
                n_clusters=int(ctx.config["n_clusters"]),
                feature_mode=str(ctx.config["feature_mode"]),
                rng=rng,
            )
            for (length, graph), rng in zip(graphs.items(), rngs)
        ]
        partitions: List[GraphPartition] = []
        for outcome in ctx.dispatch(self.name, _cluster_one_graph, jobs):
            fitted: _ClusterFit = outcome.unwrap()
            partitions.append(fitted.partition)
            ctx.watch.merge(fitted.timings, fitted.counts)
        return {"partitions": partitions}


class ConsensusStage(Stage):
    """Consensus Clustering — co-association matrix + spectral step."""

    name = "consensus"
    inputs = ("partitions", "consensus_rng")
    outputs = ("labels", "consensus_matrix")
    config_keys = KGraphConfig.stage_config_keys("consensus")

    def run(self, ctx: PipelineContext) -> Mapping[str, object]:
        partitions = ctx.require("partitions")
        with ctx.watch.section("consensus_clustering"):
            labels, consensus = consensus_clustering(
                [partition.labels for partition in partitions],
                int(ctx.config["n_clusters"]),
                random_state=ctx.require("consensus_rng"),
            )
        return {"labels": labels, "consensus_matrix": consensus}


class LengthSelectionStage(Stage):
    """Length selection — W_c(ℓ), W_e(ℓ) scores and the optimal length ¯ℓ."""

    name = "length_selection"
    inputs = ("graphs", "partitions", "labels")
    outputs = ("length_scores", "optimal_length")
    config_keys = KGraphConfig.stage_config_keys("length_selection")

    def run(self, ctx: PipelineContext) -> Mapping[str, object]:
        with ctx.watch.section("length_selection"):
            scores = interpretability_scores(
                ctx.require("graphs"),
                ctx.require("partitions"),
                ctx.require("labels"),
                backend=ctx.backend_for(self.name),
            )
            optimal_length = select_optimal_length(scores)
        return {"length_scores": scores, "optimal_length": optimal_length}


class InterpretabilityStage(Stage):
    """Interpretability — λ/γ graphoid extraction on the selected graph."""

    name = "interpretability"
    inputs = ("graphs", "labels", "optimal_length")
    outputs = ("lambda_graphoids", "gamma_graphoids")
    config_keys = KGraphConfig.stage_config_keys("interpretability")

    def run(self, ctx: PipelineContext) -> Mapping[str, object]:
        graphs = ctx.require("graphs")
        labels = ctx.require("labels")
        optimal_graph = graphs[ctx.require("optimal_length")]
        with ctx.watch.section("graphoid_extraction"):
            clusters = [int(cluster) for cluster in np.unique(labels)]
            jobs = [
                _GraphoidJob(
                    graph=optimal_graph,
                    labels=labels,
                    cluster=cluster,
                    lambda_threshold=float(ctx.config["lambda_threshold"]),
                    gamma_threshold=float(ctx.config["gamma_threshold"]),
                )
                for cluster in clusters
            ]
            lambda_graphoids: Dict[int, Graphoid] = {}
            gamma_graphoids: Dict[int, Graphoid] = {}
            for outcome in ctx.dispatch(self.name, _extract_cluster_graphoids, jobs):
                cluster, lam, gam = outcome.unwrap()
                lambda_graphoids[cluster] = lam
                gamma_graphoids[cluster] = gam
        return {
            "lambda_graphoids": lambda_graphoids,
            "gamma_graphoids": gamma_graphoids,
        }


#: Stage names in execution order — the CLI validates ``--stage-backend``
#: keys against this tuple.
KGRAPH_STAGE_NAMES: Tuple[str, ...] = (
    EmbedStage.name,
    GraphClusterStage.name,
    ConsensusStage.name,
    LengthSelectionStage.name,
    InterpretabilityStage.name,
)


def build_kgraph_pipeline() -> Pipeline:
    """The canonical five-stage k-Graph pipeline (fresh stage instances)."""
    return Pipeline(
        [
            EmbedStage(),
            GraphClusterStage(),
            ConsensusStage(),
            LengthSelectionStage(),
            InterpretabilityStage(),
        ],
        seed_inputs=KGRAPH_SEED_INPUTS,
    )


# Register this module's fan-out job functions for distributed dispatch:
# workers resolve them by name, so a `--backend distributed:...` pipeline
# run needs no side-channel code shipping.
from repro.distributed.registry import register_worker_function  # noqa: E402

register_worker_function(_embed_one_length)
register_worker_function(_cluster_one_graph)
register_worker_function(_extract_cluster_graphoids)
