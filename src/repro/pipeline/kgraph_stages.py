"""The k-Graph method of Figure 1 as five cacheable pipeline stages.

``embed -> graph_cluster -> consensus -> length_selection -> interpretability``

Stage boundaries were chosen along the paper's own figure, but also along
the *parameter dependency* lines that make checkpoints useful: ``embed``
depends only on the data, the length grid, the stride and the sector count,
so sweeping ``feature_mode``, ``n_clusters`` or the graphoid thresholds
replays the embedding checkpoints instead of rebuilding M graphs.

Only ``embed`` and ``graph_cluster`` fan out, one job per length, through
``ctx.dispatch`` (:data:`KGRAPH_FANOUT_STAGES`); ``consensus``,
``length_selection`` and ``interpretability`` each work on one consensus
labelling and run in the calling process.

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
from repro.graph.graphoid import cluster_graphoids
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
        optimal_graph = ctx.require("graphs")[ctx.require("optimal_length")]
        with ctx.watch.section("graphoid_extraction"):
            graphoids = cluster_graphoids(
                optimal_graph,
                ctx.require("labels"),
                float(ctx.config["lambda_threshold"]),
                float(ctx.config["gamma_threshold"]),
            )
        return {
            "lambda_graphoids": graphoids["lambda"],
            "gamma_graphoids": graphoids["gamma"],
        }


#: Stage names in execution order.
KGRAPH_STAGE_NAMES: Tuple[str, ...] = (
    EmbedStage.name,
    GraphClusterStage.name,
    ConsensusStage.name,
    LengthSelectionStage.name,
    InterpretabilityStage.name,
)

#: The stages that fan out over the M lengths, and so the only stages
#: ``stage_backends=`` and ``--stage-backend`` accept; the other three work
#: on one consensus labelling in the calling process.
KGRAPH_FANOUT_STAGES: Tuple[str, ...] = (EmbedStage.name, GraphClusterStage.name)


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
