"""Reference k-Graph fit for the stage pipeline behind ``KGraph.fit``.

The whole method of Figure 1 as one serial loop: embed and cluster each
length, build the consensus, score the lengths and extract the graphoids of
the selected graph.  It spawns the same child generators as ``KGraph.fit``,
so the pipeline must match it bit for bit on every backend and whichever
stages replay a checkpoint; :func:`assert_fits_identical` checks that.
"""

import numpy as np

from repro.core.consensus import consensus_clustering
from repro.core.graph_clustering import cluster_graph
from repro.core.interpretability import interpretability_scores, select_optimal_length
from repro.core.kgraph import KGraph, KGraphResult
from repro.graph.embedding import GraphEmbedding
from repro.graph.graphoid import extract_gamma_graphoid, extract_lambda_graphoid
from repro.utils.rng import spawn_rng
from repro.utils.validation import check_random_state

from oracles.graph import assert_graphs_identical


def fit_reference(model: KGraph, data) -> KGraph:
    """Fit ``model`` on ``data`` without the pipeline and return it.

    Sets ``result_`` and ``labels_`` as ``fit`` does.  The result records
    no timings, and ``pipeline_report_`` stays ``None``.
    """
    array = model.validate_fit_input(data)
    rng = check_random_state(model.random_state)
    lengths = model._resolve_lengths(array.shape[1])
    consensus_rng, *per_length_rngs = spawn_rng(rng, len(lengths) + 1)

    graphs, partitions = {}, []
    for length, length_rng in zip(lengths, per_length_rngs):
        graph = GraphEmbedding(
            length, stride=model.stride, n_sectors=model.n_sectors, random_state=length_rng
        ).fit(array)
        graphs[length] = graph
        partitions.append(
            cluster_graph(
                graph, model.n_clusters, feature_mode=model.feature_mode, random_state=length_rng
            )
        )
    labels, consensus = consensus_clustering(
        [partition.labels for partition in partitions],
        model.n_clusters,
        random_state=consensus_rng,
    )
    scores = interpretability_scores(graphs, partitions, labels)
    optimal_length = select_optimal_length(scores)
    optimal_graph = graphs[optimal_length]
    clusters = [int(cluster) for cluster in np.unique(labels)]

    model.result_ = KGraphResult(
        labels=labels,
        graphs=graphs,
        partitions=partitions,
        consensus_matrix=consensus,
        length_scores=scores,
        optimal_length=optimal_length,
        lambda_graphoids={
            cluster: extract_lambda_graphoid(optimal_graph, labels, cluster, model.lambda_threshold)
            for cluster in clusters
        },
        gamma_graphoids={
            cluster: extract_gamma_graphoid(optimal_graph, labels, cluster, model.gamma_threshold)
            for cluster in clusters
        },
    )
    model.labels_ = labels
    model.pipeline_report_ = None
    return model


def assert_fits_identical(fitted: KGraph, reference: KGraph) -> None:
    """Assert that two fitted models hold the same results, bit for bit."""
    assert np.array_equal(fitted.labels_, reference.labels_)
    assert np.array_equal(
        fitted.result_.consensus_matrix, reference.result_.consensus_matrix
    )
    assert fitted.result_.optimal_length == reference.result_.optimal_length
    assert sorted(fitted.result_.graphs) == sorted(reference.result_.graphs)
    for length in fitted.result_.graphs:
        assert_graphs_identical(
            fitted.result_.graphs[length], reference.result_.graphs[length]
        )
    for ours, theirs in zip(fitted.result_.partitions, reference.result_.partitions):
        assert ours.length == theirs.length
        assert np.array_equal(ours.labels, theirs.labels)
        assert ours.inertia == theirs.inertia
    for score_a, score_b in zip(
        fitted.result_.length_scores, reference.result_.length_scores
    ):
        assert score_a == score_b
    for kind in ("lambda_graphoids", "gamma_graphoids"):
        ours, theirs = getattr(fitted.result_, kind), getattr(reference.result_, kind)
        assert set(ours) == set(theirs)
        for cluster in ours:
            assert ours[cluster].nodes == theirs[cluster].nodes
            assert ours[cluster].edges == theirs[cluster].edges
    state_a, state_b = fitted.prediction_state(), reference.prediction_state()
    assert state_a.length == state_b.length
    assert np.array_equal(state_a.patterns, state_b.patterns)
    assert np.array_equal(state_a.centroids, state_b.centroids)
    assert np.array_equal(state_a.clusters, state_b.clusters)
