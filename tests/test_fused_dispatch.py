"""Fused stage dispatch: embed + graph_cluster in one fan-out round trip.

The contract under test:

* a fused fit is **bit-identical** to the unfused pipeline (and therefore
  to ``fit_reference``) — including every stage cache key, so a cache
  populated by a fused run replays in an unfused one and vice versa;
* fusion is an execution detail: both stages still get their own cache
  entry and their own :class:`StageRecord` (flagged ``fused``), so
  downstream-only re-runs keep working;
* auto mode fuses only when both stages share one process backend; a
  first-stage cache hit falls back to the unfused replay path;
* ``bytes_shipped`` accounting surfaces what each stage actually pickled
  across the process boundary.
"""

import numpy as np
import pytest

from repro.core.kgraph import KGraph
from repro.exceptions import PipelineError, ValidationError
from repro.parallel import ProcessBackend
from repro.pipeline import KGRAPH_STAGE_NAMES, MemoryStageCache, PipelineContext, Stage

from oracles.graph import assert_graphs_identical

ALL_STAGES = list(KGRAPH_STAGE_NAMES)
FUSED_PAIR = ["embed", "graph_cluster"]


def _fit(dataset, *, fuse=None, cache=None, backend=None, n_jobs=None, **overrides):
    params = dict(n_clusters=3, n_lengths=2, random_state=11)
    params.update(overrides)
    return KGraph(
        **params,
        backend=backend,
        n_jobs=n_jobs,
        stage_cache=cache,
        fuse_stages=fuse,
    ).fit(dataset.data)


def _stage_keys(model):
    return {record.name: record.key for record in model.pipeline_report_.records}


def _assert_results_identical(a, b):
    assert np.array_equal(a.labels_, b.labels_)
    assert np.array_equal(a.result_.consensus_matrix, b.result_.consensus_matrix)
    assert a.result_.optimal_length == b.result_.optimal_length
    for length in a.result_.graphs:
        assert_graphs_identical(a.result_.graphs[length], b.result_.graphs[length])
    for ours, theirs in zip(a.result_.partitions, b.result_.partitions):
        assert np.array_equal(ours.labels, theirs.labels)
        assert np.array_equal(ours.feature_matrix, theirs.feature_matrix)


class TestForcedFusion:
    def test_fused_fit_is_bit_identical_to_unfused(self, small_dataset):
        plain = _fit(small_dataset, fuse=False)
        fused = _fit(small_dataset, fuse=True)
        _assert_results_identical(fused, plain)
        reference = KGraph(n_clusters=3, n_lengths=2, random_state=11).fit_reference(
            small_dataset.data
        )
        _assert_results_identical(fused, reference)

    def test_report_flags_both_stages_fused(self, small_dataset):
        fused = _fit(small_dataset, fuse=True)
        assert fused.pipeline_report_.fused == FUSED_PAIR
        assert fused.pipeline_report_.executed == ALL_STAGES
        by_name = {record.name: record for record in fused.pipeline_report_.records}
        for name in ALL_STAGES:
            assert by_name[name].fused == (name in FUSED_PAIR)
        plain = _fit(small_dataset, fuse=False)
        assert plain.pipeline_report_.fused == []

    def test_cache_keys_identical_fused_vs_unfused(self, small_dataset):
        fused = _fit(small_dataset, fuse=True)
        plain = _fit(small_dataset, fuse=False)
        assert _stage_keys(fused) == _stage_keys(plain)

    def test_fused_run_populates_cache_for_unfused_replay(self, small_dataset):
        cache = MemoryStageCache()
        _fit(small_dataset, fuse=True, cache=cache)
        assert cache.counters.stores == len(ALL_STAGES)
        warm = _fit(small_dataset, fuse=False, cache=cache)
        assert warm.pipeline_report_.cached == ALL_STAGES

    def test_unfused_cache_replays_into_fused_run(self, small_dataset):
        cache = MemoryStageCache()
        _fit(small_dataset, fuse=False, cache=cache)
        warm = _fit(small_dataset, fuse=True, cache=cache)
        # First-stage hit disables fusion for the pair: everything replays.
        assert warm.pipeline_report_.cached == ALL_STAGES
        assert warm.pipeline_report_.fused == []

    def test_downstream_only_rerun_after_fused_run(self, small_dataset):
        cache = MemoryStageCache()
        first = _fit(small_dataset, fuse=True, cache=cache)
        warm = _fit(
            small_dataset, fuse=True, cache=cache, gamma_threshold=0.8
        )
        assert warm.pipeline_report_.cached == [
            "embed", "graph_cluster", "consensus", "length_selection"
        ]
        assert warm.pipeline_report_.executed == ["interpretability"]
        cold = _fit(small_dataset, fuse=False, gamma_threshold=0.8)
        _assert_results_identical(warm, cold)
        del first


class TestAutoFusion:
    def test_serial_backend_does_not_fuse(self, small_dataset):
        model = _fit(small_dataset)  # fuse=None (auto), serial backend
        assert model.pipeline_report_.fused == []

    def test_process_backend_fuses_bit_identically(self, small_dataset):
        backend = ProcessBackend(2)
        try:
            model = _fit(small_dataset, backend=backend)
        finally:
            backend.close()
        assert model.pipeline_report_.fused == FUSED_PAIR
        _assert_results_identical(model, _fit(small_dataset, fuse=False))

    def test_invalid_fuse_value_rejected(self, small_dataset):
        with pytest.raises(ValidationError):
            KGraph(n_clusters=3, fuse_stages="always")

    def test_default_run_fused_raises(self):
        class Bare(Stage):
            name = "bare"
            outputs = ("x",)

            def run(self, ctx):  # pragma: no cover - never runs
                return {"x": 1}

        with pytest.raises(PipelineError, match="no fused execution path"):
            Bare().run_fused(Bare(), PipelineContext())


class TestBytesShipped:
    def test_process_backend_accounts_shipped_bytes(self, small_dataset):
        backend = ProcessBackend(2)
        try:
            model = _fit(small_dataset, backend=backend)
        finally:
            backend.close()
        shipped = model.result_.bytes_shipped
        # The fused pair ships one round of jobs attributed to embed.
        assert shipped.get("embed", 0) > 0
        assert model.pipeline_report_.stage_bytes_shipped.get("embed", 0) > 0
        summary = model.result_.summary()
        assert summary["stage_bytes_shipped"]["embed"] > 0
        by_name = {record.name: record for record in model.pipeline_report_.records}
        assert by_name["embed"].bytes_shipped > 0
        assert by_name["embed"].as_dict()["bytes_shipped"] > 0

    def test_serial_backend_ships_nothing(self, small_dataset):
        model = _fit(small_dataset, fuse=False)
        # Nothing crosses a process boundary: the context never accumulates
        # transfer, and every stage record reports zero bytes.
        assert model.result_.bytes_shipped == {}
        shipped = model.pipeline_report_.stage_bytes_shipped
        assert set(shipped) == set(ALL_STAGES)
        assert all(value == 0 for value in shipped.values())
