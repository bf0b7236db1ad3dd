"""Tests for :mod:`repro.pipeline`: the stage framework, the
content-addressed cache, and the equivalence of the pipeline-driven
``KGraph.fit`` with the serial reference fit of ``oracles.kgraph``.

The acceptance bar of the refactor is asserted here:

* ``fit`` / ``fit_predict`` / ``prediction_state`` through the pipeline are
  **bit-identical** to ``fit_reference`` on every execution backend;
* with a :class:`StageCache`, a one-parameter change re-executes only the
  stages downstream of the change (verified via the per-run stage records
  and the pipeline's stage-run counters) and still produces results
  bit-identical to a cold fit.
"""

import numpy as np
import pytest

from repro.benchmark.runner import BenchmarkRunner
from repro.core.kgraph import KGraph
from repro.exceptions import PipelineError, ValidationError
from repro.parallel import ProcessBackend
from repro.pipeline import (
    KGRAPH_STAGE_NAMES,
    DiskStageCache,
    MemoryStageCache,
    Pipeline,
    PipelineContext,
    Stage,
    build_kgraph_pipeline,
    fingerprint,
    resolve_stage_cache,
)

from oracles.kgraph import assert_fits_identical, fit_reference

ALL_STAGES = list(KGRAPH_STAGE_NAMES)


# --------------------------------------------------------------------------- #
# fingerprints
# --------------------------------------------------------------------------- #
class TestFingerprint:
    def test_content_addressed_arrays(self):
        a = np.arange(12, dtype=float).reshape(3, 4)
        b = np.arange(12, dtype=float).reshape(3, 4) + 0.0
        assert a is not b
        assert fingerprint(a) == fingerprint(b)
        assert fingerprint(a) != fingerprint(a + 1.0)
        assert fingerprint(a) != fingerprint(a.astype(np.float32))
        assert fingerprint(a) != fingerprint(a.reshape(4, 3))

    def test_generator_state_participates(self):
        a = np.random.default_rng(5)
        b = np.random.default_rng(5)
        assert fingerprint(a) == fingerprint(b)
        a.integers(0, 10)  # advance the stream
        assert fingerprint(a) != fingerprint(b)

    def test_dict_order_does_not_matter(self):
        assert fingerprint({"x": 1, "y": 2}) == fingerprint({"y": 2, "x": 1})

    def test_scalar_types_are_distinguished(self):
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(None) != fingerprint(0)

    def test_nested_containers(self):
        value = {"rows": [np.arange(3), (1, 2.5, "s")], "none": None}
        clone = {"rows": [np.arange(3), (1, 2.5, "s")], "none": None}
        assert fingerprint(value) == fingerprint(clone)


# --------------------------------------------------------------------------- #
# pipeline wiring and execution (toy stages)
# --------------------------------------------------------------------------- #
class _AddStage(Stage):
    name = "add"
    inputs = ("a", "b")
    outputs = ("total",)
    config_keys = ("bias",)

    def run(self, ctx):
        return {"total": ctx.require("a") + ctx.require("b") + ctx.config.get("bias", 0)}


class _DoubleStage(Stage):
    name = "double"
    inputs = ("total",)
    outputs = ("doubled",)

    def run(self, ctx):
        return {"doubled": 2 * ctx.require("total")}


class TestPipelineWiring:
    def test_runs_in_order_and_reports(self):
        pipeline = Pipeline([_AddStage(), _DoubleStage()], seed_inputs=("a", "b"))
        ctx = PipelineContext(config={"bias": 1}, values={"a": 2, "b": 3})
        report = pipeline.run(ctx)
        assert ctx.values["doubled"] == 12
        assert report.executed == ["add", "double"]
        assert report.cached == []
        assert set(report.stage_keys) == {"add", "double"}
        assert pipeline.run_counts == {"add": 1, "double": 1}

    def test_missing_producer_rejected_at_construction(self):
        with pytest.raises(PipelineError, match="consumes"):
            Pipeline([_DoubleStage()], seed_inputs=("a",))

    def test_duplicate_outputs_rejected(self):
        class Clash(Stage):
            name = "clash"
            inputs = ()
            outputs = ("total",)

            def run(self, ctx):  # pragma: no cover - never runs
                return {"total": 0}

        with pytest.raises(PipelineError, match="re-produces"):
            Pipeline([_AddStage(), Clash()], seed_inputs=("a", "b"))

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(PipelineError, match="duplicate"):
            Pipeline([_AddStage(), _AddStage()], seed_inputs=("a", "b"))

    def test_missing_seed_value_rejected_at_run(self):
        pipeline = Pipeline([_AddStage()], seed_inputs=("a", "b"))
        with pytest.raises(PipelineError, match="seed inputs"):
            pipeline.run(PipelineContext(values={"a": 1}))

    def test_undeclared_outputs_rejected(self):
        class Liar(Stage):
            name = "liar"
            inputs = ()
            outputs = ("promised",)

            def run(self, ctx):
                return {"something_else": 1}

        pipeline = Pipeline([Liar()])
        with pytest.raises(PipelineError, match="declared"):
            pipeline.run(PipelineContext())

    def test_cache_replays_and_skips(self):
        cache = MemoryStageCache()
        pipeline = Pipeline([_AddStage(), _DoubleStage()], seed_inputs=("a", "b"))
        first = pipeline.run(
            PipelineContext(config={"bias": 0}, values={"a": 1, "b": 2}), cache=cache
        )
        assert first.executed == ["add", "double"]
        second_ctx = PipelineContext(config={"bias": 0}, values={"a": 1, "b": 2})
        second = pipeline.run(second_ctx, cache=cache)
        assert second.cached == ["add", "double"]
        assert second_ctx.values["doubled"] == 6
        assert pipeline.run_counts == {"add": 1, "double": 1}
        # A config change invalidates 'add' (and downstream 'double' via its
        # changed input), but a change to an *unlisted* key invalidates
        # nothing.
        third = pipeline.run(
            PipelineContext(config={"bias": 5}, values={"a": 1, "b": 2}), cache=cache
        )
        assert third.executed == ["add", "double"]
        fourth = pipeline.run(
            PipelineContext(
                config={"bias": 0, "unrelated": 99}, values={"a": 1, "b": 2}
            ),
            cache=cache,
        )
        assert fourth.cached == ["add", "double"]


# --------------------------------------------------------------------------- #
# caches
# --------------------------------------------------------------------------- #
class TestStageCaches:
    def test_memory_lru_eviction(self):
        from repro.pipeline.cache import CacheEntryMeta

        cache = MemoryStageCache(max_entries=2)
        for index in range(3):
            cache.put(
                f"key{index}",
                {"value": index},
                CacheEntryMeta(key=f"key{index}", stage="s"),
            )
        assert cache.get("key0") is None  # evicted
        assert cache.get("key2") == {"value": 2}
        assert cache.counters.evictions == 1

    def test_memory_cache_clones_generators(self):
        from repro.pipeline.cache import CacheEntryMeta

        rng = np.random.default_rng(3)
        cache = MemoryStageCache()
        cache.put("k", {"rng": rng}, CacheEntryMeta(key="k", stage="s"))
        rng.integers(0, 10)  # consuming the original must not touch the copy
        replay_a = cache.get("k")["rng"]
        replay_b = cache.get("k")["rng"]
        assert replay_a is not replay_b
        assert replay_a.integers(0, 1000) == replay_b.integers(0, 1000)

    def test_disk_round_trip_and_inspection(self, tmp_path):
        from repro.pipeline.cache import CacheEntryMeta

        cache = DiskStageCache(tmp_path / "cache")
        outputs = {"array": np.arange(5), "label": "x"}
        cache.put(
            "abc123",
            outputs,
            CacheEntryMeta(key="abc123", stage="embed", outputs=["array", "label"]),
        )
        replay = DiskStageCache(tmp_path / "cache").get("abc123")
        assert np.array_equal(replay["array"], outputs["array"])
        entries = DiskStageCache(tmp_path / "cache").entries()
        assert [entry.stage for entry in entries] == ["embed"]
        cache.clear()
        assert cache.get("abc123") is None
        assert DiskStageCache(tmp_path / "cache").entries() == []

    def test_disk_clear_leaves_unrelated_files_alone(self, tmp_path):
        from repro.pipeline.cache import CacheEntryMeta

        # A user may point --cache at a directory that already holds other
        # files; clear() must only remove checkpoints this class wrote.
        (tmp_path / "package.json").write_text('{"name": "not-a-checkpoint"}')
        (tmp_path / "results.pkl").write_bytes(b"unrelated")
        (tmp_path / "keyed.json").write_text('{"key": "elsewhere", "stage": "s"}')
        cache = DiskStageCache(tmp_path)
        cache.put("deadbeef", {"v": 1}, CacheEntryMeta(key="deadbeef", stage="s"))
        cache.clear()
        assert cache.get("deadbeef") is None
        assert (tmp_path / "package.json").exists()
        assert (tmp_path / "results.pkl").exists()
        assert (tmp_path / "keyed.json").exists()

    def test_disk_corrupt_payload_is_a_miss(self, tmp_path):
        from repro.pipeline.cache import CacheEntryMeta

        cache = DiskStageCache(tmp_path)
        cache.put("key", {"v": 1}, CacheEntryMeta(key="key", stage="s"))
        (tmp_path / "key.pkl").write_bytes(b"not a pickle")
        assert cache.get("key") is None
        assert cache.counters.misses == 1

    def test_disk_corrupt_payload_is_quarantined(self, tmp_path):
        from repro.pipeline.cache import CacheEntryMeta

        cache = DiskStageCache(tmp_path)
        cache.put("key", {"v": 1}, CacheEntryMeta(key="key", stage="s"))
        (tmp_path / "key.pkl").write_bytes(b"not a pickle")
        assert cache.get("key") is None
        # The corrupt checkpoint is moved aside — not deleted (an operator
        # may want to inspect it) and not left to poison future lookups.
        assert not (tmp_path / "key.pkl").exists()
        assert (tmp_path / "key.pkl.corrupt").exists()
        assert not (tmp_path / "key.json").exists()
        assert (tmp_path / "key.json.corrupt").exists()
        assert cache.counters.quarantines == 1
        assert cache.stats()["quarantines"] == 1
        # Quarantined files are invisible to a fresh cache over the same
        # directory, and a re-put of the same key works.
        fresh = DiskStageCache(tmp_path)
        assert fresh.get("key") is None
        fresh.put("key", {"v": 2}, CacheEntryMeta(key="key", stage="s"))
        assert fresh.get("key") == {"v": 2}

    def test_resolve_stage_cache(self, tmp_path):
        assert resolve_stage_cache(None) is None
        memory = MemoryStageCache()
        assert resolve_stage_cache(memory) is memory
        disk = resolve_stage_cache(tmp_path / "c")
        assert isinstance(disk, DiskStageCache)
        with pytest.raises(PipelineError):
            resolve_stage_cache(42)


# --------------------------------------------------------------------------- #
# KGraph equivalence: pipeline vs the serial reference fit
# --------------------------------------------------------------------------- #
class TestKGraphPipelineEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_bit_identical_to_reference_across_backends(self, small_dataset, backend):
        jobs = None if backend == "serial" else 2
        fitted = KGraph(
            n_clusters=3, n_lengths=2, random_state=11, backend=backend, n_jobs=jobs
        ).fit(small_dataset.data)
        reference = fit_reference(
            KGraph(n_clusters=3, n_lengths=2, random_state=11), small_dataset.data
        )
        assert_fits_identical(fitted, reference)

    def test_fit_predict_matches_reference(self, small_dataset):
        pipeline_labels = KGraph(
            n_clusters=3, n_lengths=3, random_state=0
        ).fit_predict(small_dataset.data)
        reference = fit_reference(
            KGraph(n_clusters=3, n_lengths=3, random_state=0), small_dataset.data
        )
        assert np.array_equal(pipeline_labels, reference.labels_)

    def test_per_stage_backend_override_is_bit_identical(self, small_dataset):
        fitted = KGraph(
            n_clusters=3,
            n_lengths=2,
            random_state=4,
            stage_backends={"embed": "thread", "graph_cluster": "serial"},
            n_jobs=2,
        ).fit(small_dataset.data)
        reference = fit_reference(
            KGraph(n_clusters=3, n_lengths=2, random_state=4), small_dataset.data
        )
        assert_fits_identical(fitted, reference)

    def test_unknown_stage_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown stage names"):
            KGraph(n_clusters=3, stage_backends={"embedding": "thread"})

    @pytest.mark.parametrize(
        "stage", ["consensus", "length_selection", "interpretability"]
    )
    def test_stage_without_fanout_takes_no_backend(self, stage):
        # Only embed and graph_cluster fan out; the check runs at
        # construction, before any backend is resolved.
        with pytest.raises(ValidationError, match=f"'{stage}'"):
            KGraph(n_clusters=3, stage_backends={stage: "thread"})

    def test_report_and_stage_timings_populated(self, small_dataset):
        model = KGraph(n_clusters=3, n_lengths=2, random_state=0).fit(
            small_dataset.data
        )
        report = model.pipeline_report_
        assert [record.name for record in report.records] == ALL_STAGES
        assert report.executed == ALL_STAGES
        assert report.config_hash
        summary = model.result_.summary()
        assert list(summary["stage_timings"]) == ALL_STAGES
        assert all(seconds >= 0.0 for seconds in summary["stage_timings"].values())
        # The reference fit records no stage sections.
        reference = fit_reference(
            KGraph(n_clusters=3, n_lengths=2, random_state=0), small_dataset.data
        )
        assert reference.pipeline_report_ is None
        assert reference.result_.stage_timings() == {}

    def test_fit_validation_matches_predict_validation(self):
        model = KGraph(n_clusters=3)
        with pytest.raises(ValidationError, match="ragged"):
            model.fit([[1.0, 2.0, 3.0], [1.0, 2.0]])
        with pytest.raises(ValidationError, match=r"series 1, position 2"):
            model.fit(np.array([[0.0] * 8, [0.0, 0.0, np.nan] + [0.0] * 5, [0.0] * 8]))
        with pytest.raises(ValidationError, match="training data.*at least 3"):
            model.fit(np.zeros((2, 32)))


# --------------------------------------------------------------------------- #
# resumability: one changed parameter re-runs only downstream stages
# --------------------------------------------------------------------------- #
class TestKGraphResume:
    def test_identical_refit_replays_everything(self, small_dataset):
        cache = MemoryStageCache()
        first = KGraph(
            n_clusters=3, n_lengths=2, random_state=0, stage_cache=cache
        ).fit(small_dataset.data)
        second = KGraph(
            n_clusters=3, n_lengths=2, random_state=0, stage_cache=cache
        ).fit(small_dataset.data)
        assert first.pipeline_report_.executed == ALL_STAGES
        assert second.pipeline_report_.cached == ALL_STAGES
        assert_fits_identical(second, first)

    @pytest.mark.parametrize(
        ("override", "expected_cached"),
        [
            # feature_mode only enters graph_cluster: the embedding replays.
            ({"feature_mode": "nodes"}, ["embed"]),
            # n_clusters enters graph_cluster and consensus, not embed.
            ({"n_clusters": 4}, ["embed"]),
            # the graphoid thresholds only enter the final stage: everything
            # upstream replays.
            (
                {"gamma_threshold": 0.8},
                ["embed", "graph_cluster", "consensus", "length_selection"],
            ),
        ],
    )
    def test_parameter_change_reruns_only_downstream(
        self, small_dataset, override, expected_cached
    ):
        cache = MemoryStageCache()
        params = dict(n_clusters=3, n_lengths=2, random_state=0)
        KGraph(**params, stage_cache=cache).fit(small_dataset.data)
        params.update(override)
        warm = KGraph(**params, stage_cache=cache).fit(small_dataset.data)
        assert warm.pipeline_report_.cached == expected_cached
        assert warm.pipeline_report_.executed == [
            name for name in ALL_STAGES if name not in expected_cached
        ]
        # The warm, partially replayed fit must equal a cold fit bit for bit.
        cold = fit_reference(KGraph(**params), small_dataset.data)
        assert_fits_identical(warm, cold)

    def test_seed_change_invalidates_everything(self, small_dataset):
        cache = MemoryStageCache()
        KGraph(n_clusters=3, n_lengths=2, random_state=0, stage_cache=cache).fit(
            small_dataset.data
        )
        other = KGraph(
            n_clusters=3, n_lengths=2, random_state=1, stage_cache=cache
        ).fit(small_dataset.data)
        assert other.pipeline_report_.cached == []

    def test_stage_run_counters_skip_cached_stages(self, small_dataset):
        cache = MemoryStageCache()
        pipeline = build_kgraph_pipeline()
        assert set(pipeline.run_counts) == set(ALL_STAGES)
        KGraph(n_clusters=3, n_lengths=2, random_state=0, stage_cache=cache).fit(
            small_dataset.data
        )
        KGraph(
            n_clusters=3,
            n_lengths=2,
            random_state=0,
            gamma_threshold=0.9,
            stage_cache=cache,
        ).fit(small_dataset.data)
        # Cache accounting across both fits: 5 stores + 4 replays.
        assert cache.counters.stores == 6  # 5 cold + 1 re-run interpretability
        assert cache.counters.hits == 4

    def test_warm_refit_never_fingerprints_stage_outputs(
        self, small_dataset, monkeypatch
    ):
        from repro.core.graph_clustering import GraphPartition
        from repro.graph.structure import TimeSeriesGraph
        from repro.pipeline import runner

        cache = MemoryStageCache()
        KGraph(n_clusters=3, n_lengths=2, random_state=0, stage_cache=cache).fit(
            small_dataset.data
        )
        hashed = []
        real_fingerprint = runner.fingerprint

        def recording_fingerprint(value):
            hashed.append(value)
            return real_fingerprint(value)

        monkeypatch.setattr(runner, "fingerprint", recording_fingerprint)
        # A grid-style refit: n_clusters re-runs four stages on the
        # replayed embedding.
        warm = KGraph(
            n_clusters=4, n_lengths=2, random_state=0, stage_cache=cache
        ).fit(small_dataset.data)
        assert warm.pipeline_report_.cached == ["embed"]

        def holds_stage_output(value) -> bool:
            if isinstance(value, (TimeSeriesGraph, GraphPartition)):
                return True
            if value is warm.labels_:
                return True
            if isinstance(value, dict):
                return any(holds_stage_output(item) for item in value.values())
            if isinstance(value, (list, tuple)):
                return any(holds_stage_output(item) for item in value)
            return False

        assert hashed  # seed inputs and config entries are still hashed
        assert not any(holds_stage_output(value) for value in hashed)

    def test_disk_cache_resumes_across_sessions(self, small_dataset, tmp_path):
        cache_dir = tmp_path / "stages"
        first = KGraph(
            n_clusters=3, n_lengths=2, random_state=0, stage_cache=cache_dir
        ).fit(small_dataset.data)
        assert first.pipeline_report_.executed == ALL_STAGES
        # A fresh DiskStageCache instance simulates a new session/process.
        second = KGraph(
            n_clusters=3, n_lengths=2, random_state=0, stage_cache=str(cache_dir)
        ).fit(small_dataset.data)
        assert second.pipeline_report_.cached == ALL_STAGES
        assert_fits_identical(second, first)


# --------------------------------------------------------------------------- #
# transfer accounting: what each stage pickled across the process boundary
# --------------------------------------------------------------------------- #
class TestBytesShipped:
    def test_process_backend_accounts_shipped_bytes(self, small_dataset):
        backend = ProcessBackend(2)
        try:
            model = KGraph(
                n_clusters=3, n_lengths=2, random_state=11, backend=backend
            ).fit(small_dataset.data)
        finally:
            backend.close()
        summary = model.result_.summary()
        by_name = {record.name: record for record in model.pipeline_report_.records}
        # embed ships the data out; graph_cluster ships the graphs back out.
        for name in ("embed", "graph_cluster"):
            assert model.result_.bytes_shipped.get(name, 0) > 0
            assert model.pipeline_report_.stage_bytes_shipped[name] > 0
            assert summary["stage_bytes_shipped"][name] > 0
            assert by_name[name].as_dict()["bytes_shipped"] > 0

    def test_stage_bytes_add_up_to_the_backend_counter(self, small_dataset):
        backend = ProcessBackend(2)
        try:
            before = backend.bytes_shipped
            model = KGraph(
                n_clusters=3, n_lengths=2, random_state=11, backend=backend
            ).fit(small_dataset.data)
            shipped = backend.bytes_shipped - before
        finally:
            backend.close()
        # Every byte the pool shipped during the fit is attributed to a stage.
        assert shipped > 0
        assert sum(model.result_.bytes_shipped.values()) == shipped

    def test_serial_backend_ships_nothing(self, small_dataset):
        model = KGraph(n_clusters=3, n_lengths=2, random_state=11).fit(
            small_dataset.data
        )
        # Nothing crosses a process boundary: the context never accumulates
        # transfer, and every stage record reports zero bytes.
        assert model.result_.bytes_shipped == {}
        shipped = model.pipeline_report_.stage_bytes_shipped
        assert set(shipped) == set(ALL_STAGES)
        assert all(value == 0 for value in shipped.values())


# --------------------------------------------------------------------------- #
# benchmark integration: the parameter grid reuses upstream checkpoints
# --------------------------------------------------------------------------- #
class TestBenchmarkGrid:
    def test_grid_reuses_embedding_across_combinations(self, small_dataset):
        runner = BenchmarkRunner(["kgraph"])
        results = runner.run_estimator_grid(
            small_dataset,
            "kgraph",
            [{}, {"feature_mode": "nodes"}, {"feature_mode": "edges"}],
            base={"n_lengths": 2},
            random_state=0,
        )
        assert [result.error for result in results] == [None, None, None]
        assert results[0].measures["stages_cached"] == 0.0
        assert all(
            result.measures["stages_cached"] >= 1.0 for result in results[1:]
        )
        # Grid results match independent cold fits bit for bit.
        cold = KGraph(
            small_dataset.n_classes,
            n_lengths=2,
            feature_mode="edges",
            random_state=0,
        ).fit_predict(small_dataset.data)
        ari = results[2].measures["ari"]
        from repro.metrics.clustering import adjusted_rand_index

        assert ari == pytest.approx(
            adjusted_rand_index(small_dataset.labels, cold)
        )

    def test_grid_isolates_failing_combination(self, small_dataset):
        runner = BenchmarkRunner(["kgraph"])
        results = runner.run_estimator_grid(
            small_dataset,
            "kgraph",
            [{"feature_mode": "magic"}, {}],
            base={"n_lengths": 2},
            random_state=0,
        )
        assert results[0].failed and "feature_mode" in results[0].error
        assert not results[1].failed

    def test_empty_grid_rejected(self, small_dataset):
        from repro.exceptions import BenchmarkError

        runner = BenchmarkRunner(["kgraph"])
        with pytest.raises(BenchmarkError):
            runner.run_estimator_grid(small_dataset, "kgraph", [])
