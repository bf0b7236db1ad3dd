"""Tests for the pluggable parallel execution layer (:mod:`repro.parallel`).

The two guarantees under test: (1) backend *parity* — serial, thread and
process execution produce bit-identical pipeline/benchmark results for a
fixed seed; (2) *error isolation* — a raising job is captured on its own
outcome/result instead of crashing the fan-out.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.benchmark.runner import BenchmarkRunner
from repro.core.kgraph import KGraph
from repro.datasets.catalogue import DatasetCatalogue, DatasetSpec
from repro.datasets.synthetic import make_trend_classes, make_two_patterns
from repro.exceptions import ValidationError
from repro.parallel import (
    ExecutionBackend,
    JobOutcome,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_scope,
    resolve_backend,
)
from repro.utils.timing import Stopwatch

BACKENDS = ["serial", "thread", "process"]


def _square(value: int) -> int:
    """Module-level so the process backend can pickle it."""
    return value * value


def _square_or_fail(value: int) -> int:
    """Module-level job that fails on a specific input."""
    if value == 3:
        raise ValueError("boom on 3")
    return value * value


def _picklable_catalogue() -> DatasetCatalogue:
    """A tiny catalogue whose generators survive pickling (module-level)."""
    catalogue = DatasetCatalogue()
    catalogue.register(
        DatasetSpec(
            name="tiny_trend",
            generator=make_trend_classes,
            dataset_type="synthetic-trend",
            n_series=16,
            length=48,
            n_classes=2,
            default_kwargs={"n_series": 16, "length": 48},
        )
    )
    catalogue.register(
        DatasetSpec(
            name="tiny_patterns",
            generator=make_two_patterns,
            dataset_type="synthetic-shape",
            n_series=16,
            length=48,
            n_classes=4,
            default_kwargs={"n_series": 16, "length": 48},
        )
    )
    return catalogue


def _result_signature(results):
    return [
        (
            r.method,
            r.dataset,
            r.error,
            tuple(sorted((k, round(v, 12)) for k, v in r.measures.items())),
        )
        for r in results
    ]


# ---------------------------------------------------------------------- #
# backend mechanics
# ---------------------------------------------------------------------- #
class TestBackends:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_ordered_results(self, name):
        backend = resolve_backend(name, 2)
        outcomes = backend.map_jobs(_square, list(range(8)))
        assert [o.index for o in outcomes] == list(range(8))
        assert [o.unwrap() for o in outcomes] == [v * v for v in range(8)]
        assert all(o.ok for o in outcomes)

    @pytest.mark.parametrize("name", BACKENDS)
    def test_per_job_error_capture(self, name):
        backend = resolve_backend(name, 2)
        outcomes = backend.map_jobs(_square_or_fail, [1, 2, 3, 4])
        assert [o.ok for o in outcomes] == [True, True, False, True]
        assert "boom on 3" in outcomes[2].error
        assert outcomes[3].unwrap() == 16
        with pytest.raises(ValueError, match="boom on 3"):
            outcomes[2].unwrap()

    @pytest.mark.parametrize("name", BACKENDS)
    def test_empty_jobs(self, name):
        assert resolve_backend(name).map_jobs(_square, []) == []

    def test_serial_on_result_streams_in_order(self):
        seen = []
        # Each job returns how many outcomes were streamed before it started.
        outcomes = SerialBackend().map_jobs(
            lambda _: len(seen), [1, 2, 3], on_result=seen.append
        )
        assert [o.index for o in seen] == [0, 1, 2]
        assert [o.value for o in outcomes] == [0, 1, 2]

    def test_serial_without_policy_starts_no_thread(self, monkeypatch):
        started = []
        real_start = threading.Thread.start
        caller = threading.get_ident()

        def recording_start(thread):
            if threading.get_ident() == caller:  # ignore unrelated threads
                started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        outcomes = SerialBackend().map_jobs(lambda _: threading.get_ident(), range(4))
        assert [o.value for o in outcomes] == [caller] * 4
        assert started == []

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_parallel_on_result_sees_every_job(self, name):
        seen, callers = [], []

        def on_result(outcome):
            seen.append(outcome)
            callers.append(threading.get_ident())

        resolve_backend(name, 2).map_jobs(_square, [1, 2, 3, 4], on_result=on_result)
        assert sorted(o.index for o in seen) == [0, 1, 2, 3]
        assert callers == [threading.get_ident()] * 4  # the calling thread

    def test_process_chunking(self):
        backend = ProcessBackend(2, chunk_size=3)
        outcomes = backend.map_jobs(_square_or_fail, list(range(7)))
        assert [o.index for o in outcomes] == list(range(7))
        assert not outcomes[3].ok
        assert [o.value for o in outcomes if o.ok] == [0, 1, 4, 16, 25, 36]

    def test_process_unpicklable_job_is_captured(self):
        backend = ProcessBackend(1)
        outcomes = backend.map_jobs(_square, [lambda: 1])
        assert len(outcomes) == 1
        assert not outcomes[0].ok

    def test_durations_recorded(self):
        outcomes = SerialBackend().map_jobs(_square, [5])
        assert outcomes[0].duration_seconds >= 0.0

    def test_job_outcome_unwrap_without_exception_object(self):
        from repro.exceptions import ParallelExecutionError

        outcome = JobOutcome(index=0, error="RuntimeError: lost")
        with pytest.raises(ParallelExecutionError, match="lost"):
            outcome.unwrap()

    @pytest.mark.parametrize("cls", [ThreadBackend, ProcessBackend])
    def test_pool_reused_and_recreated_after_close(self, cls):
        backend = cls(2)
        try:
            assert [o.unwrap() for o in backend.map_jobs(_square, [2, 3])] == [4, 9]
            pool = backend._pool
            backend.map_jobs(_square, [4])
            assert backend._pool is pool  # pool survives across fan-outs
            backend.close()
            assert backend._pool is None
            assert backend.map_jobs(_square, [5])[0].unwrap() == 25  # lazily recreated
        finally:
            backend.close()

    def test_backend_scope_closes_owned_backends_only(self):
        with backend_scope("thread", 2) as owned:
            owned.map_jobs(_square, [1, 2])
        assert owned._pool is None  # closed on exit

        external = ThreadBackend(2)
        try:
            with backend_scope(external) as resolved:
                assert resolved is external
                resolved.map_jobs(_square, [1])
            assert external._pool is not None  # caller-owned: left open
        finally:
            external.close()


class TestResolveBackend:
    def test_default_is_serial(self):
        assert isinstance(resolve_backend(), SerialBackend)
        assert isinstance(resolve_backend(None, 1), SerialBackend)

    def test_n_jobs_alone_selects_threads(self):
        backend = resolve_backend(None, 4)
        assert isinstance(backend, ThreadBackend)
        assert backend.n_workers == 4

    def test_names(self):
        assert isinstance(resolve_backend("serial"), SerialBackend)
        assert isinstance(resolve_backend("threads", 2), ThreadBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)

    def test_instance_passthrough(self):
        backend = ThreadBackend(2)
        assert resolve_backend(backend) is backend

    def test_instance_with_n_jobs_rejected(self):
        with pytest.raises(ValidationError, match="n_jobs cannot be combined"):
            resolve_backend(ThreadBackend(2), 4)

    def test_serial_ignores_n_jobs(self):
        assert isinstance(resolve_backend("serial", 4), SerialBackend)

    @pytest.mark.parametrize("name", ["shared", "shared_memory"])
    def test_removed_shared_memory_names_rejected(self, name):
        with pytest.raises(
            ValidationError, match=r"unknown backend .*; available: .*'process'"
        ):
            resolve_backend(name, 2)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            resolve_backend("distributed")
        with pytest.raises(ValidationError):
            resolve_backend(None, 0)
        with pytest.raises(ValidationError):
            resolve_backend(42)
        with pytest.raises(ValidationError):
            ThreadBackend(0)
        with pytest.raises(ValidationError):
            ProcessBackend(chunk_size=0)

    def test_pool_sized_from_n_workers(self):
        backend = ThreadBackend(3)
        try:
            backend.map_jobs(_square, [1])
            assert backend._pool._max_workers == 3
        finally:
            backend.close()


class TestStopwatchMerge:
    def test_add_and_merge_accumulate(self):
        watch = Stopwatch()
        watch.add("embedding", 1.0)
        watch.merge({"embedding": 0.5, "clustering": 2.0}, {"embedding": 3, "clustering": 1})
        assert watch.totals() == {"embedding": 1.5, "clustering": 2.0}
        assert watch.counts() == {"embedding": 4, "clustering": 1}

    def test_merge_stopwatch_instance(self):
        first, second = Stopwatch(), Stopwatch()
        first.add("a", 1.0)
        second.add("a", 2.0, count=2)
        first.merge(second)
        assert first.totals()["a"] == pytest.approx(3.0)
        assert first.counts()["a"] == 3

    def test_add_rejects_bad_values(self):
        watch = Stopwatch()
        with pytest.raises(ValueError):
            watch.add("a", -1.0)
        with pytest.raises(ValueError):
            watch.add("a", 1.0, count=0)


# ---------------------------------------------------------------------- #
# backend parity on the real pipeline
# ---------------------------------------------------------------------- #
class TestKGraphParity:
    @pytest.fixture(scope="class")
    def serial_fit(self, small_dataset):
        model = KGraph(n_clusters=3, n_lengths=2, random_state=7)
        model.fit(small_dataset.data)
        return model

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_labels_and_length_identical(self, name, small_dataset, serial_fit):
        model = KGraph(
            n_clusters=3, n_lengths=2, random_state=7, backend=name, n_jobs=2
        )
        model.fit(small_dataset.data)
        assert np.array_equal(model.labels_, serial_fit.labels_)
        assert model.optimal_length_ == serial_fit.optimal_length_
        assert np.allclose(
            model.consensus_matrix_, serial_fit.consensus_matrix_
        )
        for mine, theirs in zip(model.length_scores_, serial_fit.length_scores_):
            assert mine == theirs

    def test_n_jobs_alone(self, small_dataset, serial_fit):
        model = KGraph(n_clusters=3, n_lengths=2, random_state=7, n_jobs=2)
        assert np.array_equal(
            model.fit_predict(small_dataset.data), serial_fit.labels_
        )

    def test_timing_sections_survive_parallel_fit(self, small_dataset):
        model = KGraph(
            n_clusters=3, n_lengths=2, random_state=7, backend="thread", n_jobs=2
        )
        model.fit(small_dataset.data)
        timings = model.result_.timings
        assert {"graph_embedding", "graph_clustering", "consensus_clustering"} <= set(
            timings
        )
        assert all(value >= 0.0 for value in timings.values())


class TestBenchmarkParity:
    @pytest.fixture(scope="class")
    def serial_results(self):
        runner = BenchmarkRunner(
            ["kmeans", "gmm"], catalogue=_picklable_catalogue(), n_runs=2, random_state=3
        )
        return runner.run()

    @pytest.mark.parametrize("name", ["thread", "process"])
    def test_measures_identical(self, name, serial_results):
        runner = BenchmarkRunner(
            ["kmeans", "gmm"],
            catalogue=_picklable_catalogue(),
            n_runs=2,
            random_state=3,
            backend=name,
            n_jobs=2,
        )
        assert _result_signature(runner.run()) == _result_signature(serial_results)

    def test_progress_fires_per_run(self):
        calls = []
        runner = BenchmarkRunner(
            ["kmeans"],
            catalogue=_picklable_catalogue(),
            n_runs=2,
            random_state=0,
            backend="thread",
            n_jobs=2,
        )
        runner.run(["tiny_trend"], progress=lambda m, d, r: calls.append((m, d)))
        assert calls == [("kmeans", "tiny_trend")] * 2

    @pytest.mark.parametrize("name", BACKENDS)
    def test_method_failure_is_isolated(self, name, monkeypatch):
        from repro.baselines import registry

        broken = registry.BaselineMethod(
            name="kmeans", family="raw", runner=lambda *a, **k: 1 / 0, description=""
        )
        monkeypatch.setitem(registry._REGISTRY, "kmeans", broken)
        runner = BenchmarkRunner(
            ["kmeans", "gmm"],
            catalogue=_picklable_catalogue(),
            random_state=0,
            backend=name,
            n_jobs=2,
        )
        results = runner.run(["tiny_trend"])
        by_method = {result.method: result for result in results}
        assert by_method["kmeans"].failed
        assert "ZeroDivisionError" in by_method["kmeans"].error
        assert not by_method["gmm"].failed

    def test_misbehaving_backend_rejected(self):
        from repro.exceptions import BenchmarkError

        class LossyBackend(SerialBackend):
            def map_jobs(self, fn, jobs, *, on_result=None):
                return super().map_jobs(fn, jobs, on_result=on_result)[:-1]

        runner = BenchmarkRunner(
            ["kmeans"],
            catalogue=_picklable_catalogue(),
            n_runs=2,
            random_state=0,
            backend=LossyBackend(),
        )
        with pytest.raises(BenchmarkError, match="submitted"):
            runner.run(["tiny_trend"])

    def test_unpicklable_spec_is_isolated_on_process_backend(self):
        catalogue = DatasetCatalogue()
        catalogue.register(
            DatasetSpec(
                name="lambda_ds",
                generator=lambda random_state=None, **kw: make_trend_classes(
                    n_series=16, length=48, random_state=random_state
                ),
                dataset_type="synthetic-trend",
                n_series=16,
                length=48,
                n_classes=2,
            )
        )
        runner = BenchmarkRunner(
            ["kmeans"], catalogue=catalogue, random_state=0, backend="process", n_jobs=2
        )
        results = runner.run(["lambda_ds"])
        assert len(results) == 1
        assert results[0].failed
        assert results[0].dataset == "lambda_ds"
        assert results[0].n_series == 16


class TestSessionThreading:
    def test_session_forwards_backend(self, small_dataset):
        from repro.viz.session import GraphintSession

        serial = GraphintSession(small_dataset, random_state=0).fit()
        threaded = GraphintSession(
            small_dataset, random_state=0, backend="thread", n_jobs=2
        ).fit()
        assert np.array_equal(
            serial.method_labels["kgraph"], threaded.method_labels["kgraph"]
        )
        assert serial.kgraph.optimal_length_ == threaded.kgraph.optimal_length_


def test_custom_backend_instance_is_used(small_dataset):
    class CountingBackend(ExecutionBackend):
        name = "counting"

        def __init__(self):
            self.calls = 0
            self._serial = SerialBackend()

        def map_jobs(self, fn, jobs, *, on_result=None):
            self.calls += 1
            return self._serial.map_jobs(fn, jobs, on_result=on_result)

    backend = CountingBackend()
    KGraph(n_clusters=3, n_lengths=2, random_state=7, backend=backend).fit(
        small_dataset.data
    )
    # per-length embedding + per-length clustering (separate pipeline
    # stages); the other three stages run in the calling process
    assert backend.calls == 2
