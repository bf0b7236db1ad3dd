"""Tests for the zero-copy shared-memory dataset plans (repro.parallel.shared)."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pytest

from repro.benchmark.runner import _GridJob
from repro.core.kgraph import KGraph
from repro.datasets import generate_dataset
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.exceptions import ValidationError
from repro.parallel import (
    ProcessBackend,
    SerialBackend,
    SharedArrayPlan,
    SharedMemoryBackend,
    SharedResultPlan,
    publish_result_arrays,
    resolve_backend,
    substitute_shared_arrays,
)
from repro.parallel import shared as shared_module
from repro.parallel.shared import _SharedArrayRef, _SharedResultRef


@dataclass(frozen=True)
class _ArrayJob:
    array: np.ndarray
    offset: float


def _job_sum(job: _ArrayJob) -> float:
    return float(job.array.sum() + job.offset)


def _mutate_job(job: _ArrayJob) -> float:
    job.array[0, 0] = -1.0
    return 0.0


def _grid_job(dataset, n_clusters: int = 3) -> _GridJob:
    return _GridJob(
        estimator="kgraph",
        dataset=dataset,
        base_fields={},
        combo={"n_clusters": n_clusters},
        random_state=0,
    )


def _grid_data_sum(job: _GridJob) -> float:
    return float(job.dataset.data.sum())


class TestSharedArrayPlan:
    def test_share_roundtrip_is_equal_and_readonly(self):
        rng = np.random.default_rng(0)
        array = rng.normal(size=(64, 32))
        with SharedArrayPlan() as plan:
            ref = plan.share(array)
            assert isinstance(ref, _SharedArrayRef)
            view = pickle.loads(pickle.dumps(ref))
            assert np.array_equal(view, array)
            assert not view.flags.writeable

    def test_identity_deduplication(self):
        array = np.zeros((16, 16))
        other = np.ones((16, 16))
        with SharedArrayPlan() as plan:
            first = plan.share(array)
            second = plan.share(array)
            third = plan.share(other)
            assert first is second
            assert third is not first
            assert plan.n_segments == 2

    def test_reference_pickle_is_tiny(self):
        array = np.zeros((512, 512))
        with SharedArrayPlan() as plan:
            ref = plan.share(array)
            assert len(pickle.dumps(ref)) < 1024
            assert len(pickle.dumps(array)) > array.nbytes

    def test_close_is_idempotent(self):
        plan = SharedArrayPlan()
        plan.share(np.zeros(128))
        plan.close()
        plan.close()
        assert plan.n_segments == 0


class TestSubstitution:
    def test_dataclass_fields(self):
        job = _ArrayJob(array=np.zeros((32, 32)), offset=2.0)
        with SharedArrayPlan() as plan:
            replaced = substitute_shared_arrays(job, plan, min_bytes=0)
            assert isinstance(replaced.array, _SharedArrayRef)
            assert replaced.offset == 2.0
            assert isinstance(job.array, np.ndarray)  # original untouched

    def test_grid_job_dataset_is_shared(self):
        # A validating dataclass (TimeSeriesDataset checks ``data``) must be
        # rebuilt without re-running __post_init__ on the transport ref.
        job = _grid_job(make_cylinder_bell_funnel(200, 256, random_state=0))
        with SharedArrayPlan() as plan:
            replaced = substitute_shared_arrays(job, plan)
            assert isinstance(replaced.dataset.data, _SharedArrayRef)
            assert replaced.combo == job.combo
            assert isinstance(job.dataset.data, np.ndarray)  # original untouched

    def test_grid_jobs_ship_the_dataset_once(self):
        dataset = make_cylinder_bell_funnel(200, 256, random_state=0)
        jobs = [_grid_job(dataset, n_clusters) for n_clusters in (2, 3, 4, 5)]
        with SharedMemoryBackend(2) as backend:
            outcomes = backend.map_jobs(_grid_data_sum, jobs)
        assert [outcome.value for outcome in outcomes] == [
            float(dataset.data.sum())
        ] * len(jobs)
        assert backend.bytes_shipped < dataset.data.nbytes

    def test_small_arrays_pass_through(self):
        job = _ArrayJob(array=np.zeros((2, 2)), offset=0.0)
        with SharedArrayPlan() as plan:
            replaced = substitute_shared_arrays(job, plan, min_bytes=1 << 20)
            assert replaced is job
            assert plan.n_segments == 0

    def test_containers(self):
        array = np.zeros(64)
        with SharedArrayPlan() as plan:
            as_dict = substitute_shared_arrays({"a": array, "b": 1}, plan, 0)
            as_tuple = substitute_shared_arrays((array, "x"), plan, 0)
            as_list = substitute_shared_arrays([array], plan, 0)
            assert isinstance(as_dict["a"], _SharedArrayRef)
            assert as_dict["b"] == 1
            assert isinstance(as_tuple[0], _SharedArrayRef)
            assert as_tuple[1] == "x"
            assert isinstance(as_list[0], _SharedArrayRef)
            # The same array in all three containers used one segment.
            assert plan.n_segments == 1

    def test_non_array_jobs_untouched(self):
        with SharedArrayPlan() as plan:
            assert substitute_shared_arrays("job", plan, 0) == "job"
            assert substitute_shared_arrays(123, plan, 0) == 123
            assert plan.n_segments == 0


class TestSharedMemoryBackend:
    def test_resolve_by_name(self):
        backend = resolve_backend("shared", 2)
        try:
            assert isinstance(backend, SharedMemoryBackend)
            assert isinstance(backend, ProcessBackend)
            assert backend.n_workers == 2
        finally:
            backend.close()
        with resolve_backend("shared_memory") as alias:
            assert isinstance(alias, SharedMemoryBackend)

    def test_invalid_min_share_bytes(self):
        with pytest.raises(ValidationError):
            SharedMemoryBackend(min_share_bytes=-1)

    def test_results_match_serial(self):
        rng = np.random.default_rng(1)
        shared_array = rng.normal(size=(128, 64))
        jobs = [_ArrayJob(array=shared_array, offset=float(i)) for i in range(6)]
        expected = [outcome.value for outcome in SerialBackend().map_jobs(_job_sum, jobs)]
        with SharedMemoryBackend(2, min_share_bytes=0) as backend:
            outcomes = backend.map_jobs(_job_sum, jobs)
        assert [outcome.value for outcome in outcomes] == expected
        assert all(outcome.ok for outcome in outcomes)

    def test_worker_views_are_readonly(self):
        jobs = [_ArrayJob(array=np.zeros((64, 64)), offset=0.0)]
        with SharedMemoryBackend(1, min_share_bytes=0) as backend:
            outcomes = backend.map_jobs(_mutate_job, jobs)
        assert not outcomes[0].ok
        assert "read-only" in outcomes[0].error

    def test_empty_jobs(self):
        with SharedMemoryBackend(1) as backend:
            assert backend.map_jobs(_job_sum, []) == []

    def test_fallback_when_sharing_fails(self, monkeypatch):
        # If segment creation fails the backend must degrade to plain
        # pickling, not fail the fan-out.
        def broken_share(self, array):
            raise OSError("no shared memory")

        monkeypatch.setattr(SharedArrayPlan, "share", broken_share)
        jobs = [_ArrayJob(array=np.ones((64, 64)), offset=0.0)]
        with SharedMemoryBackend(1, min_share_bytes=0) as backend:
            outcomes = backend.map_jobs(_job_sum, jobs)
        assert outcomes[0].ok
        assert outcomes[0].value == 64 * 64


@dataclass(frozen=True)
class _ResultJob:
    rows: int
    value: float


def _job_make_array(job: _ResultJob) -> np.ndarray:
    return np.full((job.rows, 64), job.value)


def _job_make_mixed(job: _ResultJob):
    return {"matrix": np.full((job.rows, 64), job.value), "tag": int(job.value)}


def _job_maybe_fail(job: _ResultJob) -> np.ndarray:
    if job.value < 0:
        raise RuntimeError("boom")
    return np.full((job.rows, 64), job.value)


class TestPublishResultArrays:
    def test_round_trip_through_plan(self):
        value = {"matrix": np.arange(4096, dtype=float).reshape(64, 64), "tag": 7}
        published = publish_result_arrays(value, min_bytes=0)
        assert isinstance(published["matrix"], _SharedResultRef)
        assert published["tag"] == 7
        plan = SharedResultPlan()
        resolved = plan.resolve(pickle.loads(pickle.dumps(published)))
        assert np.array_equal(resolved["matrix"], value["matrix"])
        assert resolved["matrix"].flags.writeable  # copy-on-detach: a real copy
        assert plan.segments_resolved == 1
        assert plan.bytes_resolved == value["matrix"].nbytes

    def test_ref_pickle_is_tiny_and_does_not_attach(self):
        array = np.zeros((512, 512))
        published = publish_result_arrays(array, min_bytes=0)
        payload = pickle.dumps(published)
        assert len(payload) < 1024
        ref = pickle.loads(payload)
        # Unpickling alone must not touch shared memory: resolution is the
        # coordinator's explicit, accounted step.
        assert isinstance(ref, _SharedResultRef)
        SharedResultPlan().resolve(ref)  # release the segment

    def test_small_results_pass_through(self):
        small = np.zeros(4)
        assert publish_result_arrays(small, min_bytes=1 << 20) is small
        assert publish_result_arrays("text", min_bytes=0) == "text"

    def test_publish_failure_falls_back_to_original(self, monkeypatch):
        def broken(nbytes):
            raise OSError("no shm")

        monkeypatch.setattr(shared_module, "_create_segment", broken)
        value = {"a": np.zeros((64, 64)), "b": np.ones((64, 64))}
        published = publish_result_arrays(value, min_bytes=0)
        assert published is value  # untouched: pickling fallback

    def test_partial_publish_failure_unlinks_created_segments(self, monkeypatch):
        real = shared_module._create_segment
        calls = []

        def flaky(nbytes):
            if calls:
                raise OSError("no shm for the second array")
            segment = real(nbytes)
            calls.append(segment.name)
            return segment

        monkeypatch.setattr(shared_module, "_create_segment", flaky)
        value = [np.zeros((64, 64)), np.ones((64, 64))]
        published = publish_result_arrays(value, min_bytes=0)
        assert published is value
        # The first segment was rolled back: attaching to it must fail.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=calls[0])


class TestSharedResultReturn:
    def test_large_results_return_through_shared_memory(self):
        jobs = [_ResultJob(rows=256, value=float(i)) for i in range(4)]
        expected = [_job_make_array(job) for job in jobs]
        with SharedMemoryBackend(2, min_result_bytes=0) as backend:
            outcomes = backend.map_jobs(_job_make_array, jobs)
            assert backend.result_segments == 4
            assert backend.result_bytes == sum(a.nbytes for a in expected)
        for outcome, reference in zip(outcomes, expected):
            assert outcome.ok
            assert isinstance(outcome.value, np.ndarray)
            assert np.array_equal(outcome.value, reference)

    def test_on_result_sees_resolved_arrays(self):
        jobs = [_ResultJob(rows=128, value=float(i)) for i in range(3)]
        seen = []
        with SharedMemoryBackend(2, min_result_bytes=0) as backend:
            backend.map_jobs(
                _job_make_mixed, jobs, on_result=lambda o: seen.append(o.value)
            )
        assert len(seen) == 3
        for value in seen:
            assert isinstance(value["matrix"], np.ndarray)
            assert value["matrix"].shape == (128, 64)

    def test_share_results_disabled_keeps_plain_pickling(self):
        jobs = [_ResultJob(rows=128, value=1.0)]
        with SharedMemoryBackend(1, share_results=False) as backend:
            outcomes = backend.map_jobs(_job_make_array, jobs)
            assert backend.result_segments == 0
            assert backend.result_bytes == 0
        assert np.array_equal(outcomes[0].value, np.full((128, 64), 1.0))

    def test_failing_jobs_leak_no_segments(self):
        # The failing job's outcome carries the error; the successful jobs'
        # segments are all resolved and unlinked (asserted by the
        # resource-tracker scan in test_no_resource_tracker_leak_warnings).
        jobs = [
            _ResultJob(rows=256, value=float(i) if i != 1 else -1.0)
            for i in range(3)
        ]
        with SharedMemoryBackend(2, min_result_bytes=0) as backend:
            outcomes = backend.map_jobs(_job_maybe_fail, jobs)
        assert not outcomes[1].ok
        assert "boom" in outcomes[1].error
        assert outcomes[0].ok and outcomes[2].ok

    def test_invalid_min_result_bytes(self):
        with pytest.raises(ValidationError):
            SharedMemoryBackend(min_result_bytes=-1)


class TestAttachCacheEviction:
    def test_eviction_survives_broken_close(self):
        """Regression: a segment whose close() raises (not BufferError) must
        be dropped from the worker attach cache, not pin it forever."""

        class _Broken:
            def close(self):
                raise RuntimeError("cannot close")

        class _Fine:
            closed = False

            def close(self):
                self.closed = True

        saved = OrderedDict(shared_module._ATTACHED)
        shared_module._ATTACHED.clear()
        try:
            fine = _Fine()
            shared_module._ATTACHED["a"] = _Broken()
            shared_module._ATTACHED["b"] = fine
            shared_module._ATTACHED["c"] = object.__new__(object)
            shared_module._ATTACHED["d"] = object.__new__(object)
            shared_module._ATTACHED["e"] = object.__new__(object)
            shared_module._prune_attached()
            assert len(shared_module._ATTACHED) <= shared_module._ATTACH_CACHE_LIMIT
            assert "a" not in shared_module._ATTACHED  # dropped, not retried
            assert fine.closed
        finally:
            shared_module._ATTACHED.clear()
            shared_module._ATTACHED.update(saved)

    def test_exported_buffer_keeps_entry_alive(self):
        class _Exported:
            def close(self):
                raise BufferError("view still exported")

        saved = OrderedDict(shared_module._ATTACHED)
        shared_module._ATTACHED.clear()
        try:
            shared_module._ATTACHED["live"] = _Exported()
            shared_module._ATTACHED["x"] = object.__new__(object)
            shared_module._ATTACHED["y"] = object.__new__(object)
            shared_module._prune_attached()
            # The exported segment stays cached for reuse instead of being
            # force-closed under a live view.
            assert "live" in shared_module._ATTACHED
        finally:
            shared_module._ATTACHED.clear()
            shared_module._ATTACHED.update(saved)

    def test_no_resource_tracker_leak_warnings(self):
        """End-to-end leak check: a fan-out with large shared results (and a
        failing job) must exit without the multiprocessing resource tracker
        reporting leaked shared_memory objects."""
        script = (
            "import numpy as np\n"
            "from repro.parallel import SharedMemoryBackend\n"
            "from tests.test_shared_memory import _ResultJob, _job_maybe_fail\n"
            "jobs = [_ResultJob(rows=256, value=float(i) if i % 3 else -1.0)\n"
            "        for i in range(6)]\n"
            "with SharedMemoryBackend(2, min_share_bytes=0, min_result_bytes=0) as b:\n"
            "    outcomes = b.map_jobs(_job_maybe_fail, jobs)\n"
            "print('OK', sum(1 for o in outcomes if o.ok))\n"
        )
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
            cwd=str(root),
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "OK 4" in result.stdout
        assert "leaked shared_memory" not in result.stderr


class TestKGraphIntegration:
    def test_fit_is_bit_identical_to_serial(self):
        dataset = generate_dataset("cylinder_bell_funnel", random_state=0)
        serial = KGraph(n_clusters=3, n_lengths=2, random_state=0).fit(dataset.data)
        with SharedMemoryBackend(2, min_share_bytes=0) as backend:
            shared = KGraph(
                n_clusters=3, n_lengths=2, random_state=0, backend=backend
            ).fit(dataset.data)
        assert np.array_equal(serial.labels_, shared.labels_)
        assert serial.optimal_length_ == shared.optimal_length_
        for length, graph in serial.result_.graphs.items():
            assert graph.to_payload() == shared.result_.graphs[length].to_payload()
