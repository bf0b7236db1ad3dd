"""Tests for the distributed subsystem: registry, worker service, backend.

The HTTP tests run real ``ThreadingHTTPServer`` workers bound to ephemeral
loopback ports (``port=0``) with ``serve_forever`` on daemon threads — the
same wire path production uses, without subprocesses (the subprocess +
SIGKILL path lives in ``tests/test_distributed_chaos.py``).
"""

import json
import threading
import time
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import pytest

from repro.benchmark.runner import _GridJob
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.distributed import (
    DistributedBackend,
    PlaneArrayRef,
    PlaneMissError,
    StageDataPlane,
    WorkerApplication,
    canonical_name,
    register_worker_function,
    registered_function_names,
    resolve_worker_function,
    serve_worker,
    worker_function_name,
)
from repro.distributed.functions import checked_sqrt, scale_array, sleep_echo, square
from repro.exceptions import ValidationError
from repro.parallel import (
    FallbackBackend,
    JobTimeoutError,
    RetryPolicy,
    SerialBackend,
    WorkerPoolExhausted,
    resolve_backend,
)
from repro.parallel.chaos import _ChaosJob
from repro.utils.containers import TimeSeriesDataset


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_canonical_name(self):
        assert canonical_name(square) == "repro.distributed.functions:square"

    def test_library_functions_self_register(self):
        names = registered_function_names()
        assert "repro.distributed.functions:square" in names
        assert "repro.benchmark.runner:_execute_grid_combo" in names
        assert any("kgraph_stages" in name for name in names)

    def test_resolve_roundtrip(self):
        assert resolve_worker_function(canonical_name(square)) is square
        assert worker_function_name(square) == canonical_name(square)
        assert worker_function_name("already-a-name") == "already-a-name"

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown worker function"):
            resolve_worker_function("no.such:function")

    def test_unregistered_callable_rejected(self):
        def local_fn(job):
            return job

        with pytest.raises(ValidationError, match="not registered"):
            worker_function_name(local_fn)

    def test_collision_rejected_and_reregistration_is_noop(self):
        def probe(job):
            return job

        register_worker_function(probe, name="tests:collision-probe")
        register_worker_function(probe, name="tests:collision-probe")

        def impostor(job):
            return job

        with pytest.raises(ValidationError, match="already registered"):
            register_worker_function(impostor, name="tests:collision-probe")

    def test_non_callable_rejected(self):
        with pytest.raises(ValidationError, match="only callables"):
            register_worker_function("not-a-function")


# --------------------------------------------------------------------- #
# WorkerApplication routed directly (no sockets)
# --------------------------------------------------------------------- #
def _post_jobs(app, function, jobs, **extra):
    import base64
    import pickle

    body = {
        "function": function,
        "jobs": base64.b64encode(
            pickle.dumps(list(jobs), protocol=4)
        ).decode("ascii"),
    }
    body.update(extra)
    return app.handle_request("POST", "/jobs", json.dumps(body).encode())


class TestWorkerApplication:
    @pytest.fixture()
    def app(self):
        application = WorkerApplication()
        yield application
        application.close()

    def test_healthz(self, app):
        status, ctype, body = app.handle_request("GET", "/healthz")
        assert status == 200 and ctype == "application/json"
        payload = json.loads(body)
        assert payload["status"] == "ok"
        assert payload["functions"] > 0

    def test_method_not_allowed(self, app):
        status, _, body = app.handle_request("POST", "/healthz", b"")
        assert status == 405
        assert json.loads(body)["error"]["allow"] == ["GET"]
        status, _, _ = app.handle_request("GET", "/jobs")
        assert status == 405

    def test_unknown_route_lists_routes(self, app):
        status, _, body = app.handle_request("GET", "/nope")
        assert status == 404
        assert "/jobs" in json.loads(body)["error"]["routes"]

    def test_jobs_happy_path_and_metrics(self, app):
        status, _, body = _post_jobs(
            app, canonical_name(square), [(3, 2.0), (7, 5.0)]
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["worker_jobs"] == 2
        outcomes = {
            node["index"]: node["value"] for node in payload["outcomes"]
        }
        assert outcomes[3]["v"] == 4.0 and outcomes[7]["v"] == 25.0
        metrics = app.metrics()
        assert metrics["chunks"] == 1 and metrics["jobs_run"] == 2
        assert metrics["bytes_in"] > 0 and metrics["bytes_out"] > 0

    def test_jobs_malformed_body(self, app):
        status, _, _ = app.handle_request("POST", "/jobs", b"not json")
        assert status == 400
        status, _, _ = app.handle_request("POST", "/jobs", b"[1, 2]")
        assert status == 400

    def test_jobs_unknown_function_lists_table(self, app):
        status, _, body = _post_jobs(app, "no.such:function", [(0, 1.0)])
        assert status == 404
        functions = json.loads(body)["error"]["functions"]
        assert canonical_name(square) in functions

    def test_jobs_missing_fields(self, app):
        status, _, _ = app.handle_request("POST", "/jobs", b'{"jobs": "x"}')
        assert status == 400  # no function name
        status, _, body = app.handle_request(
            "POST", "/jobs", json.dumps({"function": canonical_name(square)}).encode()
        )
        assert status == 400
        assert "'jobs'" in json.loads(body)["error"]["message"]

    @pytest.mark.parametrize("entry", [5, None, ("x", 1), (0,)])
    def test_jobs_malformed_entry_is_a_400_naming_it(self, app, entry):
        status, _, body = _post_jobs(app, canonical_name(square), [(0, 1.0), entry])
        assert status == 400
        assert "job entry 1" in json.loads(body)["error"]["message"]

    @pytest.mark.parametrize("plane", [5, {"min_bytes": None}])
    def test_jobs_malformed_plane_is_a_400(self, tmp_path, plane):
        if isinstance(plane, dict):
            plane = {**plane, "directory": str(tmp_path)}
        app = WorkerApplication(data_plane=tmp_path)
        try:
            status, _, _ = _post_jobs(app, canonical_name(square), [(0, 1.0)], plane=plane)
            assert status == 400
        finally:
            app.close()

    def test_jobs_oversized_chunk(self):
        app = WorkerApplication(max_chunk_jobs=2)
        try:
            status, _, body = _post_jobs(
                app, canonical_name(square), [(i, 1.0) for i in range(3)]
            )
            assert status == 413
            assert "2-job limit" in json.loads(body)["error"]["message"]
        finally:
            app.close()

    def test_plane_rejected_without_data_plane(self, app):
        status, _, body = _post_jobs(
            app,
            canonical_name(square),
            [(0, 1.0)],
            plane={"directory": "/tmp/x", "min_bytes": 0},
        )
        assert status == 400
        assert "no data plane" in json.loads(body)["error"]["message"]

    def test_plane_outside_root_rejected(self, tmp_path):
        app = WorkerApplication(data_plane=tmp_path / "root")
        try:
            status, _, body = _post_jobs(
                app,
                canonical_name(square),
                [(0, 1.0)],
                plane={"directory": str(tmp_path / "elsewhere"), "min_bytes": 0},
            )
            assert status == 400
            assert "outside" in json.loads(body)["error"]["message"]
        finally:
            app.close()

    def test_invalid_max_chunk_jobs(self):
        with pytest.raises(ValidationError):
            WorkerApplication(max_chunk_jobs=0)


# --------------------------------------------------------------------- #
# Real HTTP workers on ephemeral ports
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def worker_pool(tmp_path_factory):
    plane_dir = tmp_path_factory.mktemp("plane")
    servers, applications, urls = [], [], []
    for _ in range(2):
        application = WorkerApplication(data_plane=plane_dir)
        server = serve_worker(application, port=0, poll=False)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        servers.append(server)
        applications.append(application)
        urls.append(f"127.0.0.1:{server.server_port}")
    yield {"urls": urls, "applications": applications, "plane_dir": plane_dir}
    for server in servers:
        server.shutdown()
        server.server_close()
    for application in applications:
        application.close()


class TestDistributedBackend:
    def test_port_zero_binds_ephemeral_and_ready_sees_it(self):
        seen = {}
        application = WorkerApplication()
        server = serve_worker(
            application, port=0, poll=False, ready=lambda s: seen.update(port=s.server_port)
        )
        try:
            assert server.server_port > 0
            assert seen["port"] == server.server_port
        finally:
            server.server_close()
            application.close()

    def test_results_match_serial_in_order(self, worker_pool):
        jobs = [float(value) for value in range(11)]
        backend = DistributedBackend(worker_pool["urls"])
        try:
            outcomes = backend.map_jobs(square, jobs)
            serial = SerialBackend().map_jobs(square, jobs)
            assert [outcome.index for outcome in outcomes] == list(range(11))
            assert [outcome.value for outcome in outcomes] == [
                outcome.value for outcome in serial
            ]
            assert backend.bytes_shipped > 0
            assert backend.bytes_received > 0
        finally:
            backend.close()

    def test_function_may_be_passed_by_name(self, worker_pool):
        backend = DistributedBackend(worker_pool["urls"])
        try:
            outcomes = backend.map_jobs(canonical_name(square), [3.0])
            assert outcomes[0].value == 9.0
        finally:
            backend.close()

    def test_ndarray_results_bit_identical(self, worker_pool):
        rng = np.random.default_rng(5)
        jobs = [(rng.standard_normal((16, 4)), float(i + 1)) for i in range(4)]
        backend = DistributedBackend(worker_pool["urls"], chunk_size=2)
        try:
            outcomes = backend.map_jobs(scale_array, jobs)
            for outcome, (array, factor) in zip(outcomes, jobs):
                np.testing.assert_array_equal(outcome.value, array * factor)
                assert outcome.value.dtype == np.float64
        finally:
            backend.close()

    def test_error_capture_preserves_type(self, worker_pool):
        backend = DistributedBackend(worker_pool["urls"])
        try:
            outcomes = backend.map_jobs(checked_sqrt, [4.0, -1.0, 9.0])
            assert outcomes[0].value == 2.0 and outcomes[2].value == 3.0
            assert not outcomes[1].ok
            assert isinstance(outcomes[1].exception, ValidationError)
            with pytest.raises(ValidationError):
                outcomes[1].unwrap()
        finally:
            backend.close()

    def test_on_result_runs_on_calling_thread(self, worker_pool):
        threads = []
        backend = DistributedBackend(worker_pool["urls"])
        try:
            backend.map_jobs(
                square,
                [1.0, 2.0, 3.0],
                on_result=lambda outcome: threads.append(
                    threading.current_thread()
                ),
            )
            assert len(threads) == 3
            assert all(thread is threading.main_thread() for thread in threads)
        finally:
            backend.close()

    def test_empty_jobs(self, worker_pool):
        backend = DistributedBackend(worker_pool["urls"])
        try:
            assert backend.map_jobs(square, []) == []
        finally:
            backend.close()

    def test_attempt_timeout_marks_only_the_hung_worker_dead(self, worker_pool):
        # Round-robin puts the hung job alone on the second worker.
        jobs = [(0.0, "a"), (3.0, "hung"), (0.0, "c")]
        backend = DistributedBackend(worker_pool["urls"])
        try:
            outcomes = backend.map_jobs(
                sleep_echo, jobs, retry=RetryPolicy(max_attempts=1, timeout=0.5)
            )
            assert outcomes[0].value == "a" and outcomes[2].value == "c"
            hung = outcomes[1]
            assert hung.timed_out
            assert isinstance(hung.exception, JobTimeoutError)
            assert [worker.alive for worker in backend.workers] == [True, False]
            assert backend.timeouts == 1
        finally:
            backend.close()

    def test_deadline_drains_queued_jobs(self, worker_pool):
        # Job 0 fails fast and queues a retry; job 1 holds the round open
        # until the deadline, so the retry is drained instead of dispatched.
        jobs = [("not-a-number", "bad"), (3.0, "slow")]
        backend = DistributedBackend(worker_pool["urls"])
        start = time.monotonic()
        try:
            outcomes = backend.map_jobs(
                sleep_echo, jobs, retry=RetryPolicy(max_attempts=3, deadline=0.5)
            )
        finally:
            backend.close()
        assert time.monotonic() - start < 2.0
        drained = outcomes[0]
        assert drained.timed_out
        assert isinstance(drained.exception, JobTimeoutError)
        assert "fan-out deadline" in drained.error
        assert drained.attempts == 1
        assert outcomes[1].timed_out

    def test_unreachable_pool_exhausts_and_fallback_demotes(self):
        policy = RetryPolicy(max_attempts=2, max_pool_rebuilds=1)
        backend = DistributedBackend(
            ["127.0.0.1:9"], probe_timeout=0.2, request_timeout=0.5
        )
        try:
            outcomes = backend.map_jobs(square, [2.0], retry=policy)
            assert isinstance(outcomes[0].exception, WorkerPoolExhausted)
            assert "probe sweeps" in outcomes[0].error
        finally:
            backend.close()

        chain = resolve_backend(
            DistributedBackend(
                ["127.0.0.1:9"], probe_timeout=0.2, request_timeout=0.5
            ),
            fallback="serial",
        )
        try:
            assert isinstance(chain, FallbackBackend)
            outcomes = chain.map_jobs(square, [6.0], retry=policy)
            assert outcomes[0].value == 36.0
            assert len(chain.demotions) == 1
            assert chain.demotions[0]["from"] == "distributed"
        finally:
            chain.close()


class TestBackendSpec:
    def test_from_spec_parses_workers_and_plane(self, tmp_path):
        backend = DistributedBackend.from_spec(
            f"distributed:127.0.0.1:8101,127.0.0.1:8102@{tmp_path}"
        )
        try:
            assert [worker.url for worker in backend.workers] == [
                "http://127.0.0.1:8101",
                "http://127.0.0.1:8102",
            ]
            assert backend.data_plane is not None
            assert backend.data_plane.directory == tmp_path
        finally:
            backend.close()

    def test_from_spec_without_plane(self):
        backend = DistributedBackend.from_spec("distributed:127.0.0.1:8101")
        try:
            assert backend.data_plane is None
        finally:
            backend.close()

    def test_from_spec_requires_workers(self):
        with pytest.raises(ValidationError, match="names no workers"):
            DistributedBackend.from_spec("distributed")
        with pytest.raises(ValidationError, match="names no workers"):
            DistributedBackend.from_spec("distributed:@/tmp/plane")

    def test_resolve_backend_accepts_distributed_spec(self):
        backend = resolve_backend("distributed:127.0.0.1:8101")
        try:
            assert backend.name == "distributed"
        finally:
            backend.close()

    def test_constructor_validation(self):
        with pytest.raises(ValidationError, match="at least one worker"):
            DistributedBackend([])
        with pytest.raises(ValidationError, match="duplicate"):
            DistributedBackend(["127.0.0.1:8101", "127.0.0.1:8101"])
        with pytest.raises(ValidationError, match="chunk_size"):
            DistributedBackend(["127.0.0.1:8101"], chunk_size=0)


# --------------------------------------------------------------------- #
# Stage data plane
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _ArrayJob:
    array: np.ndarray
    offset: float


_Pair = namedtuple("_Pair", ["data", "tag"])


class TestStageDataPlane:
    def test_stash_resolve_roundtrip(self, tmp_path):
        plane = StageDataPlane(tmp_path, min_bytes=64)
        array = np.arange(64, dtype=np.float64)
        job = {"data": array, "small": np.arange(2), "k": 3}
        stashed = plane.stash(job)
        assert isinstance(stashed["data"], PlaneArrayRef)
        assert isinstance(stashed["small"], np.ndarray)  # below min_bytes
        resolved = plane.resolve(stashed)
        np.testing.assert_array_equal(resolved["data"], array)
        assert resolved["k"] == 3
        assert plane.arrays_stashed == 1
        assert plane.arrays_resolved == 1
        assert plane.bytes_offloaded == array.nbytes

    def test_stash_dataclass_fields(self, tmp_path):
        plane = StageDataPlane(tmp_path, min_bytes=0)
        job = _ArrayJob(array=np.zeros((32, 32)), offset=2.0)
        stashed = plane.stash(job)
        assert isinstance(stashed.array, PlaneArrayRef)
        assert stashed.offset == 2.0
        assert isinstance(job.array, np.ndarray)  # original untouched
        np.testing.assert_array_equal(plane.resolve(stashed).array, job.array)

    def test_grid_job_stashes_without_post_init(self, tmp_path, monkeypatch):
        # A validating dataclass (TimeSeriesDataset checks ``data``) is
        # rebuilt around the ref, and back around the array, without
        # re-running __post_init__.
        dataset = make_cylinder_bell_funnel(200, 256, random_state=0)
        job = _GridJob(
            estimator="kgraph",
            dataset=dataset,
            base_fields={},
            combo={"n_clusters": 3},
            random_state=0,
        )
        checks = []
        validate = TimeSeriesDataset.__post_init__
        monkeypatch.setattr(
            TimeSeriesDataset,
            "__post_init__",
            lambda self: checks.append(self) or validate(self),
        )
        plane = StageDataPlane(tmp_path)
        stashed = plane.stash(job)
        assert isinstance(stashed.dataset.data, PlaneArrayRef)
        assert stashed.combo == job.combo
        resolved = plane.resolve(stashed)
        np.testing.assert_array_equal(resolved.dataset.data, dataset.data)
        assert resolved.dataset.labels is dataset.labels
        assert checks == []
        assert job.dataset is dataset and isinstance(dataset.data, np.ndarray)

    def test_stash_containers(self, tmp_path):
        plane = StageDataPlane(tmp_path, min_bytes=0)
        array = np.arange(64, dtype=np.float64)
        as_dict = plane.stash({"a": array, "b": 1})
        as_tuple = plane.stash((array, "x"))
        as_list = plane.stash([array])
        as_named = plane.stash(_Pair(data=array, tag="y"))
        assert isinstance(as_dict["a"], PlaneArrayRef) and as_dict["b"] == 1
        assert isinstance(as_tuple, tuple) and as_tuple[1] == "x"
        assert isinstance(as_tuple[0], PlaneArrayRef)
        assert isinstance(as_list, list) and isinstance(as_list[0], PlaneArrayRef)
        assert isinstance(as_named, _Pair) and as_named.tag == "y"
        assert isinstance(as_named.data, PlaneArrayRef)
        # The same content in all four containers was written once.
        assert plane.arrays_stashed == 1
        resolved = plane.resolve(as_named)
        assert isinstance(resolved, _Pair)
        np.testing.assert_array_equal(resolved.data, array)

    def test_small_arrays_pass_through(self, tmp_path):
        plane = StageDataPlane(tmp_path, min_bytes=1 << 20)
        job = _ArrayJob(array=np.zeros((2, 2)), offset=0.0)
        assert plane.stash(job) is job
        assert plane.resolve(job) is job
        assert plane.arrays_stashed == 0

    def test_non_array_payloads_untouched(self, tmp_path):
        plane = StageDataPlane(tmp_path, min_bytes=0)
        payload = {"k": 3, "names": ("a", "b")}
        assert plane.stash(payload) is payload
        assert plane.stash("job") == "job"
        assert plane.stash(123) == 123
        assert plane.arrays_stashed == 0

    def test_chaos_wrapped_payload_reaches_arrays(self, tmp_path):
        # _ChaosJob -> _ArrayJob -> dict -> list -> array: depth 4.
        plane = StageDataPlane(tmp_path, min_bytes=0)
        array = np.ones(128)
        inner = _ArrayJob(array={"blocks": [array]}, offset=1.0)
        wrapped = _ChaosJob(fault="raise", seconds=0.0, token=None, job=inner)
        stashed = plane.stash(wrapped)
        assert isinstance(stashed.job.array["blocks"][0], PlaneArrayRef)
        assert stashed.fault == "raise"
        resolved = plane.resolve(stashed)
        np.testing.assert_array_equal(resolved.job.array["blocks"][0], array)

    def test_dedup_by_content(self, tmp_path):
        plane = StageDataPlane(tmp_path, min_bytes=64)
        array = np.ones(128)
        first = plane.stash_array(array)
        second = plane.stash_array(array.copy())
        assert first == second
        assert plane.arrays_stashed == 1
        assert plane.arrays_deduplicated == 1
        assert plane.bytes_offloaded == 2 * array.nbytes

    def test_miss_raises_plane_miss(self, tmp_path):
        plane = StageDataPlane(tmp_path)
        ref = PlaneArrayRef("0" * 16, "<f8", (4,), 32)
        with pytest.raises(PlaneMissError):
            plane.resolve(ref)

    def test_refs_pickle_roundtrip(self, tmp_path):
        import pickle

        plane = StageDataPlane(tmp_path, min_bytes=8)
        ref = plane.stash_array(np.arange(32, dtype=np.int64))
        clone = pickle.loads(pickle.dumps(ref))
        assert clone == ref
        np.testing.assert_array_equal(
            plane.load_array(clone), np.arange(32, dtype=np.int64)
        )

    def test_plane_collapses_bytes_shipped(self, worker_pool):
        rng = np.random.default_rng(9)
        jobs = [(rng.standard_normal((256, 64)), 2.0) for _ in range(3)]

        plain = DistributedBackend(worker_pool["urls"])
        planed = DistributedBackend(
            worker_pool["urls"],
            data_plane=StageDataPlane(worker_pool["plane_dir"], min_bytes=1024),
        )
        try:
            baseline = plain.map_jobs(scale_array, jobs)
            offloaded = planed.map_jobs(scale_array, jobs)
            for lhs, rhs in zip(baseline, offloaded):
                np.testing.assert_array_equal(lhs.value, rhs.value)
            assert plain.bytes_shipped / planed.bytes_shipped >= 10
            assert planed.data_plane.bytes_offloaded > 0
        finally:
            plain.close()
            planed.close()
