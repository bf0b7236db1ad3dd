"""The distributed worker service: a small HTTP executor for job chunks.

A worker is a plain top-level process serving four routes through the
shared HTTP plumbing of :func:`repro.viz.server.serve_application`:

* ``GET /healthz``   — liveness + identity (pid, inner backend, functions)
* ``GET /metrics``   — jobs run/failed/dropped, attempts, bytes in/out
* ``POST /jobs``     — run a chunk of jobs through a **registered** function
* ``POST /shutdown`` — drain and stop serving

Security model: the coordinator ships job *data* (pickled payloads — the
same trust boundary as the on-disk stage cache) but never job *code*.  The
``function`` field of a ``/jobs`` request is a name resolved against the
:mod:`repro.distributed.registry` dispatch table; unknown names are a 404
listing what the worker actually serves.

The worker deliberately owns **no retry policy**: it runs each job once
(attempt accounting and timeout budgets live in the coordinator's
:class:`~repro.distributed.backend.DistributedBackend`, which runs the
chunk scheduler every backend shares).  A malformed chunk entry is a
400 naming the entry, so the coordinator rejects it once instead of
retrying it as a server error.  Chaos
semantics cross the wire too: a chunk flagged ``"chaos": true`` is run
through :class:`repro.parallel.chaos._ChaosRunner`, so an armed ``kill``
fault takes the whole service down mid-request (the coordinator sees a
connection reset, i.e. a :class:`~repro.parallel.retry.WorkerCrashError`)
and a ``drop_result`` fault makes the worker reply 200 but omit that
job's outcome.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.distributed.registry import (
    load_default_worker_functions,
    registered_function_names,
    resolve_worker_function,
)
from repro.distributed.stagecache import PlaneMissError, StageDataPlane
from repro.exceptions import ValidationError
from repro.parallel.backends import JobOutcome, resolve_backend
from repro.parallel.chaos import WORKER_PROCESS_ENV, ChaosDroppedResult, _ChaosRunner
from repro.viz.server import Response, json_error, serve_application

__all__ = [
    "WorkerApplication",
    "serve_worker",
    "WORKER_PROCESS_ENV",
    "DEFAULT_MAX_CHUNK_JOBS",
]

#: Reject chunks larger than this many jobs — a coordinator bug must not
#: make a worker buffer an unbounded fan-out in one request.
DEFAULT_MAX_CHUNK_JOBS = 4096


class WorkerApplication:
    """Request-independent worker state served by ``serve_application``.

    Parameters
    ----------
    backend:
        Inner execution backend for the jobs of one chunk (default serial:
        the coordinator already spreads chunks across workers, so
        per-worker parallelism is opt-in for multi-core worker hosts).
    n_jobs:
        Worker-local parallelism for the inner backend.
    data_plane:
        Root directory this worker may resolve
        :class:`~repro.distributed.stagecache.StageDataPlane` payloads
        against.  ``None`` (default) disables the data plane: requests
        carrying a ``plane`` section are rejected rather than letting the
        coordinator point the worker at arbitrary paths.
    max_chunk_jobs:
        Upper bound on jobs per ``/jobs`` request (413 beyond it).
    """

    ROUTES: List[str] = ["/healthz", "/metrics", "/jobs", "/shutdown"]

    def __init__(
        self,
        *,
        backend: Union[None, str, Any] = None,
        n_jobs: Optional[int] = None,
        data_plane: Union[None, str, Path] = None,
        max_chunk_jobs: int = DEFAULT_MAX_CHUNK_JOBS,
    ) -> None:
        load_default_worker_functions()
        if backend is None:
            self._backend = resolve_backend("serial")
            self._owns_backend = True
        else:
            self._backend = resolve_backend(backend, n_jobs=n_jobs)
            self._owns_backend = isinstance(backend, str)
        self.data_plane_root = (
            Path(data_plane).resolve() if data_plane is not None else None
        )
        if int(max_chunk_jobs) < 1:
            raise ValidationError(
                f"max_chunk_jobs must be >= 1, got {max_chunk_jobs}"
            )
        self.max_chunk_jobs = int(max_chunk_jobs)
        self._metrics: Dict[str, int] = {
            "requests": 0,
            "chunks": 0,
            "jobs_run": 0,
            "jobs_failed": 0,
            "jobs_dropped": 0,
            "attempts": 0,
            "bytes_in": 0,
            "bytes_out": 0,
        }
        self._lock = threading.Lock()
        self._server = None

    # ------------------------------------------------------------------ #
    def attach_server(self, server) -> None:
        """Give the application its server so ``/shutdown`` can stop it."""
        self._server = server

    def close(self) -> None:
        """Release the inner backend (if this application created it)."""
        if self._owns_backend:
            self._backend.close()

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self._metrics[key] += int(delta)

    def metrics(self) -> Dict[str, int]:
        """A snapshot of the request/job/transfer counters."""
        with self._lock:
            return dict(self._metrics)

    # ------------------------------------------------------------------ #
    def handle_request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Response:
        """Route one request (the ``serve_application`` contract)."""
        self._count(requests=1)
        route = path.split("?", 1)[0].rstrip("/") or "/"
        if route == "/healthz":
            if method != "GET":
                return json_error(
                    405, f"method {method} not allowed on /healthz", allow=["GET"]
                )
            payload = {
                "status": "ok",
                "pid": os.getpid(),
                "backend": getattr(self._backend, "name", type(self._backend).__name__),
                "functions": len(registered_function_names()),
            }
            return 200, "application/json", json.dumps(payload, indent=2)
        if route == "/metrics":
            if method != "GET":
                return json_error(
                    405, f"method {method} not allowed on /metrics", allow=["GET"]
                )
            return 200, "application/json", json.dumps(self.metrics(), indent=2)
        if route == "/shutdown":
            if method != "POST":
                return json_error(
                    405, f"method {method} not allowed on /shutdown", allow=["POST"]
                )
            server = self._server
            if server is not None:
                # shutdown() blocks until serve_forever returns, which would
                # deadlock inside a handler thread — stop from a helper.
                threading.Thread(target=server.shutdown, daemon=True).start()
            return 200, "application/json", json.dumps({"status": "shutting-down"})
        if route == "/jobs":
            if method != "POST":
                return json_error(
                    405, f"method {method} not allowed on /jobs", allow=["POST"]
                )
            return self._handle_jobs(body or b"")
        return json_error(404, f"unknown route {route!r}", routes=self.ROUTES)

    # ------------------------------------------------------------------ #
    def _plane_from_payload(
        self, payload: Optional[Dict[str, Any]]
    ) -> Optional[StageDataPlane]:
        if payload is None:
            return None
        if not isinstance(payload, dict):
            raise ValidationError("the /jobs 'plane' field must be a JSON object")
        if self.data_plane_root is None:
            raise ValidationError(
                "this worker has no data plane configured; start it with "
                "--data-plane DIR to accept plane-resolved jobs"
            )
        directory = Path(str(payload.get("directory", ""))).resolve()
        if (
            directory != self.data_plane_root
            and self.data_plane_root not in directory.parents
        ):
            raise ValidationError(
                f"data-plane directory {str(directory)!r} is outside this "
                f"worker's allowed root {str(self.data_plane_root)!r}"
            )
        min_bytes = int(payload.get("min_bytes", 0))
        return StageDataPlane(directory, min_bytes=max(min_bytes, 0))

    def _handle_jobs(self, body: bytes) -> Response:
        self._count(bytes_in=len(body))
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return json_error(400, f"malformed /jobs body: {exc}")
        if not isinstance(payload, dict):
            return json_error(400, "the /jobs body must be a JSON object")

        function_name = payload.get("function")
        if not isinstance(function_name, str):
            return json_error(400, "the /jobs body needs a 'function' name")
        try:
            fn: Callable[[Any], Any] = resolve_worker_function(function_name)
        except ValidationError:
            return json_error(
                404,
                f"unknown worker function {function_name!r}",
                functions=registered_function_names(),
            )

        try:
            raw_jobs = pickle.loads(base64.b64decode(payload["jobs"]))
        except KeyError:
            return json_error(400, "the /jobs body needs a 'jobs' field")
        except Exception as exc:  # noqa: BLE001 - any codec failure is a 400
            return json_error(400, f"could not decode the job chunk: {exc}")
        if not isinstance(raw_jobs, list):
            return json_error(400, "the job chunk must decode to a list")
        if len(raw_jobs) > self.max_chunk_jobs:
            return json_error(
                413,
                f"chunk of {len(raw_jobs)} jobs exceeds this worker's "
                f"{self.max_chunk_jobs}-job limit",
            )

        try:
            plane = self._plane_from_payload(payload.get("plane"))
        except (ValidationError, OSError, ValueError, TypeError) as exc:
            return json_error(400, str(exc))

        if payload.get("chaos"):
            fn = _ChaosRunner(fn)

        # Resolve data-plane refs per job so one missing array fails only
        # its own job (as a retryable PlaneMissError outcome), not the chunk.
        prepared: List[Tuple[int, Any]] = []
        failed: List[JobOutcome] = []
        for position, entry in enumerate(raw_jobs):
            if not (
                isinstance(entry, (list, tuple))
                and len(entry) == 2
                and isinstance(entry[0], int)
            ):
                return json_error(
                    400,
                    f"job entry {position} must be an (index, job) pair with "
                    f"an integer index, got {entry!r:.80}",
                )
            global_index, job = entry
            if plane is not None:
                try:
                    job = plane.resolve(job)
                except PlaneMissError as exc:
                    failed.append(
                        JobOutcome(
                            index=global_index,
                            error=f"{type(exc).__name__}: {exc}",
                            exception=exc,
                        )
                    )
                    continue
            prepared.append((global_index, job))

        # One attempt per job: the coordinator owns retries and budgets.
        local_outcomes = self._backend.map_jobs(fn, [job for _, job in prepared])

        outcomes: List[JobOutcome] = list(failed)
        dropped = 0
        for (global_index, _), outcome in zip(prepared, local_outcomes):
            if isinstance(outcome.exception, ChaosDroppedResult):
                dropped += 1
                continue
            value = outcome.value
            if plane is not None and outcome.ok:
                value = plane.stash(value)
            outcomes.append(
                JobOutcome(
                    index=global_index,
                    value=value,
                    error=outcome.error,
                    exception=outcome.exception,
                    traceback=outcome.traceback,
                    duration_seconds=outcome.duration_seconds,
                    attempts=outcome.attempts,
                    retried=outcome.retried,
                    timed_out=outcome.timed_out,
                )
            )

        n_failed = sum(1 for outcome in outcomes if not outcome.ok)
        self._count(
            chunks=1,
            jobs_run=len(raw_jobs),
            jobs_failed=n_failed,
            jobs_dropped=dropped,
            attempts=len(prepared),
        )
        response_body = json.dumps(
            {
                "outcomes": [outcome.to_payload() for outcome in outcomes],
                "pid": os.getpid(),
                "worker_jobs": len(raw_jobs),
            }
        )
        self._count(bytes_out=len(response_body))
        return 200, "application/json", response_body

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerApplication(backend={self._backend!r}, "
            f"data_plane={str(self.data_plane_root)!r})"
        )


def serve_worker(
    application: Optional[WorkerApplication] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    poll: bool = True,
    ready: Optional[Callable[[Any], None]] = None,
    **application_kwargs: Any,
):
    """Serve a worker over HTTP (see :func:`repro.viz.server.serve_application`).

    ``port=0`` (the default) binds an ephemeral port; pass ``ready`` to
    learn the bound address (it receives the configured server after bind,
    before serving).  With ``poll=False`` the server object is returned for
    the caller to drive.
    """
    if application is None:
        application = WorkerApplication(**application_kwargs)
    elif application_kwargs:
        raise ValidationError(
            "pass either a prebuilt application or application keyword "
            "arguments, not both"
        )

    def _ready(server) -> None:
        application.attach_server(server)
        if ready is not None:
            ready(server)

    return serve_application(
        application, host=host, port=port, poll=poll, ready=_ready
    )
