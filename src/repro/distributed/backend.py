"""The coordinator side of distributed execution: an ``ExecutionBackend``
that maps jobs over a pool of HTTP worker services.

``DistributedBackend`` speaks the worker protocol of
:mod:`repro.distributed.worker`: chunks of ``(index, job)`` pairs travel as
pickled payloads under a **registered function name** (never a pickled
callable), and outcomes come back through the JSON wire codec of
:mod:`repro.parallel.wire` — bit-identical ndarrays, reconstructed
exception types, fault fields intact.

Fault tolerance is every backend's: serial, thread, process and
distributed backends all run the one chunk scheduler
(``repro.parallel.backends._ChunkScheduler``), and this class only moves
chunks — it POSTs each to a round-robin live worker, classifies the
answer and rebuilds by probing.  The HTTP request carries its own budget,
so the scheduler does not time these chunks itself.  Every policy written
for process pools therefore transfers unchanged:

* an unreachable worker is a crashed worker: its in-flight chunks are
  *quarantined*, re-dispatched alone and bisected until a genuinely
  poisonous job records a :class:`~repro.parallel.retry.WorkerCrashError`
  while innocent chunk-mates recover;
* a request that exceeds its attempt budget settles ``timed_out``
  outcomes carrying :class:`~repro.parallel.retry.JobTimeoutError` and
  marks only that worker dead (it may be hung);
* when every worker is dead, a ``/healthz`` probe sweep plays the role of
  a pool rebuild — bounded by the policy's ``max_pool_rebuilds``, after
  which remaining jobs drain as
  :class:`~repro.parallel.retry.WorkerPoolExhausted`, the exact signal
  :class:`~repro.parallel.backends.FallbackBackend` demotes on.

With a :class:`~repro.distributed.stagecache.StageDataPlane` attached,
large arrays leave the payload entirely: jobs ship fingerprint refs and
workers resolve them against the shared directory (and stash their own
large results the same way), collapsing coordinator ``bytes_shipped`` by
an order of magnitude on array-heavy fan-outs.

Spec syntax (accepted by :func:`repro.parallel.resolve_backend` and every
``--backend`` CLI flag)::

    distributed:HOST:PORT[,HOST:PORT...][@PLANE_DIR]
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.distributed.registry import worker_function_name
from repro.distributed.stagecache import StageDataPlane
from repro.exceptions import ParallelExecutionError, ValidationError
from repro.parallel.backends import (
    JobOutcome,
    OnResult,
    _Chunk,
    _ChunkScheduler,
    _failed,
    _ScheduledBackend,
)
from repro.parallel.chaos import _ChaosRunner
from repro.parallel.retry import RetryPolicy, WorkerCrashError

__all__ = ["DistributedBackend", "DEFAULT_REQUEST_TIMEOUT", "DEFAULT_PROBE_TIMEOUT"]

#: Per-chunk HTTP budget when the retry policy carries no per-attempt
#: timeout — generous, because a request with no budget at all would pin
#: the fan-out on one hung worker forever.
DEFAULT_REQUEST_TIMEOUT = 60.0

#: Budget for a ``/healthz`` probe during a pool-rebuild sweep.
DEFAULT_PROBE_TIMEOUT = 2.0


def _normalise_worker_url(worker: str) -> str:
    worker = worker.strip()
    if not worker:
        raise ValidationError("worker URLs must be non-empty")
    if "://" not in worker:
        worker = f"http://{worker}"
    return worker.rstrip("/")


def _is_timeout(exc: BaseException) -> bool:
    if isinstance(exc, (socket.timeout, TimeoutError)):
        return True
    reason = getattr(exc, "reason", None)
    return isinstance(reason, (socket.timeout, TimeoutError))


class _Worker:
    """One pool member: its URL plus liveness/dispatch bookkeeping."""

    __slots__ = ("url", "alive", "dispatches", "failures")

    def __init__(self, url: str) -> None:
        self.url = url
        self.alive = True
        self.dispatches = 0
        self.failures = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "dead"
        return f"_Worker({self.url!r}, {state})"


class DistributedBackend(_ScheduledBackend):
    """Executes jobs on a pool of HTTP worker services (see module docs)."""

    name = "distributed"

    def __init__(
        self,
        workers: Sequence[str],
        *,
        chunk_size: int = 1,
        data_plane: Union[None, str, Path, StageDataPlane] = None,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        probe_timeout: float = DEFAULT_PROBE_TIMEOUT,
    ) -> None:
        urls = [_normalise_worker_url(worker) for worker in workers]
        if not urls:
            raise ValidationError(
                "a DistributedBackend needs at least one worker URL, e.g. "
                "DistributedBackend(['127.0.0.1:8101'])"
            )
        if len(set(urls)) != len(urls):
            raise ValidationError(f"duplicate worker URLs in {urls}")
        if int(chunk_size) < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        if float(request_timeout) <= 0:
            raise ValidationError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        self.workers = [_Worker(url) for url in urls]
        self.chunk_size = int(chunk_size)
        if data_plane is not None and not isinstance(data_plane, StageDataPlane):
            data_plane = StageDataPlane(data_plane)
        self.data_plane: Optional[StageDataPlane] = data_plane
        self.request_timeout = float(request_timeout)
        self.probe_timeout = float(probe_timeout)
        #: Cumulative request-body bytes POSTed to workers (the coordinator
        #: analogue of the process backends' pickled-payload accounting).
        self.bytes_shipped = 0
        #: Cumulative response-body bytes read back from workers.
        self.bytes_received = 0
        self._executor: Optional[ThreadPoolExecutor] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_spec(cls, spec: str) -> "DistributedBackend":
        """Build a backend from ``distributed:HOST:PORT[,...][@PLANE_DIR]``."""
        text = spec.strip()
        if text == "distributed":
            rest = ""
        elif text.startswith("distributed:"):
            rest = text[len("distributed:") :]
        else:
            rest = text
        workers_part, _, plane_part = rest.partition("@")
        workers = [part for part in workers_part.split(",") if part.strip()]
        if not workers:
            raise ValidationError(
                f"the distributed backend spec {spec!r} names no workers; "
                "expected 'distributed:HOST:PORT[,HOST:PORT...][@PLANE_DIR]', "
                "e.g. 'distributed:127.0.0.1:8101,127.0.0.1:8102@/tmp/plane'"
            )
        plane = plane_part.strip() or None
        return cls(workers, data_plane=plane)

    # ------------------------------------------------------------------ #
    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=len(self.workers),
                thread_name_prefix="repro-distributed",
            )
        return self._executor

    def close(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def shutdown_workers(self) -> int:
        """Best-effort ``POST /shutdown`` to every worker; count of acks."""
        acked = 0
        for worker in self.workers:
            request = urllib.request.Request(
                f"{worker.url}/shutdown", data=b"", method="POST"
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.probe_timeout
                ) as response:
                    response.read()
                acked += 1
            except Exception:  # noqa: BLE001 - best-effort by definition
                pass
        return acked

    def _probe(self, worker: _Worker) -> bool:
        try:
            with urllib.request.urlopen(
                f"{worker.url}/healthz", timeout=self.probe_timeout
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
            worker.alive = payload.get("status") == "ok"
        except Exception:  # noqa: BLE001 - any failure means not alive
            worker.alive = False
        return worker.alive

    # ------------------------------------------------------------------ #
    def _function_spec(self, fn: Callable[[Any], Any]) -> Tuple[str, bool]:
        """Resolve ``fn`` to (registered name, chaos flag) for the wire."""
        if isinstance(fn, str):
            return fn, False
        if isinstance(fn, _ChaosRunner):
            # Chaos wrapping crosses the wire as a flag, not a callable:
            # the worker re-wraps the registered function in its own
            # _ChaosRunner, so kill faults take the worker service down.
            return worker_function_name(fn.fn), True
        return worker_function_name(fn), False

    def _encode_chunk(self, function_name: str, chunk: _Chunk, chaos: bool) -> bytes:
        jobs = chunk
        if self.data_plane is not None:
            jobs = [(index, self.data_plane.stash(job)) for index, job in chunk]
        blob = base64.b64encode(pickle.dumps(jobs, protocol=4)).decode("ascii")
        body: Dict[str, Any] = {"function": function_name, "jobs": blob}
        if chaos:
            body["chaos"] = True
        if self.data_plane is not None:
            body["plane"] = {
                "directory": str(self.data_plane.directory),
                "min_bytes": self.data_plane.min_bytes,
            }
        return json.dumps(body).encode("utf-8")

    def _dispatch_chunk(
        self, worker: _Worker, body: bytes, budget: float
    ) -> Tuple[str, Any]:
        """POST one chunk; classify the result instead of raising.

        Returns ``(kind, payload)`` where kind is one of ``"outcomes"``
        (payload: ``(outcomes, response_bytes)``), ``"timeout"``,
        ``"rejected"`` (HTTP 4xx — the request itself is invalid, final),
        ``"error"`` (HTTP 5xx / undecodable — worker alive, retryable) or
        ``"crash"`` (connection-level failure — worker presumed dead).
        Runs on a dispatch thread, so it touches no shared state.
        """
        request = urllib.request.Request(
            f"{worker.url}/jobs",
            data=body,
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=budget) as response:
                text = response.read()
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8"))["error"]["message"]
            except Exception:  # noqa: BLE001 - non-JSON error body
                detail = str(exc)
            if 400 <= exc.code < 500:
                return "rejected", ValidationError(
                    f"worker {worker.url} rejected the chunk (HTTP {exc.code}): {detail}"
                )
            return "error", ParallelExecutionError(
                f"worker {worker.url} failed the chunk (HTTP {exc.code}): {detail}"
            )
        except Exception as exc:  # noqa: BLE001 - classify, never raise
            if _is_timeout(exc):
                return (
                    "timeout",
                    f"worker {worker.url} did not answer within its "
                    f"{budget:.3f} s attempt budget",
                )
            return "crash", f"worker {worker.url} is unreachable: {exc}"
        try:
            payload = json.loads(text.decode("utf-8"))
            outcomes = [
                JobOutcome.from_payload(node) for node in payload["outcomes"]
            ]
        except Exception as exc:  # noqa: BLE001 - truncated/garbled body
            return "error", ParallelExecutionError(
                f"worker {worker.url} returned an undecodable response: {exc}"
            )
        return "outcomes", (outcomes, len(text))

    # ------------------------------------------------------------------ #
    def map_jobs(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        *,
        on_result: OnResult = None,
        retry: Optional[RetryPolicy] = None,
    ) -> List[JobOutcome]:
        jobs = list(jobs)
        if not jobs:
            return []
        return _ChunkScheduler(
            self,
            self._function_spec(fn),
            jobs,
            on_result,
            retry,
            resolve=None if self.data_plane is None else self.data_plane.resolve,
            request_timeout=self.request_timeout,
        ).run()

    # Transport hooks driven by the shared scheduler.
    def _submit(
        self, spec: Tuple[str, bool], chunk: _Chunk, position: int, budget: Any
    ) -> Any:
        """POST ``chunk`` to a live worker, round-robin; ``None`` if none is."""
        alive = [worker for worker in self.workers if worker.alive]
        if not alive:
            return None
        worker = alive[position % len(alive)]
        function_name, chaos = spec
        body = self._encode_chunk(function_name, chunk, chaos)
        self.bytes_shipped += len(body)
        worker.dispatches += 1
        seconds = max(0.001, budget())
        return self._pool().submit(
            lambda: (worker, self._dispatch_chunk(worker, body, seconds))
        )

    def _classify(self, future: Any, chunk: _Chunk) -> Tuple[str, Any]:
        worker, (kind, payload) = future.result()
        if kind == "outcomes":
            outcomes, response_nbytes = payload
            self.bytes_received += response_nbytes
            by_index = {outcome.index: outcome for outcome in outcomes}
            # A 200 with a missing outcome: the worker dropped the result
            # (chaos, or a protocol bug) — retryable as a crash-class failure.
            return "outcomes", [
                by_index.get(index)
                or _failed(
                    index,
                    WorkerCrashError(
                        f"worker {worker.url} returned no outcome for job {index}"
                    ),
                )
                for index, _ in chunk
            ]
        worker.failures += 1
        if kind in ("timeout", "crash"):
            # The worker may be hung or gone: stop routing to it until a
            # probe sweep sees /healthz answer again.
            worker.alive = False
        return kind, payload

    def _recover(self, lost: Optional[str]) -> bool:
        if any(worker.alive for worker in self.workers):
            return False
        # The distributed analogue of a pool rebuild: one bounded /healthz
        # sweep over every worker, hoping supervision (or the operator)
        # brought some back.
        for worker in self.workers:
            self._probe(worker)
        return True

    def _exhausted(self, rebuilds: int) -> str:
        return (
            f"all {len(self.workers)} distributed workers are unreachable "
            f"after {rebuilds} probe sweeps"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        urls = [worker.url for worker in self.workers]
        return (
            f"DistributedBackend({urls!r}, chunk_size={self.chunk_size}, "
            f"data_plane={self.data_plane!r})"
        )
