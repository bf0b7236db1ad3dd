"""Execution backends: serial, thread-pool and process-pool job mapping.

The whole library fans work out through one tiny contract —
:meth:`ExecutionBackend.map_jobs` — so every fan-out site (per-length graph
embedding, benchmark campaigns, graphoid extraction, ...) is parallelised the
same way and new backends only have to implement one method.

Design rules every backend must follow:

* **Ordered results.** ``map_jobs(fn, jobs)`` returns one
  :class:`JobOutcome` per job, in the order the jobs were submitted,
  regardless of completion order.
* **Per-job error capture.** A raising job never takes down its siblings:
  the exception is captured on the outcome (``error`` / ``exception``) and
  the caller decides whether to re-raise (:meth:`JobOutcome.unwrap`) or to
  degrade gracefully (the benchmark runner records the error on the result).
* **Determinism is the caller's job.** Backends never draw randomness; any
  stochastic job must receive its own pre-spawned seed/generator so results
  are bit-identical across backends (see :func:`repro.utils.rng.spawn_rng`).

Fault tolerance (see :mod:`repro.parallel.retry`): every backend accepts a
:class:`~repro.parallel.retry.RetryPolicy` — per call
(``map_jobs(..., retry=...)``) or as an instance default
(``resolve_backend(..., retry=...)``) — for bounded retries with
deterministic backoff, per-attempt timeouts enforced by watchdogs that
abandon hung work, and a whole-fan-out deadline.  Every backend's
``map_jobs`` runs the one :class:`_ChunkScheduler`, which owns all of that;
serial, thread, process and distributed backends only move chunks.  The
process and distributed backends also recover lost workers without a policy:
a broken pool is rebuilt (bounded by ``max_pool_rebuilds``), surviving
chunks are re-dispatched in quarantine — one at a time, bisected on
repeat breakage — so a single poison job is isolated to a single-job
chunk whose failure is recorded per job while its innocent chunk-mates'
results are recovered.  :class:`FallbackBackend` chains backends and
demotes (e.g. process -> thread) when a pool's rebuild budget
is exhausted; jobs carry their own seeds, so demotion never changes
results.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
import time
import traceback as traceback_module
from abc import ABC, abstractmethod
from collections import deque
from contextlib import contextmanager
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.exceptions import ParallelExecutionError, ValidationError
from repro.parallel.retry import (
    DEFAULT_MAX_POOL_REBUILDS,
    JobTimeoutError,
    RetryPolicy,
    WorkerCrashError,
    WorkerPoolExhausted,
)

logger = logging.getLogger("repro.parallel")

OnResult = Optional[Callable[["JobOutcome"], None]]


@dataclass
class JobOutcome:
    """The result (or captured failure) of one submitted job.

    Attributes
    ----------
    index:
        Position of the job in the submitted sequence; ``map_jobs`` returns
        outcomes sorted by this index.
    value:
        The job function's return value (``None`` when the job failed).
    error:
        ``"ExcType: message"`` when the job raised, else ``None``.
    exception:
        The captured exception object, when one is available in this
        process (always for serial/thread, usually for process backends).
    traceback:
        Formatted traceback of the failure, for diagnostics.
    duration_seconds:
        Wall-clock seconds the job spent executing in its worker.
    attempts:
        Attempts of this job that started, on every backend (``1`` without
        retries; ``0`` when the fan-out deadline expired before the job
        ever started, which always settles it ``timed_out``).
    retried:
        Whether the job was dispatched more than once.
    timed_out:
        Whether the recorded failure is a per-attempt timeout or fan-out
        deadline expiry rather than a raising job.

    The three fault-tolerance fields default to the historical
    single-attempt values, so outcomes pickled by older code (and JSON
    consumers reading ``as_dict``-style rows) keep loading unchanged.
    """

    index: int
    value: Any = None
    error: Optional[str] = None
    exception: Optional[BaseException] = field(default=None, repr=False)
    traceback: Optional[str] = field(default=None, repr=False)
    duration_seconds: float = 0.0
    attempts: int = 1
    retried: bool = False
    timed_out: bool = False

    @property
    def ok(self) -> bool:
        """Whether the job completed without raising."""
        return self.error is None

    def unwrap(self) -> Any:
        """Return ``value``, re-raising the captured exception on failure."""
        if self.error is None:
            return self.value
        if self.exception is not None:
            raise self.exception
        raise ParallelExecutionError(f"job {self.index} failed: {self.error}")

    def to_payload(self) -> Dict[str, Any]:
        """Encode this outcome as a JSON-serialisable, binary-safe payload.

        ndarray values travel base64-encoded with dtype/shape (bit-identical
        round-trip), captured exceptions travel as ``{"type", "message"}``
        and reconstruct as the same class when it is allowlisted (see
        :mod:`repro.parallel.wire`), and the fault-tolerance fields
        (``attempts`` / ``retried`` / ``timed_out``) survive verbatim — the
        distributed worker protocol is built on exactly this round-trip.
        """
        from repro.parallel import wire

        return wire.encode_outcome(self)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "JobOutcome":
        """Inverse of :meth:`to_payload`."""
        from repro.parallel import wire

        return wire.decode_outcome(payload)


def _failed(index: int, exc: BaseException, **fields: Any) -> JobOutcome:
    """A failure outcome for job ``index`` that carries ``exc``."""
    return JobOutcome(
        index=index, error=f"{type(exc).__name__}: {exc}", exception=exc, **fields
    )


def _execute_one(fn: Callable[[Any], Any], index: int, job: Any) -> JobOutcome:
    """Run one job, capturing any exception into the outcome."""
    start = time.perf_counter()
    try:
        value = fn(job)
    except Exception as exc:  # noqa: BLE001 - per-job isolation is the contract
        # KeyboardInterrupt/SystemExit intentionally propagate: aborting the
        # whole fan-out must stay possible from the keyboard.
        return _failed(
            index,
            exc,
            traceback=traceback_module.format_exc(),
            duration_seconds=time.perf_counter() - start,
        )
    return JobOutcome(
        index=index, value=value, duration_seconds=time.perf_counter() - start
    )


#: A chunk of ``(index, job)`` pairs dispatched as one unit.
_Chunk = List[Tuple[int, Any]]


def _execute_pickled_chunk(blob: bytes) -> List[JobOutcome]:
    """Worker-side trampoline: unpickle ``(fn, chunk)`` and run the chunk."""
    fn, chunk = pickle.loads(blob)
    return [_execute_one(fn, index, job) for index, job in chunk]


def _timeout_outcome(index: int, message: str, **fields: Any) -> JobOutcome:
    """A ``timed_out`` failure outcome carrying a :class:`JobTimeoutError`."""
    return _failed(index, JobTimeoutError(message), timed_out=True, **fields)


def _execute_with_budget(
    fn: Callable[[Any], Any], index: int, job: Any, budget: Optional[float]
) -> JobOutcome:
    """Run one job, abandoning it with a ``timed_out`` outcome after ``budget`` s.

    Without a budget the job runs inline.  With one, it runs on a daemon
    watchdog thread that is *abandoned* (not killed — Python cannot kill a
    thread) when the budget expires; the hung call keeps a daemon thread
    busy but the fan-out moves on.  A budget already spent means the
    fan-out deadline expired before the job could start: the outcome says
    so with ``attempts=0``.
    """
    if budget is None:
        return _execute_one(fn, index, job)
    if budget <= 0:
        message = f"the fan-out deadline expired before job {index} started"
        return _timeout_outcome(index, message, attempts=0)
    box: List[JobOutcome] = []
    worker = threading.Thread(
        target=lambda: box.append(_execute_one(fn, index, job)),
        name=f"repro-job-watchdog-{index}",
        daemon=True,
    )
    worker.start()
    worker.join(budget)
    if box:
        return box[0]
    return _timeout_outcome(
        index, f"job {index} exceeded its {budget:.3f} s attempt budget"
    )


def _execute_in_process(
    fn: Callable[[Any], Any], chunk: _Chunk, budget: Callable[[], Optional[float]]
) -> List[JobOutcome]:
    """Run a chunk here, reading each job's budget as it starts: a job that
    waited in a thread pool's queue must not run past the fan-out deadline."""
    return [_execute_with_budget(fn, index, job, budget()) for index, job in chunk]


class _Finished:
    """The finished future of an inline run, without the locks that make a
    ``Future`` cost microseconds per serial job."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def done(self) -> bool:
        return True

    def result(self) -> Any:
        return self.value


class ExecutionBackend(ABC):
    """Maps a function over jobs, with ordered results and error capture."""

    name: str = "abstract"

    #: Instance-default :class:`RetryPolicy` applied when ``map_jobs`` is
    #: called without an explicit ``retry=`` (set by ``resolve_backend``).
    retry: Optional[RetryPolicy] = None

    # Cumulative fault-tolerance counters (mirroring ``bytes_shipped`` on
    # the process backends): callers snapshot them around a dispatch to
    # attribute fault activity per fan-out.
    attempts: int = 0
    timeouts: int = 0
    pool_rebuilds: int = 0

    @abstractmethod
    def map_jobs(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        *,
        on_result: OnResult = None,
        retry: Optional[RetryPolicy] = None,
    ) -> List[JobOutcome]:
        """Apply ``fn`` to every job and return ordered :class:`JobOutcome`\\ s.

        ``on_result`` is invoked once per job, on its *final* outcome, as
        soon as that outcome is settled: in submission order for
        :class:`SerialBackend`, before the next job starts, in completion
        order for the parallel backends; a retried job's final outcome
        follows its round's other outcomes (callers needing strict
        streaming order should iterate the returned list instead).
        Implementations MUST invoke ``on_result`` from the thread that
        called ``map_jobs`` — callers rely on this to keep their callbacks
        single-threaded.

        ``retry`` applies a :class:`~repro.parallel.retry.RetryPolicy` to
        this call (overriding the instance default); ``None`` keeps the
        single-attempt behaviour.
        """

    def _effective_retry(self, retry: Optional[RetryPolicy]) -> Optional[RetryPolicy]:
        policy = retry if retry is not None else self.retry
        if policy is not None and not isinstance(policy, RetryPolicy):
            raise ValidationError(
                f"retry must be a RetryPolicy or None, got {type(policy).__name__}"
            )
        return policy

    def close(self) -> None:
        """Release any pooled workers (no-op for stateless backends)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class _ScheduledBackend(ExecutionBackend):
    """A backend whose ``map_jobs`` is one :class:`_ChunkScheduler` run.

    Subclasses are transports that implement ``_submit``; the other hooks
    default to an in-process transport, which never loses a worker.
    """

    chunk_size = 1

    #: Whether the scheduler times each chunk: only a process pool, whose
    #: hung workers it can replace.  An in-process attempt has its own
    #: watchdog instead, since a thread pool cannot be rebuilt around a
    #: thread that never returns.
    _scheduler_times_chunks = False

    def map_jobs(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        *,
        on_result: OnResult = None,
        retry: Optional[RetryPolicy] = None,
    ) -> List[JobOutcome]:
        return _ChunkScheduler(self, fn, jobs, on_result, retry).run()

    def _classify(self, future: Any, chunk: _Chunk) -> Tuple[str, Any]:
        return "outcomes", future.result()

    def _recover(self, lost: Optional[str]) -> bool:
        return False


class SerialBackend(_ScheduledBackend):
    """Executes jobs one after another in the calling thread.

    This is the default everywhere: it adds no overhead, keeps tracebacks
    trivial, and — because jobs carry their own seeds — produces exactly the
    same results as the parallel backends.  With a retry policy, timed
    attempts run on a watchdog thread so a hung job is abandoned instead of
    blocking the fan-out; without one, nothing leaves the calling thread.
    """

    name = "serial"

    def _submit(self, fn: Any, chunk: _Chunk, position: int, budget: Any) -> _Finished:
        return _Finished(_execute_in_process(fn, chunk, budget))


class _PoolBackend(_ScheduledBackend):
    """A transport over a ``concurrent.futures`` pool built on first use."""

    def __init__(self, n_workers: Optional[int] = None) -> None:
        if n_workers is not None and int(n_workers) < 1:
            raise ValidationError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = None if n_workers is None else int(n_workers)
        self._pool_size = self.n_workers or os.cpu_count() or 1
        self._pool: Any = None
        self._pool_lock = threading.Lock()

    def _executor(self) -> Any:
        # The pool is created lazily and reused across map_jobs calls, so a
        # pipeline with several fan-outs (per-length fit, length scoring,
        # graphoid extraction) pays the startup cost once.  max_workers is an
        # upper bound: workers start as jobs are submitted, so small
        # fan-outs never hold idle workers.  Creation is locked because a
        # shared backend instance may be driven from several threads (e.g.
        # the per-model inference engines of repro.serve).
        with self._pool_lock:
            if self._pool is None:
                self._pool = self._new_pool(self._pool_size)
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n_workers={self.n_workers})"


class ThreadBackend(_PoolBackend):
    """Executes jobs on a thread pool: the in-host parallel path.

    Best for NumPy-heavy jobs (the BLAS/linalg kernels release the GIL) and
    for anything I/O-bound; jobs and results never cross a process boundary,
    so nothing needs to be picklable.
    """

    name = "thread"
    # perfbench traces ``ThreadBackend.__dict__["map_jobs"]``: the shared
    # scheduler entry point, bound here under this class's own name.
    map_jobs = _ScheduledBackend.map_jobs

    def _new_pool(self, max_workers: int) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(max_workers=max_workers)

    def _submit(self, fn: Any, chunk: _Chunk, position: int, budget: Any) -> Future:
        # A timed attempt parks a daemon watchdog thread, never the pool
        # worker itself, so close() cannot deadlock.
        return self._executor().submit(_execute_in_process, fn, chunk, budget)


class _ChunkScheduler:
    """The fault-tolerant chunk state machine of one ``map_jobs`` call.

    Every backend runs one: :class:`SerialBackend`, :class:`ThreadBackend`,
    :class:`ProcessBackend` and :class:`~repro.distributed.DistributedBackend`
    only move chunks.  The scheduler owns chunking, the normal and
    quarantined queues, per-job attempt counts, retries with backoff (one
    sleep per round, the round's largest delay), the fan-out deadline, the
    rebuild budget, the ``attempts``/``timeouts`` counters and
    ``on_result`` streaming.  A chunk in flight when a worker died is
    quarantined (re-dispatched alone), bisected if it loses its worker
    again, and a single-job chunk that still does records a
    :class:`WorkerCrashError` while its innocent chunk-mates recover.

    The backend is the transport.  It supplies four hooks (in-process
    defaults in :class:`_ScheduledBackend`):

    * ``_submit(fn, chunk, position, budget)`` sends a chunk (``position``
      is its place in the round) and returns a future, or ``None`` when
      the pool cannot take work — that chunk and the rest of the round then
      wait for the rebuilt pool.  ``budget()`` gives the seconds an attempt
      of the chunk may take from now, or ``None``: the distributed
      transport reads it at submission, the serial and thread transports
      as each job starts;
    * ``_classify(future, chunk)`` reads a finished future as
      ``("outcomes", [JobOutcome, ...])``, ``("error", exc)`` (retryable),
      ``("rejected", exc)`` (final), ``("crash", detail)`` (the worker
      died) or ``("timeout", detail)`` (the request ran out of budget);
    * ``_recover(lost)`` rebuilds what a round lost (``"broken"``,
      ``"hung"`` or ``None``) and says whether that was a rebuild;
    * ``_exhausted(rebuilds)`` says why jobs are abandoned once the
      rebuild budget is spent.

    Timeouts follow the transport.  Only a process pool is timed by the
    scheduler: a chunk that outlives its budget has a hung worker, so it
    settles ``timed_out``, its in-flight siblings are requeued and the
    whole pool is abandoned.  Its chunk's clock starts when a worker takes
    it, not while it waits in the pool's queue.  Serial and thread attempts
    run under their own watchdog.  A transport that bounds each request
    itself passes ``request_timeout`` (its budget when the policy sets no
    per-attempt timeout) and classifies an expired request as
    ``"timeout"``.

    An attempt counts when it starts: no chunk is submitted after the
    deadline, and an in-process job that could not start in time reports
    ``attempts=0``.  A future already done at submission is settled before
    the next one, so serial streams job k's outcome before job k+1 starts.

    ``resolve`` maps every successful outcome's value on the calling thread
    before the retry decision; if it raises, only that job fails (and may
    be retried), like a raising job.
    """

    def __init__(
        self,
        backend: "_ScheduledBackend",
        fn: Any,
        jobs: Sequence[Any],
        on_result: OnResult,
        retry: Optional[RetryPolicy],
        *,
        resolve: Optional[Callable[[Any], Any]] = None,
        request_timeout: Optional[float] = None,
    ) -> None:
        self.backend = backend
        self.fn = fn
        self.jobs = list(jobs)
        self.on_result = on_result
        self.policy = policy = backend._effective_retry(retry)
        self.resolve = resolve
        self.request_timeout = request_timeout
        self.deadline_at = (
            time.monotonic() + policy.deadline
            if policy is not None and policy.deadline is not None
            else None
        )
        self.max_rebuilds = (
            DEFAULT_MAX_POOL_REBUILDS
            if policy is None
            else int(policy.max_pool_rebuilds)
        )
        #: The scheduler times a chunk only on a process pool, and only when
        #: the policy gives it a budget; then at most one chunk per worker is
        #: in flight, else every chunk of a round at once.
        self.timed = backend._scheduler_times_chunks and self._budget([]) is not None
        self.window = backend._pool_size if self.timed else len(self.jobs)
        self.outcomes: List[Optional[JobOutcome]] = [None] * len(self.jobs)
        self.attempts = [0] * len(self.jobs)
        indexed = list(enumerate(self.jobs))
        size = backend.chunk_size
        #: Chunks awaiting a normal (parallel) dispatch.
        self.normal: Deque[_Chunk] = deque(
            indexed[start : start + size] for start in range(0, len(indexed), size)
        )
        #: Chunks implicated in a worker loss: dispatched one at a time so a
        #: repeat loss unambiguously convicts the dispatched chunk.
        self.quarantined: Deque[_Chunk] = deque()
        self.rebuilds = 0
        self.next_round_delay = 0.0

    def run(self) -> List[JobOutcome]:
        """Dispatch rounds until every job has a final outcome."""
        policy = self.policy
        while self.normal or self.quarantined:
            if self._past_deadline():
                self._drain(
                    lambda index: _timeout_outcome(
                        index,
                        f"fan-out deadline of {policy.deadline} s expired "
                        f"before job {index} finished",
                    )
                )
                break
            if self.rebuilds > self.max_rebuilds:
                reason = self.backend._exhausted(self.rebuilds)
                self._drain(
                    lambda index: _failed(
                        index,
                        WorkerPoolExhausted(
                            f"{reason} (max_pool_rebuilds={self.max_rebuilds}); "
                            f"job {index} abandoned"
                        ),
                    )
                )
                break
            if self.next_round_delay > 0:
                delay = self.next_round_delay
                if self.deadline_at is not None:
                    delay = min(delay, max(0.0, self.deadline_at - time.monotonic()))
                if delay > 0:
                    time.sleep(delay)
                self.next_round_delay = 0.0

            isolated = not self.normal
            if isolated:
                batch = [self.quarantined.popleft()]
            else:
                batch = list(self.normal)
                self.normal.clear()
            if self.backend._recover(self._round(batch, isolated)):
                self.rebuilds += 1
                self.backend.pool_rebuilds += 1
        # A lost job would silently desynchronise callers that group
        # results positionally, so it fails loudly here instead.
        missing = [index for index, outcome in enumerate(self.outcomes) if outcome is None]
        if missing:
            raise ParallelExecutionError(
                f"backend lost the outcomes of jobs {missing}; every job must "
                "produce exactly one JobOutcome"
            )
        return self.outcomes  # type: ignore[return-value]

    def _past_deadline(self) -> bool:
        return self.deadline_at is not None and time.monotonic() >= self.deadline_at

    def _round(self, batch: List[_Chunk], isolated: bool) -> Optional[str]:
        """Dispatch one batch and settle it; return how the pool was lost."""
        requeue = self.quarantined.append if isolated else self.normal.append
        queued = deque(batch)
        in_flight: Dict[Any, _Chunk] = {}
        expiry: Dict[Any, float] = {}
        lost: Optional[str] = None
        position = 0
        while True:
            while queued and lost is None and len(in_flight) < self.window:
                if self._past_deadline():
                    break
                chunk = queued.popleft()
                budget = partial(self._budget, chunk)
                future = self.backend._submit(self.fn, chunk, position, budget)
                position += 1
                if future is None:
                    queued.appendleft(chunk)
                    lost = "broken"
                    break
                self._count_attempt(chunk, 1)
                if future.done():
                    lost = self._take(future, chunk, isolated) or lost
                    continue
                in_flight[future] = chunk
                if self.timed:
                    expiry[future] = time.monotonic() + budget()
            if not in_flight:
                break
            timeout = max(0.0, min(expiry.values()) - time.monotonic()) if expiry else None
            done, _ = wait(in_flight, timeout=timeout, return_when=FIRST_COMPLETED)
            for future in done:
                expiry.pop(future, None)
                lost = self._take(future, in_flight.pop(future), isolated) or lost
            now = time.monotonic()
            expired = [future for future, at in expiry.items() if at <= now]
            if done or not expired:
                continue
            # Nothing finished within the shortest budget: the expired
            # chunks' workers are hung.  In-flight innocents are requeued (a
            # chunk cancelled before it started gets its attempt back).
            for future in expired:
                self._expire(in_flight.pop(future), "its worker is hung")
            for future, chunk in in_flight.items():
                if future.cancel():
                    self._count_attempt(chunk, -1)
                requeue(chunk)
            lost = "hung"
            break
        for chunk in queued:
            requeue(chunk)
        return lost

    def _take(self, future: Any, chunk: _Chunk, isolated: bool) -> Optional[str]:
        """Settle one finished chunk; return ``"broken"`` if it lost its worker."""
        kind, payload = self.backend._classify(future, chunk)
        if kind == "outcomes":
            for outcome in payload:
                if not outcome.attempts:
                    # The deadline expired before this job started.
                    self._count_attempt([(outcome.index, None)], -1)
                self._settle(outcome)
        elif kind == "error":
            for index, _ in chunk:
                self._settle(_failed(index, payload))
        elif kind == "rejected":
            # The request itself is invalid: retrying cannot help.
            for index, _ in chunk:
                self._record(_failed(index, payload))
        elif kind == "timeout":
            self._expire(chunk, payload)
        else:
            self._crashed(chunk, payload, isolated)
            return "broken"
        return None

    def _budget(self, chunk: _Chunk) -> Optional[float]:
        """Seconds one attempt of ``chunk`` may take from now, or ``None``."""
        timeout = None if self.policy is None else self.policy.timeout
        budget = self.request_timeout if timeout is None else float(timeout) * len(chunk)
        if self.deadline_at is not None:
            remaining = self.deadline_at - time.monotonic()
            budget = remaining if budget is None else min(budget, remaining)
        return budget

    def _count_attempt(self, chunk: _Chunk, delta: int) -> None:
        for index, _ in chunk:
            self.attempts[index] += delta
            self.backend.attempts += delta

    def _record(self, outcome: JobOutcome) -> None:
        """Settle one job's final outcome and stream it to the caller."""
        attempts = self.attempts[outcome.index]
        outcome.attempts = attempts
        outcome.retried = attempts > 1
        if outcome.timed_out:
            self.backend.timeouts += 1
        self.outcomes[outcome.index] = outcome
        if self.on_result is not None:
            self.on_result(outcome)

    def _settle(self, outcome: JobOutcome) -> None:
        """Resolve an outcome, then retry it if the policy allows, else record it."""
        if outcome.ok and self.resolve is not None:
            try:
                outcome.value = self.resolve(outcome.value)
            except Exception as exc:  # noqa: BLE001 - fails only its own job
                outcome.value = None
                outcome.error = f"{type(exc).__name__}: {exc}"
                outcome.exception = exc
                outcome.traceback = traceback_module.format_exc()
        index, policy = outcome.index, self.policy
        if (
            outcome.ok
            or policy is None
            or self._past_deadline()
            or not policy.should_retry(outcome.exception, self.attempts[index])
        ):
            self._record(outcome)
            return
        self.next_round_delay = max(
            self.next_round_delay, policy.backoff_seconds(self.attempts[index] + 1, index)
        )
        self.normal.append([(index, self.jobs[index])])

    def _expire(self, chunk: _Chunk, detail: str) -> None:
        """Settle every job of a chunk that ran out of budget as ``timed_out``."""
        for index, _ in chunk:
            self._settle(
                _timeout_outcome(
                    index,
                    f"job {index} exceeded its attempt budget (attempt "
                    f"{self.attempts[index]}): {detail}",
                )
            )

    def _crashed(self, chunk: _Chunk, detail: str, isolated: bool) -> None:
        """Quarantine, bisect or convict a chunk whose worker died."""
        if not isolated:
            # Any in-flight chunk may be the killer: each re-runs alone.
            self.quarantined.append(chunk)
        elif len(chunk) > 1:
            # This chunk, dispatched alone, lost its worker again: bisect
            # to pin the poison job down.
            middle = len(chunk) // 2
            self.quarantined.extend((chunk[:middle], chunk[middle:]))
        else:
            index = chunk[0][0]
            self._record(
                _failed(
                    index,
                    WorkerCrashError(
                        f"job {index} killed its worker (attempt "
                        f"{self.attempts[index]}): {detail}"
                    ),
                )
            )

    def _drain(self, outcome_for: Callable[[int], JobOutcome]) -> None:
        """Record a synthetic final outcome for every still-queued job."""
        while self.normal or self.quarantined:
            chunk = (self.normal if self.normal else self.quarantined).popleft()
            for index, _ in chunk:
                self._record(outcome_for(index))


class ProcessBackend(_PoolBackend):
    """Executes jobs on a process pool.

    Sidesteps the GIL entirely, at the cost of pickling: the job function
    must be a module-level callable and jobs/results must be picklable.
    ``chunk_size`` groups several jobs per worker task to amortise IPC
    overhead when jobs are small.

    Worker loss is recovered, policy or not: when the pool breaks
    (a worker was killed), it is rebuilt — bounded by
    ``max_pool_rebuilds`` of the retry policy (default
    ``DEFAULT_MAX_POOL_REBUILDS``) — and every chunk that was in flight is
    *quarantined*: re-dispatched alone on the fresh pool, and bisected on
    repeat breakage until the poison job sits in a single-job chunk whose
    worker-crash failure is recorded per job, while every innocent
    chunk-mate's result is recovered.  Per-attempt timeouts abandon hung
    workers (the pool is terminated and rebuilt) instead of blocking
    forever.
    """

    name = "process"
    map_jobs = _ScheduledBackend.map_jobs  # for perfbench, see ThreadBackend
    _scheduler_times_chunks = True

    def __init__(
        self, n_workers: Optional[int] = None, *, chunk_size: int = 1
    ) -> None:
        super().__init__(n_workers)
        if int(chunk_size) < 1:
            raise ValidationError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = int(chunk_size)
        #: Cumulative pickled ``(function, chunk)`` bytes submitted across
        #: every ``map_jobs`` call (not results) — callers snapshot it
        #: around a dispatch to attribute transfer volume per fan-out.
        #: Counted per *submitted chunk*, so a pool that breaks mid-fan-out
        #: never accounts for bytes that were never shipped.
        self.bytes_shipped = 0

    def _new_pool(self, max_workers: int) -> ProcessPoolExecutor:
        # Workers snapshot the parent process at creation (fork) or
        # re-import it (spawn).
        return ProcessPoolExecutor(max_workers=max_workers)

    def _abandon_pool(self) -> None:
        """Forcefully drop a pool whose workers are hung.

        ``shutdown(wait=True)`` would block on the hung worker forever, so
        the workers are terminated and the executor is shut down without
        waiting; terminated children are reaped with a bounded join.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.terminate()
            except Exception:  # noqa: BLE001 - already dead
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - executor already broken
            pass
        for process in processes:
            try:
                process.join(timeout=1.0)
            except Exception:  # noqa: BLE001
                pass

    # Transport hooks driven by _ChunkScheduler, which times these chunks.
    def _submit(self, fn: Any, chunk: _Chunk, position: int, budget: Any) -> Any:
        pool = self._executor()
        # Pickle the chunk once, here: the blob's length is the shipped
        # volume, and the executor only has to copy the bytes.
        try:
            blob = pickle.dumps((fn, chunk), protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # noqa: BLE001 - settles as an "error" outcome
            failed: Future = Future()
            failed.set_exception(exc)
            return failed
        try:
            future = pool.submit(_execute_pickled_chunk, blob)
        except (RuntimeError, OSError):  # the pool broke between submits
            return None
        self.bytes_shipped += len(blob)
        return future

    def _classify(self, future: Any, chunk: _Chunk) -> Tuple[str, Any]:
        try:
            return "outcomes", future.result()
        except BrokenProcessPool as exc:
            return "crash", str(exc)
        except Exception as exc:  # noqa: BLE001 - unpicklable payload etc.
            return "error", exc

    def _recover(self, lost: Optional[str]) -> bool:
        if lost == "hung":
            self._abandon_pool()
        elif lost == "broken":
            # A dead pool cannot be reused; drop it so the next round starts
            # a fresh one (its workers are dead, so close() cannot block).
            self.close()
        return lost is not None

    def _exhausted(self, rebuilds: int) -> str:
        return f"worker pool broke {rebuilds} times"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(n_workers={self.n_workers}, chunk_size={self.chunk_size})"


class FallbackBackend(ExecutionBackend):
    """An ordered chain of backends with automatic demotion.

    ``map_jobs`` runs on the active backend; when any outcome carries a
    :class:`~repro.parallel.retry.WorkerPoolExhausted` (the pool broke more
    times than its rebuild budget), the chain logs a structured warning,
    closes the exhausted backend (if the chain owns it) and re-runs the
    *whole* fan-out on the next backend.  Jobs carry their own seeds, so
    the re-run is bit-identical by construction — demotion trades speed for
    survival, never results.  The demotion is sticky: later fan-outs start
    on the demoted backend.

    ``on_result`` is buffered until a backend's results are accepted (a
    fan-out that is about to be re-run must not stream half its outcomes),
    then replayed in submission order on the calling thread.

    Build one with ``resolve_backend(fallback=("process", "thread"))``;
    the recorded :attr:`demotions` list is the structured audit trail.
    """

    name = "fallback"

    def __init__(
        self,
        backends: Sequence[ExecutionBackend],
        *,
        owned: Optional[Sequence[ExecutionBackend]] = None,
    ) -> None:
        backends = list(backends)
        if len(backends) < 2:
            raise ValidationError(
                "a fallback chain needs at least two backends (a primary "
                "plus at least one fallback)"
            )
        for backend in backends:
            if not isinstance(backend, ExecutionBackend):
                raise ValidationError(
                    "every fallback chain member must be an ExecutionBackend, "
                    f"got {type(backend).__name__}"
                )
        self.backends = backends
        self._owned = list(backends) if owned is None else list(owned)
        self.active_index = 0
        #: Structured audit trail of every demotion this chain performed.
        self.demotions: List[Dict[str, object]] = []

    @property
    def active(self) -> ExecutionBackend:
        """The backend currently serving fan-outs."""
        return self.backends[self.active_index]

    # Aggregated counters: the chain reports the sum over its members, so
    # callers snapshotting deltas (PipelineContext.dispatch) see fault
    # activity no matter which member served the fan-out.
    @property
    def bytes_shipped(self) -> int:  # type: ignore[override]
        return sum(int(getattr(b, "bytes_shipped", 0)) for b in self.backends)

    @property
    def attempts(self) -> int:  # type: ignore[override]
        return sum(int(getattr(b, "attempts", 0)) for b in self.backends)

    @property
    def timeouts(self) -> int:  # type: ignore[override]
        return sum(int(getattr(b, "timeouts", 0)) for b in self.backends)

    @property
    def pool_rebuilds(self) -> int:  # type: ignore[override]
        return sum(int(getattr(b, "pool_rebuilds", 0)) for b in self.backends)

    def map_jobs(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        *,
        on_result: OnResult = None,
        retry: Optional[RetryPolicy] = None,
    ) -> List[JobOutcome]:
        jobs = list(jobs)
        policy = self._effective_retry(retry)
        while True:
            backend = self.backends[self.active_index]
            final = self.active_index >= len(self.backends) - 1
            kwargs: Dict[str, Any] = {"on_result": on_result if final else None}
            if policy is not None:
                kwargs["retry"] = policy
            outcomes = backend.map_jobs(fn, jobs, **kwargs)
            exhausted = [
                outcome
                for outcome in outcomes
                if isinstance(outcome.exception, WorkerPoolExhausted)
            ]
            if final or not exhausted:
                if not final and on_result is not None:
                    for outcome in outcomes:
                        on_result(outcome)
                return outcomes
            successor = self.backends[self.active_index + 1]
            self.demotions.append(
                {
                    "event": "backend_demoted",
                    "from": backend.name,
                    "to": successor.name,
                    "jobs": len(jobs),
                    "jobs_abandoned": len(exhausted),
                    "reason": str(exhausted[0].error),
                }
            )
            logger.warning(
                "fallback: demoting execution backend %r -> %r after "
                "worker-pool exhaustion (%d of %d jobs abandoned): %s",
                backend.name,
                successor.name,
                len(exhausted),
                len(jobs),
                exhausted[0].error,
            )
            if backend in self._owned:
                try:
                    backend.close()
                except Exception:  # noqa: BLE001 - already broken
                    pass
            self.active_index += 1

    def close(self) -> None:
        for backend in self._owned:
            try:
                backend.close()
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = " -> ".join(backend.name for backend in self.backends)
        return f"FallbackBackend({names}, active={self.active.name})"


_BACKENDS = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "threads": ThreadBackend,
    "process": ProcessBackend,
    "processes": ProcessBackend,
}


def resolve_backend(
    backend: Union[None, str, ExecutionBackend] = None,
    n_jobs: Optional[int] = None,
    *,
    retry: Optional[RetryPolicy] = None,
    fallback: Union[None, str, ExecutionBackend, Sequence] = None,
) -> ExecutionBackend:
    """Normalise the ``backend=`` / ``n_jobs=`` pair every API accepts.

    * an :class:`ExecutionBackend` instance is returned unchanged —
      combining one with ``n_jobs`` is rejected, since the instance already
      fixed its own worker count;
    * ``"serial"`` / ``"thread"`` / ``"process"`` name a backend class
      (``n_jobs`` sets its worker count; ``"serial"`` ignores it);
    * ``"distributed:HOST:PORT[,HOST:PORT...][@PLANE_DIR]"`` builds a
      :class:`repro.distributed.DistributedBackend` over that worker pool
      (``@PLANE_DIR`` enables the shared stage-cache data plane; ``n_jobs``
      is ignored — the worker pool *is* the parallelism);
    * ``backend=None`` with ``n_jobs`` > 1 selects :class:`ThreadBackend`;
    * everything else (the default) is :class:`SerialBackend`.

    ``retry`` installs a :class:`~repro.parallel.retry.RetryPolicy` as the
    instance default of a backend built here; a caller's instance is never
    changed.  ``fallback`` names one or more further backends to demote to
    (a :class:`FallbackBackend` chain of ``backend`` followed by the
    fallbacks); pool exhaustion then degrades the fan-out instead of
    failing it, with bit-identical results.
    """
    if retry is not None and not isinstance(retry, RetryPolicy):
        raise ValidationError(
            f"retry must be a RetryPolicy or None, got {type(retry).__name__}"
        )
    if fallback is not None:
        if isinstance(fallback, (str, ExecutionBackend)):
            fallback = (fallback,)
        specs = ([backend] if backend is not None else []) + list(fallback)
        if len(specs) < 2:
            raise ValidationError(
                "a fallback chain needs at least two backends; pass "
                "backend= plus fallback=, or a fallback= sequence of two "
                "or more"
            )
        members: List[ExecutionBackend] = []
        owned: List[ExecutionBackend] = []
        for spec in specs:
            member = resolve_backend(
                spec, None if isinstance(spec, ExecutionBackend) else n_jobs
            )
            members.append(member)
            if member is not spec:
                owned.append(member)
        resolved: ExecutionBackend = FallbackBackend(members, owned=owned)
    elif isinstance(backend, ExecutionBackend):
        if n_jobs is not None:
            raise ValidationError(
                "n_jobs cannot be combined with an ExecutionBackend instance; "
                "configure the worker count on the instance instead"
            )
        resolved = backend
    elif backend is None or isinstance(backend, str):
        if n_jobs is not None and int(n_jobs) < 1:
            raise ValidationError(f"n_jobs must be >= 1, got {n_jobs}")
        if backend is None:
            key = "thread" if n_jobs is not None and int(n_jobs) > 1 else "serial"
        else:
            key = backend.strip().lower()
        if key == "distributed" or key.startswith("distributed:"):
            # Imported lazily: repro.distributed builds on this module.
            from repro.distributed.backend import DistributedBackend

            resolved = DistributedBackend.from_spec(backend.strip())
        elif key not in _BACKENDS:
            raise ValidationError(
                f"unknown backend {backend!r}; available: "
                f"{sorted(set(_BACKENDS))} or "
                "'distributed:HOST:PORT[,HOST:PORT...][@PLANE_DIR]'"
            )
        else:
            cls = _BACKENDS[key]
            resolved = SerialBackend() if cls is SerialBackend else cls(n_jobs)
    else:
        raise ValidationError(
            f"backend must be None, a name, or an ExecutionBackend, got {type(backend).__name__}"
        )
    if retry is not None and resolved is not backend:
        resolved.retry = retry
    return resolved


@contextmanager
def backend_scope(
    backend: Union[None, str, ExecutionBackend] = None,
    n_jobs: Optional[int] = None,
    *,
    retry: Optional[RetryPolicy] = None,
    fallback: Union[None, str, ExecutionBackend, Sequence] = None,
):
    """Resolve a backend for the duration of one pipeline run.

    Backends created here (from ``None`` or a name) hold pooled workers that
    are released on exit; a caller-supplied :class:`ExecutionBackend`
    instance is passed through untouched and stays open, since its lifetime
    belongs to the caller.  ``retry`` / ``fallback`` are forwarded to
    :func:`resolve_backend` (a fallback chain created here closes only the
    members it resolved itself).
    """
    resolved = resolve_backend(backend, n_jobs, retry=retry, fallback=fallback)
    owned = resolved is not backend
    try:
        yield resolved
    finally:
        if owned:
            resolved.close()
