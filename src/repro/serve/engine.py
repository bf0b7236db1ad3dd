"""Online inference engine: coalesces concurrent predicts into micro-batches.

Serving a fitted k-Graph model is read-only and embarrassingly batchable:
the per-request work is dominated by fixed preparation (pattern/centroid
extraction, input validation, dispatch overhead), not by the per-series
maths.  The :class:`InferenceEngine` therefore

* prepares the model's :class:`~repro.core.kgraph.PredictionState` once,
* queues concurrent single-series requests and batches them
  **work-conservingly**: as soon as its flusher thread is free it
  dispatches whatever is queued, up to ``max_batch_size``, so a lone
  request never waits for partners, and requests that arrive during a
  dispatch form the next batch (the adaptive batching of Clipper,
  Crankshaw et al., NSDI 2017), and
* dispatches each micro-batch through an
  :class:`~repro.parallel.ExecutionBackend` in chunks, so a thread backend
  spreads the batch across workers while the serial backend stays a valid
  zero-dependency default.

Each series is processed independently (see
:func:`repro.core.kgraph.predict_with_state`), so a prediction never depends
on which batch it travelled in — online results are bit-identical to an
offline ``model.predict`` call.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

import numpy as np

from repro.api.protocol import ServableState
from repro.exceptions import (
    ServiceError,
    ServiceFaultError,
    ServiceOverloadError,
    ValidationError,
)
from repro.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    resolve_backend,
)
from repro.utils.validation import check_array


@dataclass(frozen=True)
class _PredictChunkJob:
    """Picklable payload: one chunk of a micro-batch for one backend worker."""

    state: ServableState
    array: np.ndarray


def _predict_chunk(job: _PredictChunkJob) -> np.ndarray:
    """Module-level job function so process backends can run chunks too.

    Dispatches through the state's own ``predict_batch`` (the
    :class:`~repro.api.protocol.ServableState` contract), so one engine
    serves k-Graph's graph-profile states and baseline centroid states
    alike.
    """
    return job.state.predict_batch(job.array)


@dataclass
class _PendingRequest:
    """One queued single-series request and its completion signal."""

    series: np.ndarray
    done: threading.Event = field(default_factory=threading.Event)
    prediction: Optional[int] = None
    error: Optional[BaseException] = None


class InferenceEngine:
    """Micro-batching predict server around one fitted, servable estimator.

    One flusher thread dispatches batches; callers wait on their own
    request's event, so a caller's ``timeout`` holds even while a backend
    hangs.  The flusher never waits for a batch to fill: whenever it is
    free it takes up to ``max_batch_size`` queued requests, so batches
    grow with the load instead of with a timer.

    Parameters
    ----------
    model:
        The fitted model to serve — any estimator implementing
        :class:`~repro.api.protocol.SupportsServing` (k-Graph, or a
        baseline estimator with its centroid state).
    max_batch_size:
        Most requests one micro-batch takes from the queue.
    backend, n_jobs:
        Execution backend micro-batches are dispatched through; chunks of
        ``dispatch_chunk_size`` series become individual backend jobs.
    dispatch_chunk_size:
        Series per backend job.  The default (8) lets a thread backend
        overlap chunks of one batch; a serial backend simply runs the
        chunks in order.
    """

    def __init__(
        self,
        model,
        *,
        max_batch_size: int = 32,
        backend: Union[None, str, ExecutionBackend] = None,
        n_jobs: Optional[int] = None,
        dispatch_chunk_size: int = 8,
    ) -> None:
        if int(max_batch_size) < 1:
            raise ValidationError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if int(dispatch_chunk_size) < 1:
            raise ValidationError(
                f"dispatch_chunk_size must be >= 1, got {dispatch_chunk_size}"
            )
        self.model = model
        self.state: ServableState = model.prediction_state()
        self.max_batch_size = int(max_batch_size)
        self.dispatch_chunk_size = int(dispatch_chunk_size)
        self._backend = resolve_backend(backend, n_jobs)
        self._owns_backend = self._backend is not backend

        self._queue: List[_PendingRequest] = []
        self._condition = threading.Condition()
        self._closing = False
        self._close_started = False

        # stats (guarded by the condition's lock)
        self._n_requests = 0
        self._n_predictions = 0
        self._n_batches = 0
        self._flush_reasons: Dict[str, int] = {"size": 0, "idle": 0, "drain": 0}
        self._max_batch_seen = 0

        self._worker = threading.Thread(
            target=self._run, name="repro-serve-engine", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------ #
    # client API
    # ------------------------------------------------------------------ #
    def _validate_series(self, series) -> np.ndarray:
        array = check_array(series, name="series", ndim=1)
        # Delegate the length/NaN policy to the model's canonical predict
        # validation so the online and offline paths can never drift.
        self.model.validate_predict_input(array.reshape(1, -1))
        return array

    def predict(self, series, *, timeout: Optional[float] = None) -> int:
        """Predict the cluster of one series, waiting for its micro-batch.

        Validation happens in the caller's thread so malformed requests fail
        fast and never poison a batch.  ``timeout`` bounds the total wait
        (queueing + dispatch); ``None`` waits indefinitely.
        """
        array = self._validate_series(series)
        request = _PendingRequest(series=array)
        with self._condition:
            if self._closing:
                raise ServiceError("cannot predict: the inference engine is closed")
            self._queue.append(request)
            self._n_requests += 1
            self._condition.notify()
        if not request.done.wait(timeout):
            self._abandon(request)
            # Overload, not a fault: the engine is alive but could not serve
            # within the caller's budget — retriable after backing off.
            raise ServiceOverloadError(
                f"prediction timed out after {timeout} s (queue backlog or a "
                "stalled backend)",
                retry_after=max(1.0, float(timeout or 0.0)),
            )
        if request.error is not None:
            raise request.error
        return int(request.prediction)

    def _abandon(self, request: _PendingRequest) -> None:
        """Drop a timed-out request that is still queued.

        Without this, timeouts shed no load: the backend would still compute
        every abandoned request later.  A request already taken into a batch
        cannot be recalled — its result is simply discarded.
        """
        with self._condition:
            try:
                self._queue.remove(request)
            except ValueError:
                pass

    def predict_many(self, data, *, timeout: Optional[float] = None) -> np.ndarray:
        """Predict several series, enqueueing each as its own request.

        The series ride whatever micro-batches the flusher forms (they may
        coalesce with other clients' requests); results come back in input
        order.
        """
        array = self.model.validate_predict_input(data)
        requests = [_PendingRequest(series=series) for series in array]
        with self._condition:
            if self._closing:
                raise ServiceError("cannot predict: the inference engine is closed")
            self._queue.extend(requests)
            self._n_requests += len(requests)
            self._condition.notify()
        # One deadline for the whole call — per-request waits would multiply
        # the caller's budget by the number of series.
        deadline = None if timeout is None else time.monotonic() + timeout
        predictions = np.empty(len(requests), dtype=int)
        for index, request in enumerate(requests):
            remaining = None if deadline is None else deadline - time.monotonic()
            if not request.done.wait(remaining):
                for abandoned in requests[index:]:
                    self._abandon(abandoned)
                raise ServiceOverloadError(
                    f"prediction timed out after {timeout} s",
                    retry_after=max(1.0, float(timeout or 0.0)),
                )
            if request.error is not None:
                # The whole call fails; still-queued siblings would only
                # compute discarded results — shed them like the timeout path.
                for abandoned in requests[index + 1 :]:
                    self._abandon(abandoned)
                raise request.error
            predictions[index] = int(request.prediction)
        return predictions

    # ------------------------------------------------------------------ #
    # flusher
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        while True:
            with self._condition:
                while not self._queue and not self._closing:
                    self._condition.wait()
                if not self._queue:
                    # Closing with an empty queue: nothing left to drain.
                    return
                batch = self._queue[: self.max_batch_size]
                del self._queue[: self.max_batch_size]
                if self._closing:
                    reason = "drain"
                elif len(batch) == self.max_batch_size:
                    reason = "size"
                else:
                    reason = "idle"
                self._n_batches += 1
                self._flush_reasons[reason] += 1
                self._max_batch_seen = max(self._max_batch_seen, len(batch))
            try:
                self._dispatch(batch)
            except Exception as exc:  # noqa: BLE001 - the flusher must survive
                # Nothing below _dispatch should raise, but if something does
                # (MemoryError while stacking, a broken custom backend), the
                # flusher thread must not die silently with clients blocked:
                # fail this batch's requests and keep serving.
                self._fail_requests(
                    [request for request in batch if not request.done.is_set()], exc
                )

    @staticmethod
    def _fail_requests(requests: List[_PendingRequest], exc: BaseException) -> None:
        """Resolve ``requests`` with a ServiceFaultError wrapping ``exc``.

        Dispatch failures are real serving-side faults (dead workers,
        broken pools) — distinct from overload, so the HTTP layer answers
        500 here and reserves 503 + ``Retry-After`` for load shedding.
        Each request gets its own instance: the waiters re-raise from
        different threads and must not share mutable traceback state.
        """
        for request in requests:
            error = ServiceFaultError(
                f"micro-batch dispatch failed: {type(exc).__name__}: {exc}"
            )
            error.__cause__ = exc
            request.error = error
            request.done.set()

    def _dispatch(self, batch: List[_PendingRequest]) -> None:
        """Run one micro-batch through the backend and resolve its requests.

        Requests are grouped by series length (clients may legitimately send
        different — individually valid — lengths), each group is stacked and
        split into chunk jobs.
        """
        groups: Dict[int, List[_PendingRequest]] = {}
        for request in batch:
            groups.setdefault(int(request.series.shape[0]), []).append(request)
        # Each chunk job carries the full PredictionState; across a process
        # boundary that pickling cost scales with the model, not the chunk,
        # so process backends get one job per group instead of per chunk.
        # Serial backends get one job per group too: predict_with_state is
        # batch-vectorised (one windows matrix per call), so splitting a
        # group into chunks only helps when chunks can overlap on workers.
        chunk_size = self.dispatch_chunk_size
        if isinstance(self._backend, (ProcessBackend, SerialBackend)):
            chunk_size = max(chunk_size, self.max_batch_size)
        for requests in groups.values():
            try:
                array = np.vstack([request.series for request in requests])
                jobs = [
                    _PredictChunkJob(
                        state=self.state,
                        array=array[start : start + chunk_size],
                    )
                    for start in range(0, array.shape[0], chunk_size)
                ]
                outcomes = self._backend.map_jobs(_predict_chunk, jobs)
                predictions = np.concatenate(
                    [outcome.unwrap() for outcome in outcomes]
                )
            except Exception as exc:  # noqa: BLE001 - fail the requests, not the loop
                self._fail_requests(requests, exc)
                continue
            with self._condition:
                self._n_predictions += int(predictions.shape[0])
            for request, prediction in zip(requests, predictions):
                request.prediction = int(prediction)
                request.done.set()

    # ------------------------------------------------------------------ #
    # lifecycle / stats
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Drain pending requests, stop the flusher, release the backend.

        Safe to call repeatedly and from several threads: only the first
        caller shuts down the backend, later callers just wait for the
        worker to finish draining.
        """
        with self._condition:
            first = not self._close_started
            self._close_started = True
            self._closing = True
            self._condition.notify()
        self._worker.join()
        if first and self._owns_backend:
            self._backend.close()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has begun; a closing engine rejects requests.

        True as soon as shutdown starts (queue drain may still be running) —
        callers holding a reference use this to detect an engine that was
        evicted-and-closed underneath them.
        """
        return self._closing

    def __enter__(self) -> "InferenceEngine":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        """Batching counters: request/batch totals and flush reasons.

        ``flush_reasons`` counts batches by why they left the queue:
        ``"size"`` (``max_batch_size`` requests were queued), ``"idle"``
        (fewer were queued when the flusher became free) and ``"drain"``
        (taken while :meth:`close` emptied the queue).
        """
        with self._condition:
            mean_batch = (
                self._n_predictions / self._n_batches if self._n_batches else 0.0
            )
            return {
                "requests": self._n_requests,
                "predictions": self._n_predictions,
                "batches": self._n_batches,
                "mean_batch_size": mean_batch,
                "max_batch_size_seen": self._max_batch_seen,
                "flush_reasons": dict(self._flush_reasons),
                "pending": len(self._queue),
                "max_batch_size": self.max_batch_size,
                "backend": self._backend.name,
            }
