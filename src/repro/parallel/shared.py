"""Zero-copy shared-memory dataset plans for process backends.

A :class:`~repro.parallel.backends.ProcessBackend` pickles every job — and a
fan-out like ``KGraph.fit`` embeds the *same* dataset array in every
per-length job, so the dataset crosses the process boundary once per job.
This module removes that cost:

* :class:`SharedArrayPlan` writes each distinct array into a POSIX
  shared-memory segment **once** and hands out tiny picklable references;
* unpickling a reference in a worker attaches to the segment and yields a
  read-only NumPy **view** of the same physical pages — no copy, no
  per-job serialisation of the data;
* :class:`SharedMemoryBackend` applies this transparently: before
  submitting, it walks each job (dataclass fields, dict values, tuple/list
  elements) and swaps every large ``ndarray`` for a reference, de-duplicated
  by object identity, so callers and job functions keep working with plain
  arrays and nothing else in the codebase changes.

Large *results* travel the same road in the opposite direction: the
backend wraps the job function so workers park every big result ndarray in
a fresh segment and ship back a tiny :class:`_SharedResultRef`
(:func:`publish_result_arrays`).  The coordinator's
:class:`SharedResultPlan` attaches each segment, **copies** the array out
(copy-on-detach: results must outlive the segment) and unlinks it
immediately, so result segments live only for the attach-copy window and
every one is accounted for.  Sharing results is on by default
(``share_results=True``) and degrades to plain pickling per result if a
worker cannot create segments.

Worker-side views are marked read-only: jobs receive the caller's dataset
by reference, and silently mutating it from several workers would be a
correctness bug, not a feature.  Segments are unlinked by the parent as
soon as ``map_jobs`` returns; attached workers keep their mappings valid
until they drop them (POSIX keeps the pages alive while mapped).

When shared memory is unavailable (exotic platforms, exhausted
``/dev/shm``), the backend degrades gracefully to plain pickling.
"""

from __future__ import annotations

import copy
import dataclasses
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - import succeeds on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

from repro.exceptions import ParallelExecutionError, ValidationError
from repro.parallel.backends import JobOutcome, OnResult, ProcessBackend, _ChunkScheduler
from repro.parallel.retry import RetryPolicy

#: Arrays smaller than this travel as plain pickles: a shared-memory
#: segment costs a file descriptor and an mmap per worker, which only pays
#: off once the array itself is non-trivial.
DEFAULT_MIN_SHARE_BYTES = 64 * 1024

# Worker-side cache of attached segments: segment name -> SharedMemory.
# Keeping the handle referenced keeps the mapping (and therefore every
# ndarray view handed to jobs) valid; entries are pruned opportunistically
# once views are garbage and the cache grows past _ATTACH_CACHE_LIMIT.
# The limit is deliberately tiny: a fan-out rarely shares more than one or
# two distinct arrays, and every cached segment pins dataset-sized pages
# in the worker even after the parent unlinked the name.
_ATTACHED: "OrderedDict[str, Any]" = OrderedDict()
_ATTACH_CACHE_LIMIT = 2

def _tracker_disown(shm: Any) -> None:
    """Drop the resource-tracker registration for a segment we will not unlink.

    On Python < 3.13 ``SharedMemory(create=True)`` (and plain attach)
    register the name with the resource tracker.  Result segments are
    created in a worker but unlinked by the coordinator, so the worker
    balances its own registration immediately after creating — otherwise
    the registration dangles and, if the worker's tracker is private (it
    forked before any tracker existed), warns about "leaked shared_memory
    objects" at shutdown.  :meth:`ProcessBackend._executor` starts the
    tracker before the pool so workers normally share the coordinator's
    tracker, making this a balanced add/remove on one shared set.
    """
    try:  # pragma: no cover - exercised only on Python < 3.13
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # noqa: BLE001 - bookkeeping must never fail a job
        pass


def _tracker_adopt(shm: Any) -> None:
    """Re-register a disowned segment so ``unlink`` can unregister it."""
    try:  # pragma: no cover - exercised only on Python < 3.13
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:  # noqa: BLE001
        pass


def _prune_attached() -> None:
    """Drop attached segments whose views are gone, oldest first."""
    while len(_ATTACHED) > _ATTACH_CACHE_LIMIT:
        name, shm = next(iter(_ATTACHED.items()))
        try:
            shm.close()
        except BufferError:
            # A live view still exports the buffer: keep the segment and
            # stop pruning (younger entries are even more likely in use).
            _ATTACHED.move_to_end(name)
            return
        except Exception:  # noqa: BLE001 - any other failure means the
            # handle is already unusable (torn mapping, double close):
            # keeping it would pin the cache forever and stop all future
            # pruning, leaking every segment attached after it.  Drop it —
            # the mapping, if any survives, is released with the process.
            pass
        del _ATTACHED[name]


def _attach_shared_array(name: str, shape: Tuple[int, ...], dtype: str) -> np.ndarray:
    """Worker-side reconstructor: attach to a segment, return a read-only view.

    This is what a pickled :class:`_SharedArrayRef` unpickles *into* — job
    functions receive an ordinary ``ndarray`` and never see the plumbing.
    """
    shm = _ATTACHED.get(name)
    if shm is None:
        try:
            shm = _shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # pragma: no cover - track= needs Python >= 3.13
            # < 3.13 also registers the attach with the resource tracker.
            # Workers share the coordinator's tracker (started before the
            # pool, see ProcessBackend._executor), so this is an idempotent
            # re-add of a name the coordinator's unlink removes exactly once.
            shm = _shared_memory.SharedMemory(name=name)
        _ATTACHED[name] = shm
        _prune_attached()
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    view.flags.writeable = False
    return view


class _SharedArrayRef:
    """Tiny picklable stand-in for an array living in shared memory.

    Pickling one of these costs ~100 bytes regardless of the array size;
    unpickling yields the attached ndarray view itself (see
    :func:`_attach_shared_array`), so the substitution is invisible to job
    functions.
    """

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: str) -> None:
        self.name = name
        self.shape = shape
        self.dtype = dtype

    def __reduce__(self):
        return (_attach_shared_array, (self.name, self.shape, self.dtype))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_SharedArrayRef(name={self.name!r}, shape={self.shape}, dtype={self.dtype})"


class SharedArrayPlan:
    """Parent-side owner of the shared segments for one fan-out.

    ``share`` copies an array into shared memory the first time it sees it
    (identity-deduplicated, so the dataset embedded in M per-length jobs is
    written once) and returns the reference to embed in the job instead.
    ``close`` unlinks every segment; call it once all results are in.
    """

    def __init__(self) -> None:
        self._segments: List[Any] = []
        self._refs_by_id: Dict[int, _SharedArrayRef] = {}
        # Shared arrays must stay alive while their id() keys are in use —
        # a recycled id would alias a different array to a stale segment.
        self._keepalive: List[np.ndarray] = []

    @property
    def n_segments(self) -> int:
        """Number of distinct segments created so far."""
        return len(self._segments)

    def share(self, array: np.ndarray) -> _SharedArrayRef:
        """Return the shared-memory reference for ``array``, creating it once."""
        if _shared_memory is None:  # pragma: no cover - platform dependent
            raise ValidationError("shared memory is not available on this platform")
        existing = self._refs_by_id.get(id(array))
        if existing is not None:
            return existing
        contiguous = np.ascontiguousarray(array)
        shm = _shared_memory.SharedMemory(create=True, size=max(1, contiguous.nbytes))
        view = np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=shm.buf)
        view[...] = contiguous
        ref = _SharedArrayRef(shm.name, contiguous.shape, contiguous.dtype.str)
        self._segments.append(shm)
        self._refs_by_id[id(array)] = ref
        self._keepalive.append(array)
        return ref

    def close(self) -> None:
        """Unlink every segment created by this plan (idempotent)."""
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - best-effort teardown
                pass
            try:
                shm.unlink()
            except Exception:  # pragma: no cover - already unlinked
                pass
        self._segments.clear()
        self._refs_by_id.clear()
        self._keepalive.clear()

    def __enter__(self) -> "SharedArrayPlan":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


#: Containers are walked to this fixed depth (payload containers, not
#: arbitrary object graphs) by the shared-memory traversals below.
_PAYLOAD_DEPTH = 3


def _swap_leaves(value: Any, swap: Callable[[Any], Any], _depth: int) -> Any:
    """Rebuild ``value`` with ``swap`` applied to every non-container leaf.

    Walks dataclass fields, dict values and tuple/list elements up to a
    small fixed depth and rebuilds each container only when something
    actually changed, so payloads without matching leaves pass through
    untouched (by identity).  This is the one payload walk of the execution
    layer: job substitution (ndarray -> :class:`_SharedArrayRef`), both
    result directions (ndarray -> :class:`_SharedResultRef` worker-side,
    ref -> ndarray coordinator-side) and the distributed data plane
    (:class:`repro.distributed.stagecache.StageDataPlane`, one level
    deeper) all run through it.

    A changed dataclass is rebuilt by shallow copy + ``object.__setattr__``
    (works on frozen instances and, unlike ``dataclasses.replace``, never
    re-runs a validating ``__post_init__`` — ``TimeSeriesDataset`` checks
    its ``data`` array — against a swapped-in transport ref).
    """
    if not isinstance(value, (dict, tuple, list)) and not (
        dataclasses.is_dataclass(value) and not isinstance(value, type)
    ):
        return swap(value)
    if _depth <= 0:
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        changes = {}
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            replaced = _swap_leaves(item, swap, _depth - 1)
            if replaced is not item:
                changes[field.name] = replaced
        if not changes:
            return value
        clone = copy.copy(value)
        for name, replaced in changes.items():
            object.__setattr__(clone, name, replaced)
        return clone
    if isinstance(value, dict):
        replaced_items = {
            key: _swap_leaves(item, swap, _depth - 1) for key, item in value.items()
        }
        if all(replaced_items[key] is value[key] for key in value):
            return value
        return replaced_items
    replaced_seq = [_swap_leaves(item, swap, _depth - 1) for item in value]
    if all(new is old for new, old in zip(replaced_seq, value)):
        return value
    if isinstance(value, tuple):
        # Preserve namedtuples (their constructor takes positional args).
        cls = type(value)
        return cls(*replaced_seq) if hasattr(cls, "_fields") else tuple(replaced_seq)
    return replaced_seq


def substitute_shared_arrays(
    job: Any,
    plan: SharedArrayPlan,
    min_bytes: int = DEFAULT_MIN_SHARE_BYTES,
    _depth: int = _PAYLOAD_DEPTH,
) -> Any:
    """Return ``job`` with every large ndarray swapped for a shared reference."""

    def swap(leaf: Any) -> Any:
        if isinstance(leaf, np.ndarray) and leaf.nbytes >= min_bytes:
            return plan.share(leaf)
        return leaf

    return _swap_leaves(job, swap, _depth)


# --------------------------------------------------------------------------- #
# zero-copy result return (worker writes, coordinator attaches + unlinks)
# --------------------------------------------------------------------------- #
class _SharedResultRef:
    """Picklable descriptor of a result array a worker parked in a segment.

    Unlike :class:`_SharedArrayRef` it does **not** auto-attach on
    unpickling: the coordinator resolves refs explicitly through a
    :class:`SharedResultPlan` so every segment's attach/copy/unlink is
    accounted for exactly once.
    """

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: Tuple[int, ...], dtype: str) -> None:
        self.name = name
        self.shape = shape
        self.dtype = dtype

    def __reduce__(self):
        return (_SharedResultRef, (self.name, self.shape, self.dtype))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"_SharedResultRef(name={self.name!r}, shape={self.shape}, "
            f"dtype={self.dtype})"
        )


def _create_segment(nbytes: int):
    """Create an untracked segment (the creator is never the unlinker here).

    Result segments are created in a worker but unlinked by the
    coordinator, so the creating process must not hold a resource-tracker
    registration: on < 3.13 (no ``track=``) the registration is dropped
    right after creation and the segment is marked disowned, which
    :func:`_destroy_segment` undoes if the worker has to roll back.
    """
    try:
        return _shared_memory.SharedMemory(create=True, size=max(1, nbytes), track=False)
    except TypeError:  # pragma: no cover - track= needs Python >= 3.13
        shm = _shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        _tracker_disown(shm)
        shm._repro_disowned = True
        return shm


def _destroy_segment(shm: Any) -> None:
    """Best-effort close + unlink of a segment this process created."""
    try:
        shm.close()
    except Exception:  # noqa: BLE001 - best-effort rollback
        pass
    if getattr(shm, "_repro_disowned", False):
        # unlink() unregisters on < 3.13; restore the registration first so
        # the tracker is not asked to remove a name it no longer holds.
        _tracker_adopt(shm)
    try:
        shm.unlink()
    except Exception:  # noqa: BLE001
        pass


def publish_result_arrays(
    value: Any, min_bytes: int = DEFAULT_MIN_SHARE_BYTES
) -> Any:
    """Worker-side: park every large result ndarray in shared memory.

    Returns ``value`` with each ndarray of at least ``min_bytes`` replaced
    by a :class:`_SharedResultRef`; the worker's own handles are closed
    before returning (the segment stays alive under its name until the
    coordinator unlinks it).  Any failure — shared memory unavailable,
    ``/dev/shm`` exhausted mid-walk — unlinks whatever this call already
    created and returns the original ``value`` untouched, degrading that
    one result to plain pickling.
    """
    if _shared_memory is None:  # pragma: no cover - platform dependent
        return value
    created: List[Any] = []

    def swap(leaf: Any) -> Any:
        if not isinstance(leaf, np.ndarray) or leaf.nbytes < min_bytes:
            return leaf
        contiguous = np.ascontiguousarray(leaf)
        shm = _create_segment(contiguous.nbytes)
        created.append(shm)
        view = np.ndarray(contiguous.shape, dtype=contiguous.dtype, buffer=shm.buf)
        view[...] = contiguous
        return _SharedResultRef(shm.name, contiguous.shape, contiguous.dtype.str)

    try:
        replaced = _swap_leaves(value, swap, _PAYLOAD_DEPTH)
    except Exception:  # noqa: BLE001 - degrade this result to plain pickling
        for shm in created:
            _destroy_segment(shm)
        return value
    for shm in created:
        try:
            shm.close()
        except Exception:  # pragma: no cover - buffer still exported
            pass
    return replaced


class SharedResultPlan:
    """Coordinator-side resolver for worker-published result segments.

    ``resolve`` walks a job result, attaches every
    :class:`_SharedResultRef`, **copies** the array out (copy-on-detach:
    the result must stay valid after the segment is gone) and closes +
    unlinks the segment immediately, keeping per-plan accounting of
    segments and bytes recovered.  A segment that cannot be attached
    raises — the backend converts that outcome into a per-job error, it
    never silently hands back a ref.
    """

    def __init__(self) -> None:
        self.segments_resolved = 0
        self.bytes_resolved = 0

    def resolve(self, value: Any) -> Any:
        def swap(leaf: Any) -> Any:
            if not isinstance(leaf, _SharedResultRef):
                return leaf
            try:
                try:
                    shm = _shared_memory.SharedMemory(name=leaf.name, track=False)
                except TypeError:  # pragma: no cover - Python < 3.13
                    shm = _shared_memory.SharedMemory(name=leaf.name)
            except Exception as exc:
                raise ParallelExecutionError(
                    f"result segment {leaf.name!r} could not be attached: {exc}"
                ) from exc
            try:
                view = np.ndarray(leaf.shape, dtype=np.dtype(leaf.dtype), buffer=shm.buf)
                array = np.array(view)
                del view
            finally:
                try:
                    shm.close()
                except Exception:  # pragma: no cover - best-effort teardown
                    pass
                try:
                    shm.unlink()
                except Exception:  # pragma: no cover - already unlinked
                    pass
            self.segments_resolved += 1
            self.bytes_resolved += array.nbytes
            return array

        return _swap_leaves(value, swap, _PAYLOAD_DEPTH)


class _PublishingRunner:
    """Picklable wrapper: run the job function, then park large results."""

    def __init__(self, fn: Callable[[Any], Any], min_bytes: int) -> None:
        self.fn = fn
        self.min_bytes = min_bytes

    def __call__(self, job: Any) -> Any:
        return publish_result_arrays(self.fn(job), self.min_bytes)


class SharedMemoryBackend(ProcessBackend):
    """Process pool that ships large job arrays through shared memory.

    Behaves exactly like :class:`ProcessBackend` (same ordered results,
    per-job error capture, chunking) but, before submitting, swaps every
    ndarray of at least ``min_share_bytes`` embedded in a job for a
    zero-copy shared-memory reference — de-duplicated across jobs, so a
    dataset repeated in every job of a fan-out crosses the process boundary
    once instead of once per job.  Worker-side views are read-only; see the
    module docstring for lifecycle details.

    With ``share_results=True`` (the default) the reverse direction is
    zero-pickle too: workers park every result ndarray of at least
    ``min_result_bytes`` in a fresh segment and the coordinator copies it
    out and unlinks before the caller (or its ``on_result`` callback) ever
    sees the outcome — callers always receive plain arrays.  Cumulative
    recovery counters live on :attr:`result_segments` /
    :attr:`result_bytes`.

    Select it anywhere a backend is accepted with ``backend="shared"``
    (aliases ``"shared_memory"``) or by passing an instance.
    """

    name = "shared_memory"

    def __init__(
        self,
        n_workers: Optional[int] = None,
        *,
        chunk_size: int = 1,
        min_share_bytes: int = DEFAULT_MIN_SHARE_BYTES,
        share_results: bool = True,
        min_result_bytes: int = DEFAULT_MIN_SHARE_BYTES,
    ) -> None:
        super().__init__(n_workers, chunk_size=chunk_size)
        if int(min_share_bytes) < 0:
            raise ValidationError(
                f"min_share_bytes must be >= 0, got {min_share_bytes}"
            )
        if int(min_result_bytes) < 0:
            raise ValidationError(
                f"min_result_bytes must be >= 0, got {min_result_bytes}"
            )
        self.min_share_bytes = int(min_share_bytes)
        self.share_results = bool(share_results)
        self.min_result_bytes = int(min_result_bytes)
        #: Cumulative count / bytes of result arrays recovered from
        #: worker-published segments across every ``map_jobs`` call.
        self.result_segments = 0
        self.result_bytes = 0

    def map_jobs(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        *,
        on_result: OnResult = None,
        retry: Optional[RetryPolicy] = None,
    ) -> List[JobOutcome]:
        jobs = list(jobs)
        publishing = self.share_results and _shared_memory is not None
        result_plan = SharedResultPlan()
        # Once the results are all in (or the pool broke) the segments have
        # done their job.  Workers that are still attached keep their
        # mappings; unlinking only removes the name.
        with SharedArrayPlan() as plan:
            if _shared_memory is not None:
                try:
                    jobs = [
                        substitute_shared_arrays(job, plan, self.min_share_bytes)
                        for job in jobs
                    ]
                except OSError:
                    # /dev/shm is exhausted or refused a segment: degrade to
                    # plain pickling rather than failing the fan-out.
                    plan.close()
            # The scheduler resolves published result refs before its retry
            # decision and before on_result sees the outcome, so a vanished
            # result segment is a retryable per-job failure and no ref ever
            # reaches the caller.
            outcomes = _ChunkScheduler(
                self,
                _PublishingRunner(fn, self.min_result_bytes) if publishing else fn,
                jobs,
                on_result,
                retry,
                resolve=result_plan.resolve if publishing else None,
            ).run()
        self.result_segments += result_plan.segments_resolved
        self.result_bytes += result_plan.bytes_resolved
        return outcomes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SharedMemoryBackend(n_workers={self.n_workers}, "
            f"chunk_size={self.chunk_size}, min_share_bytes={self.min_share_bytes}, "
            f"share_results={self.share_results})"
        )
