"""The stage cache as a data plane: fingerprints over the wire, not arrays.

When the coordinator and its workers share a directory (NFS, a bind mount,
or plain ``/tmp`` for local pools), large ndarrays never need to travel
through job payloads at all.  The coordinator *stashes* each array once
under its content fingerprint (the same
:func:`repro.pipeline.fingerprint.fingerprint` that keys stage
checkpoints) and ships a tiny :class:`PlaneArrayRef` instead; the worker
*resolves* refs against the shared directory before running the job, and
stashes its own large result arrays the same way on the way back.

Properties this buys:

* **Dedup for free** — content addressing means the dataset array shared
  by M per-length jobs is written once and referenced M times.
* **Retry-safe** — a missing or truncated file surfaces as
  :class:`PlaneMissError`, a retryable per-job failure.
* **Crash-safe writes** — arrays land via ``tmp + os.replace``, so a
  reader never observes a half-written file (the
  :class:`~repro.pipeline.cache.DiskStageCache` idiom).

Stash and resolve run the execution layer's one payload walk,
:func:`_swap_leaves`, four levels deep, so chaos-wrapped jobs
(``_ChaosJob(job=...)``) still reach their arrays.  The walk rebuilds
dataclasses without re-running ``__post_init__``, so a validating payload
type (``TimeSeriesDataset`` checks its ``data`` array) never sees the
transport representation; the symmetric ``resolve`` on the other side
restores the validated original.
"""

from __future__ import annotations

import copy
import dataclasses
import os
import threading
from pathlib import Path
from typing import Any, Callable, Dict, Tuple, Union

import numpy as np

from repro.exceptions import ParallelExecutionError, ValidationError
from repro.pipeline.fingerprint import fingerprint

#: Arrays smaller than this ship inline — a ref + a file round-trip costs
#: more than a few KB of base64.
DEFAULT_MIN_PLANE_BYTES = 32 * 1024

#: Containers are walked to this fixed depth (payload containers, not
#: arbitrary object graphs): a job's dataclass, its fields' containers and
#: their arrays, one level more for a chaos ``_ChaosJob`` whose ``job``
#: field holds the real payload.
_PLANE_DEPTH = 4


def _swap_leaves(value: Any, swap: Callable[[Any], Any], _depth: int) -> Any:
    """Rebuild ``value`` with ``swap`` applied to every non-container leaf.

    Walks dataclass fields, dict values and tuple/list elements up to a
    small fixed depth and rebuilds each container only when something
    actually changed, so payloads without matching leaves pass through
    untouched (by identity).

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


class PlaneMissError(ParallelExecutionError):
    """A :class:`PlaneArrayRef` did not resolve against the plane directory.

    Retryable by design: the coordinator treats it like any per-job
    failure, so a retry policy re-stashes/re-dispatches instead of
    surfacing a surprise after the fan-out settled.
    """


class PlaneArrayRef:
    """A picklable fingerprint reference to an array parked in the plane.

    Deliberately *not* a dataclass: the payload walk
    (:func:`_swap_leaves`) recurses into dataclass
    fields, and a ref must be handed to the swap callback as a leaf — the
    whole point is substituting it back into an array.
    """

    __slots__ = ("key", "dtype", "shape", "nbytes")

    def __init__(
        self, key: str, dtype: str, shape: Tuple[int, ...], nbytes: int
    ) -> None:
        self.key = key
        self.dtype = dtype
        self.shape = tuple(shape)
        self.nbytes = int(nbytes)

    def __reduce__(self):
        return (PlaneArrayRef, (self.key, self.dtype, self.shape, self.nbytes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlaneArrayRef):
            return NotImplemented
        return (self.key, self.dtype, self.shape, self.nbytes) == (
            other.key,
            other.dtype,
            other.shape,
            other.nbytes,
        )

    def __hash__(self) -> int:
        return hash((self.key, self.dtype, self.shape, self.nbytes))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlaneArrayRef(key={self.key[:12]!r}..., dtype={self.dtype!r}, "
            f"shape={self.shape!r}, nbytes={self.nbytes})"
        )


class StageDataPlane:
    """Stash/resolve large ndarrays in a shared content-addressed directory.

    Parameters
    ----------
    directory:
        The shared directory (created if needed).  Workers are configured
        with an allowed root (``graphint worker --data-plane DIR``) and
        refuse to resolve against anything outside it.
    min_bytes:
        Arrays below this many bytes stay inline in the job payload.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        min_bytes: int = DEFAULT_MIN_PLANE_BYTES,
    ) -> None:
        if int(min_bytes) < 0:
            raise ValidationError(f"min_bytes must be >= 0, got {min_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.min_bytes = int(min_bytes)
        # Transfer accounting (coordinator-side mirror of bytes_shipped):
        # bytes_stashed were written to the plane, bytes_deduplicated were
        # matched to an already-present file, bytes_resolved were read back.
        self.arrays_stashed = 0
        self.arrays_deduplicated = 0
        self.arrays_resolved = 0
        self.bytes_stashed = 0
        self.bytes_deduplicated = 0
        self.bytes_resolved = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.arr"

    def stash_array(self, array: np.ndarray) -> PlaneArrayRef:
        """Park one array in the plane and return its fingerprint ref."""
        contiguous = np.ascontiguousarray(array)
        key = fingerprint(contiguous)
        path = self._path(key)
        if path.exists():
            with self._lock:
                self.arrays_deduplicated += 1
                self.bytes_deduplicated += int(contiguous.nbytes)
        else:
            tmp = path.with_name(
                f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
            )
            tmp.write_bytes(contiguous.tobytes())
            os.replace(tmp, path)
            with self._lock:
                self.arrays_stashed += 1
                self.bytes_stashed += int(contiguous.nbytes)
        return PlaneArrayRef(
            key=key,
            dtype=contiguous.dtype.str,
            shape=tuple(int(size) for size in contiguous.shape),
            nbytes=int(contiguous.nbytes),
        )

    def load_array(self, ref: PlaneArrayRef) -> np.ndarray:
        """Resolve one ref back into a (writable) array."""
        path = self._path(ref.key)
        try:
            array = np.fromfile(path, dtype=np.dtype(ref.dtype))
        except OSError as exc:
            raise PlaneMissError(
                f"data-plane array {ref.key[:12]}... is missing from "
                f"{self.directory} ({exc})"
            ) from exc
        if array.nbytes != int(ref.nbytes):
            raise PlaneMissError(
                f"data-plane array {ref.key[:12]}... is truncated: expected "
                f"{ref.nbytes} bytes, found {array.nbytes}"
            )
        with self._lock:
            self.arrays_resolved += 1
            self.bytes_resolved += int(ref.nbytes)
        return array.reshape(ref.shape)

    # ------------------------------------------------------------------ #
    def stash(self, value: Any) -> Any:
        """Rebuild ``value`` with every large ndarray swapped for a ref."""

        def swap(leaf: Any) -> Any:
            if (
                isinstance(leaf, np.ndarray)
                and leaf.dtype != object
                and leaf.nbytes >= self.min_bytes
            ):
                return self.stash_array(leaf)
            return leaf

        return _swap_leaves(value, swap, _PLANE_DEPTH)

    def resolve(self, value: Any) -> Any:
        """Inverse of :meth:`stash`: load every ref back into an array."""

        def swap(leaf: Any) -> Any:
            if isinstance(leaf, PlaneArrayRef):
                return self.load_array(leaf)
            return leaf

        return _swap_leaves(value, swap, _PLANE_DEPTH)

    # ------------------------------------------------------------------ #
    @property
    def bytes_offloaded(self) -> int:
        """Bytes kept out of job payloads (written + deduplicated)."""
        return self.bytes_stashed + self.bytes_deduplicated

    def stats(self) -> Dict[str, int]:
        """Snapshot of the transfer counters."""
        with self._lock:
            return {
                "arrays_stashed": self.arrays_stashed,
                "arrays_deduplicated": self.arrays_deduplicated,
                "arrays_resolved": self.arrays_resolved,
                "bytes_stashed": self.bytes_stashed,
                "bytes_deduplicated": self.bytes_deduplicated,
                "bytes_resolved": self.bytes_resolved,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StageDataPlane({str(self.directory)!r}, min_bytes={self.min_bytes})"
        )
