"""The :class:`Stage` contract and the context a pipeline threads through it.

A stage is one resumable unit of a :class:`~repro.pipeline.Pipeline`: it
declares which context values it consumes (``inputs``), which it produces
(``outputs``), and which configuration entries change its behaviour
(``config_keys``).  Those declarations are the whole caching contract — a
stage's cache key is derived from exactly its config subset plus its
declared inputs, so a parameter that a stage does not list cannot
invalidate its checkpoint.  Seed inputs are hashed by content; an input an
earlier stage produced is named by its producer's key (keys are chained,
see :meth:`repro.pipeline.Pipeline.stage_key`), so stage outputs are never
hashed.

Design rules every stage must follow:

* ``run(ctx)`` must be a pure function of its declared inputs and config
  subset: same inputs, same outputs (bit-identical).  Chained keys rely on
  it — equal keys must mean equal outputs.  Randomness must come from a
  generator passed *through the context*, never from global state, so the
  generator's stream position participates in the cache key.
* Fan-outs inside a stage go through ``ctx.dispatch(self.name, fn, jobs)``,
  so the execution backend stays selectable per stage (``stage_backends=``)
  and the bytes a process pool ships are counted against the stage.
* Worker-side timings are merged into ``ctx.watch`` — the pipeline adds its
  own ``stage:<name>`` wall-clock section around each run.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.exceptions import PipelineError
from repro.parallel import (
    ExecutionBackend,
    RetryPolicy,
    SerialBackend,
    resolve_backend,
)
from repro.utils.timing import Stopwatch

#: Cumulative fault-tolerance counters snapshotted around each dispatch
#: (see :meth:`PipelineContext.dispatch`).
_FAULT_COUNTERS = ("attempts", "timeouts", "pool_rebuilds")


@dataclass
class PipelineContext:
    """Everything a pipeline run threads between stages.

    Attributes
    ----------
    config:
        Flat mapping of configuration entries; each stage sees only the
        subset named by its ``config_keys``.
    values:
        The data plane: seed values placed by the driver plus every stage
        output, keyed by the names the stages declare.
    backend:
        Default :class:`~repro.parallel.ExecutionBackend` for stage
        fan-outs.
    stage_backends:
        Per-stage overrides (stage name -> backend); resolved instances,
        lifetime owned by the caller (see :func:`stage_backend_scope`).
    watch:
        Stopwatch accumulating both worker-side sections (merged by the
        stages) and the pipeline's ``stage:<name>`` wall-clock sections.
    bytes_shipped:
        Per-stage pickled payload bytes submitted to process backends
        (stage name -> cumulative bytes), filled by :meth:`dispatch`.
        Stays zero for serial/thread backends — nothing crosses a process
        boundary there.
    retry:
        Optional :class:`~repro.parallel.RetryPolicy` applied to every
        fan-out dispatched through :meth:`dispatch` (``None`` keeps the
        single-attempt behaviour).
    fault_stats:
        Per-stage fault-tolerance counters (stage name -> ``{"attempts",
        "timeouts", "pool_rebuilds"}``), snapshotted from the backend's
        cumulative counters by :meth:`dispatch` like ``bytes_shipped``.
    plane_bytes:
        Per-stage bytes the distributed data plane kept *out* of job
        payloads (stage name -> bytes offloaded as fingerprint refs),
        snapshotted from the backend's
        :class:`~repro.distributed.stagecache.StageDataPlane` when one is
        attached.  Empty for every non-distributed backend.
    """

    config: Dict[str, object] = field(default_factory=dict)
    values: Dict[str, object] = field(default_factory=dict)
    backend: ExecutionBackend = field(default_factory=SerialBackend)
    stage_backends: Dict[str, ExecutionBackend] = field(default_factory=dict)
    watch: Stopwatch = field(default_factory=Stopwatch)
    bytes_shipped: Dict[str, int] = field(default_factory=dict)
    retry: Optional[RetryPolicy] = None
    fault_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    plane_bytes: Dict[str, int] = field(default_factory=dict)

    def dispatch(self, stage_name: str, fn, jobs, *, on_result=None):
        """``map_jobs`` on the stage's backend, accounting transfer.

        The backend is ``stage_backends[stage_name]`` when set, else
        ``backend``.  The pickled payload volume of the dispatch (measured
        by process backends on their cumulative ``bytes_shipped`` counter)
        is attributed to ``stage_name`` so reports can show what each
        stage actually shipped.
        """
        backend = self.stage_backends.get(stage_name, self.backend)
        before = getattr(backend, "bytes_shipped", None)
        plane = getattr(backend, "data_plane", None)
        plane_before = (
            int(plane.bytes_offloaded) if plane is not None else None
        )
        counters_before = {
            name: int(getattr(backend, name, 0)) for name in _FAULT_COUNTERS
        }
        if self.retry is not None:
            # Passed only when set: custom ExecutionBackend subclasses that
            # predate the retry contract keep working without the keyword.
            outcomes = backend.map_jobs(
                fn, jobs, on_result=on_result, retry=self.retry
            )
        else:
            outcomes = backend.map_jobs(fn, jobs, on_result=on_result)
        if before is not None:
            delta = int(backend.bytes_shipped) - int(before)
            self.bytes_shipped[stage_name] = (
                self.bytes_shipped.get(stage_name, 0) + delta
            )
        if plane_before is not None:
            plane_delta = int(plane.bytes_offloaded) - plane_before
            self.plane_bytes[stage_name] = (
                self.plane_bytes.get(stage_name, 0) + plane_delta
            )
        stats = self.fault_stats.setdefault(
            stage_name, {name: 0 for name in _FAULT_COUNTERS}
        )
        for name in _FAULT_COUNTERS:
            stats[name] += int(getattr(backend, name, 0)) - counters_before[name]
        return outcomes

    def require(self, name: str) -> object:
        """Fetch a context value, failing loudly when it is absent."""
        if name not in self.values:
            raise PipelineError(
                f"context value {name!r} is not available; produced values: "
                f"{sorted(self.values)}"
            )
        return self.values[name]


class Stage(ABC):
    """One named, cacheable, resumable step of a :class:`Pipeline`.

    Class attributes
    ----------------
    name:
        Unique stage identifier (also the ``stage:<name>`` timing section
        and, for a stage that fans out, the ``--stage-backend <name>=...``
        CLI key).
    inputs / outputs:
        Context value names consumed / produced.  ``run`` must return a
        mapping with exactly the ``outputs`` keys.
    config_keys:
        Configuration entries that affect this stage's behaviour; part of
        the cache key.
    version:
        Bump when the stage's implementation changes behaviour, so stale
        disk checkpoints from older code are never reused.
    """

    name: str = "abstract"
    inputs: Tuple[str, ...] = ()
    outputs: Tuple[str, ...] = ()
    config_keys: Tuple[str, ...] = ()
    version: int = 1

    @abstractmethod
    def run(self, ctx: PipelineContext) -> Mapping[str, object]:
        """Execute the stage and return its declared outputs."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(name={self.name!r}, inputs={self.inputs}, "
            f"outputs={self.outputs})"
        )


@contextmanager
def stage_backend_scope(
    stage_backends: Optional[Mapping[str, Union[None, str, ExecutionBackend]]],
    n_jobs: Optional[int] = None,
) -> Iterator[Dict[str, ExecutionBackend]]:
    """Resolve a ``{stage name: backend spec}`` mapping for one pipeline run.

    Backend *names* are resolved to fresh instances whose pooled workers are
    released when the scope exits; caller-supplied
    :class:`~repro.parallel.ExecutionBackend` instances pass through
    untouched and stay open (mirroring
    :func:`repro.parallel.backend_scope`).
    """
    resolved: Dict[str, ExecutionBackend] = {}
    owned = []
    try:
        for stage_name, spec in (stage_backends or {}).items():
            backend = resolve_backend(spec, None if isinstance(spec, ExecutionBackend) else n_jobs)
            resolved[str(stage_name)] = backend
            if backend is not spec:
                owned.append(backend)
        yield resolved
    finally:
        for backend in owned:
            backend.close()
