"""Pluggable parallel execution for the k-Graph pipeline and benchmarks.

Parallel execution
------------------
The paper's pipeline is embarrassingly parallel in two places: the M
per-length *graph embedding + graph clustering* stages of ``KGraph.fit``
(Figure 1 builds M independent graphs before the consensus step), and the
``methods x datasets x runs`` grid of a :class:`~repro.benchmark.runner.BenchmarkRunner`
campaign.  Both dispatch through one abstraction:

:class:`ExecutionBackend`
    ``map_jobs(fn, jobs)`` applies ``fn`` to each job and returns one
    :class:`JobOutcome` per job, **in submission order**, with per-job error
    capture and per-job wall-clock durations.

Four backends ship today:

* :class:`SerialBackend` — the default; zero overhead, identical behaviour
  to the pre-parallel code path.
* :class:`ThreadBackend` — a thread pool, the in-host parallel path:
  NumPy's kernels release the GIL and jobs ship no data at all.
* :class:`ProcessBackend` — a process pool with configurable ``chunk_size``,
  for isolation (crash recovery, chaos); requires module-level job
  functions and picklable jobs.
* :class:`~repro.distributed.DistributedBackend` — fans out over a pool of
  ``graphint worker`` HTTP services on more than one host; select with
  ``backend="distributed:HOST:PORT[,HOST:PORT...][@PLANE_DIR]"`` (see
  :mod:`repro.distributed`; outcomes travel through the JSON wire codec of
  :mod:`repro.parallel.wire`, large arrays through its stage data plane).

Every user-facing entry point threads the same two keywords down to
:func:`resolve_backend`::

    KGraph(n_clusters=3, n_jobs=4)                  # thread pool, 4 workers
    KGraph(n_clusters=3, backend="process")         # process pool, 1/CPU
    BenchmarkRunner([...], backend="thread", n_jobs=8)
    GraphintSession(dataset, n_jobs=4)

Determinism: jobs carry their own pre-spawned seeds/generators (see
:func:`repro.utils.rng.spawn_rng`), so for a fixed ``random_state`` the
labels, optimal length and benchmark measures are bit-identical across all
backends — parallelism changes wall-clock time, never results.

Fault tolerance: every backend accepts a :class:`RetryPolicy`
(``map_jobs(..., retry=...)`` or ``resolve_backend(..., retry=...)``) for
bounded retries with deterministic backoff, per-attempt timeouts and a
whole-fan-out deadline; every backend shares one chunk scheduler, which
applies the policy the same way everywhere and recovers the killed workers
of process and distributed pools by rebuilding the pool and bisecting the
implicated chunk until the poison job is isolated;
:class:`FallbackBackend`
(``resolve_backend(fallback=("process", "thread"))``) demotes to
the next backend when a pool's rebuild budget is exhausted, with
bit-identical results.  :class:`ChaosBackend` injects seeded faults
(raise/delay/hang/kill/drop-result) by :class:`ChaosPlan` to drive every
one of those paths deterministically in tests.

Extension points: subclass :class:`ExecutionBackend` and pass an instance as
``backend=`` to plug in future executors (asyncio, distributed schedulers,
GPU streams) without touching any call site.
"""

from repro.parallel.backends import (
    ExecutionBackend,
    FallbackBackend,
    JobOutcome,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    backend_scope,
    resolve_backend,
)
from repro.parallel.chaos import (
    ChaosBackend,
    ChaosDroppedResult,
    ChaosError,
    ChaosPlan,
)
from repro.parallel.retry import (
    DEFAULT_MAX_POOL_REBUILDS,
    JobTimeoutError,
    RetryPolicy,
    WorkerCrashError,
    WorkerPoolExhausted,
)
from repro.parallel.wire import RemoteJobError

__all__ = [
    "ChaosBackend",
    "ChaosDroppedResult",
    "ChaosError",
    "ChaosPlan",
    "DEFAULT_MAX_POOL_REBUILDS",
    "ExecutionBackend",
    "FallbackBackend",
    "JobOutcome",
    "JobTimeoutError",
    "ProcessBackend",
    "RemoteJobError",
    "RetryPolicy",
    "SerialBackend",
    "ThreadBackend",
    "WorkerCrashError",
    "WorkerPoolExhausted",
    "backend_scope",
    "resolve_backend",
]
