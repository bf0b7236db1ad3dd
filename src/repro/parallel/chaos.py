"""Deterministic fault injection for :class:`ExecutionBackend` fan-outs.

:class:`ChaosBackend` wraps any real backend and injects faults into jobs
according to a seeded :class:`ChaosPlan` — the same plan always hits the
same job indices with the same faults, so every recovery path in
:mod:`repro.parallel.backends` (retry, chunk bisection, pool rebuild,
timeout watchdogs, fallback demotion) is driven by ordinary, reproducible
tests instead of flaky hardware.

Fault kinds:

* ``raise`` — the job raises :class:`ChaosError` (retryable failure);
* ``delay`` — the job sleeps ``delay_seconds`` before running (exercises
  timeouts without killing anything);
* ``hang`` — the job sleeps ``hang_seconds`` (a stand-in for "forever":
  long enough that only a timeout watchdog ends the attempt);
* ``kill`` — the job calls ``os._exit`` inside its worker **process**,
  breaking the pool; in a distributed worker *service* (which marks itself
  via :data:`WORKER_PROCESS_ENV`) the whole service dies mid-request, the
  same signal as a SIGKILLed machine (downgraded to ``raise`` when the job
  is not running in any worker process, so a serial/thread backend — e.g.
  after a fallback demotion — is never killed);
* ``drop_result`` — the job raises :class:`ChaosDroppedResult`, which a
  distributed worker recognises and answers 200 with the outcome
  *omitted* — a result lost in flight (a plain retryable failure on a
  local backend).

Each fault fires on the **first attempt only** (exactly-once arming via
``O_CREAT | O_EXCL`` token files, which works across process boundaries),
so a retried job succeeds and recovery is observable end-to-end.  Set
``persistent=True`` on the plan to fire on every attempt instead —
that is how retry *exhaustion* and pool-rebuild bounds are tested.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence

from repro.exceptions import ParallelExecutionError, ValidationError
from repro.parallel.backends import (
    ExecutionBackend,
    JobOutcome,
    OnResult,
)
from repro.parallel.retry import RetryPolicy


class ChaosError(ParallelExecutionError):
    """The failure raised by an injected ``raise`` fault."""


class ChaosDroppedResult(ChaosError):
    """The failure raised by a ``drop_result`` fault.

    A distinct subclass so the distributed worker service can recognise it
    and *omit* the job's outcome from its HTTP response entirely — the
    coordinator then sees a 200 with a missing result, exactly the
    lost-in-flight shape the fault models.  For local backends it behaves
    like any other retryable :class:`ChaosError`.
    """


#: Dispatch priority when one index appears in several fault sets.
_FAULT_KINDS = ("kill", "hang", "drop_result", "raise", "delay")


@dataclass(frozen=True)
class ChaosPlan:
    """A frozen, seeded assignment of faults to job indices.

    Build one explicitly (``ChaosPlan(kills=frozenset({3}))``) or with
    :meth:`scatter`, which samples disjoint victim indices from a seeded
    RNG — no wall-clock randomness, ever.
    """

    raises: FrozenSet[int] = field(default_factory=frozenset)
    delays: FrozenSet[int] = field(default_factory=frozenset)
    hangs: FrozenSet[int] = field(default_factory=frozenset)
    kills: FrozenSet[int] = field(default_factory=frozenset)
    drop_results: FrozenSet[int] = field(default_factory=frozenset)
    delay_seconds: float = 0.05
    hang_seconds: float = 30.0
    #: ``False`` (default): each fault fires on the victim's first attempt
    #: only, so retries recover.  ``True``: the fault fires on every
    #: attempt — for testing exhaustion bounds.
    persistent: bool = False

    def __post_init__(self) -> None:
        for name in ("raises", "delays", "hangs", "kills", "drop_results"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if float(self.delay_seconds) < 0 or float(self.hang_seconds) < 0:
            raise ValidationError("delay_seconds/hang_seconds must be >= 0")

    @classmethod
    def scatter(
        cls,
        n_jobs: int,
        *,
        kills: int = 0,
        hangs: int = 0,
        raises: int = 0,
        delays: int = 0,
        drop_results: int = 0,
        seed: int = 0,
        delay_seconds: float = 0.05,
        hang_seconds: float = 30.0,
        persistent: bool = False,
    ) -> "ChaosPlan":
        """Sample disjoint victim indices for each fault kind, seeded."""
        wanted = kills + hangs + raises + delays + drop_results
        if wanted > int(n_jobs):
            raise ValidationError(
                f"cannot scatter {wanted} faults over {n_jobs} jobs"
            )
        victims = Random(int(seed)).sample(range(int(n_jobs)), wanted)
        cursor = iter(victims)
        take = lambda count: frozenset(next(cursor) for _ in range(count))  # noqa: E731
        return cls(
            kills=take(kills),
            hangs=take(hangs),
            raises=take(raises),
            delays=take(delays),
            drop_results=take(drop_results),
            delay_seconds=delay_seconds,
            hang_seconds=hang_seconds,
            persistent=persistent,
        )

    def fault_for(self, index: int) -> Optional[str]:
        """The fault kind injected into job ``index``, if any."""
        for kind, members in (
            ("kill", self.kills),
            ("hang", self.hangs),
            ("drop_result", self.drop_results),
            ("raise", self.raises),
            ("delay", self.delays),
        ):
            if index in members:
                return kind
        return None

    @property
    def n_faults(self) -> int:
        """Distinct job indices with a fault assigned."""
        return len(
            self.kills | self.hangs | self.drop_results | self.raises | self.delays
        )


def _arm(token: Optional[str]) -> bool:
    """Claim a fault's one firing; exactly-once across process boundaries.

    The token is a filesystem path created with ``O_CREAT | O_EXCL``: the
    first process (or attempt) to create it wins and fires the fault, every
    later attempt sees ``FileExistsError`` and runs the job cleanly.
    ``None`` (persistent plans) always fires.
    """
    if token is None:
        return True
    try:
        fd = os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    except OSError:
        return True  # token dir vanished mid-fan-out: best effort, fire
    os.close(fd)
    return True


#: Environment flag a distributed worker *service* process sets on startup
#: (see ``graphint worker``): the process is sacrificial, so a ``kill``
#: fault may ``os._exit`` it even though it is not a multiprocessing child.
WORKER_PROCESS_ENV = "REPRO_WORKER_PROCESS"


def _in_worker_process() -> bool:
    """Whether the current process may be killed by a ``kill`` fault.

    True for multiprocessing children (process-pool workers) and for
    processes that declared themselves sacrificial via
    :data:`WORKER_PROCESS_ENV` (distributed worker services, which are
    plain top-level processes, not multiprocessing children).
    """
    if os.environ.get(WORKER_PROCESS_ENV) == "1":
        return True
    try:
        import multiprocessing

        return multiprocessing.parent_process() is not None
    except Exception:  # noqa: BLE001 - conservative: assume coordinator
        return False


@dataclass(frozen=True)
class _ChaosJob:
    """Picklable wrapper pairing one job with its (optional) fault.

    A frozen dataclass so the data plane's payload walk
    (:meth:`repro.distributed.StageDataPlane.stash`) still reaches the
    wrapped ``job`` payload and offloads its arrays.
    """

    fault: Optional[str]
    seconds: float
    token: Optional[str]
    job: Any


class _ChaosRunner:
    """Picklable job-function wrapper that fires the armed fault, then runs."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn

    def __call__(self, wrapped: _ChaosJob) -> Any:
        fault = wrapped.fault
        if fault is not None and _arm(wrapped.token):
            if fault == "kill":
                if _in_worker_process():
                    os._exit(17)
                # Not in a worker (serial/thread backend, or a demoted
                # fallback member): killing here would take down the
                # coordinator — degrade to a retryable failure.
                raise ChaosError("injected kill (no worker process to kill)")
            if fault == "hang":
                time.sleep(wrapped.seconds)
                raise ChaosError(
                    f"injected hang outlived its {wrapped.seconds} s stand-in"
                )
            if fault == "raise":
                raise ChaosError("injected failure")
            if fault == "delay":
                time.sleep(wrapped.seconds)
            elif fault == "drop_result":
                # Recognisable by the distributed worker service, which
                # omits the outcome from its response instead of failing it.
                raise ChaosDroppedResult("injected result drop")
        return self.fn(wrapped.job)


class ChaosBackend(ExecutionBackend):
    """Wrap a real backend, injecting the plan's faults into its jobs.

    Everything else — ordered results, error capture, retry policy,
    counters — is the inner backend's; the wrapper only decorates jobs on
    the way in.  ``close()`` closes the inner backend.
    """

    name = "chaos"

    def __init__(self, inner: ExecutionBackend, plan: ChaosPlan) -> None:
        if not isinstance(inner, ExecutionBackend):
            raise ValidationError(
                f"inner must be an ExecutionBackend, got {type(inner).__name__}"
            )
        if not isinstance(plan, ChaosPlan):
            raise ValidationError(
                f"plan must be a ChaosPlan, got {type(plan).__name__}"
            )
        self.inner = inner
        self.plan = plan
        #: Structured log of the faults this wrapper wired up, per fan-out.
        self.injections: List[Dict[str, object]] = []

    # Counters proxy to the inner backend so pipelines instrument the chaos
    # run exactly like a plain one.
    @property
    def bytes_shipped(self) -> int:  # type: ignore[override]
        return int(getattr(self.inner, "bytes_shipped", 0))

    @property
    def attempts(self) -> int:  # type: ignore[override]
        return int(getattr(self.inner, "attempts", 0))

    @property
    def timeouts(self) -> int:  # type: ignore[override]
        return int(getattr(self.inner, "timeouts", 0))

    @property
    def pool_rebuilds(self) -> int:  # type: ignore[override]
        return int(getattr(self.inner, "pool_rebuilds", 0))

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
        tokens_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        wrapped: List[_ChaosJob] = []
        for index, job in enumerate(jobs):
            fault = self.plan.fault_for(index)
            token = (
                None
                if fault is None or self.plan.persistent
                else os.path.join(tokens_dir, f"job-{index}.token")
            )
            seconds = (
                self.plan.hang_seconds
                if fault == "hang"
                else self.plan.delay_seconds
            )
            if fault is not None:
                self.injections.append(
                    {"index": index, "fault": fault, "persistent": self.plan.persistent}
                )
            wrapped.append(_ChaosJob(fault=fault, seconds=seconds, token=token, job=job))
        policy = retry if retry is not None else self.retry
        kwargs: Dict[str, Any] = {"on_result": on_result}
        if policy is not None:
            kwargs["retry"] = policy
        try:
            return self.inner.map_jobs(_ChaosRunner(fn), wrapped, **kwargs)
        finally:
            shutil.rmtree(tokens_dir, ignore_errors=True)

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ChaosBackend(inner={self.inner!r}, faults={self.plan.n_faults})"
