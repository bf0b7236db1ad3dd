"""Retry, timeout and deadline policy for :meth:`ExecutionBackend.map_jobs`.

A :class:`RetryPolicy` is a frozen, picklable description of how a fan-out
should behave under failure:

* ``max_attempts`` bounds how many times one job may be dispatched;
* ``backoff`` / ``backoff_multiplier`` / ``jitter`` shape the delay between
  a job's attempts — the jitter is drawn from a :func:`random.Random`
  seeded by ``(seed, job index, attempt)``, so the schedule is a pure
  function of the policy and never of wall-clock randomness;
* ``retryable`` filters which exceptions are worth retrying (``None``
  retries everything, including :class:`JobTimeoutError`);
* ``timeout`` bounds one attempt of one job, ``deadline`` bounds the whole
  fan-out — both enforced by the backends with watchdogs that *abandon*
  hung work and record ``timed_out`` outcomes instead of blocking forever;
* ``max_pool_rebuilds`` bounds how many times a process backend will
  replace a broken/hung worker pool before giving up (see
  :class:`WorkerPoolExhausted`).

Backends accept a policy per call (``map_jobs(..., retry=...)``) or as an
instance default (``resolve_backend(..., retry=...)``); ``None`` keeps the
historical single-attempt behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from repro.exceptions import ParallelExecutionError, ValidationError

#: Pool rebuilds allowed when no policy is supplied: worker-loss recovery
#: is always on (a killed worker must not poison a whole fan-out), only
#: *failure retries* are opt-in.
DEFAULT_MAX_POOL_REBUILDS = 2


class JobTimeoutError(ParallelExecutionError):
    """A job exceeded its per-attempt ``timeout`` or the fan-out ``deadline``."""


class WorkerCrashError(ParallelExecutionError):
    """A job, isolated to a single-job chunk, still killed its worker."""


class WorkerPoolExhausted(ParallelExecutionError):
    """The pool broke more than ``max_pool_rebuilds`` times in one fan-out.

    Outcomes carrying this exception are the demotion signal a
    :class:`~repro.parallel.backends.FallbackBackend` reacts to.
    """


@dataclass(frozen=True)
class RetryPolicy:
    """Frozen retry/timeout configuration for one fan-out (see module docs).

    Attributes
    ----------
    max_attempts:
        Dispatches allowed per job (``1`` = no retries).
    backoff:
        Base delay in seconds before a job's second attempt; ``0`` retries
        immediately.
    backoff_multiplier:
        Growth factor applied per additional attempt (exponential backoff).
    jitter:
        Fraction of the delay added as deterministic noise: the delay for
        attempt ``a`` of job ``i`` is
        ``backoff * multiplier**(a-1) * (1 + jitter * u)`` with
        ``u = Random(f"{seed}:{i}:{a}").random()``.
    seed:
        Seeds the jitter stream (no wall-clock randomness, ever).
    retryable:
        Predicate over the captured exception; ``None`` retries every
        failure.  Must be picklable only if the *policy* itself has to
        cross a process boundary (the backends keep it coordinator-side).
    timeout:
        Seconds one attempt of one job may run before it is abandoned with
        a ``timed_out`` outcome (chunked process dispatches get
        ``timeout * len(chunk)``).  The clock runs from when the attempt
        starts, not while it waits for a free worker.
    deadline:
        Seconds the whole ``map_jobs`` call may take; on expiry the
        remaining jobs are recorded as ``timed_out`` and the call returns.
    max_pool_rebuilds:
        Broken/hung worker pools replaced before the remaining jobs fail
        with :class:`WorkerPoolExhausted`.
    """

    max_attempts: int = 3
    backoff: float = 0.0
    backoff_multiplier: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    retryable: Optional[Callable[[BaseException], bool]] = None
    timeout: Optional[float] = None
    deadline: Optional[float] = None
    max_pool_rebuilds: int = DEFAULT_MAX_POOL_REBUILDS

    def __post_init__(self) -> None:
        if int(self.max_attempts) < 1:
            raise ValidationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        for name in ("backoff", "jitter"):
            if float(getattr(self, name)) < 0:
                raise ValidationError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if float(self.backoff_multiplier) < 1.0:
            raise ValidationError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        for name in ("timeout", "deadline"):
            value = getattr(self, name)
            if value is not None and float(value) <= 0:
                raise ValidationError(
                    f"{name} must be a positive number of seconds or None, "
                    f"got {value}"
                )
        if int(self.max_pool_rebuilds) < 0:
            raise ValidationError(
                f"max_pool_rebuilds must be >= 0, got {self.max_pool_rebuilds}"
            )

    # ------------------------------------------------------------------ #
    def should_retry(self, exception: Optional[BaseException], attempts: int) -> bool:
        """Whether a job that has failed ``attempts`` times gets another one."""
        if attempts >= int(self.max_attempts):
            return False
        if self.retryable is None:
            return True
        try:
            return bool(self.retryable(exception))
        except Exception:  # noqa: BLE001 - a broken predicate must not crash the fan-out
            return False

    def backoff_seconds(self, attempt: int, index: int = 0) -> float:
        """Deterministic delay before ``attempt`` (2-based) of job ``index``.

        A pure function of ``(policy, index, attempt)`` — calling it twice
        yields the same delay, which is what makes backoff schedules
        assertable in tests.
        """
        if float(self.backoff) <= 0 or attempt <= 1:
            return 0.0
        delay = float(self.backoff) * float(self.backoff_multiplier) ** (attempt - 2)
        if float(self.jitter) > 0:
            # String seeds hash through sha512, stable across processes and
            # Python versions (unlike tuple seeds, which Random rejects).
            stream = random.Random(f"{int(self.seed)}:{int(index)}:{int(attempt)}")
            delay *= 1.0 + float(self.jitter) * stream.random()
        return delay
