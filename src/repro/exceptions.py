"""Exception hierarchy for the :mod:`repro` package.

All errors raised intentionally by the library derive from
:class:`ReproError`, so callers can catch library-specific failures with a
single ``except`` clause while still letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ValidationError(ReproError, ValueError):
    """Raised when user-supplied data or parameters are invalid."""


class ConfigError(ValidationError):
    """Raised when an estimator config payload is malformed.

    Covers schema-level problems of :mod:`repro.api` config objects —
    unknown or missing keys, unsupported config versions, failed version
    migrations — as opposed to *value* problems (an out-of-range field),
    which surface as plain :class:`ValidationError` from the shared
    validation helpers.  A subclass of :class:`ValidationError` so callers
    that treat "bad parameters" uniformly keep working.
    """


class NotFittedError(ReproError, RuntimeError):
    """Raised when a model method requiring a prior ``fit`` is called too early."""


class DatasetError(ReproError, ValueError):
    """Raised when a dataset cannot be generated, loaded, or parsed."""


class GraphConstructionError(ReproError, RuntimeError):
    """Raised when the graph embedding cannot be built for a dataset."""


class BenchmarkError(ReproError, RuntimeError):
    """Raised when a benchmark run is misconfigured or produced no results."""


class VisualizationError(ReproError, RuntimeError):
    """Raised when a frame or dashboard cannot be rendered."""


class ParallelExecutionError(ReproError, RuntimeError):
    """Raised when a parallel job fails and its original exception is lost.

    Backends keep the worker's exception object whenever it survives the
    trip back (always for serial/thread execution); this error is the
    fallback wrapper when only the formatted message is available.
    """


class PipelineError(ReproError, RuntimeError):
    """Raised when a stage pipeline is malformed or a stage misbehaves.

    Covers wiring problems detected before execution (a stage consuming a
    value no earlier stage produces, two stages producing the same value)
    and contract violations detected at run time (a stage returning outputs
    it did not declare).
    """


class ArtifactError(ReproError, RuntimeError):
    """Raised when a model artifact cannot be saved, loaded, or validated.

    Covers both on-disk format problems (missing files, corrupted payloads,
    unsupported schema versions) and registry-level failures (unknown
    dataset/model identifiers, publishing conflicts).
    """


class ModelNotFoundError(ArtifactError):
    """Raised when a requested (dataset, model) pair is not in a registry.

    A subclass of :class:`ArtifactError` so existing handlers keep working,
    but distinct so the HTTP layer can answer 404 for a genuinely absent
    model while reporting a *corrupt* stored artifact as a server-side 500.
    """


class ServiceError(ReproError, RuntimeError):
    """Raised when the online inference service cannot fulfil a request.

    Used for serving-side failures that are not the caller's fault —
    a closed engine, a dispatch timeout, a worker that died mid-batch.
    Client-side problems (malformed series, unknown models) surface as
    :class:`ValidationError` / :class:`ArtifactError` instead, so the HTTP
    layer can map them to 4xx responses.
    """


class ServiceOverloadError(ServiceError):
    """The service is alive but shedding load (queue full, dispatch timeout).

    Distinct from a real fault: the request is expected to succeed if
    retried after :attr:`retry_after` seconds, so the HTTP layer answers
    503 with a ``Retry-After`` header instead of a 500.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0) -> None:
        super().__init__(message)
        #: Suggested client back-off in seconds (the ``Retry-After`` value).
        self.retry_after = float(retry_after)


class ServiceFaultError(ServiceError):
    """A real serving-side fault (a worker died, a dispatch broke mid-batch).

    Unlike :class:`ServiceOverloadError`, retrying without operator
    attention is unlikely to help — the HTTP layer answers 500.
    """
