"""Distributed execution: HTTP worker services + a coordinator backend.

The package splits the fan-out contract of
:class:`~repro.parallel.backends.ExecutionBackend` across machines:

* :mod:`repro.distributed.worker` — the worker service (``graphint
  worker``): ``POST /jobs`` chunks against a registered-function dispatch
  table, ``GET /healthz``/``/metrics``, ``POST /shutdown``.
* :mod:`repro.distributed.backend` — :class:`DistributedBackend`, the
  coordinator: ordered results, per-job error capture, quarantine/bisect
  crash recovery and ``WorkerPoolExhausted`` demotion, all from the process
  backend's chunk scheduler, so retry policies and fallback chains
  transfer as-is.
* :mod:`repro.distributed.registry` — the safe dispatch table (names over
  the wire, never pickled callables).
* :mod:`repro.distributed.stagecache` — :class:`StageDataPlane`, the
  stage cache as a data plane: large arrays travel as content
  fingerprints resolved against a shared directory.

Resolve one anywhere a backend is accepted::

    resolve_backend("distributed:127.0.0.1:8101,127.0.0.1:8102@/tmp/plane")
"""

# Exports resolve lazily (PEP 562): the library's hot modules
# (kgraph_stages, distances, runner, ...) import
# ``repro.distributed.registry`` at their bottom to self-register their
# fan-out functions, which executes this package __init__ first — an eager
# import of backend/worker here would close a cycle straight back into
# those modules.  The registry stays import-light by design; everything
# else loads on first attribute access.
_EXPORTS = {
    "DistributedBackend": "repro.distributed.backend",
    "DEFAULT_REQUEST_TIMEOUT": "repro.distributed.backend",
    "DEFAULT_PROBE_TIMEOUT": "repro.distributed.backend",
    "canonical_name": "repro.distributed.registry",
    "register_worker_function": "repro.distributed.registry",
    "registered_function_names": "repro.distributed.registry",
    "resolve_worker_function": "repro.distributed.registry",
    "worker_function_name": "repro.distributed.registry",
    "load_default_worker_functions": "repro.distributed.registry",
    "StageDataPlane": "repro.distributed.stagecache",
    "PlaneArrayRef": "repro.distributed.stagecache",
    "PlaneMissError": "repro.distributed.stagecache",
    "DEFAULT_MIN_PLANE_BYTES": "repro.distributed.stagecache",
    "WorkerApplication": "repro.distributed.worker",
    "serve_worker": "repro.distributed.worker",
    "WORKER_PROCESS_ENV": "repro.distributed.worker",
    "DEFAULT_MAX_CHUNK_JOBS": "repro.distributed.worker",
}


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.distributed' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [
    "DistributedBackend",
    "DEFAULT_REQUEST_TIMEOUT",
    "DEFAULT_PROBE_TIMEOUT",
    "canonical_name",
    "register_worker_function",
    "registered_function_names",
    "resolve_worker_function",
    "worker_function_name",
    "load_default_worker_functions",
    "StageDataPlane",
    "PlaneArrayRef",
    "PlaneMissError",
    "DEFAULT_MIN_PLANE_BYTES",
    "WorkerApplication",
    "serve_worker",
    "WORKER_PROCESS_ENV",
    "DEFAULT_MAX_CHUNK_JOBS",
]
