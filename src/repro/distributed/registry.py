"""The safe dispatch table distributed workers execute from.

A worker never unpickles a callable off the wire: the coordinator sends a
**name**, and the worker resolves it against this registry — functions the
library (or the user's own startup code) explicitly registered.  That is
the whole security model of the worker protocol: job *data* is trusted
within a deployment (like the on-disk stage cache), job *code* must already
be installed on the worker.

Functions register under their canonical ``module:qualname`` (or an
explicit name)::

    from repro.distributed import register_worker_function

    @register_worker_function
    def my_job(payload): ...

The library's own fan-out functions (campaign and grid cells, pipeline
stage jobs, ...) self-register at import time;
:func:`load_default_worker_functions` imports those modules so a freshly
started worker resolves every in-tree fan-out out of the box.

This module must stay import-light (stdlib + :mod:`repro.exceptions`
only): it is imported at the bottom of several hot modules to register
their job functions, and anything heavier would create import cycles.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional

from repro.exceptions import ValidationError

_TABLE: Dict[str, Callable] = {}
_LOCK = threading.Lock()
_DEFAULTS_LOADED = False

#: Modules whose import registers the library's standard worker functions.
_DEFAULT_MODULES = (
    "repro.distributed.functions",
    "repro.benchmark.runner",
    "repro.pipeline.kgraph_stages",
)


def canonical_name(fn: Callable) -> str:
    """The default registry name of ``fn``: ``module:qualname``."""
    return f"{fn.__module__}:{getattr(fn, '__qualname__', fn.__name__)}"


def register_worker_function(
    fn: Optional[Callable] = None, *, name: Optional[str] = None
) -> Callable:
    """Register ``fn`` for distributed dispatch (usable as a decorator).

    Registering a different function under an already-taken name is
    rejected; re-registering the same function is a no-op, so module
    reloads stay harmless.
    """
    if fn is None:
        return lambda actual: register_worker_function(actual, name=name)
    if not callable(fn):
        raise ValidationError(
            f"only callables can be registered as worker functions, got "
            f"{type(fn).__name__}"
        )
    key = name if name is not None else canonical_name(fn)
    with _LOCK:
        existing = _TABLE.get(key)
        if existing is not None and existing is not fn:
            raise ValidationError(
                f"worker function name {key!r} is already registered to a "
                "different callable"
            )
        _TABLE[key] = fn
    return fn


def load_default_worker_functions() -> None:
    """Import every module that self-registers library worker functions.

    Idempotent; called by worker services on startup and lazily by the
    lookup helpers, so both ends of the wire agree on the default table.
    """
    global _DEFAULTS_LOADED
    with _LOCK:
        if _DEFAULTS_LOADED:
            return
        _DEFAULTS_LOADED = True
    import importlib

    for module_name in _DEFAULT_MODULES:
        importlib.import_module(module_name)


def registered_function_names() -> List[str]:
    """Every resolvable function name, sorted (defaults included)."""
    load_default_worker_functions()
    with _LOCK:
        return sorted(_TABLE)


def resolve_worker_function(name: str) -> Callable:
    """Worker-side lookup: the callable registered under ``name``."""
    load_default_worker_functions()
    with _LOCK:
        fn = _TABLE.get(name)
    if fn is None:
        raise ValidationError(
            f"unknown worker function {name!r}; a worker only executes "
            "functions registered with register_worker_function (see "
            "repro.distributed.registry)"
        )
    return fn


def worker_function_name(fn: Callable) -> str:
    """Coordinator-side reverse lookup: the name workers resolve ``fn`` by."""
    if isinstance(fn, str):
        return fn
    load_default_worker_functions()
    key = canonical_name(fn)
    with _LOCK:
        if _TABLE.get(key) is fn:
            return key
        for name, registered in _TABLE.items():
            if registered is fn:
                return name
    raise ValidationError(
        f"{key} is not registered for distributed dispatch; register it "
        "with repro.distributed.register_worker_function so workers can "
        "resolve it by name"
    )
