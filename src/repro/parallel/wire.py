"""JSON-safe wire encoding for :class:`~repro.parallel.backends.JobOutcome`.

The distributed worker service (:mod:`repro.distributed`) returns job
outcomes over HTTP, so outcomes need a representation that is

* **JSON + binary-safe** — ndarrays and bytes travel base64-encoded with
  their dtype/shape, so a ``float64`` result decodes bit-identical on the
  coordinator;
* **exception-preserving** — the PR 7 fault-tolerance machinery keys on
  exception *types* (:class:`~repro.parallel.retry.JobTimeoutError`,
  :class:`~repro.parallel.retry.WorkerCrashError`, ...), so a captured
  exception must round-trip as the same class whenever that class is in
  the allowlist below, and degrade to :class:`RemoteJobError` otherwise
  (never to a silent string);
* **self-describing** — every value is a tagged node
  (``{"t": "ndarray", ...}``), so nested containers reconstruct with list
  vs tuple identity preserved.

Values the tagged codec does not model natively (library dataclasses like
``BenchmarkResult``, graphs, generators) fall back to pickled bytes.  That
is a deliberate trust boundary: the worker protocol ships *data* between
cooperating processes of one deployment — like the on-disk stage cache —
while *callables* are never shipped at all (workers only execute functions
from their registered dispatch table, see
:mod:`repro.distributed.registry`).
"""

from __future__ import annotations

import base64
import json
import math
import pickle
from typing import Any, Dict, Optional

import numpy as np

from repro.exceptions import ParallelExecutionError, ValidationError


class RemoteJobError(ParallelExecutionError):
    """A remote failure whose exception class is not in the wire allowlist.

    Carries the original ``"ExcType: message"`` text, so nothing is lost —
    only the concrete class, which the coordinator could not have imported
    safely anyway.
    """


#: Lazily-built ``{class name: class}`` allowlist for exception decoding.
_EXCEPTION_TYPES: Optional[Dict[str, type]] = None


def _exception_types() -> Dict[str, type]:
    """Exception classes a decoded outcome may reconstruct.

    Builtins plus every :class:`~repro.exceptions.ReproError` subclass the
    library defines (including the retry/chaos signal types) — imported
    lazily so this module stays cheap and cycle-free to import.
    """
    global _EXCEPTION_TYPES
    if _EXCEPTION_TYPES is not None:
        return _EXCEPTION_TYPES
    registry: Dict[str, type] = {}

    import builtins

    for name in dir(builtins):
        obj = getattr(builtins, name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            registry[name] = obj

    def _scan(module) -> None:
        for name in dir(module):
            obj = getattr(module, name)
            if isinstance(obj, type) and issubclass(obj, BaseException):
                registry[name] = obj

    import repro.exceptions

    _scan(repro.exceptions)
    import repro.parallel.retry

    _scan(repro.parallel.retry)
    try:
        import repro.parallel.chaos

        _scan(repro.parallel.chaos)
    except Exception:  # noqa: BLE001 - chaos is optional for decoding
        pass
    registry["RemoteJobError"] = RemoteJobError
    _EXCEPTION_TYPES = registry
    return registry


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


def encode_value(value: Any) -> Dict[str, Any]:
    """Encode one value as a tagged, JSON-serialisable node."""
    if value is None:
        return {"t": "none"}
    if isinstance(value, (bool, int, float, str)) and not isinstance(
        value, np.generic
    ):
        return {"t": "json", "v": value}
    if isinstance(value, np.ndarray) and value.dtype != object:
        contiguous = np.ascontiguousarray(value)
        return {
            "t": "ndarray",
            "dtype": contiguous.dtype.str,
            "shape": [int(size) for size in contiguous.shape],
            "data": _b64(contiguous.tobytes()),
        }
    if isinstance(value, np.generic):
        return {"t": "npscalar", "dtype": value.dtype.str, "data": _b64(value.tobytes())}
    if isinstance(value, bytes):
        return {"t": "bytes", "data": _b64(value)}
    if isinstance(value, (list, tuple)) and type(value) in (list, tuple):
        return {
            "t": type(value).__name__,
            "items": [encode_value(item) for item in value],
        }
    if isinstance(value, dict) and type(value) is dict and all(
        isinstance(key, str) for key in value
    ):
        return {
            "t": "dict",
            "items": {key: encode_value(item) for key, item in value.items()},
        }
    # Library dataclasses, graphs, generators, namedtuples, non-str-keyed
    # dicts: pickled bytes (data-only trust boundary, see module docs).
    return {"t": "pickle", "data": _b64(pickle.dumps(value, protocol=4))}


def decode_value(node: Dict[str, Any]) -> Any:
    """Inverse of :func:`encode_value`.

    A malformed node raises :class:`~repro.exceptions.ValidationError`
    naming the node's tag and what is wrong with it.
    """
    tag = node.get("t") if isinstance(node, dict) else None
    try:
        return _decode_node(tag, node)
    except ValidationError:
        raise
    except Exception as exc:  # noqa: BLE001 - NumPy, base64 and pickle fail many ways
        raise ValidationError(
            f"malformed {tag!r} wire value: {type(exc).__name__}: {exc}"
        ) from exc


def _decode_node(tag: Any, node: Dict[str, Any]) -> Any:
    if tag == "none":
        return None
    if tag == "json":
        return node["v"]
    if tag == "ndarray":
        dtype = np.dtype(node["dtype"])
        shape = [int(size) for size in node["shape"]]
        raw = _unb64(node["data"])
        if len(raw) != dtype.itemsize * math.prod(shape):
            raise ValidationError(
                f"ndarray 'data' holds {len(raw)} bytes, which do not fit "
                f"dtype {dtype.str} and shape {shape}"
            )
        # frombuffer views the (read-only) bytes; copy to a writable array.
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
    if tag == "npscalar":
        return np.frombuffer(_unb64(node["data"]), dtype=np.dtype(node["dtype"]))[0]
    if tag == "bytes":
        return _unb64(node["data"])
    if tag == "list":
        return [decode_value(item) for item in node["items"]]
    if tag == "tuple":
        return tuple(decode_value(item) for item in node["items"])
    if tag == "dict":
        return {key: decode_value(item) for key, item in node["items"].items()}
    if tag == "pickle":
        return pickle.loads(_unb64(node["data"]))
    raise ValidationError(f"unknown wire tag {tag!r}")


def encode_exception(exc: BaseException) -> Dict[str, str]:
    """Encode a captured exception as ``{"type", "message"}``."""
    return {"type": type(exc).__name__, "message": str(exc)}


def decode_exception(node: Dict[str, str]) -> BaseException:
    """Reconstruct an exception, degrading to :class:`RemoteJobError`.

    Only classes in the allowlist are instantiated; anything else (or a
    class whose constructor rejects a single message argument) becomes a
    :class:`RemoteJobError` carrying the original type and message.
    """
    type_name = str(node.get("type", "Exception"))
    message = str(node.get("message", ""))
    cls = _exception_types().get(type_name)
    if cls is not None:
        try:
            return cls(message)
        except Exception:  # noqa: BLE001 - exotic constructor signature
            pass
    return RemoteJobError(f"{type_name}: {message}")


def encode_outcome(outcome) -> Dict[str, Any]:
    """Encode one :class:`~repro.parallel.backends.JobOutcome` for the wire."""
    return {
        "index": int(outcome.index),
        "value": encode_value(outcome.value),
        "error": outcome.error,
        "exception": (
            None if outcome.exception is None else encode_exception(outcome.exception)
        ),
        "traceback": outcome.traceback,
        "duration_seconds": float(outcome.duration_seconds),
        "attempts": int(outcome.attempts),
        "retried": bool(outcome.retried),
        "timed_out": bool(outcome.timed_out),
    }


def _field(node: Dict[str, Any], key: str, kinds: tuple, default: Any = None) -> Any:
    """``node[key]``, checked to be one of ``kinds`` and, if an int, >= 0."""
    value = node.get(key, default)
    if (
        not isinstance(value, kinds)
        or (isinstance(value, bool) and bool not in kinds)
        or (isinstance(value, int) and value < 0)
    ):
        raise ValidationError(f"outcome field {key!r} is missing or invalid: {value!r:.80}")
    return value


def decode_outcome(node: Dict[str, Any]):
    """Inverse of :func:`encode_outcome` (returns a ``JobOutcome``).

    A malformed payload raises :class:`~repro.exceptions.ValidationError`
    naming the field at fault.
    """
    from repro.parallel.backends import JobOutcome

    if not isinstance(node, dict):
        raise ValidationError(
            f"an outcome payload must be a JSON object, got {type(node).__name__}"
        )
    error = _field(node, "error", (str, type(None)))
    exception = _field(node, "exception", (dict, type(None)))
    if exception is not None:
        exception = decode_exception(exception)
    elif error is not None:
        # A failed outcome must stay unwrap-able even when the worker could
        # not encode the exception itself.
        exception = RemoteJobError(error)
    try:
        value = decode_value(node.get("value", {"t": "none"}))
    except ValidationError as exc:
        raise ValidationError(f"outcome field 'value': {exc}") from exc
    return JobOutcome(
        index=_field(node, "index", (int,)),
        value=value,
        error=error,
        exception=exception,
        traceback=_field(node, "traceback", (str, type(None))),
        duration_seconds=float(_field(node, "duration_seconds", (int, float), 0.0)),
        attempts=_field(node, "attempts", (int,), 1),
        retried=_field(node, "retried", (bool,), False),
        timed_out=_field(node, "timed_out", (bool,), False),
    )


def json_dumps_outcomes(outcomes) -> str:
    """Serialise a sequence of outcomes as one JSON document."""
    return json.dumps({"outcomes": [encode_outcome(outcome) for outcome in outcomes]})
