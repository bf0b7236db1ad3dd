"""Content fingerprints for pipeline seed values and configuration.

Stage cache keys are chained (see :meth:`repro.pipeline.Pipeline.stage_key`):
a value an earlier stage produced enters its consumer's key as the
producer's key, so only the seed inputs and config entries are hashed here.
Fingerprints must therefore be

* **content-addressed** — two equal values hash equally no matter how they
  were produced (an ndarray loaded from disk fingerprints like the freshly
  computed one);
* **stable across processes** — a disk cache written by one session must be
  hit by the next, so nothing here may depend on ``id()``, ``hash()``
  randomisation, or set iteration order.

NumPy arrays hash their dtype, shape, and raw bytes; generators hash their
bit-generator state; dataclasses, dicts, and sequences recurse.  Anything
else falls back to its pickle bytes — deterministic for the plain
array/dict/list compositions passed in as seeds and config (none of them
contain sets).
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import fields, is_dataclass

import numpy as np


def fingerprint(value: object) -> str:
    """Return a stable hex digest of ``value``'s content."""
    digest = hashlib.sha256()
    _feed(digest, value)
    return digest.hexdigest()


def _json_default(value: object) -> object:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


def _feed(digest: "hashlib._Hash", value: object) -> None:
    if value is None:
        digest.update(b"none;")
    elif isinstance(value, np.ndarray):
        digest.update(f"ndarray:{value.dtype.str}:{value.shape};".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, np.random.Generator):
        # The bit-generator state pins the exact stream position, so a
        # generator fingerprints differently after every draw — which is
        # precisely what keeps cached stochastic stages honest.
        digest.update(b"rng;")
        digest.update(
            json.dumps(
                value.bit_generator.state, sort_keys=True, default=_json_default
            ).encode()
        )
    elif isinstance(value, (bool, np.bool_)):
        digest.update(f"bool:{bool(value)};".encode())
    elif isinstance(value, (int, np.integer)):
        digest.update(f"int:{int(value)};".encode())
    elif isinstance(value, (float, np.floating)):
        # repr round-trips doubles exactly (shortest-repr guarantee).
        digest.update(f"float:{float(value)!r};".encode())
    elif isinstance(value, str):
        digest.update(b"str;")
        digest.update(value.encode())
        digest.update(b";")
    elif isinstance(value, bytes):
        digest.update(b"bytes;")
        digest.update(value)
        digest.update(b";")
    elif is_dataclass(value) and not isinstance(value, type):
        digest.update(f"dataclass:{type(value).__qualname__};".encode())
        for field in fields(value):
            digest.update(field.name.encode() + b"=")
            _feed(digest, getattr(value, field.name))
    elif isinstance(value, dict):
        digest.update(f"dict:{len(value)};".encode())
        for key in sorted(value, key=repr):
            _feed(digest, key)
            digest.update(b"->")
            _feed(digest, value[key])
    elif isinstance(value, (list, tuple)):
        digest.update(f"{type(value).__name__}:{len(value)};".encode())
        for item in value:
            _feed(digest, item)
            digest.update(b",")
    else:
        digest.update(f"pickle:{type(value).__qualname__};".encode())
        digest.update(pickle.dumps(value, protocol=4))
