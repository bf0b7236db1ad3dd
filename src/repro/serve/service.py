"""Online model-serving JSON API on top of the registry and engine.

Routes (all JSON):

* ``GET  /healthz``                      — liveness + registry/engine stats
  (per engine: requests, predictions, batches, ``mean_batch_size`` and
  ``flush_reasons`` — ``size``, ``idle`` or ``drain``, see
  :meth:`~repro.serve.engine.InferenceEngine.stats`)
* ``GET  /models``                       — every published model
* ``GET  /models/<dataset>``             — versions of one dataset
* ``GET  /models/<dataset>/<model_id>``  — record + full manifest
* ``POST /predict``                      — body ``{"series": [...] | [[...]],
  "dataset": "...", "model_id": "..."}``; ``dataset`` may be omitted when
  the registry holds exactly one, ``model_id`` defaults to the latest.

The service reuses the dashboard's HTTP plumbing
(:func:`repro.viz.server.serve_application`): it is a plain object with a
``handle_request`` method, so tests can drive it without sockets and the
CLI can mount it next to the dashboard (:class:`CombinedApplication`).
Predictions go through one :class:`~repro.serve.engine.InferenceEngine`
per served model, so concurrent HTTP requests coalesce into micro-batches:
a lone request is dispatched at once, and requests that arrive while a
batch runs leave together in the next one.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import (
    ArtifactError,
    ModelNotFoundError,
    ServiceError,
    ServiceFaultError,
    ServiceOverloadError,
    ValidationError,
)
from repro.parallel import ExecutionBackend, resolve_backend
from repro.serve.artifacts import ARTIFACT_SCHEMA_VERSION
from repro.serve.engine import InferenceEngine
from repro.serve.registry import ModelRegistry
from repro.viz.server import Response, json_error, serve_application

#: Routes advertised by 404 responses and /healthz.
ROUTES = ["/healthz", "/models", "/models/<dataset>", "/models/<dataset>/<model_id>", "/predict"]


def _decode_series(value) -> np.ndarray:
    """The ``series`` field as floats: one series, or a list of series.

    Every element must be a JSON number.  ``np.asarray(..., dtype=float)``
    alone would turn ``"1"`` and ``true`` into 1.0, so each row's element
    types are checked first (``type(True)`` is ``bool``, not ``int``).
    """
    nested = isinstance(value, list) and bool(value) and isinstance(value[0], list)
    for row in value if nested else [value]:
        if not isinstance(row, list) or not set(map(type, row)) <= {float, int}:
            raise ValidationError(
                '"series" must be a list of numbers (one series) or a list '
                "of lists of numbers (several series)"
            )
    try:
        return np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        # Rows of different lengths, or an integer beyond float range.
        raise ValidationError(f'"series" must be numeric: {exc}') from None


class ServeApplication:
    """Request router of the model-serving API.

    Parameters
    ----------
    registry:
        The :class:`ModelRegistry` to serve models from.
    max_batch_size, backend, n_jobs:
        Forwarded to the per-model :class:`InferenceEngine`\\ s, which
        batch work-conservingly: each dispatches whatever is queued (up to
        ``max_batch_size``) as soon as it is free.  Validated eagerly so a
        misconfigured server fails at startup, not on the first client
        request.
    max_engines:
        Maximum number of live engines; the least recently used engine is
        closed and evicted when the bound is exceeded, so a long-running
        server with many published versions cannot accumulate threads and
        resident models without bound.
    request_timeout:
        Seconds one /predict request may wait (queueing + dispatch) before
        it fails with a 503; bounds the damage of a hung backend.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        max_batch_size: int = 32,
        backend: Union[None, str, ExecutionBackend] = None,
        n_jobs: Optional[int] = None,
        max_engines: int = 8,
        request_timeout: float = 30.0,
    ) -> None:
        if int(max_batch_size) < 1:
            raise ValidationError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if int(max_engines) < 1:
            raise ValidationError(f"max_engines must be >= 1, got {max_engines}")
        if float(request_timeout) <= 0:
            raise ValidationError(
                f"request_timeout must be > 0, got {request_timeout}"
            )
        self.registry = registry
        self.max_batch_size = int(max_batch_size)
        # Resolve once and share across engines: backends are lock-safe for
        # multi-threaded use, and one pool beats max_engines separate pools.
        self.backend = resolve_backend(backend, n_jobs)
        self._owns_backend = self.backend is not backend
        self.max_engines = int(max_engines)
        self.request_timeout = float(request_timeout)
        self._engines: "OrderedDict[Tuple[str, str], InferenceEngine]" = OrderedDict()
        self._lock = threading.Lock()
        self._closed = False
        self._started_unix = time.time()
        # dataset -> (resolved latest model_id, expiry), plus the resolved
        # dataset list; keeps per-request directory walks off the /predict
        # hot path.
        self._latest_cache: dict = {}
        self._datasets_cache: Optional[Tuple[list, float]] = None
        self._latest_ttl = 1.0

    def _datasets(self) -> list:
        """TTL-cached ``registry.datasets()`` for the request hot path."""
        now = time.monotonic()
        with self._lock:
            cached = self._datasets_cache
            if cached is not None and cached[1] > now:
                return cached[0]
        datasets = self.registry.datasets()
        with self._lock:
            self._datasets_cache = (datasets, now + self._latest_ttl)
        return datasets

    def _latest_model_id(self, dataset: str) -> str:
        """TTL-cached ``registry.latest_model_id`` for the request hot path.

        A freshly published version is picked up within ``_latest_ttl``
        seconds; clients needing an exact version pass ``model_id``
        explicitly.
        """
        now = time.monotonic()
        with self._lock:
            cached = self._latest_cache.get(dataset)
            if cached is not None and cached[1] > now:
                return cached[0]
        model_id = self.registry.latest_model_id(dataset)
        with self._lock:
            self._latest_cache[dataset] = (model_id, now + self._latest_ttl)
        return model_id

    # ------------------------------------------------------------------ #
    def engine_for(self, dataset: str, model_id: Optional[str] = None) -> InferenceEngine:
        """Return (and cache) the inference engine of one served model."""
        return self.resolve_engine(dataset, model_id)[1]

    def resolve_engine(
        self, dataset: str, model_id: Optional[str] = None
    ) -> Tuple[str, InferenceEngine]:
        """Resolve ``model_id`` (None = latest) and return its cached engine.

        The version is resolved exactly once so the caller can report the
        model that actually served the request.  Model deserialisation runs
        *outside* the application lock — a cold multi-hundred-MB artifact
        must not stall /healthz or requests for already-warm models.
        """
        if model_id is None:
            model_id = self._latest_model_id(dataset)
        key = (dataset, model_id)
        with self._lock:
            if self._closed:
                raise ServiceError("the serving application is closed")
            engine = self._engines.get(key)
            if engine is not None:
                self._engines.move_to_end(key)
                return model_id, engine
        model = self.registry.fetch(dataset, model_id)
        built = InferenceEngine(
            model,
            max_batch_size=self.max_batch_size,
            backend=self.backend,
        )
        evicted: List[InferenceEngine] = []
        with self._lock:
            if self._closed:
                # close() ran while this engine was being built; it must not
                # outlive the application.
                winner = None
            else:
                winner = self._engines.setdefault(key, built)
                self._engines.move_to_end(key)
                while len(self._engines) > self.max_engines:
                    _, stale = self._engines.popitem(last=False)
                    evicted.append(stale)
        for stale in evicted:
            stale.close()
        if winner is None:
            built.close()
            raise ServiceError("the serving application is closed")
        if winner is not built:
            # Another thread warmed the same model concurrently; keep theirs.
            built.close()
        return model_id, winner

    def close(self) -> None:
        """Shut down every live engine (drains their queues)."""
        with self._lock:
            self._closed = True
            engines = list(self._engines.values())
            self._engines.clear()
        for engine in engines:
            engine.close()
        if self._owns_backend:
            self.backend.close()

    # ------------------------------------------------------------------ #
    def handle_request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Response:
        """Route one request to (status, content_type, body)."""
        route = path.split("?", 1)[0].rstrip("/") or "/"
        segments = [segment for segment in route.split("/") if segment]

        if route == "/healthz" or segments[:1] == ["models"]:
            if method != "GET":
                return json_error(
                    405, f"method {method} not allowed on {route}", allow=["GET"]
                )
            if route == "/healthz":
                return self._handle_healthz()
            return self._handle_models(segments[1:])
        if route == "/predict":
            if method != "POST":
                return json_error(
                    405, "use POST /predict with a JSON body", allow=["POST"]
                )
            return self._handle_predict(body)
        return json_error(404, f"unknown route {route!r}", routes=ROUTES)

    # ------------------------------------------------------------------ #
    def _handle_healthz(self) -> Response:
        with self._lock:
            engine_stats = {
                f"{dataset}/{model_id}": engine.stats()
                for (dataset, model_id), engine in self._engines.items()
            }
        payload = {
            "status": "ok",
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "uptime_seconds": time.time() - self._started_unix,
            # count_models only walks the directory layout (no manifest
            # reads) — liveness probes must stay cheap.
            "models": self.registry.count_models(),
            "cache": self.registry.cache_stats(),
            "engines": engine_stats,
        }
        return 200, "application/json", json.dumps(payload, indent=2)

    def _handle_models(self, segments) -> Response:
        try:
            if not segments:
                records = self.registry.list_models()
                payload = {"models": [record.to_dict() for record in records]}
            elif len(segments) == 1:
                records = self.registry.list_models(segments[0])
                if not records:
                    return json_error(
                        404,
                        f"no models for dataset {segments[0]!r}",
                        datasets=self.registry.datasets(),
                    )
                payload = {"models": [record.to_dict() for record in records]}
            elif len(segments) == 2:
                payload = self.registry.describe(segments[0], segments[1])
            else:
                return json_error(404, "use /models, /models/<dataset> or /models/<dataset>/<model_id>")
        except ModelNotFoundError as exc:
            return json_error(404, str(exc))
        except ArtifactError as exc:
            # The model is listed but its stored payload is unreadable —
            # that's server-side corruption, not a client error.
            return json_error(500, str(exc))
        except ValidationError as exc:
            return json_error(400, str(exc))
        return 200, "application/json", json.dumps(payload, indent=2)

    def _handle_predict(self, body: Optional[bytes]) -> Response:
        try:
            request = json.loads((body or b"").decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # ValueError: undecodable bytes, malformed JSON, or an integer
            # literal past the interpreter's digit limit.  RecursionError:
            # arrays nested deeper than the parser can follow.
            return json_error(400, f"request body must be valid JSON: {exc}")
        if not isinstance(request, dict) or "series" not in request:
            return json_error(
                400,
                'request body must be a JSON object with a "series" field '
                "(one series as a list of numbers, or several as a list of lists)",
            )
        for field in ("dataset", "model_id"):
            value = request.get(field)
            if value is not None and not isinstance(value, str):
                return json_error(
                    400, f'"{field}" must be a string, got {type(value).__name__}'
                )

        try:
            series = _decode_series(request["series"])
        except ValidationError as exc:
            return json_error(400, str(exc))
        single = series.ndim == 1

        try:
            dataset = request.get("dataset")
            if dataset is None:
                datasets = self._datasets()
                if len(datasets) == 1:
                    dataset = datasets[0]
                elif not datasets:
                    return json_error(
                        404, "the registry has no published models yet"
                    )
                else:
                    return json_error(
                        400,
                        'the registry serves several datasets; pass a "dataset" field',
                        datasets=datasets,
                    )
            for attempt in range(2):
                resolved_model_id, engine = self.resolve_engine(
                    dataset, request.get("model_id")
                )
                try:
                    if single:
                        predictions = np.asarray(
                            [engine.predict(series, timeout=self.request_timeout)]
                        )
                    else:
                        predictions = engine.predict_many(
                            series, timeout=self.request_timeout
                        )
                    break
                except ServiceError:
                    # The engine may have been LRU-evicted (and closed) between
                    # resolve and predict under heavy multi-model load; one
                    # re-resolve gets a fresh engine.
                    if attempt == 0 and engine.closed:
                        continue
                    raise
        except ModelNotFoundError as exc:
            return json_error(404, str(exc))
        except ArtifactError as exc:
            # Listed-but-unreadable artifact: server-side corruption, 5xx.
            return json_error(500, str(exc))
        except ValidationError as exc:
            return json_error(400, str(exc))
        except ServiceOverloadError as exc:
            # Load shedding, not breakage: 503 plus the engine's suggested
            # back-off, surfaced as a Retry-After header by the HTTP layer.
            return json_error(
                503, str(exc), retry_after=max(1, int(round(exc.retry_after)))
            )
        except ServiceFaultError as exc:
            # A real serving-side fault (dead worker, broken dispatch):
            # retrying blindly will not help, so this is a 500.
            return json_error(500, str(exc))
        except ServiceError as exc:
            # Residual service failures (e.g. a closed application/engine)
            # keep the historical 503 contract.
            return json_error(503, str(exc))

        payload = {
            "dataset": dataset,
            "model_id": resolved_model_id,
            "n_series": int(predictions.shape[0]),
            "predictions": [int(value) for value in predictions],
        }
        if single:
            payload["prediction"] = int(predictions[0])
        return 200, "application/json", json.dumps(payload)


class CombinedApplication:
    """Mounts the model-serving API next to the dashboard on one server.

    Serving routes (``/predict``, ``/models``, ``/healthz``) go to the
    :class:`ServeApplication`; everything else falls through to the
    dashboard, so ``repro serve --registry DIR`` upgrades the existing
    dashboard server instead of needing a second port.
    """

    def __init__(self, dashboard, serve_application_: ServeApplication) -> None:
        self.dashboard = dashboard
        self.serving = serve_application_

    def handle_request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Response:
        route = path.split("?", 1)[0].rstrip("/") or "/"
        head = route.split("/")[1] if route != "/" else ""
        if head in {"predict", "models", "healthz"}:
            return self.serving.handle_request(method, path, body)
        return self.dashboard.handle_request(method, path, body)

    def close(self) -> None:
        self.serving.close()


def serve_models(
    application: ServeApplication,
    *,
    host: str = "127.0.0.1",
    port: int = 8060,
    poll: bool = True,
    ready=None,
):
    """Start the model-serving HTTP server (dashboard plumbing underneath).

    ``port=0`` binds an ephemeral port; pass ``ready`` to receive the
    configured server (and its ``server_port``) before serving begins.
    """
    return serve_application(
        application, host=host, port=port, poll=poll, ready=ready
    )
