"""Interactive dashboard server (stdlib ``http.server``).

The Streamlit app's widgets are replaced by query parameters:

* ``/``                      — dashboard for the default dataset
* ``/?dataset=<name>``       — pick another catalogue dataset
* ``&lam=0.6&gam=0.7``       — graphoid colouring thresholds
* ``&node=12``               — selected node of the Graph frame
* ``&measure=nmi``           — Benchmark-frame measure
* ``/datasets``              — JSON list of available datasets
* ``/summary?dataset=<name>``— JSON session summary

Sessions are cached per (dataset, seed) so switching widgets does not refit
the models, mirroring Streamlit's ``@st.cache_resource`` behaviour.

The HTTP plumbing in this module is application-agnostic: any object with a
``handle_request(method, path, body) -> (status, content_type, body)``
method (or a legacy GET-only ``handle(path)``) can be served with
:func:`serve_application` — the model-serving API of :mod:`repro.serve`
reuses it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlparse

from repro.benchmark.runner import BenchmarkResult
from repro.datasets.catalogue import DatasetCatalogue, default_catalogue
from repro.exceptions import ValidationError, VisualizationError
from repro.utils.validation import check_probability
from repro.viz.dashboard import build_dashboard
from repro.viz.session import GraphintSession

Response = Tuple[int, str, str]


def json_error(status: int, message: str, **extra: object) -> Response:
    """A structured JSON error body shared by every served application.

    The payload shape is stable —
    ``{"error": {"status": ..., "message": ..., ...}}`` — so clients can
    rely on it across the dashboard and the model-serving API.
    """
    payload = {"error": {"status": int(status), "message": message, **extra}}
    return int(status), "application/json", json.dumps(payload, indent=2)


class DashboardApplication:
    """Request-independent application state (catalogue, cached sessions)."""

    #: Routes advertised in 404 bodies so clients can discover the API.
    ROUTES: List[str] = ["/", "/datasets", "/summary"]

    def __init__(
        self,
        *,
        catalogue: Optional[DatasetCatalogue] = None,
        benchmark_results: Optional[Sequence[BenchmarkResult]] = None,
        random_state: int = 0,
        n_lengths: int = 4,
        backend=None,
        n_jobs: Optional[int] = None,
        retry=None,
        fallback=None,
    ) -> None:
        self.catalogue = catalogue if catalogue is not None else default_catalogue()
        self.benchmark_results = list(benchmark_results) if benchmark_results else []
        self.random_state = int(random_state)
        self.n_lengths = int(n_lengths)
        self.backend = backend
        self.n_jobs = n_jobs
        self.retry = retry
        self.fallback = fallback
        self._sessions: Dict[str, GraphintSession] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    def session_for(self, dataset_name: str) -> GraphintSession:
        """Return (and cache) the fitted session for ``dataset_name``."""
        with self._lock:
            if dataset_name not in self._sessions:
                dataset = self.catalogue.get(dataset_name).generate(
                    random_state=self.random_state
                )
                session = GraphintSession(
                    dataset,
                    n_lengths=self.n_lengths,
                    random_state=self.random_state,
                    backend=self.backend,
                    n_jobs=self.n_jobs,
                    retry=self.retry,
                    fallback=self.fallback,
                )
                session.fit()
                session.build_quizzes()
                self._sessions[dataset_name] = session
            return self._sessions[dataset_name]

    def default_dataset(self) -> str:
        """The dataset shown when none is requested."""
        names = self.catalogue.names()
        if not names:
            raise VisualizationError("the catalogue is empty")
        return "cylinder_bell_funnel" if "cylinder_bell_funnel" in names else names[0]

    # ------------------------------------------------------------------ #
    def handle_request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Response:
        """Route one request; the dashboard only speaks GET."""
        if method != "GET":
            return json_error(
                405, f"method {method} not allowed on the dashboard", allow=["GET"]
            )
        return self.handle(path)

    def handle(self, path: str) -> Response:
        """Route a GET request path to (status, content_type, body)."""
        parsed = urlparse(path)
        params = {key: values[0] for key, values in parse_qs(parsed.query).items()}
        route = parsed.path.rstrip("/") or "/"

        if route == "/datasets":
            return 200, "application/json", json.dumps(self.catalogue.summary_rows(), indent=2)

        dataset_name = params.get("dataset", self.default_dataset())
        if dataset_name not in self.catalogue:
            return json_error(
                404,
                f"unknown dataset {dataset_name!r}",
                datasets=self.catalogue.names(),
            )

        if route == "/summary":
            session = self.session_for(dataset_name)
            return 200, "application/json", json.dumps(session.summary(), indent=2, default=float)

        if route == "/":
            session = self.session_for(dataset_name)
            try:
                lam = float(params["lam"]) if "lam" in params else None
                gam = float(params["gam"]) if "gam" in params else None
                node = int(params["node"]) if "node" in params else None
            except ValueError:
                return json_error(400, "lam/gam must be floats and node an integer")
            for name, value in (("lam", lam), ("gam", gam)):
                if value is not None:
                    try:
                        check_probability(value, name)
                    except ValidationError as exc:
                        return json_error(400, str(exc), parameter=name)
            if node is not None and node not in session.kgraph.result_.optimal_graph.nodes():
                return json_error(
                    400, f"node {node} is not a node of the optimal graph", parameter="node"
                )
            measure = params.get("measure", "ari")
            try:
                page = build_dashboard(
                    session,
                    benchmark_results=self.benchmark_results,
                    measure=measure,
                    lambda_threshold=lam,
                    gamma_threshold=gam,
                    selected_node=node,
                )
            except Exception as exc:  # noqa: BLE001 - surface rendering errors as 500s
                return json_error(500, f"rendering failed: {exc}")
            return 200, "text/html", page

        return json_error(404, f"unknown route {route!r}", routes=self.ROUTES)


class _Handler(BaseHTTPRequestHandler):
    """Thin HTTP adapter over any application exposing ``handle_request``."""

    application = None  # injected by serve_application

    #: Reject request bodies larger than this before buffering them —
    #: a handful of oversized concurrent POSTs must not exhaust memory.
    max_body_bytes = 64 * 1024 * 1024

    #: Socket timeout (socketserver applies it to the connection): bounds
    #: how long a slow or stalled client can pin a handler thread.
    timeout = 60

    def _route(self, method: str) -> Response:
        body: Optional[bytes] = None
        if method == "POST":
            try:
                content_length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                return json_error(400, "malformed Content-Length header")
            if content_length < 0:
                return json_error(400, "malformed Content-Length header")
            if content_length > self.max_body_bytes:
                return json_error(
                    413,
                    f"request body of {content_length} bytes exceeds the "
                    f"{self.max_body_bytes}-byte limit",
                )
            body = self.rfile.read(content_length) if content_length else b""
        application = self.application
        if hasattr(application, "handle_request"):
            return application.handle_request(method, self.path, body)
        if method == "GET":
            # Legacy GET-only applications expose handle(path) instead.
            return application.handle(self.path)
        return json_error(405, f"method {method} not allowed", allow=["GET"])

    def _dispatch(self, method: str) -> None:
        try:
            status, content_type, text = self._route(method)
        except Exception as exc:  # noqa: BLE001 - never drop the connection
            # Applications map expected failures themselves; anything that
            # still escapes becomes the documented JSON 500 instead of a
            # closed socket mid-response.
            status, content_type, text = json_error(
                500, f"internal error: {type(exc).__name__}: {exc}"
            )
        payload = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        if status == 405:
            # RFC 9110: a 405 MUST carry an Allow header; json_error put the
            # list in the body, surface it as the header too.
            try:
                allow = json.loads(text)["error"]["allow"]
                self.send_header("Allow", ", ".join(allow))
            except (json.JSONDecodeError, KeyError, TypeError):
                pass
        if status == 503:
            # Same idiom for load shedding: when the application put a
            # retry_after hint in the body, surface it as the Retry-After
            # header (RFC 9110 allows delay-seconds) so well-behaved
            # clients back off without parsing the JSON.
            try:
                retry_after = json.loads(text)["error"]["retry_after"]
                self.send_header("Retry-After", str(int(retry_after)))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                pass
        try:
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            # The client hung up (a coordinator drops requests it timed
            # out): the request is finished, and there is nothing to log.
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - http.server naming convention
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming convention
        self._dispatch("POST")

    def log_message(self, format, *args):  # noqa: A002 - silence default logging
        return


def serve_application(
    application,
    *,
    host: str = "127.0.0.1",
    port: int = 8050,
    poll: bool = True,
    ready: Optional[Callable[[ThreadingHTTPServer], None]] = None,
) -> ThreadingHTTPServer:
    """Serve any request-routing application over HTTP.

    ``port=0`` binds an OS-assigned ephemeral port; the actually-bound
    port is ``server.server_port``.  ``ready`` (if given) is invoked with
    the configured server after the socket is bound but before serving —
    the hook callers use to report the real address, and the only way to
    learn it when ``poll`` is true (the call then blocks in
    ``serve_forever`` until interrupted or shut down).  With ``poll``
    false the server object is returned so the caller can drive it (tests
    start ``serve_forever`` on their own thread, or issue single
    ``handle_request`` calls).
    """
    handler = type("BoundHandler", (_Handler,), {"application": application})
    server = ThreadingHTTPServer((host, port), handler)
    if ready is not None:
        ready(server)
    if poll:
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
    return server


def serve_dashboard(
    application: Optional[DashboardApplication] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 8050,
    poll: bool = True,
    ready: Optional[Callable[[ThreadingHTTPServer], None]] = None,
) -> ThreadingHTTPServer:
    """Start the dashboard HTTP server (see :func:`serve_application`)."""
    if application is None:
        application = DashboardApplication()
    return serve_application(
        application, host=host, port=port, poll=poll, ready=ready
    )
