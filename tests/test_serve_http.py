"""Tests for the model-serving JSON API and its HTTP end-to-end path."""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.serve.registry import ModelRegistry
from repro.serve.service import CombinedApplication, ServeApplication, serve_models


@pytest.fixture(scope="module")
def fresh_series():
    return make_cylinder_bell_funnel(n_series=6, length=64, noise=0.2, random_state=11).data


@pytest.fixture(scope="module")
def application(fitted_kgraph, tmp_path_factory):
    registry = ModelRegistry(tmp_path_factory.mktemp("registry"), cache_size=2)
    registry.publish(fitted_kgraph, "cbf")
    registry.publish(fitted_kgraph, "cbf")
    app = ServeApplication(registry, max_batch_size=8)
    yield app
    app.close()


def _json(body: str):
    return json.loads(body)


class TestRouting:
    def test_healthz(self, application):
        status, content_type, body = application.handle_request("GET", "/healthz")
        assert status == 200
        assert content_type == "application/json"
        payload = _json(body)
        assert payload["status"] == "ok"
        assert payload["models"] == 2
        assert "cache" in payload

    def test_models_listing(self, application):
        status, _, body = application.handle_request("GET", "/models")
        assert status == 200
        models = _json(body)["models"]
        assert [(m["dataset"], m["model_id"]) for m in models] == [("cbf", "v1"), ("cbf", "v2")]

    def test_models_for_dataset_and_detail(self, application):
        status, _, body = application.handle_request("GET", "/models/cbf")
        assert status == 200
        assert len(_json(body)["models"]) == 2

        status, _, body = application.handle_request("GET", "/models/cbf/v1")
        assert status == 200
        detail = _json(body)
        assert detail["model_id"] == "v1"
        assert detail["manifest"]["schema_version"] >= 1

    def test_unknown_model_is_json_404(self, application):
        status, content_type, body = application.handle_request("GET", "/models/ghost")
        assert status == 404
        assert content_type == "application/json"
        assert "ghost" in _json(body)["error"]["message"]

    def test_unknown_route_is_json_404_with_route_list(self, application):
        status, _, body = application.handle_request("GET", "/wat")
        assert status == 404
        error = _json(body)["error"]
        assert error["status"] == 404
        assert "/predict" in error["routes"]

    def test_predict_requires_post(self, application):
        status, _, body = application.handle_request("GET", "/predict")
        assert status == 405
        assert _json(body)["error"]["allow"] == ["POST"]

    def test_models_and_healthz_require_get(self, application):
        for route in ("/models", "/models/cbf", "/healthz"):
            status, _, body = application.handle_request("POST", route, b"{}")
            assert status == 405
            assert _json(body)["error"]["allow"] == ["GET"]

    def test_engine_parameters_validated_at_startup(self, fitted_kgraph, tmp_path):
        from repro.exceptions import ValidationError

        registry = ModelRegistry(tmp_path / "registry")
        with pytest.raises(ValidationError, match="max_batch_size"):
            ServeApplication(registry, max_batch_size=0)
        with pytest.raises(ValidationError, match="request_timeout"):
            ServeApplication(registry, request_timeout=0.0)
        with pytest.raises(ValidationError, match="max_engines"):
            ServeApplication(registry, max_engines=0)

    def test_engine_cache_is_bounded(self, fitted_kgraph, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        for _ in range(3):
            registry.publish(fitted_kgraph, "cbf")
        app = ServeApplication(registry, max_engines=2)
        engines = [app.engine_for("cbf", f"v{n}") for n in (1, 2, 3)]
        assert len(app._engines) == 2
        # The oldest engine was evicted and closed; the newer two still live.
        assert engines[0].closed
        assert not engines[1].closed and not engines[2].closed
        app.close()

    def test_closed_application_returns_503(self, fitted_kgraph, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_kgraph, "cbf")
        app = ServeApplication(registry)
        app.close()
        request = json.dumps({"series": [0.0] * 64}).encode()
        status, _, body = app.handle_request("POST", "/predict", request)
        assert status == 503
        assert "closed" in _json(body)["error"]["message"]


class TestPredictRoute:
    def test_single_series(self, application, fitted_kgraph, fresh_series):
        request = json.dumps({"series": fresh_series[0].tolist()}).encode()
        status, _, body = application.handle_request("POST", "/predict", request)
        assert status == 200
        payload = _json(body)
        assert payload["dataset"] == "cbf"
        assert payload["model_id"] == "v2"  # latest by default
        assert payload["prediction"] == int(fitted_kgraph.predict(fresh_series[:1])[0])

    def test_batch_of_series_matches_offline_predict(self, application, fitted_kgraph, fresh_series):
        request = json.dumps({"series": fresh_series.tolist(), "model_id": "v1"}).encode()
        status, _, body = application.handle_request("POST", "/predict", request)
        assert status == 200
        payload = _json(body)
        assert payload["predictions"] == fitted_kgraph.predict(fresh_series).tolist()
        assert payload["n_series"] == len(fresh_series)

    def test_invalid_json_body(self, application):
        status, _, body = application.handle_request("POST", "/predict", b"{not json")
        assert status == 400
        assert "JSON" in _json(body)["error"]["message"]

    def test_missing_series_field(self, application):
        status, _, body = application.handle_request("POST", "/predict", b"{}")
        assert status == 400
        assert "series" in _json(body)["error"]["message"]

    def test_too_short_series_is_400(self, application):
        request = json.dumps({"series": [1.0, 2.0, 3.0]}).encode()
        status, _, body = application.handle_request("POST", "/predict", request)
        assert status == 400
        assert "length" in _json(body)["error"]["message"]

    def test_unknown_model_id_is_404(self, application, fresh_series):
        request = json.dumps({"series": fresh_series[0].tolist(), "model_id": "v99"}).encode()
        status, _, body = application.handle_request("POST", "/predict", request)
        assert status == 404

    def test_non_string_dataset_is_400(self, application, fresh_series):
        request = json.dumps({"series": fresh_series[0].tolist(), "dataset": ["cbf"]}).encode()
        status, _, body = application.handle_request("POST", "/predict", request)
        assert status == 400
        assert "dataset" in _json(body)["error"]["message"]

    def test_corrupt_artifact_is_500_not_404(self, fitted_kgraph, fresh_series, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(fitted_kgraph, "cbf")
        (record.path / "arrays.npz").write_bytes(b"not an npz")
        app = ServeApplication(registry)
        request = json.dumps({"series": fresh_series[0].tolist()}).encode()
        status, _, body = app.handle_request("POST", "/predict", request)
        assert status == 500
        app.close()


#: Any JSON value: scalars of every JSON type, nested in arrays and objects.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


class TestPredictDecoder:
    """Malformed /predict bodies are a 400, never a 500 or a coerced answer."""

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param(
                b'{"series": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                id="nested-100000-deep",
            ),
            pytest.param(b'{"series": [' + b"1" * 5000 + b"]}", id="int-5000-digits"),
            pytest.param(b"\xff\xfe", id="not-utf8"),
        ],
    )
    def test_undecodable_body_is_400(self, application, body):
        status, _, payload = application.handle_request("POST", "/predict", body)
        assert status == 400
        assert "JSON" in _json(payload)["error"]["message"]

    @pytest.mark.parametrize(
        "series",
        [
            pytest.param([0.0] * 63 + [10**400], id="int-401-digits"),
            pytest.param(["1"] * 64, id="strings"),
            pytest.param([True] * 64, id="booleans"),
            pytest.param([1.0] * 63 + [None], id="null"),
            pytest.param([[[1.0] * 64]], id="three-dimensional"),
            pytest.param([[1.0] * 64, 1.0], id="row-not-a-list"),
            pytest.param([[1.0] * 64, [1.0] * 65], id="ragged-rows"),
            pytest.param({"values": [1.0] * 64}, id="object"),
            pytest.param("1.0", id="string"),
        ],
    )
    def test_non_numeric_series_is_400(self, application, series):
        body = json.dumps({"series": series}).encode()
        status, _, payload = application.handle_request("POST", "/predict", body)
        assert status == 400
        assert "series" in _json(payload)["error"]["message"]

    @given(
        rows=st.lists(st.integers(0, 5), min_size=1, max_size=3),
        flat=st.booleans(),
        where=st.sampled_from(["nowhere", "element", "series", "field", "body"]),
        position=st.tuples(st.integers(0, 2), st.integers(0, 63)),
        field=st.sampled_from(["dataset", "model_id"]),
        value=json_values,
    )
    @settings(max_examples=150, deadline=None)
    def test_any_json_body_is_answered_or_rejected(
        self, application, fitted_kgraph, fresh_series, rows, flat, where, position, field, value
    ):
        # A valid request with one part replaced by any JSON value: an
        # element of a series, the whole series, the dataset or model_id
        # field, or the whole body.
        series = [fresh_series[row].tolist() for row in rows]
        if flat:
            series = series[0]
        request = {"series": series}
        if where == "element":
            row, column = position
            (series if flat else series[row % len(series)])[column] = value
        elif where == "series":
            request["series"] = value
        elif where == "field":
            request[field] = value
        body = json.dumps(value if where == "body" else request).encode()

        status, _, payload = application.handle_request("POST", "/predict", body)
        assert status in (200, 400, 404), payload
        if where == "nowhere":
            assert status == 200
        if status == 200:
            # Only JSON numbers are predicted: never a coerced string or bool.
            sent = json.loads(body)["series"]
            sent_rows = sent if isinstance(sent[0], list) else [sent]
            assert all(type(number) in (int, float) for row in sent_rows for number in row)
            decoded = np.asarray(sent, dtype=float)
            expected = fitted_kgraph.predict(decoded.reshape(-1, decoded.shape[-1]))
            assert _json(payload)["predictions"] == expected.tolist()


class TestCombinedApplication:
    def test_serving_routes_and_dashboard_routes_coexist(self, application):
        class _StubDashboard:
            def handle_request(self, method, path, body=None):
                return 200, "text/html", "dashboard page"

        combined = CombinedApplication(_StubDashboard(), application)
        status, _, body = combined.handle_request("GET", "/healthz")
        assert status == 200 and _json(body)["status"] == "ok"
        status, _, body = combined.handle_request("GET", "/?dataset=x")
        assert status == 200 and body == "dashboard page"


class TestEndToEndHTTP:
    def test_predict_over_real_http(self, application, fitted_kgraph, fresh_series):
        server = serve_models(application, host="127.0.0.1", port=0, poll=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"

            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
                assert response.status == 200
                assert json.loads(response.read())["status"] == "ok"

            request = urllib.request.Request(
                f"{base}/predict",
                data=json.dumps({"series": fresh_series.tolist()}).encode(),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30) as response:
                assert response.status == 200
                payload = json.loads(response.read())
            assert payload["predictions"] == fitted_kgraph.predict(fresh_series).tolist()

            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/nope", timeout=10)
            assert excinfo.value.code == 404
            assert json.loads(excinfo.value.read())["error"]["status"] == 404
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_concurrent_http_clients_coalesce_into_batches(self, fitted_kgraph, fresh_series, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_kgraph, "cbf")
        app = ServeApplication(registry, max_batch_size=8)
        server = serve_models(app, host="127.0.0.1", port=0, poll=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            expected = fitted_kgraph.predict(fresh_series).tolist()
            results = [None] * len(fresh_series)

            def client(index):
                request = urllib.request.Request(
                    f"{base}/predict",
                    data=json.dumps({"series": fresh_series[index].tolist()}).encode(),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=30) as response:
                    results[index] = json.loads(response.read())["prediction"]

            clients = [threading.Thread(target=client, args=(i,)) for i in range(len(fresh_series))]
            for c in clients:
                c.start()
            for c in clients:
                c.join()
            assert results == expected
            stats = app.engine_for("cbf").stats()
            assert stats["requests"] == len(fresh_series)
            assert stats["batches"] <= len(fresh_series)  # at least some coalescing possible
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            app.close()


class TestDegradation:
    """Load shedding vs real faults: 503 + Retry-After vs 500."""

    def test_engine_timeout_is_503_with_retry_after_hint(
        self, fitted_kgraph, fresh_series, tmp_path, gated_backend
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_kgraph, "cbf")
        # The dispatch is held, so the request times out (1 ms) before its
        # micro-batch runs: the engine sheds load instead of faulting.
        app = ServeApplication(registry, backend=gated_backend, request_timeout=0.001)
        try:
            request = json.dumps({"series": fresh_series[0].tolist()}).encode()
            status, _, body = app.handle_request("POST", "/predict", request)
            assert status == 503
            error = _json(body)["error"]
            assert "retry_after" in error
            assert error["retry_after"] >= 1
        finally:
            gated_backend.gate.set()
            app.close()

    def test_retry_after_surfaces_as_http_header(
        self, fitted_kgraph, fresh_series, tmp_path, gated_backend
    ):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_kgraph, "cbf")
        app = ServeApplication(registry, backend=gated_backend, request_timeout=0.001)
        server = serve_models(app, host="127.0.0.1", port=0, poll=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            base = f"http://127.0.0.1:{server.server_address[1]}"
            request = urllib.request.Request(
                f"{base}/predict",
                data=json.dumps({"series": fresh_series[0].tolist()}).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 503
            assert excinfo.value.headers["Retry-After"] is not None
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            excinfo.value.close()
        finally:
            gated_backend.gate.set()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
            app.close()

    def test_engine_fault_is_500_without_retry_after(self, fitted_kgraph, fresh_series, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(fitted_kgraph, "cbf")
        app = ServeApplication(registry)
        try:
            # Corrupt the artifact after publication: loading it inside the
            # engine is a real fault, not load shedding.
            (record.path / "arrays.npz").write_bytes(b"not an npz")
            request = json.dumps({"series": fresh_series[0].tolist()}).encode()
            status, _, body = app.handle_request("POST", "/predict", request)
            assert status == 500
            assert "retry_after" not in _json(body)["error"]
        finally:
            app.close()

    def test_closed_application_stays_503(self, fitted_kgraph, tmp_path):
        # The taxonomy change must not reclassify the generic "closed"
        # ServiceError: still 503 (the PR 6 contract).
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(fitted_kgraph, "cbf")
        app = ServeApplication(registry)
        app.close()
        request = json.dumps({"series": [0.0] * 64}).encode()
        status, _, body = app.handle_request("POST", "/predict", request)
        assert status == 503


class TestEphemeralPortAndReady:
    """``port=0`` + the ``ready`` hook: how callers learn a bound address."""

    def test_serve_models_ready_reports_ephemeral_port(self, application):
        seen = {}
        server = serve_models(
            application,
            host="127.0.0.1",
            port=0,
            poll=False,
            ready=lambda bound: seen.update(port=bound.server_port),
        )
        try:
            assert server.server_port > 0
            assert seen["port"] == server.server_port
        finally:
            server.server_close()

    def test_serve_dashboard_forwards_ready(self, fitted_kgraph):
        from repro.viz.server import DashboardApplication, serve_dashboard

        seen = {}
        server = serve_dashboard(
            DashboardApplication(),
            host="127.0.0.1",
            port=0,
            poll=False,
            ready=lambda bound: seen.update(port=bound.server_port),
        )
        try:
            assert seen["port"] == server.server_port > 0
        finally:
            server.server_close()
