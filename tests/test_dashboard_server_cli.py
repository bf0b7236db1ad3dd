"""Tests for the session, dashboard assembly, HTTP server routing and CLI."""

import hashlib
import io
import json
import os
import re
import socket
import subprocess
import sys
import textwrap
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.catalogue import DatasetCatalogue, DatasetSpec, default_catalogue
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.exceptions import ValidationError
from repro.viz.cli import main as cli_main
from repro.viz.dashboard import build_dashboard
from repro.viz.server import DashboardApplication, serve_application
from repro.viz.session import GraphintSession

#: The two panels of a seeded page that print wall-clock seconds.
WALL_CLOCK_PANELS = re.compile(
    r'<div class="panel"><h3>Pipeline (stage breakdown|timings)</h3>.*?</div>'
)


def _small_catalogue() -> DatasetCatalogue:
    catalogue = DatasetCatalogue()
    catalogue.register(
        DatasetSpec(
            name="cbf_small",
            generator=lambda random_state=None, n_series=18, length=64, **kw: make_cylinder_bell_funnel(
                n_series=n_series, length=length, noise=0.2, random_state=random_state
            ),
            dataset_type="synthetic-shape",
            n_series=18,
            length=64,
            n_classes=3,
        )
    )
    return catalogue


@pytest.fixture(scope="module")
def session():
    dataset = make_cylinder_bell_funnel(n_series=18, length=64, noise=0.2, random_state=0)
    fitted = GraphintSession(dataset, n_lengths=2, random_state=0).fit()
    fitted.build_quizzes(n_users=2)
    return fitted


class TestSession:
    def test_fit_produces_three_methods(self, session):
        assert set(session.method_labels) == {"kgraph", "kmeans", "kshape"}
        for labels in session.method_labels.values():
            assert labels.shape == (session.dataset.n_series,)

    def test_summary_contents(self, session):
        summary = session.summary()
        assert set(summary["ari"]) == {"kgraph", "kmeans", "kshape"}
        assert summary["optimal_length"] == session.kgraph.optimal_length_
        assert set(summary["quiz_scores"]) == {"kgraph", "kmeans", "kshape"}

    def test_quizzes_cached(self, session):
        first = session.build_quizzes()
        second = session.build_quizzes()
        assert first is second

    def test_fit_idempotent(self, session):
        labels_before = session.method_labels["kgraph"].copy()
        session.fit()
        assert np.array_equal(session.method_labels["kgraph"], labels_before)

    def test_requires_labels(self):
        from repro.utils.containers import TimeSeriesDataset

        with pytest.raises(ValidationError):
            GraphintSession(TimeSeriesDataset(data=np.zeros((10, 32))))


class TestDashboard:
    def test_full_page(self, session, tmp_path):
        output = tmp_path / "dash.html"
        page = build_dashboard(session, output_path=output)
        assert page.startswith("<!DOCTYPE html>")
        for frame_id in ("clustering-comparison", "graph-frame", "interpretability-test", "under-the-hood"):
            assert f'id="{frame_id}"' in page
        assert output.exists()
        assert output.read_text(encoding="utf-8") == page

    def test_seeded_session_renders_byte_identical_pages(self, session):
        # The graph frame's force layout is seeded from the session.  Pages
        # are compared by digest: pytest's diff of two pages takes minutes.
        digests = {
            hashlib.sha256(build_dashboard(session).encode("utf-8")).hexdigest()
            for _ in range(2)
        }
        assert len(digests) == 1

    def test_seeded_page_is_identical_across_processes(self):
        # Two fresh interpreters with different hash seeds must render the
        # same page, so no set or dict iteration order leaks into it.  The
        # "Pipeline stage breakdown" and "Pipeline timings" panels are cut
        # first: they print wall-clock seconds, the only part of a seeded
        # page that differs between runs.
        script = textwrap.dedent(
            """
            import hashlib, re
            from repro.datasets.synthetic import make_cylinder_bell_funnel
            from repro.viz.dashboard import build_dashboard
            from repro.viz.session import GraphintSession

            dataset = make_cylinder_bell_funnel(
                n_series=18, length=64, noise=0.2, random_state=0
            )
            session = GraphintSession(dataset, n_lengths=2, random_state=0)
            page = build_dashboard(session, lambda_threshold=0.4, gamma_threshold=0.6)
            page, cut = re.subn(
                r'<div class="panel"><h3>Pipeline (stage breakdown|timings)</h3>.*?</div>',
                "",
                page,
            )
            assert cut == 2, cut
            print(hashlib.sha256(page.encode("utf-8")).hexdigest())
            """
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        workers = [
            subprocess.Popen(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for hash_seed in ("1", "2")
        ]
        digests = []
        for worker in workers:
            out, err = worker.communicate(timeout=300)
            assert worker.returncode == 0, err
            digests.append(out.strip())
        assert digests[0] == digests[1]

    def test_seeded_two_patterns_page_is_under_a_megabyte(self):
        # 80 series x 128 points: the feature and consensus heatmaps were
        # 2.9 MB of a 3.6 MB page when every cell was its own <rect>.
        dataset = default_catalogue().get("two_patterns").generate(random_state=1)
        page = build_dashboard(GraphintSession(dataset, n_lengths=4, random_state=1))
        assert len(page.encode("utf-8")) < 1_000_000
        for title in ("4.2 Feature matrix", "4.3 Consensus matrix"):
            panel = re.search(
                rf'<div class="panel"><h3>{re.escape(title)}</h3>.*?</div>', page, re.S
            ).group(0)
            # The background and the frame; the cells are one image.
            assert (panel.count("<rect"), panel.count("<image")) == (2, 1), title
        assert page.count("<rect") < 100

    def test_benchmark_frame_included_when_results_given(self, session):
        from tests.test_viz_frames import _fake_results

        page = build_dashboard(session, benchmark_results=_fake_results())
        assert 'id="benchmark"' in page

    def test_widget_values_forwarded(self, session):
        node = session.kgraph.optimal_graph_.nodes()[0]
        page = build_dashboard(
            session, lambda_threshold=0.3, gamma_threshold=0.3, selected_node=node
        )
        assert "λ = 0.30" in page and "γ = 0.30" in page


class TestServerRouting:
    @pytest.fixture(scope="class")
    def application(self):
        return DashboardApplication(catalogue=_small_catalogue(), random_state=0, n_lengths=2)

    def test_datasets_route(self, application):
        status, content_type, body = application.handle("/datasets")
        assert status == 200
        assert content_type == "application/json"
        rows = json.loads(body)
        assert rows[0]["name"] == "cbf_small"

    def test_dashboard_route(self, application):
        status, content_type, body = application.handle("/?dataset=cbf_small&lam=0.4&gam=0.4")
        assert status == 200
        assert content_type == "text/html"
        assert "Graphint" in body

    def test_summary_route(self, application):
        status, _, body = application.handle("/summary?dataset=cbf_small")
        assert status == 200
        summary = json.loads(body)
        assert "ari" in summary

    def test_unknown_dataset_404(self, application):
        status, content_type, body = application.handle("/?dataset=nope")
        assert status == 404
        assert content_type == "application/json"
        error = json.loads(body)["error"]
        assert error["status"] == 404
        assert "cbf_small" in error["datasets"]

    def test_unknown_route_404_is_structured_json(self, application):
        status, content_type, body = application.handle("/wat")
        assert status == 404
        assert content_type == "application/json"
        error = json.loads(body)["error"]
        assert error["status"] == 404
        assert "'/wat'" in error["message"]
        assert "/datasets" in error["routes"]

    def test_post_to_dashboard_is_405(self, application):
        status, _, body = application.handle_request("POST", "/", b"{}")
        assert status == 405
        assert json.loads(body)["error"]["allow"] == ["GET"]

    def test_bad_parameters_400(self, application):
        # Text that is not a number, thresholds outside [0, 1] and nodes
        # that are not in the optimal graph are client errors, not 500s.
        # Each out-of-range error names its parameter.
        for query, parameter in (
            ("lam=high", None),
            ("node=99999", "node"),
            ("node=-1", "node"),
            ("lam=2", "lam"),
            ("lam=nan", "lam"),
            ("lam=inf", "lam"),
            ("gam=-0.5", "gam"),
        ):
            status, _, body = application.handle(f"/?dataset=cbf_small&{query}")
            assert status == 400, query
            if parameter is not None:
                assert json.loads(body)["error"]["parameter"] == parameter, query

    def test_sessions_are_cached(self, application):
        application.handle("/?dataset=cbf_small")
        first = application.session_for("cbf_small")
        second = application.session_for("cbf_small")
        assert first is second


class TestConcurrentPages:
    def test_threads_share_one_render_of_the_session_parts(self, monkeypatch):
        # Handler threads of the dashboard server share a session.  Eight
        # threads (more than the cores) ask a fresh application for eight
        # different pages of one dataset at once, with the interpreter
        # switching threads every 10 µs.  Each page must equal the page a
        # serial session renders, and the frames no widget changes and the
        # force layout must be built once for the session.
        import repro.viz.session as session_module

        serial = DashboardApplication(catalogue=_small_catalogue(), random_state=0, n_lengths=2)
        nodes = serial.session_for("cbf_small").kgraph.result_.optimal_graph.nodes()
        paths = [
            f"/?dataset=cbf_small&lam={0.2 + 0.1 * i:.1f}&gam={0.8 - 0.05 * i:.2f}"
            + (f"&node={nodes[i % len(nodes)]}" if i % 2 else "")
            for i in range(8)
        ]
        expected = {path: serial.handle(path) for path in paths}

        calls, calls_lock = Counter(), threading.Lock()
        for name in (
            "build_clustering_comparison_frame",
            "build_interpretability_frame",
            "build_under_the_hood_frame",
            "force_directed_layout",
        ):
            def counted(*args, _name=name, _original=getattr(session_module, name), **kwargs):
                with calls_lock:
                    calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(session_module, name, counted)

        application = DashboardApplication(
            catalogue=_small_catalogue(), random_state=0, n_lengths=2
        )
        start = threading.Barrier(len(paths))
        pages = {}

        def request(path):
            start.wait(timeout=60)
            pages[path] = application.handle(path)

        threads = [threading.Thread(target=request, args=(path,)) for path in paths]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)

        assert set(pages) == set(paths)
        for path in paths:
            status, content_type, page = pages[path]
            assert (status, content_type) == expected[path][:2] == (200, "text/html"), path
            # Two fits: only their wall-clock panels may differ.
            assert WALL_CLOCK_PANELS.subn("", page) == WALL_CLOCK_PANELS.subn(
                "", expected[path][2]
            ), path
        assert calls == {
            "build_clustering_comparison_frame": 1,
            "build_interpretability_frame": 1,
            "build_under_the_hood_frame": 1,
            "force_directed_layout": 1,
        }


class TestHungUpClient:
    @pytest.mark.parametrize("error", [BrokenPipeError, ConnectionResetError])
    def test_a_client_that_hung_up_is_a_finished_request(self, error):
        # A client that hangs up before the response is written (a
        # coordinator dropping a request it timed out) must not reach the
        # server's handle_error, which prints a traceback per request.
        class Stub:
            def handle_request(self, method, path, body=None):
                return 200, "application/json", "{}"

        class HungUpWriter(io.BytesIO):
            def write(self, data):
                raise error()

        server = serve_application(Stub(), port=0, poll=False)

        class HungUpHandler(server.RequestHandlerClass):
            def setup(self):
                super().setup()
                self.wfile = HungUpWriter()

        server.RequestHandlerClass = HungUpHandler
        errors = []
        server.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
        ours, client = socket.socketpair()
        try:
            client.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            server.process_request_thread(ours, ("127.0.0.1", 0))
        finally:
            client.close()
            server.server_close()
        assert errors == []


class TestCLI:
    def test_datasets_command(self, capsys):
        assert cli_main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "cylinder_bell_funnel" in output

    def test_quiz_and_cluster_commands_run(self, capsys, monkeypatch):
        # Patch the default catalogue used by the CLI to the small one so the
        # commands stay fast.
        import repro.viz.cli as cli

        monkeypatch.setattr(cli, "default_catalogue", _small_catalogue)
        assert cli.main(["cluster", "--dataset", "cbf_small", "--lengths", "2"]) == 0
        output = capsys.readouterr().out
        assert "ARI kgraph" in output

        assert cli.main(["quiz", "--dataset", "cbf_small", "--users", "2"]) == 0
        output = capsys.readouterr().out
        assert "most interpretable representation" in output

    def test_benchmark_and_dashboard_commands(self, capsys, monkeypatch, tmp_path):
        import repro.viz.cli as cli

        monkeypatch.setattr(cli, "default_catalogue", _small_catalogue)
        results_path = tmp_path / "results.json"
        assert (
            cli.main(
                ["benchmark", "--methods", "kmeans", "gmm", "--output", str(results_path)]
            )
            == 0
        )
        assert results_path.exists()
        capsys.readouterr()

        dashboard_path = tmp_path / "dash.html"
        assert (
            cli.main(
                [
                    "dashboard",
                    "--dataset",
                    "cbf_small",
                    "--output",
                    str(dashboard_path),
                    "--benchmark-file",
                    str(results_path),
                ]
            )
            == 0
        )
        assert dashboard_path.exists()
        assert "Graphint" in dashboard_path.read_text(encoding="utf-8")

    def test_export_import_and_serve_model_commands(self, capsys, monkeypatch, tmp_path):
        import repro.viz.cli as cli

        monkeypatch.setattr(cli, "default_catalogue", _small_catalogue)
        artifact = tmp_path / "artifact"
        assert (
            cli.main(
                ["export-model", "--dataset", "cbf_small", "--lengths", "2", "-o", str(artifact)]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "model artifact written" in output
        assert (artifact / "manifest.json").exists()

        registry_dir = tmp_path / "registry"
        assert (
            cli.main(["import-model", str(artifact), "--registry", str(registry_dir)]) == 0
        )
        output = capsys.readouterr().out
        assert "imported cbf_small/v1" in output

        # The serve command mounts the model API next to the dashboard.
        from repro.serve import ModelRegistry, ServeApplication
        from repro.viz.server import DashboardApplication
        from repro.serve.service import CombinedApplication

        combined = CombinedApplication(
            DashboardApplication(catalogue=_small_catalogue(), n_lengths=2),
            ServeApplication(ModelRegistry(registry_dir)),
        )
        status, _, body = combined.handle_request("GET", "/models")
        assert status == 200
        assert json.loads(body)["models"][0]["dataset"] == "cbf_small"
        status, _, body = combined.handle_request("GET", "/datasets")
        assert status == 200
        combined.close()

    def test_export_model_requires_one_destination(self, monkeypatch, capsys):
        import repro.viz.cli as cli

        monkeypatch.setattr(cli, "default_catalogue", _small_catalogue)
        assert cli.main(["export-model", "--dataset", "cbf_small"]) == 2
        assert "exactly one of" in capsys.readouterr().err

    def test_pipeline_run_and_inspect_commands(self, capsys, monkeypatch, tmp_path):
        import repro.viz.cli as cli

        monkeypatch.setattr(cli, "default_catalogue", _small_catalogue)
        cache_dir = tmp_path / "stage-cache"
        base = [
            "pipeline", "run",
            "--dataset", "cbf_small",
            "--lengths", "2",
            "--cache", str(cache_dir),
        ]
        assert cli.main(base) == 0
        output = capsys.readouterr().out
        assert "embed" in output and "ran" in output
        assert "re-run with --resume" in output

        # Resuming replays every stage from the checkpoints.
        assert cli.main(base + ["--resume"]) == 0
        output = capsys.readouterr().out
        assert "cached" in output and "ran" not in output.split("status")[1]

        assert cli.main(["pipeline", "inspect", "--cache", str(cache_dir)]) == 0
        output = capsys.readouterr().out
        assert "graph_cluster" in output and "5 checkpoint(s)" in output

    def test_pipeline_run_stage_backend_validation(self, capsys, monkeypatch):
        import repro.viz.cli as cli

        monkeypatch.setattr(cli, "default_catalogue", _small_catalogue)
        assert (
            cli.main(
                ["pipeline", "run", "--dataset", "cbf_small", "--stage-backend", "bogus=thread"]
            )
            == 2
        )
        assert "unknown stage" in capsys.readouterr().err
        assert (
            cli.main(
                [
                    "pipeline", "run", "--dataset", "cbf_small",
                    "--stage-backend", "interpretability=thread",
                ]
            )
            == 2
        )
        assert "unknown stage 'interpretability'" in capsys.readouterr().err
        assert (
            cli.main(["pipeline", "run", "--dataset", "cbf_small", "--stage-backend", "embed"])
            == 2
        )
        assert "STAGE=BACKEND" in capsys.readouterr().err

    def test_pipeline_resume_requires_cache(self, capsys, monkeypatch):
        import repro.viz.cli as cli

        monkeypatch.setattr(cli, "default_catalogue", _small_catalogue)
        assert cli.main(["pipeline", "run", "--dataset", "cbf_small", "--resume"]) == 2
        assert "--resume requires --cache" in capsys.readouterr().err

    def test_pipeline_inspect_missing_directory(self, capsys, tmp_path):
        assert cli_main(["pipeline", "inspect", "--cache", str(tmp_path / "nope")]) == 2
        assert "no pipeline cache" in capsys.readouterr().err

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["unknown-command"])
