"""Tests for the versioned model artifact format (repro.serve.artifacts)."""

import io
import json

import numpy as np
import pytest

from repro.core.kgraph import KGraph
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.exceptions import ArtifactError, NotFittedError
from repro.serve.artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_SCHEMA_VERSION,
    load_model,
    read_manifest,
    save_model,
)


@pytest.fixture(scope="module")
def fresh_series():
    """Out-of-sample series from the same generative classes."""
    return make_cylinder_bell_funnel(n_series=10, length=64, noise=0.2, random_state=42).data


@pytest.fixture()
def artifact_dir(fitted_kgraph, tmp_path):
    return save_model(fitted_kgraph, tmp_path / "model", dataset="cbf")


class TestRoundTrip:
    def test_predict_is_bit_identical(self, fitted_kgraph, artifact_dir, fresh_series):
        loaded = load_model(artifact_dir)
        assert np.array_equal(loaded.predict(fresh_series), fitted_kgraph.predict(fresh_series))

    def test_labels_and_matrices_round_trip_exactly(self, fitted_kgraph, artifact_dir):
        loaded = load_model(artifact_dir)
        assert np.array_equal(loaded.labels_, fitted_kgraph.labels_)
        assert np.array_equal(loaded.consensus_matrix_, fitted_kgraph.consensus_matrix_)
        for length, graph in fitted_kgraph.result_.graphs.items():
            restored = loaded.result_.graphs[length]
            assert np.array_equal(restored.feature_matrix(), graph.feature_matrix())
            assert np.array_equal(restored.adjacency_matrix(), graph.adjacency_matrix())
            assert restored.node_positions() == graph.node_positions()
            for node in graph.nodes():
                assert np.array_equal(restored.node_pattern(node), graph.node_pattern(node))
                assert restored.node_visit_counts(node) == graph.node_visit_counts(node)
            for series in range(graph.n_series):
                assert restored.trajectory(series) == graph.trajectory(series)
        # graphs.json holds exactly the bytes json.dump writes.
        graphs = fitted_kgraph.result_.graphs
        expected = io.StringIO()
        json.dump(
            {"graphs": [graphs[length].to_payload() for length in sorted(graphs)]},
            expected,
            sort_keys=True,
        )
        written = (artifact_dir / "graphs.json").read_bytes()
        assert written == expected.getvalue().encode("utf-8")

    def test_partitions_and_scores_round_trip(self, fitted_kgraph, artifact_dir):
        loaded = load_model(artifact_dir)
        assert loaded.optimal_length_ == fitted_kgraph.optimal_length_
        for original, restored in zip(fitted_kgraph.result_.partitions, loaded.result_.partitions):
            assert restored.length == original.length
            assert np.array_equal(restored.labels, original.labels)
            assert np.array_equal(restored.feature_matrix, original.feature_matrix)
            assert restored.inertia == original.inertia
        for original, restored in zip(fitted_kgraph.length_scores_, loaded.length_scores_):
            assert restored == original

    @pytest.mark.parametrize("kind", ["lambda", "gamma"])
    def test_graphoids_round_trip_for_every_kind(self, fitted_kgraph, artifact_dir, kind):
        loaded = load_model(artifact_dir)
        original = fitted_kgraph.graphoids(kind)
        restored = loaded.graphoids(kind)
        assert set(restored) == set(original)
        for cluster, graphoid in original.items():
            twin = restored[cluster]
            assert twin.kind == kind
            assert twin.threshold == graphoid.threshold
            assert twin.nodes == graphoid.nodes
            assert twin.edges == graphoid.edges
            assert twin.node_scores == graphoid.node_scores
            assert twin.edge_scores == graphoid.edge_scores

    def test_plain_graphoid_kind_survives_via_recompute(self, artifact_dir):
        # The third graphoid kind ("graphoid", thresholds at 0) is derived on
        # demand; a loaded model must be able to recompute all kinds.
        loaded = load_model(artifact_dir)
        recomputed = loaded.recompute_graphoids(0.0, 0.0)
        assert set(recomputed) == {"lambda", "gamma"}
        for graphoids in recomputed.values():
            assert all(not g.is_empty() for g in graphoids.values())

    def test_summary_and_node_statistics_work_on_loaded_model(self, artifact_dir):
        loaded = load_model(artifact_dir)
        summary = loaded.result_.summary()
        assert summary["optimal_length"] == loaded.optimal_length_
        statistics = loaded.node_statistics()
        assert set(statistics) == set(loaded.optimal_graph_.nodes())


class TestManifest:
    def test_manifest_contents(self, artifact_dir):
        manifest = read_manifest(artifact_dir)
        assert manifest["format"] == ARTIFACT_FORMAT
        assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert manifest["dataset"] == "cbf"
        assert manifest["params"]["n_clusters"] == 3
        assert manifest["fitted"]["n_series"] == 24
        assert manifest["fitted"]["optimal_length"] > 0

    def test_user_metadata_is_kept(self, fitted_kgraph, tmp_path):
        path = save_model(fitted_kgraph, tmp_path / "m", metadata={"owner": "ci"})
        assert read_manifest(path)["metadata"] == {"owner": "ci"}

    def test_generator_random_state_is_nulled(self, small_dataset, tmp_path):
        model = KGraph(
            n_clusters=3, n_lengths=2, random_state=np.random.default_rng(0)
        ).fit(small_dataset.data)
        path = save_model(model, tmp_path / "m")
        assert read_manifest(path)["params"]["random_state"] is None
        assert load_model(path).random_state is None

    def test_pipeline_provenance_recorded(self, artifact_dir, fitted_kgraph):
        # Schema v2: the manifest carries the stage pipeline's ledger.
        manifest = read_manifest(artifact_dir)
        assert manifest["schema_version"] >= 2
        pipeline = manifest["pipeline"]
        assert pipeline["config_hash"]
        assert [stage["name"] for stage in pipeline["stages"]] == [
            "embed",
            "graph_cluster",
            "consensus",
            "length_selection",
            "interpretability",
        ]
        expected = fitted_kgraph.pipeline_report_.stage_keys
        for stage in pipeline["stages"]:
            assert stage["key"] == expected[stage["name"]]
            assert isinstance(stage["cached"], bool)
            assert stage["seconds"] >= 0.0

    def test_reference_fit_records_no_pipeline(self, small_dataset, tmp_path):
        model = KGraph(n_clusters=3, n_lengths=2, random_state=0).fit_reference(
            small_dataset.data
        )
        path = save_model(model, tmp_path / "m")
        assert read_manifest(path)["pipeline"] is None

    def test_v1_artifact_without_pipeline_field_still_loads(
        self, artifact_dir, fitted_kgraph, fresh_series
    ):
        # Backward compatibility: a pre-pipeline (schema v1) artifact has no
        # "pipeline" manifest field and must load and predict identically.
        manifest = read_manifest(artifact_dir)
        manifest["schema_version"] = 1
        del manifest["pipeline"]
        (artifact_dir / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_model(artifact_dir)
        assert loaded.pipeline_report_ is None
        assert np.array_equal(
            loaded.predict(fresh_series), fitted_kgraph.predict(fresh_series)
        )


class TestValidation:
    def test_unfitted_model_is_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            save_model(KGraph(n_clusters=2), tmp_path / "m")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="missing manifest.json"):
            load_model(tmp_path)

    def test_missing_arrays_file(self, artifact_dir):
        (artifact_dir / "arrays.npz").unlink()
        with pytest.raises(ArtifactError, match="missing arrays.npz"):
            load_model(artifact_dir)

    def test_wrong_format_name(self, artifact_dir):
        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        manifest["format"] = "something-else"
        (artifact_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="format"):
            load_model(artifact_dir)

    def test_newer_schema_version_is_rejected(self, artifact_dir):
        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        manifest["schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        (artifact_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="upgrade the library"):
            load_model(artifact_dir)

    def test_missing_manifest_fields_raise_artifact_error(self, artifact_dir):
        manifest = json.loads((artifact_dir / "manifest.json").read_text())
        del manifest["params"]
        (artifact_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="params"):
            load_model(artifact_dir)

    def test_refuses_nonempty_unrelated_directory(self, fitted_kgraph, tmp_path):
        target = tmp_path / "occupied"
        target.mkdir()
        (target / "notes.txt").write_text("hands off")
        with pytest.raises(ArtifactError, match="non-empty"):
            save_model(fitted_kgraph, target)

    def test_overwriting_an_existing_artifact_is_allowed(self, fitted_kgraph, artifact_dir, fresh_series):
        save_model(fitted_kgraph, artifact_dir, dataset="cbf")
        assert np.array_equal(
            load_model(artifact_dir).predict(fresh_series), fitted_kgraph.predict(fresh_series)
        )
