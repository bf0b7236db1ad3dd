"""Serving any registered estimator: manifest schema v5 + back-compat fixtures.

Covers the estimator-generic artifact format (a non-KGraph estimator
round-trips through ``save_model`` / ``load_model`` / the registry /
``POST /predict``) and proves backwards compatibility by loading the
*committed* schema v1, v2 and v4 artifacts under ``tests/fixtures/`` — real
files written by the earlier formats, not same-process round-trips.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import BaselineConfig, default_registry
from repro.baselines.estimator import BaselineEstimator
from repro.core.graph_clustering import graph_features
from repro.core.kgraph import KGraph
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.exceptions import ArtifactError, NotFittedError
from repro.serve import InferenceEngine, ModelRegistry, ServeApplication, load_model, save_model
from repro.serve.artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_SCHEMA_VERSION,
    read_manifest,
)

from oracles.graph import payload

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module")
def fitted_kmeans(small_dataset):
    spec = default_registry().get("kmeans")
    return spec.build(spec.make_config(n_clusters=3, random_state=0)).fit(
        small_dataset.data
    )


@pytest.fixture(scope="module")
def fresh_series():
    return make_cylinder_bell_funnel(
        n_series=8, length=64, noise=0.2, random_state=11
    ).data


class TestEstimatorArtifactRoundTrip:
    def test_manifest_records_estimator_config_and_version(
        self, fitted_kmeans, tmp_path
    ):
        path = save_model(fitted_kmeans, tmp_path / "km", dataset="cbf")
        manifest = read_manifest(path)
        assert manifest["format"] == ARTIFACT_FORMAT
        assert manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION == 5
        assert manifest["estimator"] == "kmeans"
        assert manifest["config_version"] == BaselineConfig.version
        assert BaselineConfig.from_dict(manifest["config"]) == fitted_kmeans.get_config()

    def test_predict_is_bit_identical_after_reload(
        self, fitted_kmeans, tmp_path, fresh_series
    ):
        path = save_model(fitted_kmeans, tmp_path / "km")
        loaded = load_model(path)
        assert isinstance(loaded, BaselineEstimator)
        assert loaded.get_config() == fitted_kmeans.get_config()
        assert np.array_equal(loaded.labels_, fitted_kmeans.labels_)
        assert np.array_equal(
            loaded.predict(fresh_series), fitted_kmeans.predict(fresh_series)
        )

    def test_unfitted_estimator_rejected(self, tmp_path):
        estimator = BaselineEstimator(BaselineConfig(method="kmeans"))
        with pytest.raises(NotFittedError):
            save_model(estimator, tmp_path / "m")

    def test_unsaveable_object_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot save"):
            save_model(object(), tmp_path / "m")

    def test_mismatched_estimator_name_rejected(self, fitted_kmeans, tmp_path):
        path = save_model(fitted_kmeans, tmp_path / "km")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["estimator"] = "gmm"
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="gmm"):
            load_model(path)

    def test_registry_and_http_serve_a_baseline_model(
        self, fitted_kmeans, tmp_path, fresh_series
    ):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(fitted_kmeans, "cbf")
        assert record.estimator == "kmeans"
        application = ServeApplication(registry)
        try:
            status, _, body = application.handle_request(
                "POST",
                "/predict",
                json.dumps({"series": fresh_series.tolist()}).encode(),
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["predictions"] == [
                int(v) for v in fitted_kmeans.predict(fresh_series)
            ]
            status, _, body = application.handle_request("GET", "/models")
            assert status == 200
            rows = json.loads(body)["models"]
            assert [row["estimator"] for row in rows] == ["kmeans"]
        finally:
            application.close()

    def test_inference_engine_batches_match_offline_predict(
        self, fitted_kmeans, fresh_series
    ):
        with InferenceEngine(fitted_kmeans, max_batch_size=4) as engine:
            online = engine.predict_many(fresh_series, timeout=30.0)
        assert np.array_equal(online, fitted_kmeans.predict(fresh_series))


class TestCommittedFixturesStillLoad:
    """The committed v1, v2 and v4 artifacts are the backwards-compatibility proof."""

    @pytest.fixture(scope="class")
    def fixture_series(self):
        return make_cylinder_bell_funnel(
            n_series=5, length=32, noise=0.2, random_state=7
        ).data

    @pytest.mark.parametrize(
        ("directory", "schema_version"),
        [("artifact_v1", 1), ("artifact_v2", 2), ("artifact_v4", 4)],
    )
    def test_fixture_loads_and_predicts(self, directory, schema_version, fixture_series):
        path = FIXTURES / directory
        manifest = read_manifest(path)
        assert manifest["schema_version"] == schema_version
        loaded = load_model(path)
        assert isinstance(loaded, KGraph)
        # The legacy flat params block round-trips through the version-1
        # config migration into the typed config.
        assert loaded.get_config().n_clusters == manifest["params"]["n_clusters"]
        predictions = loaded.predict(fixture_series)
        assert predictions.shape == (fixture_series.shape[0],)
        assert set(predictions.tolist()) <= set(loaded.labels_.tolist())

    @pytest.mark.parametrize("directory", ["artifact_v1", "artifact_v2"])
    def test_legacy_fixture_graphs_match_graphs_json(self, directory):
        path = FIXTURES / directory
        assert read_manifest(path)["format"] == "kgraph-model"  # legacy format name
        loaded = load_model(path)
        # Loading reads only positions and trajectories from graphs.json and
        # derives the rest; the derived edges, weights and series counts
        # must equal what the earlier format stored.
        stored = json.loads((path / "graphs.json").read_text(encoding="utf-8"))["graphs"]
        assert sorted(loaded.result_.graphs) == sorted(entry["length"] for entry in stored)
        for entry in stored:
            assert payload(loaded.result_.graphs[entry["length"]]) == entry

    @pytest.mark.parametrize("directory", ["artifact_v1", "artifact_v2", "artifact_v4"])
    def test_stored_derived_arrays_equal_the_rebuilt_ones(self, directory):
        # Formats v1-v4 also stored the consensus matrix and each partition's
        # feature matrix.  Loading never reads them; what it rebuilds in
        # their place must equal them, bit for bit.
        path = FIXTURES / directory
        loaded = load_model(path)
        result = loaded.result_
        with np.load(path / "arrays.npz") as stored:
            rebuilt = {"consensus_matrix": result.consensus_matrix}
            for partition in result.partitions:
                rebuilt[f"partition_{partition.length}_features"] = graph_features(
                    result.graphs[partition.length], loaded.feature_mode
                )
            assert sorted(rebuilt) == sorted(
                name for name in stored.files
                if name == "consensus_matrix" or name.endswith("_features")
            )
            for name, array in rebuilt.items():
                expected = stored[name]
                assert (array.dtype, array.shape) == (expected.dtype, expected.shape), name
                assert array.tobytes() == expected.tobytes(), name

    def test_v1_fixture_has_no_pipeline_provenance(self):
        loaded = load_model(FIXTURES / "artifact_v1")
        assert loaded.pipeline_report_ is None
        assert "pipeline" not in read_manifest(FIXTURES / "artifact_v1")

    def test_fixtures_import_into_a_registry(self, tmp_path, fixture_series):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.import_artifact(FIXTURES / "artifact_v2", dataset="cbf_tiny")
        assert record.estimator == "kgraph"
        fetched = registry.fetch("cbf_tiny", record.model_id)
        assert np.array_equal(
            fetched.predict(fixture_series),
            load_model(FIXTURES / "artifact_v2").predict(fixture_series),
        )
