"""Tests for the versioned model artifact format (repro.serve.artifacts)."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
from repro.serve.registry import ModelRegistry

from oracles.graph import assert_graphs_identical, record_trajectories
from oracles.kgraph import fit_reference


def _read_arrays(artifact_dir):
    with np.load(artifact_dir / "arrays.npz") as payload:
        return {key: payload[key] for key in payload.files}


def _write_arrays(artifact_dir, arrays):
    with (artifact_dir / "arrays.npz").open("wb") as handle:
        np.savez_compressed(handle, **arrays)


def _write_legacy_layout(artifact_dir, model, schema_version):
    """Rewrite a saved artifact as formats v1-v3 stored it.

    Graphs go to ``graphs.json`` as the dict graph's payloads, written the
    way those formats' ``save_model`` wrote them; only the pattern matrix
    of each graph stays in ``arrays.npz``.
    """
    graphs = model.result_.graphs
    payloads = [
        record_trajectories(length, graph.positions, graph.patterns, graph.trajectories).to_payload()
        for length, graph in sorted(graphs.items())
    ]
    (artifact_dir / "graphs.json").write_text(
        json.dumps({"graphs": payloads}, sort_keys=True), encoding="utf-8"
    )
    arrays = _read_arrays(artifact_dir)
    for length in graphs:
        del arrays[f"graph_{length}_positions"], arrays[f"graph_{length}_trajectories"]
    _write_arrays(artifact_dir, arrays)
    manifest = read_manifest(artifact_dir)
    manifest["schema_version"] = schema_version
    if schema_version == 1:
        # v1 predates the pipeline ledger and the estimator-generic fields.
        manifest["format"] = "kgraph-model"
        for field in ("pipeline", "estimator", "config", "config_version"):
            del manifest[field]
    (artifact_dir / "manifest.json").write_text(json.dumps(manifest))


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
            assert_graphs_identical(loaded.result_.graphs[length], graph)
        # Format v4: two files, the graphs as three arrays per length.
        assert sorted(path.name for path in artifact_dir.iterdir()) == [
            "arrays.npz",
            "manifest.json",
        ]
        arrays = _read_arrays(artifact_dir)
        for length, graph in fitted_kgraph.result_.graphs.items():
            for part in ("positions", "patterns", "trajectories"):
                stored = arrays[f"graph_{length}_{part}"]
                assert stored.dtype == getattr(graph, part).dtype
                assert np.array_equal(stored, getattr(graph, part))

    def test_partitions_and_scores_round_trip(self, fitted_kgraph, artifact_dir):
        loaded = load_model(artifact_dir)
        assert loaded.optimal_length_ == fitted_kgraph.optimal_length_
        for original, restored in zip(fitted_kgraph.result_.partitions, loaded.result_.partitions):
            assert restored.length == original.length
            assert np.array_equal(restored.labels, original.labels)
            assert restored.inertia == original.inertia
        for original, restored in zip(fitted_kgraph.length_scores_, loaded.length_scores_):
            assert restored == original
        # Format v5 stores no derived array: the consensus matrix is rebuilt
        # from the partition labels, bit for bit.
        consensus = loaded.consensus_matrix_
        assert consensus.dtype == fitted_kgraph.consensus_matrix_.dtype
        assert consensus.tobytes() == fitted_kgraph.consensus_matrix_.tobytes()
        stored = _read_arrays(artifact_dir)
        assert "consensus_matrix" not in stored
        assert not [name for name in stored if name.endswith("_features")]

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
        model = fit_reference(
            KGraph(n_clusters=3, n_lengths=2, random_state=0), small_dataset.data
        )
        path = save_model(model, tmp_path / "m")
        assert read_manifest(path)["pipeline"] is None

    def test_v1_artifact_without_pipeline_field_still_loads(
        self, artifact_dir, fitted_kgraph, fresh_series
    ):
        # Backward compatibility: a pre-pipeline (schema v1) artifact has no
        # "pipeline" manifest field, keeps its graphs in graphs.json, and
        # must load and predict identically.
        _write_legacy_layout(artifact_dir, fitted_kgraph, schema_version=1)
        loaded = load_model(artifact_dir)
        assert loaded.pipeline_report_ is None
        assert sorted(loaded.result_.graphs) == sorted(fitted_kgraph.result_.graphs)
        for length, graph in fitted_kgraph.result_.graphs.items():
            assert_graphs_identical(loaded.result_.graphs[length], graph)
        assert np.array_equal(
            loaded.predict(fresh_series), fitted_kgraph.predict(fresh_series)
        )

    def test_v3_artifact_with_graphs_json_still_loads(
        self, artifact_dir, fitted_kgraph, fresh_series, tmp_path
    ):
        _write_legacy_layout(artifact_dir, fitted_kgraph, schema_version=3)
        loaded = load_model(artifact_dir)
        for length, graph in fitted_kgraph.result_.graphs.items():
            assert_graphs_identical(loaded.result_.graphs[length], graph)
        assert np.array_equal(
            loaded.predict(fresh_series), fitted_kgraph.predict(fresh_series)
        )
        # The registry imports the old layout with its graphs.json, and
        # saving over it leaves a v4 artifact without one.
        record = ModelRegistry(tmp_path / "registry").import_artifact(artifact_dir)
        assert (record.path / "graphs.json").exists()
        save_model(loaded, artifact_dir)
        assert not (artifact_dir / "graphs.json").exists()
        assert read_manifest(artifact_dir)["schema_version"] == ARTIFACT_SCHEMA_VERSION


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

    def test_legacy_artifact_without_graphs_json_is_incomplete(
        self, artifact_dir, fitted_kgraph, tmp_path
    ):
        _write_legacy_layout(artifact_dir, fitted_kgraph, schema_version=3)
        (artifact_dir / "graphs.json").unlink()
        with pytest.raises(ArtifactError, match="missing graphs.json"):
            load_model(artifact_dir)
        with pytest.raises(ArtifactError, match="missing graphs.json"):
            ModelRegistry(tmp_path / "registry").import_artifact(artifact_dir)

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


def _corrupt(part, arrays, length, n_nodes):
    """Apply one corruption case to the graph arrays of ``length``."""
    key = f"graph_{length}_{part.split(':')[0]}"
    trajectories = arrays[f"graph_{length}_trajectories"]
    if part == "trajectories:float":
        arrays[key] = trajectories.astype(float)
    elif part == "trajectories:too-large-id":
        arrays[key] = trajectories.copy()
        arrays[key][1, 2] = n_nodes
    elif part == "trajectories:negative-id":
        arrays[key] = trajectories.copy()
        arrays[key][0, 0] = -1
    elif part == "trajectories:rows":
        arrays[key] = trajectories[:-1]
    elif part == "positions:columns":
        arrays[key] = np.hstack([arrays[key], arrays[key]])
    elif part == "patterns:rows":
        arrays[key] = arrays[key][:-1]
    elif part == "positions:missing":
        del arrays[key]
    return key


class TestCorruptGraphArrays:
    """A corrupt graph array is an ArtifactError naming it, never an IndexError."""

    CASES = [
        "trajectories:float",
        "trajectories:too-large-id",
        "trajectories:negative-id",
        "trajectories:rows",
        "positions:columns",
        "patterns:rows",
        "positions:missing",
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_load_model_names_the_array(self, fitted_kgraph, artifact_dir, case):
        length = fitted_kgraph.optimal_length_
        arrays = _read_arrays(artifact_dir)
        n_nodes = fitted_kgraph.result_.graphs[length].n_nodes
        key = _corrupt(case, arrays, length, n_nodes)
        _write_arrays(artifact_dir, arrays)
        with pytest.raises(ArtifactError, match=key):
            load_model(artifact_dir)

    @pytest.mark.parametrize("case", CASES)
    def test_registry_fetch_gives_the_typed_error(self, fitted_kgraph, tmp_path, case):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(fitted_kgraph, "cbf")
        length = fitted_kgraph.optimal_length_
        arrays = _read_arrays(record.path)
        key = _corrupt(case, arrays, length, fitted_kgraph.result_.graphs[length].n_nodes)
        _write_arrays(record.path, arrays)
        with pytest.raises(ArtifactError, match=key):
            registry.fetch("cbf")


class TestCorruptPartitionLabels:
    """Partition labels the consensus step rejects are an ArtifactError naming the array."""

    CASES = {
        "two-dimensional": lambda labels: labels[:, None],
        "too-few-rows": lambda labels: labels[:-1],
        "empty": lambda labels: labels[:0],
        "non-finite": lambda labels: np.where(labels == labels[0], np.nan, labels),
        "fractional": lambda labels: labels + 0.5,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_load_model_names_the_array(self, fitted_kgraph, artifact_dir, case):
        key = f"partition_{fitted_kgraph.optimal_length_}_labels"
        arrays = _read_arrays(artifact_dir)
        arrays[key] = self.CASES[case](arrays[key])
        _write_arrays(artifact_dir, arrays)
        with pytest.raises(ArtifactError, match=key):
            load_model(artifact_dir)

    def test_missing_array_is_named(self, fitted_kgraph, artifact_dir):
        key = f"partition_{fitted_kgraph.optimal_length_}_labels"
        arrays = _read_arrays(artifact_dir)
        del arrays[key]
        _write_arrays(artifact_dir, arrays)
        with pytest.raises(ArtifactError, match=key):
            load_model(artifact_dir)


def _drop_a_partition_graph(manifest, model):
    """Drop a non-selected length from ``fitted.lengths``; its partition stays."""
    dropped = next(length for length in model.result_.graphs if length != model.optimal_length_)
    manifest["fitted"]["lengths"].remove(dropped)


#: Manifest corruptions, each with the field its ArtifactError must name.
MANIFEST_CASES = [
    pytest.param(
        lambda m, _: m["partitions"][0].update(length="x"), r"partitions\[0\]\.length", id="length-string"
    ),
    pytest.param(
        lambda m, _: m["partitions"][0].update(length=None), r"partitions\[0\]\.length", id="length-null"
    ),
    pytest.param(lambda m, _: m["partitions"].__setitem__(0, [8, 1.0]), r"partitions\[0\]", id="row-list"),
    pytest.param(lambda m, _: m.__setitem__("partitions", 5), r"field partitions", id="partitions-number"),
    pytest.param(
        lambda m, _: m["partitions"][0].update(inertia="abc"), r"partitions\[0\]\.inertia", id="inertia"
    ),
    pytest.param(
        lambda m, _: m["graphoids"]["lambda"][0].update(nodes="ab"),
        r"graphoids\.lambda\[0\]\.nodes",
        id="graphoid-nodes",
    ),
    pytest.param(
        lambda m, _: m["graphoids"]["gamma"][0].update(edges=[[1]]),
        r"graphoids\.gamma\[0\]\.edges",
        id="graphoid-edges",
    ),
    pytest.param(lambda m, _: m.__setitem__("graphoids", [1]), r"field graphoids", id="graphoids-list"),
    pytest.param(
        lambda m, _: m["length_scores"][0].update(consistency="q"),
        r"length_scores\[0\]\.consistency",
        id="score",
    ),
    pytest.param(
        lambda m, _: m["fitted"].update(optimal_length=9999), r"fitted\.optimal_length", id="optimal-length"
    ),
    pytest.param(_drop_a_partition_graph, r"partitions\[\d\]\.length", id="partition-without-graph"),
    pytest.param(lambda m, _: m.__setitem__("partitions", []), r"field partitions", id="partitions-empty"),
    pytest.param(lambda m, _: m["config"].update(lengths=[2.5]), r"k-Graph config", id="config-lengths"),
]


def _corrupt_manifest(artifact_dir, corrupt, model):
    manifest = read_manifest(artifact_dir)
    corrupt(manifest, model)
    (artifact_dir / "manifest.json").write_text(json.dumps(manifest))


class TestCorruptManifestRows:
    """A malformed manifest row is an ArtifactError naming its field."""

    @pytest.mark.parametrize(("corrupt", "field"), MANIFEST_CASES)
    def test_load_model_names_the_field(self, fitted_kgraph, artifact_dir, corrupt, field):
        _corrupt_manifest(artifact_dir, corrupt, fitted_kgraph)
        with pytest.raises(ArtifactError, match=field):
            load_model(artifact_dir)

    @pytest.mark.parametrize(("corrupt", "field"), MANIFEST_CASES)
    def test_registry_fetch_gives_the_typed_error(self, fitted_kgraph, tmp_path, corrupt, field):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(fitted_kgraph, "cbf")
        _corrupt_manifest(record.path, corrupt, fitted_kgraph)
        with pytest.raises(ArtifactError, match=field):
            registry.fetch("cbf")


#: JSON that the parser itself rejects, as ``fitted.n_series``: an integer
#: literal past the interpreter's 4,300-digit limit, and arrays nested
#: deeper than the parser can follow.
UNPARSEABLE_LITERALS = [
    pytest.param("1" * 5001, id="digit-limit"),
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
]


def _write_literal_manifest(artifact_dir, literal):
    manifest = read_manifest(artifact_dir)
    manifest["fitted"]["n_series"] = "<literal>"
    text = json.dumps(manifest).replace('"<literal>"', literal)
    (artifact_dir / "manifest.json").write_text(text, encoding="utf-8")


class TestUnparseableManifest:
    """A manifest the JSON parser rejects is an ArtifactError, never a ValueError."""

    @pytest.mark.parametrize("literal", UNPARSEABLE_LITERALS)
    def test_load_model(self, artifact_dir, literal):
        _write_literal_manifest(artifact_dir, literal)
        with pytest.raises(ArtifactError, match="could not read manifest"):
            load_model(artifact_dir)

    @pytest.mark.parametrize("literal", UNPARSEABLE_LITERALS)
    def test_registry_fetch(self, fitted_kgraph, tmp_path, literal):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish(fitted_kgraph, "cbf")
        _write_literal_manifest(record.path, literal)
        with pytest.raises(ArtifactError, match="could not read manifest"):
            registry.fetch("cbf")


_SAVE_SEEDED_MODEL = textwrap.dedent(
    """
    import sys
    from repro import KGraph
    from repro.datasets.synthetic import make_cylinder_bell_funnel
    from repro.serve.artifacts import save_model

    dataset = make_cylinder_bell_funnel(n_series=40, length=96, noise=0.2, random_state=3)
    model = KGraph(n_clusters=3, n_lengths=3, random_state=3).fit(dataset.data)
    save_model(model, sys.argv[1], dataset="cbf", metadata={"seeded": True})
    """
)


def _comparable_manifest(artifact_dir):
    manifest = read_manifest(artifact_dir)
    del manifest["created_unix"], manifest["timings"]
    for stage in manifest["pipeline"]["stages"]:
        del stage["seconds"]
    return manifest


def test_saved_model_is_identical_across_interpreters(tmp_path):
    """A seeded fit saves the same artifact in any interpreter.

    Two fresh interpreters with different ``PYTHONHASHSEED`` values fit and
    save the same seeded k-Graph.  Every ``arrays.npz`` entry must match in
    name, dtype, shape and bytes, and the manifests must be equal except
    for the wall-clock fields ``created_unix``, ``timings`` and each
    pipeline stage's ``seconds``.  The ``.npz`` files are not compared
    byte for byte: ``np.savez`` stamps each zip entry with the time.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    targets = [tmp_path / "first", tmp_path / "second"]
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _SAVE_SEEDED_MODEL, str(target)],
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed},
            stderr=subprocess.PIPE,
            text=True,
        )
        for target, hash_seed in zip(targets, ("1", "2"))
    ]
    for run in runs:
        _, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
    first, second = (_read_arrays(target) for target in targets)
    assert sorted(first) == sorted(second)
    for name, array in first.items():
        other = second[name]
        assert (array.dtype, array.shape) == (other.dtype, other.shape), name
        assert array.tobytes() == other.tobytes(), name
    assert _comparable_manifest(targets[0]) == _comparable_manifest(targets[1])
