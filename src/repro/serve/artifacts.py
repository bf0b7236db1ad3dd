"""Versioned on-disk artifacts for fitted, servable estimators.

An artifact (format v5) is a directory with two files:

* ``manifest.json`` — schema version, the estimator's registry name and
  typed config payload, fit metadata, per-length scores/partition
  diagnostics, graphoids, timings, and free-form user metadata.
  Everything a registry needs to *describe* the model without touching
  the heavy payloads.
* ``arrays.npz``    — the numeric arrays that determine the fitted model,
  stored losslessly so ``load_model(save_model(m)).predict(X)`` is
  bit-identical to ``m.predict(X)``.  For k-Graph: labels, per-length
  partition labels (``partition_{ℓ}_labels``), and the three arrays that
  determine each per-length :class:`~repro.graph.structure.TimeSeriesGraph`
  (``graph_{ℓ}_positions``, ``graph_{ℓ}_patterns`` and
  ``graph_{ℓ}_trajectories``); for baseline estimators: labels, centroids
  and cluster ids.

Arrays derived from these are not stored.  :func:`load_model` rebuilds the
consensus matrix M_C from the partition labels, for every format version;
the ``consensus_matrix`` and ``partition_{ℓ}_features`` arrays that formats
v1–v4 also hold are never read (each feature matrix F_{D,ℓ} is
:func:`~repro.core.graph_clustering.graph_features` of its graph).

Formats v1–v3 also held ``graphs.json``, the structural part of every graph
as JSON.  They still load: each graph is rebuilt through the same
validating constructor from the payload's node positions and trajectories
plus the stored pattern matrix (every other payload field is derived, so it
is not read).  :func:`required_files` is the one place that says which
files each format version needs.

The format deliberately avoids pickle: it is inspectable, diffable, safe to
load from untrusted sources, and guarded by the shared schema-version check
(:mod:`repro.utils.schema`) so files written by newer releases fail with an
"upgrade the library" message instead of a parser crash.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro import __version__ as _library_version
from repro.api.config import KGraphConfig
from repro.core.consensus import build_consensus_matrix
from repro.core.graph_clustering import GraphPartition
from repro.core.interpretability import LengthScore
from repro.core.kgraph import KGraph, KGraphResult
from repro.exceptions import (
    ArtifactError,
    GraphConstructionError,
    NotFittedError,
    ValidationError,
)
from repro.graph.graphoid import Graphoid
from repro.graph.structure import TimeSeriesGraph
from repro.utils.schema import check_schema_version
from repro.utils.validation import check_labels

ARTIFACT_FORMAT = "repro-model"
#: Format names of artifacts written by earlier releases; readers accept
#: them unchanged ("kgraph-model" was the v1/v2 era, when only k-Graph
#: could be exported).
LEGACY_ARTIFACT_FORMATS = frozenset({"kgraph-model"})
#: v2 added the optional ``pipeline`` manifest field (the stage pipeline's
#: config hash plus per-stage content-addressed cache keys).  v3 makes the
#: format estimator-generic: the manifest records ``estimator`` (registry
#: name), ``config`` (the typed config payload incl. its own version) and
#: ``config_version``, so any registered estimator with a prediction state
#: can be exported and served.  Readers accept v1/v2 artifacts unchanged —
#: they are k-Graph by definition, reconstructed from the legacy ``params``
#: block (a version-1 config payload).  v4 stores each graph as arrays in
#: ``arrays.npz`` and writes no ``graphs.json``.  v5 stores no derived array:
#: no ``consensus_matrix`` and no ``partition_{ℓ}_features``.
ARTIFACT_SCHEMA_VERSION = 5

MANIFEST_FILE = "manifest.json"
ARRAYS_FILE = "arrays.npz"
#: Written by formats v1-v3 only; see :func:`required_files`.
LEGACY_GRAPHS_FILE = "graphs.json"
#: The first format version that stores graphs as arrays.
_ARRAY_GRAPHS_VERSION = 4
#: The :class:`TimeSeriesGraph` arrays stored per length, in constructor order.
_GRAPH_ARRAYS = ("positions", "patterns", "trajectories")


def required_files(manifest: Dict[str, object]) -> Tuple[str, ...]:
    """The payload files (besides the manifest) an artifact must hold.

    ``manifest`` is a validated manifest (see :func:`read_manifest`).
    """
    if manifest["schema_version"] < _ARRAY_GRAPHS_VERSION:
        return (ARRAYS_FILE, LEGACY_GRAPHS_FILE)
    return (ARRAYS_FILE,)


# --------------------------------------------------------------------------- #
# serialisation helpers
# --------------------------------------------------------------------------- #
def _graphoid_to_payload(graphoid: Graphoid) -> Dict[str, object]:
    return {
        "cluster": int(graphoid.cluster),
        "kind": graphoid.kind,
        "threshold": float(graphoid.threshold),
        "nodes": [int(node) for node in graphoid.nodes],
        "edges": [[int(source), int(target)] for source, target in graphoid.edges],
        "node_scores": {
            str(node): float(score) for node, score in graphoid.node_scores.items()
        },
        "edge_scores": [
            [int(source), int(target), float(score)]
            for (source, target), score in graphoid.edge_scores.items()
        ],
    }


def _read_field(path: Path, field: str, parse, value):
    """``parse(value)``; a value it rejects is an ArtifactError naming ``field``."""
    try:
        return parse(value)
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ArtifactError(
            f"artifact {path} manifest field {field} is malformed: {exc}"
        ) from exc


def _read_row(path: Path, field: str, row: object, parsers) -> Dict[str, object]:
    """Read the JSON object ``row`` with one parser per key.

    A row that is not an object, a missing key and a value its parser
    rejects are each an :class:`ArtifactError` naming the field.
    """
    if not isinstance(row, dict):
        raise ArtifactError(
            f"artifact {path} manifest field {field} must be an object, "
            f"got {type(row).__name__}"
        )
    values = {}
    for key, parse in parsers.items():
        if key not in row:
            raise ArtifactError(f"artifact {path} manifest field {field} is missing {key!r}")
        values[key] = _read_field(path, f"{field}.{key}", parse, row[key])
    return values


def _read_rows(path: Path, field: str, rows: object, parsers) -> List[Dict[str, object]]:
    """:func:`_read_row` over each entry of the JSON list ``rows``."""
    if not isinstance(rows, list):
        raise ArtifactError(
            f"artifact {path} manifest field {field} must be a list, "
            f"got {type(rows).__name__}"
        )
    return [
        _read_row(path, f"{field}[{index}]", row, parsers)
        for index, row in enumerate(rows)
    ]


#: Parsers of the k-Graph manifest rows, one per key (see :func:`_read_row`).
_FITTED_FIELDS = {
    "n_series": int,
    "optimal_length": int,
    "lengths": lambda lengths: [int(length) for length in lengths],
}
_PARTITION_FIELDS = {"length": int, "inertia": float}
_LENGTH_SCORE_FIELDS = {"length": int, "consistency": float, "interpretability": float}
_GRAPHOID_FIELDS = {
    "cluster": int,
    "nodes": lambda nodes: [int(node) for node in nodes],
    "edges": lambda edges: [(int(source), int(target)) for source, target in edges],
    "node_scores": lambda scores: {
        int(node): float(score) for node, score in scores.items()
    },
    "edge_scores": lambda scores: {
        (int(source), int(target)): float(score) for source, target, score in scores
    },
    "kind": str,
    "threshold": float,
}


def _model_params(model: KGraph) -> Dict[str, object]:
    """The legacy flat ``params`` block, derived from the typed config.

    Kept in v3 manifests as a compatibility mirror of ``config`` (humans
    and external tooling diff it); a live Generator seed is already nulled
    by the config layer, which only records integer seeds.
    """
    payload = model.get_config().to_dict()
    payload.pop("version")
    return payload


# --------------------------------------------------------------------------- #
# public API
# --------------------------------------------------------------------------- #
def _prepare_artifact_dir(path: Union[str, Path]) -> Path:
    """Validate and create the target artifact directory."""
    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ArtifactError(f"artifact path {path} exists and is not a directory")
    if path.is_dir():
        expected = {MANIFEST_FILE, MANIFEST_FILE + ".tmp", ARRAYS_FILE, LEGACY_GRAPHS_FILE}
        stray = [p.name for p in path.iterdir() if p.name not in expected]
        if stray:
            raise ArtifactError(
                f"refusing to write artifact into non-empty directory {path} "
                f"(unexpected entries: {sorted(stray)[:5]})"
            )
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_artifact(
    path: Path, manifest: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> Path:
    """Write the arrays first, then the manifest atomically (commit marker).

    A crash mid-save leaves a directory without ``manifest.json``, which
    the registry ignores, instead of a listed-but-unloadable (or
    half-written) model.  For the same reason an overwrite un-commits the
    old artifact first — a stale manifest must never describe
    half-replaced payloads.
    """
    manifest_path = path / MANIFEST_FILE
    if manifest_path.exists():
        manifest_path.unlink()
    # An overwritten v1-v3 artifact leaves a graphs.json nothing reads.
    (path / LEGACY_GRAPHS_FILE).unlink(missing_ok=True)
    with (path / ARRAYS_FILE).open("wb") as handle:
        np.savez_compressed(handle, **arrays)
    manifest_tmp = path / (MANIFEST_FILE + ".tmp")
    with manifest_tmp.open("w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    os.replace(manifest_tmp, manifest_path)
    return path


def _manifest_header(
    model, dataset: Optional[str], metadata: Optional[Dict[str, object]]
) -> Dict[str, object]:
    """The estimator-generic manifest fields every artifact carries."""
    config = model.get_config()
    return {
        "format": ARTIFACT_FORMAT,
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "library_version": _library_version,
        "created_unix": time.time(),
        "dataset": dataset,
        # Schema v3: the estimator's registry name plus its typed config
        # payload — what makes the artifact loadable (and servable) for any
        # registered estimator, not just k-Graph.
        "estimator": getattr(model, "name", None) or config.config_name,
        "config": config.to_dict(),
        "config_version": int(type(config).version),
        "metadata": dict(metadata) if metadata else {},
    }


def save_model(
    model,
    path: Union[str, Path],
    *,
    dataset: Optional[str] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Persist a fitted estimator as a versioned artifact directory.

    Parameters
    ----------
    model:
        A fitted estimator: a :class:`KGraph`, or any estimator exposing
        the serving contract (``get_config`` plus the ``artifact_arrays``
        / ``artifact_fitted`` payload hooks, e.g.
        :class:`~repro.baselines.estimator.BaselineEstimator`).
    path:
        Target directory (created if needed; existing artifact files are
        overwritten, other existing content is rejected).
    dataset:
        Optional dataset name recorded in the manifest; registries use it to
        shelve the artifact.
    metadata:
        Free-form JSON-serialisable annotations stored under
        ``manifest["metadata"]``.
    """
    if isinstance(model, KGraph):
        return _save_kgraph_model(model, path, dataset=dataset, metadata=metadata)
    if hasattr(model, "get_config") and hasattr(model, "artifact_arrays"):
        return _save_estimator_model(model, path, dataset=dataset, metadata=metadata)
    raise ArtifactError(
        f"cannot save a {type(model).__name__}: not a KGraph and not an "
        "estimator exposing the artifact payload hooks (get_config / "
        "artifact_arrays / artifact_fitted)"
    )


def _save_estimator_model(
    model,
    path: Union[str, Path],
    *,
    dataset: Optional[str] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Write the generic (non-KGraph) estimator artifact layout."""
    manifest = _manifest_header(model, dataset, metadata)
    # artifact_fitted/artifact_arrays raise NotFittedError on unfitted
    # estimators before anything touches the disk.
    manifest["fitted"] = model.artifact_fitted()
    arrays = model.artifact_arrays()
    path = _prepare_artifact_dir(path)
    return _write_artifact(path, manifest, arrays)


def _save_kgraph_model(
    model: KGraph,
    path: Union[str, Path],
    *,
    dataset: Optional[str] = None,
    metadata: Optional[Dict[str, object]] = None,
) -> Path:
    """Write the full k-Graph artifact layout (graphs, partitions, scores)."""
    if model.result_ is None:
        raise NotFittedError(
            "cannot save an unfitted KGraph; call fit(data) before save_model()"
        )
    result = model.result_
    path = _prepare_artifact_dir(path)

    arrays: Dict[str, np.ndarray] = {"labels": result.labels}
    for length, graph in sorted(result.graphs.items()):
        for part in _GRAPH_ARRAYS:
            arrays[f"graph_{length}_{part}"] = getattr(graph, part)
    partition_rows: List[Dict[str, object]] = []
    for partition in result.partitions:
        arrays[f"partition_{partition.length}_labels"] = partition.labels
        graph = result.graphs[partition.length]
        partition_rows.append(
            {
                "length": int(partition.length),
                "inertia": float(partition.inertia),
                "n_nodes": int(graph.n_nodes),
                "n_edges": int(graph.n_edges),
            }
        )

    manifest: Dict[str, object] = {
        **_manifest_header(model, dataset, metadata),
        "params": _model_params(model),
        "fitted": {
            "n_series": int(result.labels.shape[0]),
            "n_clusters": int(result.n_clusters),
            "optimal_length": int(result.optimal_length),
            "lengths": [int(length) for length in sorted(result.graphs)],
        },
        "length_scores": [
            {
                "length": int(score.length),
                "consistency": float(score.consistency),
                "interpretability": float(score.interpretability),
            }
            for score in result.length_scores
        ],
        "partitions": partition_rows,
        "graphoids": {
            "lambda": [
                _graphoid_to_payload(g) for _, g in sorted(result.lambda_graphoids.items())
            ],
            "gamma": [
                _graphoid_to_payload(g) for _, g in sorted(result.gamma_graphoids.items())
            ],
        },
        "timings": {name: float(value) for name, value in result.timings.items()},
        # Schema v2: the provenance ledger of the pipeline-driven fit — which
        # stages ran vs replayed, their content-addressed keys, and the
        # config hash — so registries can tell two models apart (or dedup
        # them) without loading the payloads.
        "pipeline": (
            model.pipeline_report_.as_dict()
            if model.pipeline_report_ is not None
            else None
        ),
    }

    return _write_artifact(path, manifest, arrays)


def read_manifest(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate the manifest of an artifact directory."""
    path = Path(path)
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.exists():
        raise ArtifactError(f"{path} is not a model artifact: missing {MANIFEST_FILE}")
    try:
        with manifest_path.open("r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: undecodable bytes, malformed JSON, or an integer
        # literal past the interpreter's digit limit.  RecursionError:
        # arrays nested deeper than the parser can follow.
        raise ArtifactError(f"could not read manifest of {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArtifactError(f"manifest of {path} must be a JSON object")
    found_format = manifest.get("format")
    if found_format != ARTIFACT_FORMAT and found_format not in LEGACY_ARTIFACT_FORMATS:
        raise ArtifactError(
            f"{path} holds format {found_format!r}, expected "
            f"{ARTIFACT_FORMAT!r} (or the legacy {sorted(LEGACY_ARTIFACT_FORMATS)})"
        )
    try:
        check_schema_version(
            manifest.get("schema_version"),
            supported=ARTIFACT_SCHEMA_VERSION,
            context=f"model artifact {path}",
        )
    except ValidationError as exc:
        # The artifact layer's error contract is ArtifactError throughout.
        raise ArtifactError(str(exc)) from exc
    return manifest


def load_model(path: Union[str, Path]):
    """Reconstruct a fitted estimator from an artifact directory.

    Dispatches on the manifest's ``estimator`` field (absent in v1/v2
    artifacts, which are k-Graph by definition).  A loaded k-Graph carries
    the full :class:`KGraphResult` (graphs, partitions, consensus matrix,
    graphoids, scores), so every downstream consumer — ``predict``, the
    Graphint frames, graphoid recomputation — behaves exactly as it does
    on the in-memory original; other estimators are rebuilt from their
    typed config plus their stored prediction payloads.
    """
    path = Path(path)
    manifest = read_manifest(path)
    for required in required_files(manifest):
        if not (path / required).exists():
            raise ArtifactError(f"artifact {path} is incomplete: missing {required}")

    try:
        with np.load(path / ARRAYS_FILE) as payload:
            arrays = {key: payload[key] for key in payload.files}
    except (OSError, ValueError) as exc:
        raise ArtifactError(f"could not read arrays of {path}: {exc}") from exc

    estimator_name = manifest.get("estimator", "kgraph")
    if estimator_name != "kgraph":
        return _load_estimator_model(path, estimator_name, manifest, arrays)
    return _load_kgraph_model(path, manifest, arrays)


def _load_estimator_model(
    path: Path,
    estimator_name: str,
    manifest: Dict[str, object],
    arrays: Dict[str, np.ndarray],
):
    """Rebuild a non-KGraph estimator from its config + stored payloads.

    Dispatches through the estimator registry — the spec provides the
    config class and factory, the built estimator's ``restore_artifact``
    hook rehydrates the fitted state — so any *registered* estimator
    (including ones registered after this module shipped) loads without
    this layer naming concrete classes.
    """
    from repro.api.registry import default_registry

    for required in ("config", "fitted"):
        if required not in manifest:
            raise ArtifactError(
                f"artifact {path} manifest is missing required field {required!r}"
            )
    try:
        spec = default_registry().get(estimator_name)
    except ValidationError as exc:
        raise ArtifactError(
            f"artifact {path} names unknown estimator {estimator_name!r}: {exc}"
        ) from exc
    try:
        config = spec.config_cls.from_dict(manifest["config"])
    except ValidationError as exc:
        raise ArtifactError(
            f"artifact {path} holds an unreadable estimator config: {exc}"
        ) from exc
    config_method = getattr(config, "method", None)
    if config_method is not None and config_method != estimator_name:
        raise ArtifactError(
            f"artifact {path} names estimator {estimator_name!r} but its "
            f"config is for method {config_method!r}"
        )
    try:
        estimator = spec.build(config)
        restore = getattr(estimator, "restore_artifact", None)
        if restore is None:
            raise ArtifactError(
                f"estimator {estimator_name!r} does not expose the "
                "restore_artifact hook artifact loading needs"
            )
        return restore(manifest["fitted"], arrays)
    except ArtifactError:
        raise
    except (ValidationError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"artifact {path} holds a corrupt {estimator_name!r} payload: {exc}"
        ) from exc


def _kgraph_from_manifest(path: Path, manifest: Dict[str, object]) -> KGraph:
    """Build the (unfitted) KGraph shell an artifact describes.

    v3 manifests carry the typed ``config`` payload; v1/v2 manifests carry
    the flat ``params`` block, which is exactly a version-1
    :class:`KGraphConfig` payload — one migration path, no field list
    duplicated here.
    """
    if "config" in manifest:
        payload = manifest["config"]
    else:
        payload = {**manifest["params"], "version": 1}
    try:
        return KGraph(config=KGraphConfig.from_dict(payload))
    except ValidationError as exc:
        raise ArtifactError(
            f"artifact {path} holds an unreadable k-Graph config: {exc}"
        ) from exc


def _graph(path: Path, length: int, parts: Dict[str, object], source: str) -> TimeSeriesGraph:
    """Build one graph; constructor errors name ``source`` + the bad argument."""
    try:
        return TimeSeriesGraph(length, *(parts[part] for part in _GRAPH_ARRAYS))
    except (ValidationError, GraphConstructionError) as exc:
        # The constructor's messages start with the offending argument's name.
        raise ArtifactError(f"artifact {path} holds a corrupt graph: {source}{exc}") from exc


def _array_graphs(
    path: Path, fitted: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> Dict[int, TimeSeriesGraph]:
    """The graphs of a v4+ artifact, from its ``graph_{ℓ}_*`` arrays."""
    n_series = fitted["n_series"]
    graphs: Dict[int, TimeSeriesGraph] = {}
    for length in fitted["lengths"]:
        parts = {}
        for part in _GRAPH_ARRAYS:
            key = f"graph_{length}_{part}"
            if key not in arrays:
                raise ArtifactError(f"artifact {path} misses graph array {key!r}")
            parts[part] = arrays[key]
        if parts["trajectories"].shape[:1] != (n_series,):
            raise ArtifactError(
                f"artifact {path} array graph_{length}_trajectories has shape "
                f"{parts['trajectories'].shape}, expected {n_series} rows (one per "
                "training series)"
            )
        graphs[length] = _graph(path, length, parts, f"graph_{length}_")
    return graphs


def _legacy_graphs(path: Path, arrays: Dict[str, np.ndarray]) -> Dict[int, TimeSeriesGraph]:
    """The graphs of a v1-v3 artifact, rebuilt from ``graphs.json``.

    Only each payload's node positions and trajectories are read, with the
    ``graph_{ℓ}_patterns`` array; edges, weights and series counts are
    derived from them by the constructor.
    """
    graphs: Dict[int, TimeSeriesGraph] = {}
    try:
        with (path / LEGACY_GRAPHS_FILE).open("r", encoding="utf-8") as handle:
            payloads = json.load(handle)["graphs"]
        for payload in payloads:
            length = int(payload["length"])
            key = f"graph_{length}_patterns"
            if key not in arrays:
                raise ArtifactError(f"artifact {path} misses pattern matrix {key!r}")
            trajectories = payload["trajectories"]
            parts = {
                "positions": np.array([node["position"] for node in payload["nodes"]], dtype=float),
                "patterns": arrays[key],
                "trajectories": np.array(
                    [trajectories[str(series)] for series in range(int(payload["n_series"]))]
                ),
            }
            graphs[length] = _graph(path, length, parts, f"{LEGACY_GRAPHS_FILE} length {length}: ")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(f"could not read graphs of {path}: {exc}") from exc
    return graphs


def _load_kgraph_model(
    path: Path,
    manifest: Dict[str, object],
    arrays: Dict[str, np.ndarray],
) -> KGraph:
    for required in ("params", "fitted", "partitions", "length_scores"):
        if required not in manifest:
            raise ArtifactError(
                f"artifact {path} manifest is missing required field {required!r}"
            )
    if "labels" not in arrays:
        raise ArtifactError(f"artifact {path} arrays are missing entry 'labels'")
    model = _kgraph_from_manifest(path, manifest)

    fitted = _read_row(path, "fitted", manifest["fitted"], _FITTED_FIELDS)
    if manifest["schema_version"] < _ARRAY_GRAPHS_VERSION:
        graphs = _legacy_graphs(path, arrays)
    else:
        graphs = _array_graphs(path, fitted, arrays)

    def check_length(field: str, length: int) -> None:
        if length not in graphs:
            raise ArtifactError(
                f"artifact {path} manifest field {field} is {length}, which is "
                f"not a length of the stored graphs {sorted(graphs)}"
            )

    check_length("fitted.optimal_length", fitted["optimal_length"])
    partitions: List[GraphPartition] = []
    rows = _read_rows(path, "partitions", manifest["partitions"], _PARTITION_FIELDS)
    for index, row in enumerate(rows):
        length = row["length"]
        check_length(f"partitions[{index}].length", length)
        key = f"partition_{length}_labels"
        if key not in arrays:
            raise ArtifactError(f"artifact {path} misses partition array {key!r}")
        try:
            # Checked here, not by build_consensus_matrix, to name the array.
            check_labels(arrays[key], name=key, n_samples=fitted["n_series"])
        except ValidationError as exc:
            raise ArtifactError(f"artifact {path} holds corrupt partition labels: {exc}") from exc
        partitions.append(GraphPartition(labels=arrays[key], **row))
    if not partitions:
        raise ArtifactError(f"artifact {path} manifest field partitions is empty")

    graphoid_rows = manifest.get("graphoids", {})
    if not isinstance(graphoid_rows, dict):
        raise ArtifactError(
            f"artifact {path} manifest field graphoids must be an object, "
            f"got {type(graphoid_rows).__name__}"
        )
    graphoids = {
        kind: {
            row["cluster"]: Graphoid(**row)
            for row in _read_rows(
                path, f"graphoids.{kind}", graphoid_rows.get(kind, []), _GRAPHOID_FIELDS
            )
        }
        for kind in ("lambda", "gamma")
    }
    length_scores = _read_rows(
        path, "length_scores", manifest["length_scores"], _LENGTH_SCORE_FIELDS
    )
    timings = _read_field(
        path,
        "timings",
        lambda values: {str(name): float(value) for name, value in values.items()},
        manifest.get("timings", {}),
    )

    model.result_ = KGraphResult(
        labels=arrays["labels"],
        graphs=graphs,
        partitions=partitions,
        consensus_matrix=build_consensus_matrix(
            [partition.labels for partition in partitions]
        ),
        length_scores=[LengthScore(**row) for row in length_scores],
        optimal_length=fitted["optimal_length"],
        lambda_graphoids=graphoids["lambda"],
        gamma_graphoids=graphoids["gamma"],
        timings=timings,
    )
    model.labels_ = model.result_.labels
    return model
