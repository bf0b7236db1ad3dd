"""Model registry: a disk store of artifacts with an in-memory LRU cache.

Artifacts are shelved as ``root/<dataset>/<model_id>/`` directories in the
format of :mod:`repro.serve.artifacts`.  Model ids are free-form; when none
is given, ``publish`` assigns sequential versions ``v1``, ``v2``, ... per
dataset.  ``fetch`` keeps the most recently used fitted models deserialised
in a bounded LRU cache so a serving process does not re-read hundreds of
megabytes of arrays on every request, and exposes hit/miss/eviction
counters for capacity tuning.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.exceptions import ArtifactError, ModelNotFoundError, ValidationError
from repro.serve.artifacts import (
    load_model,
    read_manifest,
    required_files,
    save_model,
)

_VERSION_PATTERN = re.compile(r"^v(\d+)$")
_SAFE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


def _check_name(value: str, kind: str) -> str:
    """Reject identifiers that would escape the registry root on disk."""
    if not isinstance(value, str) or not _SAFE_NAME.match(value):
        raise ValidationError(
            f"{kind} must match [A-Za-z0-9][A-Za-z0-9._-]* (got {value!r})"
        )
    return value


@dataclass(frozen=True)
class ModelRecord:
    """Registry listing entry: where an artifact lives and what it holds."""

    dataset: str
    model_id: str
    path: Path
    created_unix: float
    n_series: int
    n_clusters: int
    optimal_length: int
    library_version: str
    estimator: str = "kgraph"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable row for ``GET /models`` and the CLI."""
        return {
            "dataset": self.dataset,
            "model_id": self.model_id,
            "path": str(self.path),
            "created_unix": self.created_unix,
            "n_series": self.n_series,
            "n_clusters": self.n_clusters,
            "optimal_length": self.optimal_length,
            "library_version": self.library_version,
            "estimator": self.estimator,
        }


def _record_from_manifest(
    dataset: str, model_id: str, path: Path, manifest: Dict[str, object]
) -> ModelRecord:
    fitted = manifest.get("fitted", {})
    return ModelRecord(
        dataset=dataset,
        model_id=model_id,
        path=path,
        created_unix=float(manifest.get("created_unix", 0.0)),
        n_series=int(fitted.get("n_series", 0)),
        n_clusters=int(fitted.get("n_clusters", 0)),
        optimal_length=int(fitted.get("optimal_length", 0)),
        library_version=str(manifest.get("library_version", "")),
        # Absent in v1/v2 manifests, which are k-Graph by definition.
        estimator=str(manifest.get("estimator", "kgraph")),
    )


class ModelRegistry:
    """Disk-backed registry of fitted models with a bounded LRU cache.

    Parameters
    ----------
    root:
        Registry root directory (created on first publish).
    cache_size:
        Maximum number of deserialised models kept in memory; the least
        recently fetched model is evicted when the bound is exceeded.
    """

    def __init__(self, root: Union[str, Path], *, cache_size: int = 4) -> None:
        if int(cache_size) < 1:
            raise ValidationError(f"cache_size must be >= 1, got {cache_size}")
        self.root = Path(root)
        self.cache_size = int(cache_size)
        self._cache: "OrderedDict[Tuple[str, str], object]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    # publishing
    # ------------------------------------------------------------------ #
    def model_path(self, dataset: str, model_id: str) -> Path:
        """Directory an artifact of ``(dataset, model_id)`` lives in."""
        return self.root / _check_name(dataset, "dataset") / _check_name(model_id, "model_id")

    def next_model_id(self, dataset: str) -> str:
        """The next sequential version id (``v1``, ``v2``, ...) for ``dataset``.

        Counts every ``vN``-shaped directory — including in-flight
        reservations that have no manifest yet — so concurrent publishers
        never collide on an id.
        """
        dataset_dir = self.root / _check_name(dataset, "dataset")
        existing = []
        if dataset_dir.is_dir():
            for entry in dataset_dir.iterdir():
                match = _VERSION_PATTERN.match(entry.name)
                if match:
                    existing.append(int(match.group(1)))
        return f"v{max(existing, default=0) + 1}"

    def _reserve(self, dataset: str, model_id: Optional[str]) -> Tuple[str, Path]:
        """Allocate a model id and create its directory as a reservation.

        Must be called under the registry lock; the empty directory blocks
        other publishers from taking the same id while the (slow) artifact
        write happens outside the lock.
        """
        if model_id is None:
            model_id = self.next_model_id(dataset)
        path = self.model_path(dataset, model_id)
        try:
            path.mkdir(parents=True, exist_ok=False)
        except FileExistsError as exc:
            # mkdir is the atomic claim — it also loses cleanly to another
            # *process* publishing the same id (the lock only covers threads).
            raise ArtifactError(
                f"model {dataset}/{model_id} already exists in the registry; "
                "publish under a new model_id or delete the old artifact first"
            ) from exc
        return model_id, path

    def publish(
        self,
        model,
        dataset: str,
        *,
        model_id: Optional[str] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> ModelRecord:
        """Save a fitted estimator into the registry and return its record.

        Only the id allocation runs under the registry lock; the (slow)
        artifact write must not stall concurrent fetches or ``cache_stats``.
        The caller's live object is deliberately NOT cached: they may refit
        it later, and the cache must only ever serve what the on-disk
        artifact holds.
        """
        with self._lock:
            model_id, path = self._reserve(dataset, model_id)
        try:
            save_model(model, path, dataset=dataset, metadata=metadata)
        except BaseException:
            shutil.rmtree(path, ignore_errors=True)
            raise
        return _record_from_manifest(dataset, model_id, path, read_manifest(path))

    def import_artifact(
        self,
        artifact_dir: Union[str, Path],
        *,
        dataset: Optional[str] = None,
        model_id: Optional[str] = None,
    ) -> ModelRecord:
        """Copy an externally produced artifact directory into the registry.

        The artifact is validated (manifest format + schema version) before
        anything is copied.  ``dataset`` defaults to the name recorded in the
        artifact's manifest.
        """
        artifact_dir = Path(artifact_dir)
        manifest = read_manifest(artifact_dir)
        for required in required_files(manifest):
            if not (artifact_dir / required).exists():
                raise ArtifactError(
                    f"artifact {artifact_dir} is incomplete: missing {required}; "
                    "refusing to import it"
                )
        if dataset is None:
            dataset = manifest.get("dataset")
            if not dataset:
                raise ArtifactError(
                    f"artifact {artifact_dir} records no dataset name; pass dataset= "
                    "explicitly to import it"
                )
        with self._lock:
            model_id, target = self._reserve(dataset, model_id)
        try:
            # Payloads first, manifest last (atomically): the manifest is the
            # commit marker, so a crash mid-import leaves an unlisted
            # directory, never a listed-but-incomplete model.  The manifest is
            # also where a dataset override is recorded, keeping the stored
            # copy consistent with where the model is shelved.
            shutil.copytree(
                artifact_dir,
                target,
                dirs_exist_ok=True,
                ignore=shutil.ignore_patterns("manifest.json*"),
            )
            manifest = {**manifest, "dataset": dataset}
            manifest_tmp = target / "manifest.json.tmp"
            with manifest_tmp.open("w", encoding="utf-8") as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
            os.replace(manifest_tmp, target / "manifest.json")
        except BaseException:
            shutil.rmtree(target, ignore_errors=True)
            raise
        return _record_from_manifest(dataset, model_id, target, manifest)

    # ------------------------------------------------------------------ #
    # listing
    # ------------------------------------------------------------------ #
    def _model_ids(self, dataset: str) -> List[str]:
        dataset_dir = self.root / _check_name(dataset, "dataset")
        if not dataset_dir.is_dir():
            return []
        def order(model_id: str):
            # vN ids sort numerically (v2 < v10); free-form ids follow,
            # lexicographically — matching latest_model_id's notion of newest.
            match = _VERSION_PATTERN.match(model_id)
            if match:
                return (0, int(match.group(1)), model_id)
            return (1, 0, model_id)

        return sorted(
            (
                entry.name
                for entry in dataset_dir.iterdir()
                if _SAFE_NAME.match(entry.name) and (entry / "manifest.json").exists()
            ),
            key=order,
        )

    def datasets(self) -> List[str]:
        """Dataset names with at least one published model.

        Stray directories that could never have been published (wrong name
        shape, e.g. ``__pycache__`` or ``lost+found``) are skipped, not
        rejected — the registry root may be shared with other tooling.
        """
        if not self.root.is_dir():
            return []
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and _SAFE_NAME.match(entry.name) and self._model_ids(entry.name)
        )

    def list_models(self, dataset: Optional[str] = None) -> List[ModelRecord]:
        """Records of every published model (optionally for one dataset).

        A model whose manifest cannot be read (corrupt, mid-write by another
        process) is skipped rather than failing the whole listing — one bad
        artifact must not hide every healthy model from ``GET /models``.
        """
        names = [dataset] if dataset is not None else self.datasets()
        records: List[ModelRecord] = []
        for name in names:
            for model_id in self._model_ids(name):
                path = self.model_path(name, model_id)
                try:
                    manifest = read_manifest(path)
                except ArtifactError:
                    continue
                records.append(_record_from_manifest(name, model_id, path, manifest))
        return records

    def count_models(self, dataset: Optional[str] = None) -> int:
        """Number of published models, without reading any manifest.

        Unlike :meth:`list_models` this only walks the directory layout
        (one pass, no per-dataset re-walk), so it is cheap enough for
        liveness probes.
        """
        if dataset is not None:
            names = [dataset]
        elif self.root.is_dir():
            names = [
                entry.name
                for entry in self.root.iterdir()
                if entry.is_dir() and _SAFE_NAME.match(entry.name)
            ]
        else:
            names = []
        return sum(len(self._model_ids(name)) for name in names)

    def latest_model_id(self, dataset: str) -> str:
        """Newest model id of ``dataset`` (highest ``vN``, else newest on disk)."""
        model_ids = self._model_ids(dataset)
        if not model_ids:
            raise ModelNotFoundError(
                f"registry at {self.root} has no models for dataset {dataset!r}"
            )
        versioned = [
            (int(match.group(1)), model_id)
            for model_id in model_ids
            if (match := _VERSION_PATTERN.match(model_id))
        ]
        if versioned:
            return max(versioned)[1]
        # Non-vN ids fall back to creation time; skip unreadable manifests the
        # same way list_models does — one corrupt artifact must not take the
        # dataset down.
        timestamped = []
        for candidate in model_ids:
            try:
                manifest = read_manifest(self.model_path(dataset, candidate))
            except ArtifactError:
                continue
            timestamped.append((float(manifest.get("created_unix", 0.0)), candidate))
        if not timestamped:
            raise ArtifactError(
                f"no readable model manifest for dataset {dataset!r} at {self.root}"
            )
        return max(timestamped)[1]

    def describe(self, dataset: str, model_id: Optional[str] = None) -> Dict[str, object]:
        """Record + full manifest of one model (``model_id=None`` = latest)."""
        if model_id is None:
            model_id = self.latest_model_id(dataset)
        path = self.model_path(dataset, model_id)
        # No manifest = not published (possibly an in-flight reservation) —
        # the same "manifest is the commit marker" rule _model_ids applies.
        if not (path / "manifest.json").exists():
            raise ModelNotFoundError(f"model {dataset}/{model_id} is not in the registry")
        manifest = read_manifest(path)
        record = _record_from_manifest(dataset, model_id, path, manifest)
        return {**record.to_dict(), "manifest": manifest}

    # ------------------------------------------------------------------ #
    # fetching (LRU-cached)
    # ------------------------------------------------------------------ #
    def fetch(self, dataset: str, model_id: Optional[str] = None):
        """Load a fitted model (any estimator), serving repeats from the cache.

        Deserialisation of a cold artifact runs *outside* the registry lock
        — a slow multi-hundred-MB load must not stall ``cache_stats`` (the
        /healthz path) or concurrent fetches of other models.  Two threads
        racing on the same cold model may both load it; the first insert
        wins and is what both return.
        """
        if model_id is None:
            model_id = self.latest_model_id(dataset)
        key = (dataset, model_id)
        with self._lock:
            if key in self._cache:
                self._hits += 1
                self._cache.move_to_end(key)
                return self._cache[key]
            self._misses += 1
        path = self.model_path(dataset, model_id)
        # Commit-marker rule: a directory without manifest.json (in-flight or
        # crashed publish) is not a published model.
        if not (path / "manifest.json").exists():
            raise ModelNotFoundError(
                f"model {dataset}/{model_id} is not in the registry at {self.root}"
            )
        model = load_model(path)
        with self._lock:
            if key in self._cache:
                # A concurrent fetch won the race; serve its instance so every
                # caller shares one model object.
                self._cache.move_to_end(key)
                return self._cache[key]
            self._cache_put(key, model)
        return model

    def _cache_put(self, key: Tuple[str, str], model) -> None:
        self._cache[key] = model
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self._evictions += 1

    def cache_stats(self) -> Dict[str, object]:
        """Hit/miss/eviction counters plus the currently cached keys."""
        with self._lock:
            return {
                "size": len(self._cache),
                "capacity": self.cache_size,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "cached": [f"{dataset}/{model_id}" for dataset, model_id in self._cache],
            }
