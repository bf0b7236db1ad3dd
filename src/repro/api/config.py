"""Typed, versioned estimator configs — the single source of parameter truth.

Before this module, k-Graph's parameters were re-declared independently in
``KGraph.__init__``, the CLI flags, the k-Graph grid sweep, the serve manifest
schema and each pipeline stage's ``config_keys``.  An
:class:`EstimatorConfig` subclass replaces all of those declarations with
one frozen dataclass per estimator family:

* **defaults + validation** happen once, in ``__post_init__`` — a parameter
  combination that cannot fit fails at *config construction* with the
  offending field named, never three stages into a grid sweep;
* **stable JSON round-trip** — :meth:`to_dict` / :meth:`from_dict` (and the
  ``to_json`` / ``from_json`` string forms) carry an explicit schema
  ``version``; unknown keys are rejected *by name*, payloads written by a
  newer library version fail with an "upgrade the library" message, and
  older payloads are upgraded through per-version migration hooks
  (:meth:`_migrate`);
* **canonical hashing** — :meth:`config_hash` digests the canonical JSON
  form, so pipeline checkpoints, serve manifests and benchmark grids all
  share one process-stable identity for "the same configuration";
* **grid expansion** — :meth:`expand_grid` turns a dict-of-lists into the
  concrete config list a parameter sweep runs, deterministically.

The concrete configs (:class:`KGraphConfig`, :class:`BaselineConfig`) live
here too; estimator classes hold a config instance and expose it through
the :class:`~repro.api.protocol.Estimator` protocol's ``get_config`` /
``from_config`` pair.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    ClassVar,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
)

import numpy as np

from repro.exceptions import ConfigError, ValidationError
from repro.utils.validation import check_positive_int, check_probability

C = TypeVar("C", bound="EstimatorConfig")


def _jsonify(value: object) -> object:
    """Convert a config field value to its canonical JSON form."""
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


def grid_combinations(
    grid: Mapping[str, Sequence[object]],
) -> List[Dict[str, object]]:
    """Expand a dict-of-lists grid into override dicts, deterministically.

    The single source of the expansion-order contract: keys are processed
    in sorted order and combined with :func:`itertools.product` (rightmost
    key varies fastest).  Both :meth:`EstimatorConfig.expand_grid` and the
    benchmark harness's estimator sweeps expand through here, so their
    orderings can never drift apart.
    """
    if not isinstance(grid, Mapping):
        raise ConfigError(
            f"a grid must be a mapping of field name -> list of candidate "
            f"values, got {type(grid).__name__}"
        )
    keys = sorted(grid)
    value_lists: List[List[object]] = []
    for key in keys:
        values = grid[key]
        if isinstance(values, (str, bytes)) or not isinstance(values, Sequence):
            raise ConfigError(
                f"grid entry {key!r} must be a list of candidate values, "
                f"got {type(values).__name__}"
            )
        if not values:
            raise ConfigError(f"grid entry {key!r} is an empty list")
        value_lists.append(list(values))
    return [
        dict(zip(keys, combination))
        for combination in itertools.product(*value_lists)
    ]


class EstimatorConfig:
    """Base class for frozen, versioned estimator configuration dataclasses.

    Subclasses are ``@dataclass(frozen=True)`` declarations whose fields
    *are* the estimator's parameters.  Two class attributes define the
    serialisation contract:

    ``config_name``
        Stable identifier mixed into :meth:`config_hash` so two config
        classes with coincidentally equal fields never collide.
    ``version``
        Schema version written by :meth:`to_dict`.  Bump it on any
        incompatible payload change and add a :meth:`_migrate` step that
        upgrades the previous version's payloads.
    """

    config_name: ClassVar[str] = "estimator"
    version: ClassVar[int] = 1

    # ------------------------------------------------------------------ #
    # serialisation
    # ------------------------------------------------------------------ #
    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        """The config's field names, in declaration order."""
        return tuple(f.name for f in dataclasses.fields(cls))

    def to_dict(self) -> Dict[str, object]:
        """Fully-explicit JSON-ready payload, including the schema version."""
        payload: Dict[str, object] = {"version": int(type(self).version)}
        for name in self.field_names():
            payload[name] = _jsonify(getattr(self, name))
        return payload

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialise to a JSON string (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def _migrate(cls, payload: Dict[str, object], from_version: int) -> Dict[str, object]:
        """Upgrade a ``from_version`` payload one step; subclasses override.

        Called repeatedly by :meth:`from_dict` until the payload reaches the
        current :attr:`version`.  The default refuses: a class that bumps
        its version without registering the matching migration step is a
        bug, and it should surface as one.
        """
        raise ConfigError(
            f"{cls.__name__} has no migration from config version {from_version} "
            f"to {from_version + 1}; this payload cannot be upgraded"
        )

    @classmethod
    def _check_version(cls, payload: Mapping[str, object]) -> Tuple[Dict[str, object], int]:
        mutable = dict(payload)
        found = mutable.pop("version", 1)
        if isinstance(found, bool) or not isinstance(found, int) or found < 1:
            raise ConfigError(
                f"{cls.__name__} payload has a malformed version {found!r}; "
                "expected a positive integer"
            )
        if found > cls.version:
            raise ConfigError(
                f"{cls.__name__} payload uses config version {found} but this "
                f"library only understands versions <= {cls.version}; upgrade "
                "the library to read it"
            )
        return mutable, found

    @classmethod
    def _check_keys(cls, payload: Mapping[str, object], *, require_all: bool) -> None:
        names = set(cls.field_names())
        unknown = sorted(set(payload) - names)
        if unknown:
            raise ConfigError(
                f"unknown {cls.__name__} key(s) {unknown}; valid keys: "
                f"{sorted(names)}"
            )
        if require_all:
            missing = sorted(names - set(payload))
            if missing:
                raise ConfigError(
                    f"{cls.__name__} payload is missing key(s) {missing}; a "
                    f"version-{cls.version} payload written by to_dict() "
                    "carries every field explicitly"
                )

    @classmethod
    def from_dict(cls: Type[C], payload: Mapping[str, object]) -> C:
        """Reconstruct a config from a :meth:`to_dict` payload.

        A missing ``version`` key means version 1 (the convention every
        legacy flat-params payload in this library follows).  Older
        versions are upgraded step-by-step through :meth:`_migrate`;
        current-version payloads must carry every field explicitly and may
        not carry unknown keys — both failure modes name the keys.
        """
        if not isinstance(payload, Mapping):
            raise ConfigError(
                f"{cls.__name__} payload must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        mutable, found = cls._check_version(payload)
        while found < cls.version:
            mutable = cls._migrate(mutable, found)
            found += 1
        cls._check_keys(mutable, require_all=True)
        return cls(**mutable)

    @classmethod
    def from_json(cls: Type[C], text: str) -> C:
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:
            # ValueError: malformed JSON, or an integer literal past the
            # interpreter's digit limit.  RecursionError: arrays nested
            # deeper than the parser can follow.
            raise ConfigError(f"{cls.__name__} payload is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_options(
        cls: Type[C],
        payload: Optional[Mapping[str, object]] = None,
        overrides: Optional[Mapping[str, object]] = None,
    ) -> C:
        """Build a config from *sparse* human-authored options.

        Unlike the strict :meth:`from_dict` (which reads complete payloads
        written by :meth:`to_dict`), this is the entry point for CLI
        ``--config file.json`` / ``--set key=value`` input: absent fields
        take their defaults, ``overrides`` win over ``payload``, versioned
        payloads are migrated, and unknown keys still fail by name.
        """
        mutable, found = cls._check_version(payload or {})
        while found < cls.version:
            mutable = cls._migrate(mutable, found)
            found += 1
        mutable.update(overrides or {})
        cls._check_keys(mutable, require_all=False)
        return cls(**mutable)

    def replace(self: C, **changes: object) -> C:
        """A copy with ``changes`` applied (re-validated on construction)."""
        if changes:
            self._check_keys(changes, require_all=False)
        return dataclasses.replace(self, **changes)  # type: ignore[type-var]

    # ------------------------------------------------------------------ #
    # identity
    # ------------------------------------------------------------------ #
    def canonical_json(self) -> str:
        """Canonical (sorted, compact) JSON form :meth:`config_hash` digests."""
        return json.dumps(
            {"config": type(self).config_name, **self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )

    def config_hash(self) -> str:
        """Process-stable sha256 identity of this configuration.

        The digest covers the config name, schema version and every field
        in canonical JSON form, so equal configs hash equally across
        processes, machines and sessions — the property pipeline caches,
        serve manifests and benchmark grids key on.
        """
        return hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------ #
    # grid expansion
    # ------------------------------------------------------------------ #
    @classmethod
    def expand_grid(
        cls: Type[C],
        grid: Mapping[str, Sequence[object]],
        *,
        base: Optional[C] = None,
    ) -> List[C]:
        """Expand a dict-of-lists into concrete configs, deterministically.

        Combination order is :func:`grid_combinations`' contract (sorted
        keys, rightmost varying fastest), so the same grid always expands
        to the same config sequence.  Every combination is validated at
        construction — an invalid value fails here, naming the field,
        before any fit starts.
        """
        cls._check_keys(grid if isinstance(grid, Mapping) else {}, require_all=False)
        base_fields: Dict[str, object] = (
            {name: getattr(base, name) for name in cls.field_names()} if base is not None else {}
        )
        configs: List[C] = []
        for combination in grid_combinations(grid):
            fields = dict(base_fields)
            fields.update(combination)
            configs.append(cls(**fields))
        return configs


# --------------------------------------------------------------------------- #
# k-Graph
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class KGraphConfig(EstimatorConfig):
    """Every k-Graph parameter, validated once, serialised stably.

    Field ``metadata`` records which pipeline stage each parameter feeds
    (``stages``) — :meth:`stage_config_keys` derives the stages'
    ``config_keys`` from it, so the checkpoint-invalidation rules of
    :mod:`repro.pipeline.kgraph_stages` and this declaration can never
    drift apart — plus the one-line ``help`` the CLI's ``estimators
    describe`` prints.

    Version history:

    1. The legacy flat ``params`` mapping embedded in model-artifact
       manifests (schema v1/v2) and accepted by ``KGraph(**kwargs)``:
       same field names, but fields at their defaults could be omitted.
    2. Adds the explicit ``version`` key and requires ``to_dict`` payloads
       to carry every field; the v1 migration fills absent fields with
       their defaults.
    """

    config_name: ClassVar[str] = "kgraph"
    version: ClassVar[int] = 2

    n_clusters: int = field(
        default=3,
        metadata={
            "stages": ("graph_cluster", "consensus"),
            "help": "number of clusters k",
        },
    )
    n_lengths: int = field(
        default=4,
        metadata={
            "stages": (),
            "help": "size M of the automatic subsequence-length grid "
            "(ignored when lengths is given)",
        },
    )
    lengths: Optional[Tuple[int, ...]] = field(
        default=None,
        metadata={
            "stages": (),
            "help": "explicit subsequence lengths (each >= 2); omit to use "
            "the automatic grid",
        },
    )
    stride: int = field(
        default=1,
        metadata={
            "stages": ("embed",),
            "help": "subsequence extraction stride (1 = every subsequence)",
        },
    )
    n_sectors: int = field(
        default=24,
        metadata={
            "stages": ("embed",),
            "help": "angular sectors of the radial-scan node extraction",
        },
    )
    feature_mode: str = field(
        default="both",
        metadata={
            "stages": ("graph_cluster",),
            "help": "graph features clustered per length: 'both', 'nodes' "
            "or 'edges'",
        },
    )
    lambda_threshold: float = field(
        default=0.5,
        metadata={
            "stages": ("interpretability",),
            "help": "lambda-graphoid exclusivity threshold in [0, 1]",
        },
    )
    gamma_threshold: float = field(
        default=0.5,
        metadata={
            "stages": ("interpretability",),
            "help": "gamma-graphoid representativity threshold in [0, 1]",
        },
    )
    random_state: Optional[int] = field(
        default=None,
        metadata={
            "stages": (),
            "help": "integer seed controlling every stochastic sub-step "
            "(None = fresh entropy)",
        },
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "n_clusters", check_positive_int(self.n_clusters, "n_clusters", minimum=2)
        )
        object.__setattr__(
            self, "n_lengths", check_positive_int(self.n_lengths, "n_lengths")
        )
        if self.lengths is not None:
            if isinstance(self.lengths, (str, bytes)) or not isinstance(
                self.lengths, (Sequence, np.ndarray)
            ):
                raise ValidationError(
                    f"lengths must be a list of integers >= 2 or None, got "
                    f"{type(self.lengths).__name__}"
                )
            values = [check_positive_int(v, "length", minimum=2) for v in self.lengths]
            if not values:
                raise ValidationError(
                    "lengths must not be empty; omit it (or pass None) to use "
                    "the automatic n_lengths grid"
                )
            # Canonical sorted-unique form: two configs naming the same
            # length set in different orders are the same configuration
            # (and must hash equally).
            object.__setattr__(self, "lengths", tuple(sorted(set(values))))
        object.__setattr__(self, "stride", check_positive_int(self.stride, "stride"))
        object.__setattr__(
            self, "n_sectors", check_positive_int(self.n_sectors, "n_sectors", minimum=2)
        )
        if self.feature_mode not in {"both", "nodes", "edges"}:
            raise ValidationError(
                f"feature_mode must be 'both', 'nodes' or 'edges', got "
                f"{self.feature_mode!r}"
            )
        object.__setattr__(
            self,
            "lambda_threshold",
            check_probability(self.lambda_threshold, "lambda_threshold"),
        )
        object.__setattr__(
            self,
            "gamma_threshold",
            check_probability(self.gamma_threshold, "gamma_threshold"),
        )
        if self.random_state is not None:
            if isinstance(self.random_state, bool) or not isinstance(
                self.random_state, (int, np.integer)
            ):
                raise ValidationError(
                    "random_state must be None or a non-negative integer in a "
                    f"config, got {type(self.random_state).__name__}"
                )
            if self.random_state < 0:
                raise ValidationError(
                    f"random_state must be non-negative, got {self.random_state}"
                )
            object.__setattr__(self, "random_state", int(self.random_state))

    @classmethod
    def _migrate(cls, payload: Dict[str, object], from_version: int) -> Dict[str, object]:
        if from_version == 1:
            # v1 payloads (legacy manifest params / plain kwargs) could omit
            # fields sitting at their defaults; v2 payloads are fully
            # explicit.  Filling the defaults in is the entire upgrade.
            upgraded = dict(payload)
            for f in dataclasses.fields(cls):
                upgraded.setdefault(f.name, f.default)
            return upgraded
        return super()._migrate(payload, from_version)

    # ------------------------------------------------------------------ #
    # pipeline-stage views
    # ------------------------------------------------------------------ #
    @classmethod
    def stage_config_keys(cls, stage: str) -> Tuple[str, ...]:
        """Field names feeding pipeline stage ``stage``, in declared order.

        This is the single source the k-Graph stages derive their
        ``config_keys`` from — a field tagged with a stage automatically
        participates in that stage's cache key.
        """
        return tuple(
            f.name
            for f in dataclasses.fields(cls)
            if stage in f.metadata.get("stages", ())
        )

    @classmethod
    def stage_fields(cls) -> Tuple[str, ...]:
        """Every field that feeds at least one pipeline stage."""
        return tuple(
            f.name for f in dataclasses.fields(cls) if f.metadata.get("stages", ())
        )

    def stage_config(self) -> Dict[str, object]:
        """The flat config mapping the k-Graph pipeline stages read."""
        return {name: getattr(self, name) for name in self.stage_fields()}


# --------------------------------------------------------------------------- #
# baselines
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BaselineConfig(EstimatorConfig):
    """Generic config shared by every registered baseline method.

    The baseline runners in :mod:`repro.baselines.registry` expose exactly
    three degrees of freedom — which method, how many clusters, and the
    seed — so one config class covers all of them.  ``method`` names the
    registry entry; its existence is checked when the estimator is built
    (the config layer stays import-light), everything else here.
    """

    config_name: ClassVar[str] = "baseline"
    version: ClassVar[int] = 1

    method: str = field(
        default="",
        metadata={"help": "estimator registry name of the baseline to run"},
    )
    n_clusters: Optional[int] = field(
        default=None,
        metadata={
            "help": "number of clusters; None defers to the dataset's "
            "ground-truth class count (fallback 3)",
        },
    )
    random_state: Optional[int] = field(
        default=None,
        metadata={"help": "integer seed forwarded to the method (None = fresh)"},
    )

    def __post_init__(self) -> None:
        if not isinstance(self.method, str) or not self.method.strip():
            raise ValidationError(
                "method must be a non-empty baseline registry name, got "
                f"{self.method!r}"
            )
        object.__setattr__(self, "method", self.method.strip().lower())
        if self.n_clusters is not None:
            object.__setattr__(
                self, "n_clusters", check_positive_int(self.n_clusters, "n_clusters")
            )
        if self.random_state is not None:
            if isinstance(self.random_state, bool) or not isinstance(
                self.random_state, (int, np.integer)
            ):
                raise ValidationError(
                    "random_state must be None or a non-negative integer in a "
                    f"config, got {type(self.random_state).__name__}"
                )
            if self.random_state < 0:
                raise ValidationError(
                    f"random_state must be non-negative, got {self.random_state}"
                )
            object.__setattr__(self, "random_state", int(self.random_state))


def config_field_info(config_cls: Type[EstimatorConfig]) -> List[Dict[str, Any]]:
    """Describe a config class's fields for CLI/docs rendering.

    One row per field: name, default, the pipeline stages it feeds (when
    declared) and the one-line help string from the field metadata.
    """
    rows: List[Dict[str, Any]] = []
    for f in dataclasses.fields(config_cls):
        row: Dict[str, Any] = {
            "name": f.name,
            "default": _jsonify(f.default),
            "help": f.metadata.get("help", ""),
        }
        stages = f.metadata.get("stages")
        if stages:
            row["stages"] = list(stages)
        rows.append(row)
    return rows
