"""Tests for repro.api: configs, protocols, registry, and the layers using them."""

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    BaselineConfig,
    ConfigError,
    Estimator,
    KGraphConfig,
    SupportsServing,
    default_registry,
)
from repro.baselines.estimator import BaselineEstimator
from repro.benchmark.runner import BenchmarkRunner, run_single_benchmark
from repro.core.kgraph import KGraph
from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.exceptions import BenchmarkError, ValidationError

#: Committed digests: config_hash must be stable across processes, machines
#: and sessions — these change only when the config schema itself changes
#: (which is a deliberate, versioned event).
KGRAPH_DEFAULT_HASH = "7ffc9a5492dbe61b4c4880d504513e7ac99dc1efa2ad3e95a0e9e31bbc40e2bf"
KMEANS_DEFAULT_HASH = "c1a1fbebd3000e7d7785005ef96d129d24570c57e1e38781be4f4d4a1a45277c"

#: Estimators whose fits take whole seconds even on the tiny dataset; the
#: cheap shape checks still cover them, the double-fit equivalence check
#: runs on the representative subset below.
REFIT_CHECK_NAMES = ["kgraph", "kmeans", "gmm", "kshape", "dbscan", "featts_like"]


@pytest.fixture(scope="module")
def tiny_dataset():
    return make_cylinder_bell_funnel(n_series=12, length=32, noise=0.2, random_state=3)


def _spec_params(name):
    """Small, fast parameters per estimator for conformance tests."""
    params = {"n_clusters": 3, "random_state": 0}
    if name == "kgraph":
        params["n_lengths"] = 2
    return params


class TestConfigRoundTrip:
    def test_json_round_trip_is_identity(self):
        config = KGraphConfig(
            n_clusters=4, lengths=[20, 10], n_sectors=16, random_state=7
        )
        assert KGraphConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"n_clusters": ' + "1" * 5001 + "}", id="digit-limit"),
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep-nesting"),
        ],
    )
    def test_unparseable_json_is_a_config_error(self, text):
        with pytest.raises(ConfigError, match="not valid JSON"):
            KGraphConfig.from_json(text)

    def test_to_dict_carries_every_field_and_version(self):
        payload = KGraphConfig().to_dict()
        assert payload["version"] == KGraphConfig.version
        assert set(payload) == set(KGraphConfig.field_names()) | {"version"}

    def test_unknown_key_is_named(self):
        payload = {**KGraphConfig().to_dict(), "n_neighbours": 5}
        with pytest.raises(ConfigError, match="n_neighbours"):
            KGraphConfig.from_dict(payload)

    def test_missing_key_is_named_at_current_version(self):
        payload = KGraphConfig().to_dict()
        del payload["stride"]
        with pytest.raises(ConfigError, match="stride"):
            KGraphConfig.from_dict(payload)

    def test_newer_version_rejected_with_upgrade_message(self):
        payload = {**KGraphConfig().to_dict(), "version": KGraphConfig.version + 1}
        with pytest.raises(ConfigError, match="upgrade the library"):
            KGraphConfig.from_dict(payload)

    def test_malformed_version_rejected(self):
        with pytest.raises(ConfigError, match="version"):
            KGraphConfig.from_dict({"version": "two"})

    def test_baseline_config_round_trip(self):
        config = BaselineConfig(method="KMeans", n_clusters=4, random_state=1)
        assert config.method == "kmeans"  # canonicalised
        assert BaselineConfig.from_json(config.to_json()) == config

    def test_lengths_canonicalised_to_sorted_unique_tuple(self):
        config = KGraphConfig(lengths=[20, 10, 20])
        assert config.lengths == (10, 20)

    def test_from_options_accepts_sparse_input(self):
        config = KGraphConfig.from_options({"n_clusters": 5}, {"stride": 2})
        assert (config.n_clusters, config.stride, config.n_sectors) == (5, 2, 24)
        with pytest.raises(ConfigError, match="striide"):
            KGraphConfig.from_options(overrides={"striide": 2})


#: Malformed field values as they arrive from JSON (``from_dict``, model
#: manifests, ``--set``) or from callers, with the error each must raise.
MALFORMED_FIELDS = [
    pytest.param("lengths", [2.7, 10.9], "length must be an integer", id="float"),
    pytest.param("lengths", [[1]], "length must be an integer", id="nested-list"),
    pytest.param("lengths", [None], "length must be an integer", id="none"),
    pytest.param("lengths", [{}], "length must be an integer", id="object"),
    pytest.param("lengths", ["a"], "length must be an integer", id="string"),
    pytest.param("lengths", [float("nan")], "length must be an integer", id="nan"),
    pytest.param("lengths", [float("inf")], "length must be an integer", id="inf"),
    pytest.param("lengths", [True], "length must be an integer", id="bool"),
    pytest.param("lambda_threshold", 10**400, "lambda_threshold must be a float", id="huge-int"),
    pytest.param(
        "lambda_threshold", 10**5000, "lambda_threshold must be a float", id="past-digit-limit"
    ),
]


class TestMalformedFields:
    """A malformed value is a ValidationError naming it, never a silent cast."""

    @pytest.mark.parametrize(("name", "value", "message"), MALFORMED_FIELDS)
    def test_constructor_rejects(self, name, value, message):
        with pytest.raises(ValidationError, match=message):
            KGraphConfig(**{name: value})

    @pytest.mark.parametrize(("name", "value", "message"), MALFORMED_FIELDS)
    def test_from_dict_rejects(self, name, value, message):
        payload = {**KGraphConfig().to_dict(), name: value}
        with pytest.raises(ValidationError, match=message):
            KGraphConfig.from_dict(payload)


class TestMigration:
    def test_version_1_payload_fills_defaults(self):
        # v1 = the legacy manifest-params layout: flat, no version key,
        # default-valued fields may be absent.
        config = KGraphConfig.from_dict({"n_clusters": 4, "stride": 2})
        assert config.n_clusters == 4
        assert config.stride == 2
        assert config.n_sectors == 24  # filled by the v1 -> v2 migration

    def test_explicit_version_1_is_migrated_too(self):
        config = KGraphConfig.from_dict({"version": 1, "feature_mode": "edges"})
        assert config.feature_mode == "edges"

    def test_unregistered_migration_step_fails_loudly(self):
        class FutureConfig(KGraphConfig):
            version = 4

        with pytest.raises(ConfigError, match="no migration"):
            FutureConfig.from_dict({"version": 3, **KGraphConfig().to_dict()})


class TestConfigHash:
    def test_hash_is_process_stable(self):
        # Committed digests: equality across processes/machines/sessions is
        # the whole point of a canonical hash.
        assert KGraphConfig().config_hash() == KGRAPH_DEFAULT_HASH
        assert BaselineConfig(method="kmeans").config_hash() == KMEANS_DEFAULT_HASH

    def test_equal_configs_hash_equally(self):
        a = KGraphConfig(lengths=[10, 20])
        b = KGraphConfig(lengths=(20, 10))  # different declaration order
        assert a == b
        assert a.config_hash() == b.config_hash()

    def test_different_configs_hash_differently(self):
        assert KGraphConfig().config_hash() != KGraphConfig(stride=2).config_hash()

    def test_pipeline_report_uses_canonical_hash(self, tiny_dataset):
        model = KGraph(n_clusters=3, n_lengths=2, random_state=0).fit(tiny_dataset.data)
        assert model.pipeline_report_.config_hash == model.get_config().config_hash()


class TestExpandGrid:
    def test_deterministic_and_ordered(self):
        grid = {"n_clusters": [2, 3], "feature_mode": ["both", "edges"]}
        first = KGraphConfig.expand_grid(grid)
        second = KGraphConfig.expand_grid(grid)
        assert first == second
        # Keys sorted (feature_mode before n_clusters), rightmost fastest.
        combos = [(c.feature_mode, c.n_clusters) for c in first]
        assert combos == [("both", 2), ("both", 3), ("edges", 2), ("edges", 3)]

    def test_base_config_applied(self):
        base = KGraphConfig(n_sectors=8, random_state=5)
        configs = KGraphConfig.expand_grid({"stride": [1, 2]}, base=base)
        assert all(c.n_sectors == 8 and c.random_state == 5 for c in configs)
        assert [c.stride for c in configs] == [1, 2]

    def test_invalid_value_fails_at_expansion_naming_field(self):
        with pytest.raises(ValidationError, match="feature_mode"):
            KGraphConfig.expand_grid({"feature_mode": ["both", "magic"]})

    def test_unknown_grid_key_is_named(self):
        with pytest.raises(ConfigError, match="n_neighbours"):
            KGraphConfig.expand_grid({"n_neighbours": [1, 2]})

    def test_empty_value_list_rejected(self):
        with pytest.raises(ConfigError, match="stride"):
            KGraphConfig.expand_grid({"stride": []})


class TestOneValidationCodePath:
    """KGraph constructor validation and KGraphConfig validation are one path."""

    @pytest.mark.parametrize(
        ("kwargs", "match"),
        [
            ({"n_clusters": 1}, "n_clusters"),
            ({"feature_mode": "magic"}, "feature_mode"),
            ({"lambda_threshold": 1.5}, "lambda_threshold"),
            ({"lengths": []}, "lengths"),
            ({"stride": 0}, "stride"),
            ({"n_sectors": 1}, "n_sectors"),
            ({"random_state": -1}, "random_state"),
        ],
    )
    def test_config_and_constructor_raise_identically(self, kwargs, match):
        with pytest.raises(ValidationError, match=match) as config_error:
            KGraphConfig(**kwargs)
        with pytest.raises(ValidationError, match=match) as constructor_error:
            KGraph(**kwargs)
        assert str(config_error.value) == str(constructor_error.value)

    def test_grid_sweep_fails_at_config_construction(self, tiny_dataset):
        runner = BenchmarkRunner(["kgraph"])
        with pytest.raises(ValidationError, match="lengths"):
            runner.run_estimator_grid(tiny_dataset, "kgraph", {"lengths": [[]]})


class TestKwargsShim:
    def test_plain_kwargs_still_work_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = KGraph(n_clusters=4, n_lengths=2, feature_mode="edges")
        assert model.get_config() == KGraphConfig(
            n_clusters=4, n_lengths=2, feature_mode="edges"
        )

    def test_conflicting_kwarg_warns_and_wins(self):
        config = KGraphConfig(n_clusters=3, stride=2)
        with pytest.warns(DeprecationWarning, match="n_clusters"):
            model = KGraph(config=config, n_clusters=5)
        assert model.n_clusters == 5
        assert model.stride == 2  # non-conflicting config fields kept

    def test_agreeing_kwarg_does_not_warn(self):
        config = KGraphConfig(n_clusters=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = KGraph(config=config, n_clusters=3)
        assert model.get_config() == config

    def test_generator_seed_stays_on_instance_not_in_config(self):
        rng = np.random.default_rng(0)
        model = KGraph(n_clusters=3, random_state=rng)
        assert model.random_state is rng
        assert model.get_config().random_state is None

    def test_parameter_attributes_are_read_only_views(self):
        model = KGraph(n_clusters=3)
        with pytest.raises(AttributeError):
            model.n_clusters = 5


class TestRegistry:
    def test_registry_covers_every_method_name(self):
        from repro.baselines.registry import available_methods

        assert default_registry().names() == available_methods()

    def test_unknown_estimator_lists_available(self):
        with pytest.raises(ValidationError, match="kgraph"):
            default_registry().get("mystery")

    def test_describe_lists_config_fields(self):
        info = default_registry().get("kgraph").describe()
        assert info["config"] == "KGraphConfig"
        assert info["config_version"] == KGraphConfig.version
        field_names = [row["name"] for row in info["fields"]]
        assert field_names == list(KGraphConfig.field_names())

    def test_baseline_config_method_injected(self):
        spec = default_registry().get("gmm")
        config = spec.make_config(n_clusters=2)
        assert config.method == "gmm"

    def test_wrong_config_class_rejected(self):
        with pytest.raises(ValidationError, match="KGraphConfig"):
            default_registry().get("kgraph").build(BaselineConfig(method="kmeans"))


class TestProtocolConformance:
    @pytest.mark.parametrize("name", default_registry().names())
    def test_fit_predict_shape_dtype_and_protocols(self, name, tiny_dataset):
        spec = default_registry().get(name)
        estimator = spec.build(spec.make_config(**_spec_params(name)))
        assert isinstance(estimator, Estimator)
        assert isinstance(estimator, SupportsServing)
        labels = estimator.fit_predict(tiny_dataset.data)
        assert labels.shape == (tiny_dataset.n_series,)
        assert labels.dtype.kind in "iu"
        summary = estimator.summary()
        json.dumps(summary)  # must be JSON-serialisable
        assert summary["estimator"] == name
        state = estimator.prediction_state()
        assert np.array_equal(
            state.predict_batch(tiny_dataset.data),
            estimator.predict(tiny_dataset.data),
        )

    @pytest.mark.parametrize("name", REFIT_CHECK_NAMES)
    def test_from_config_refits_bit_identically(self, name, tiny_dataset):
        spec = default_registry().get(name)
        first = spec.build(spec.make_config(**_spec_params(name)))
        labels = first.fit_predict(tiny_dataset.data)
        twin = type(first).from_config(first.get_config())
        assert np.array_equal(twin.fit_predict(tiny_dataset.data), labels)


class TestBaselineValidation:
    def test_ragged_input_raises_actionable_error(self):
        estimator = BaselineEstimator(BaselineConfig(method="kmeans", n_clusters=2))
        with pytest.raises(ValidationError, match="ragged"):
            estimator.fit([[1.0, 2.0, 3.0], [1.0, 2.0]])

    def test_nan_input_is_located(self):
        estimator = BaselineEstimator(BaselineConfig(method="kmeans", n_clusters=2))
        data = np.zeros((4, 8))
        data[2, 5] = np.nan
        with pytest.raises(ValidationError, match=r"series 2, position 5"):
            estimator.fit(data)

    def test_run_method_validates_raw_arrays(self):
        from repro.baselines.registry import run_method

        with pytest.raises(ValidationError, match="ragged"):
            run_method("kmeans", [[1.0, 2.0, 3.0], [1.0, 2.0]], n_clusters=2)

    def test_fit_predict_validates_raw_arrays(self):
        from repro.baselines.registry import get_method

        data = np.zeros((4, 8))
        data[1, 0] = np.inf
        with pytest.raises(ValidationError, match=r"series 1, position 0"):
            get_method("gmm").fit_predict(data, 2)

    def test_unknown_method_fails_at_config_build_time(self):
        with pytest.raises(ValidationError, match="not_a_method"):
            BaselineEstimator(BaselineConfig(method="not_a_method"))

    def test_predict_length_mismatch_is_actionable(self, tiny_dataset):
        estimator = BaselineEstimator(
            BaselineConfig(method="kmeans", n_clusters=3, random_state=0)
        ).fit(tiny_dataset.data)
        with pytest.raises(ValidationError, match="32"):
            estimator.predict(np.zeros((2, 16)))


class TestRunEstimatorGrid:
    def test_kgraph_grid_shares_stage_cache(self, tiny_dataset):
        runner = BenchmarkRunner(["kgraph"])
        results = runner.run_estimator_grid(
            tiny_dataset,
            "kgraph",
            [{}, {"feature_mode": "edges"}],
            base={"n_lengths": 2},
            random_state=0,
        )
        assert [r.error for r in results] == [None, None]
        assert results[0].measures["stages_cached"] == 0.0
        assert results[1].measures["stages_cached"] >= 1.0
        assert results[1].method == "kgraph[feature_mode=edges]"

    @pytest.mark.parametrize("name", ["kmeans", "gmm"])
    def test_baseline_grids_accept_any_registry_name(self, name, tiny_dataset):
        runner = BenchmarkRunner([name])
        results = runner.run_estimator_grid(
            tiny_dataset, name, {"n_clusters": [2, 3]}, random_state=0
        )
        assert [r.method for r in results] == [
            f"{name}[n_clusters=2]",
            f"{name}[n_clusters=3]",
        ]
        assert all(not r.failed for r in results)
        assert all("ari" in r.measures for r in results)

    def test_grid_results_match_direct_estimator_fits(self, tiny_dataset):
        from repro.metrics.clustering import adjusted_rand_index

        runner = BenchmarkRunner(["kmeans"])
        results = runner.run_estimator_grid(
            tiny_dataset, "kmeans", [{"n_clusters": 2}], random_state=0
        )
        spec = default_registry().get("kmeans")
        direct = spec.build(
            spec.make_config(n_clusters=2, random_state=0)
        ).fit_predict(tiny_dataset.data)
        assert results[0].measures["ari"] == pytest.approx(
            adjusted_rand_index(tiny_dataset.labels, direct)
        )

    def test_explicit_combo_errors_are_isolated(self, tiny_dataset):
        runner = BenchmarkRunner(["kmeans"])
        results = runner.run_estimator_grid(
            tiny_dataset, "kmeans", [{"n_clusters": 0}, {"n_clusters": 2}]
        )
        assert results[0].failed and "n_clusters" in results[0].error
        assert not results[1].failed

    def test_empty_grid_rejected(self, tiny_dataset):
        runner = BenchmarkRunner(["kmeans"])
        with pytest.raises(BenchmarkError):
            runner.run_estimator_grid(tiny_dataset, "kmeans", [])


class TestReviewRegressions:
    def test_config_base_keeps_the_shared_grid_seed(self, tiny_dataset):
        # A base *config* carries random_state=None for "unset"; the grid
        # must still apply the shared seed so stage checkpoints hit.
        runner = BenchmarkRunner(["kgraph"])
        results = runner.run_estimator_grid(
            tiny_dataset,
            "kgraph",
            [{"feature_mode": "nodes"}, {"feature_mode": "nodes"}],
            base=KGraphConfig(n_clusters=3, n_lengths=2),
            random_state=7,
        )
        assert results[0].measures["stages_cached"] == 0.0
        assert results[1].measures["stages_cached"] == 5.0  # full replay

    def test_campaign_overrides_cannot_rebind_method(self, tiny_dataset):
        rebound = run_single_benchmark(
            "kmeans", tiny_dataset, 0, config_overrides={"method": "gmm"}
        )
        plain = run_single_benchmark("kmeans", tiny_dataset, 0)
        assert rebound.method == "kmeans"
        assert rebound.measures["ari"] == plain.measures["ari"]

    def test_grid_cannot_rebind_method(self, tiny_dataset):
        runner = BenchmarkRunner(["kmeans"])
        with pytest.raises(BenchmarkError, match="rebind"):
            runner.run_estimator_grid(tiny_dataset, "kmeans", {"method": ["gmm"]})
        results = runner.run_estimator_grid(
            tiny_dataset, "kmeans", [{"method": "gmm"}]
        )
        assert results[0].failed and "rebind" in results[0].error

    def test_generator_random_state_still_benchmarks(self, tiny_dataset):
        # Exotic seeds cannot live in a config; the harness forwards them
        # through the legacy method shim instead of recording error rows.
        for name in ("kmeans", "kgraph"):
            result = run_single_benchmark(
                name, tiny_dataset, np.random.default_rng(0)
            )
            assert not result.failed, result.error

    def test_custom_registered_estimator_artifacts_round_trip(
        self, tiny_dataset, tmp_path
    ):
        # Artifact loading dispatches through the registry, so estimators
        # registered after the serve layer shipped still load.
        from repro.api.registry import EstimatorRegistry, EstimatorSpec
        from repro.api import registry as registry_module
        from repro.serve import load_model, save_model

        class AliasedKMeans(BaselineEstimator):
            """k-Means under a new registry name (a third-party estimator)."""

            def __init__(self, config):
                super().__init__(BaselineConfig(
                    method="kmeans",
                    n_clusters=config.n_clusters,
                    random_state=config.random_state,
                ))
                self.config = config  # the aliased config is the identity

            @property
            def name(self):
                return "aliased_kmeans"

        fresh = EstimatorRegistry()
        for spec in default_registry().specs():
            fresh.register(spec)
        fresh.register(
            EstimatorSpec(
                name="aliased_kmeans",
                family="raw",
                description="registry-dispatch regression probe",
                config_cls=BaselineConfig,
                _builder=lambda config, **_: AliasedKMeans(config),
            )
        )
        original = registry_module._default_registry
        registry_module._default_registry = fresh
        try:
            spec = fresh.get("aliased_kmeans")
            estimator = spec.build(
                spec.make_config(n_clusters=3, random_state=0)
            ).fit(tiny_dataset.data)
            path = save_model(estimator, tmp_path / "aliased")
            from repro.serve.artifacts import read_manifest

            assert read_manifest(path)["estimator"] == "aliased_kmeans"
            loaded = load_model(path)
            assert isinstance(loaded, AliasedKMeans)
            assert np.array_equal(
                loaded.predict(tiny_dataset.data),
                estimator.predict(tiny_dataset.data),
            )
        finally:
            registry_module._default_registry = original


class TestBenchmarkOverrides:
    def test_overrides_reach_declaring_estimators_only(self, tiny_dataset):
        # n_lengths exists on KGraphConfig but not BaselineConfig: the same
        # override set must configure kgraph and leave kmeans untouched.
        for name in ("kgraph", "kmeans"):
            result = run_single_benchmark(
                name, tiny_dataset, 0, config_overrides={"n_lengths": 2}
            )
            assert not result.failed, result.error

    def test_any_registry_name_benchmarks(self, tiny_dataset):
        result = run_single_benchmark("dtc", tiny_dataset, 0)
        assert result.family == "deep"
        assert not result.failed
