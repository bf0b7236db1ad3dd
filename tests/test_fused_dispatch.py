"""The ``embed`` -> ``graph_cluster`` pair on a process pool, held to a serial fit.

``embed`` builds one graph per subsequence length and ``graph_cluster``
clusters each graph.  A cold fit whose two stages shared one
:class:`ProcessBackend` used to run them fused, as one fan-out per length;
the test names below date from that path.  The pair now always runs as two
ordinary stages, and each test holds such a fit to the guarantee the fused
path kept:

* results bit-identical to a serial fit and to ``fit_reference``;
* stage cache keys that do not name the backend;
* checkpoints that replay from one backend into the other, in either
  direction, and downstream-only re-runs after a pool fit.
"""

import pytest

from repro.core.kgraph import KGraph
from repro.parallel import ProcessBackend
from repro.pipeline import KGRAPH_STAGE_NAMES, MemoryStageCache

from oracles.kgraph import assert_fits_identical, fit_reference

ALL_STAGES = list(KGRAPH_STAGE_NAMES)
PARAMS = dict(n_clusters=3, n_lengths=2, random_state=11)


@pytest.fixture
def pool():
    """A two-worker process pool, closed when the test ends."""
    backend = ProcessBackend(2)
    try:
        yield backend
    finally:
        backend.close()


def _fit(dataset, **overrides) -> KGraph:
    return KGraph(**{**PARAMS, **overrides}).fit(dataset.data)


class TestForcedFusion:
    def test_fused_fit_is_bit_identical_to_unfused(self, small_dataset, pool):
        # Both stages on one pool (the fit that fused), embed alone on the
        # pool, and no pool at all.
        shared = _fit(small_dataset, backend=pool)
        split = _fit(
            small_dataset, backend=pool, stage_backends={"graph_cluster": "serial"}
        )
        serial = _fit(small_dataset)
        assert_fits_identical(shared, serial)
        assert_fits_identical(split, serial)
        reference = fit_reference(KGraph(**PARAMS), small_dataset.data)
        assert_fits_identical(shared, reference)

    def test_cache_keys_identical_fused_vs_unfused(self, small_dataset, pool):
        shared = _fit(small_dataset, backend=pool)
        serial = _fit(small_dataset)
        keys = shared.pipeline_report_.stage_keys
        assert list(keys) == ALL_STAGES
        assert keys == serial.pipeline_report_.stage_keys
        # Each stage of the pair has a checkpoint of its own.
        assert keys["embed"] != keys["graph_cluster"]

    def test_fused_run_populates_cache_for_unfused_replay(self, small_dataset, pool):
        cache = MemoryStageCache()
        pooled = _fit(small_dataset, backend=pool, stage_cache=cache)
        assert pooled.pipeline_report_.executed == ALL_STAGES
        assert cache.counters.stores == len(ALL_STAGES)
        replay = _fit(small_dataset, stage_cache=cache)
        assert replay.pipeline_report_.cached == ALL_STAGES
        assert replay.pipeline_report_.stage_keys == pooled.pipeline_report_.stage_keys
        assert_fits_identical(replay, _fit(small_dataset))

    def test_unfused_cache_replays_into_fused_run(self, small_dataset, pool):
        cache = MemoryStageCache()
        serial = _fit(small_dataset, stage_cache=cache)
        replay = _fit(small_dataset, backend=pool, stage_cache=cache)
        assert replay.pipeline_report_.cached == ALL_STAGES
        # Every stage replayed, so no job went to the pool.
        assert replay.result_.bytes_shipped == {}
        assert_fits_identical(replay, serial)

    def test_downstream_only_rerun_after_fused_run(self, small_dataset, pool):
        cache = MemoryStageCache()
        _fit(small_dataset, backend=pool, stage_cache=cache)
        warm = _fit(small_dataset, backend=pool, stage_cache=cache, gamma_threshold=0.8)
        assert warm.pipeline_report_.cached == [
            "embed", "graph_cluster", "consensus", "length_selection"
        ]
        assert warm.pipeline_report_.executed == ["interpretability"]
        cold = fit_reference(KGraph(**PARAMS, gamma_threshold=0.8), small_dataset.data)
        assert_fits_identical(warm, cold)


class TestAutoFusion:
    def test_process_backend_fuses_bit_identically(self, small_dataset, pool):
        model = _fit(small_dataset, backend=pool)
        # One record per stage: the pair ran, and was recorded, as two stages.
        assert [record.name for record in model.pipeline_report_.records] == ALL_STAGES
        assert model.pipeline_report_.executed == ALL_STAGES
        assert_fits_identical(model, _fit(small_dataset))
