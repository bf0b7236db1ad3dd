"""Tests for the micro-batching inference engine (repro.serve.engine).

Batching is checked on a gated backend (``gated_backend`` in conftest): the
test holds the flusher inside one dispatch, queues requests behind it and
then releases it, so which requests share a batch never depends on timing.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.datasets.synthetic import make_cylinder_bell_funnel
from repro.exceptions import ServiceError, ValidationError
from repro.parallel import ThreadBackend
from repro.serve.engine import InferenceEngine

#: Seconds a test waits for a thread or a polled condition before failing.
WAIT = 30.0


@pytest.fixture(scope="module")
def fresh_series():
    return make_cylinder_bell_funnel(n_series=16, length=64, noise=0.2, random_state=5).data


def _start_predicts(engine, series_matrix):
    """Issue one engine.predict per row from its own thread.

    Returns a function that joins the threads and returns the predictions.
    """
    results = [None] * len(series_matrix)
    errors = []

    def worker(index):
        try:
            results[index] = engine.predict(series_matrix[index])
        except Exception as exc:  # noqa: BLE001 - surfaced via the errors list
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(series_matrix))]
    for thread in threads:
        thread.start()

    def join():
        for thread in threads:
            thread.join(WAIT)
            assert not thread.is_alive()
        assert not errors, errors
        return np.asarray(results)

    return join


def _concurrent_predict(engine, series_matrix):
    return _start_predicts(engine, series_matrix)()


def _wait_until(predicate):
    deadline = time.monotonic() + WAIT
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached in time"
        time.sleep(0.001)


def _hold_first_dispatch(engine, backend, series):
    """Send one request and wait until the flusher holds it at the gate."""
    join = _start_predicts(engine, series[None, :])
    assert backend.entered.wait(WAIT)
    return join


class TestCorrectness:
    def test_single_predict_matches_model(self, fitted_kgraph, fresh_series):
        with InferenceEngine(fitted_kgraph) as engine:
            prediction = engine.predict(fresh_series[0])
        expected = fitted_kgraph.predict(fresh_series[:1])
        assert prediction == expected[0]

    def test_concurrent_predictions_are_bit_identical(self, fitted_kgraph, fresh_series):
        expected = fitted_kgraph.predict(fresh_series)
        with InferenceEngine(fitted_kgraph, max_batch_size=4) as engine:
            results = _concurrent_predict(engine, fresh_series)
        assert np.array_equal(results, expected)

    def test_predict_many_matches_model(self, fitted_kgraph, fresh_series):
        expected = fitted_kgraph.predict(fresh_series)
        with InferenceEngine(fitted_kgraph, max_batch_size=8) as engine:
            results = engine.predict_many(fresh_series)
        assert np.array_equal(results, expected)

    def test_thread_backend_dispatch_is_identical(self, fitted_kgraph, fresh_series):
        expected = fitted_kgraph.predict(fresh_series)
        backend = ThreadBackend(2)
        with InferenceEngine(
            fitted_kgraph, max_batch_size=8, backend=backend, dispatch_chunk_size=3
        ) as engine:
            results = engine.predict_many(fresh_series)
        backend.close()
        assert np.array_equal(results, expected)


class TestBatching:
    def test_flush_on_size(self, fitted_kgraph, fresh_series, gated_backend):
        # While the first dispatch is held, 8 requests queue; the freed
        # flusher takes them max_batch_size at a time.
        engine = InferenceEngine(fitted_kgraph, max_batch_size=4, backend=gated_backend)
        try:
            join_first = _hold_first_dispatch(engine, gated_backend, fresh_series[8])
            join_rest = _start_predicts(engine, fresh_series[:8])
            _wait_until(lambda: engine.stats()["pending"] == 8)
            gated_backend.gate.set()
            first, rest = join_first(), join_rest()
            stats = engine.stats()
        finally:
            gated_backend.gate.set()
            engine.close()
        assert stats["requests"] == 9
        assert stats["batches"] == 3
        assert stats["flush_reasons"] == {"size": 2, "idle": 1, "drain": 0}
        assert stats["max_batch_size_seen"] == 4
        assert np.array_equal(rest, fitted_kgraph.predict(fresh_series[:8]))
        assert first[0] == fitted_kgraph.predict(fresh_series[8:9])[0]

    def test_lone_request_flushes_at_once(self, fitted_kgraph, fresh_series):
        # A lone request never waits for batch partners: the free flusher
        # dispatches it as a batch of one.
        with InferenceEngine(fitted_kgraph, max_batch_size=64) as engine:
            engine.predict(fresh_series[0])
            stats = engine.stats()
        assert stats["batches"] == 1
        assert stats["max_batch_size_seen"] == 1
        assert stats["flush_reasons"] == {"size": 0, "idle": 1, "drain": 0}

    def test_many_clients_are_each_answered_once(self, fitted_kgraph, fresh_series):
        # Far more client threads than cores, switching often: every request
        # gets its own offline prediction and the counters add up, which a
        # lost queue or counter update would break.
        matrix = np.tile(fresh_series, (4, 1))
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with InferenceEngine(fitted_kgraph, max_batch_size=4) as engine:
                results = _concurrent_predict(engine, matrix)
                stats = engine.stats()
        finally:
            sys.setswitchinterval(previous)
        assert np.array_equal(results, np.tile(fitted_kgraph.predict(fresh_series), 4))
        assert stats["requests"] == stats["predictions"] == len(matrix)
        assert sum(stats["flush_reasons"].values()) == stats["batches"]
        assert stats["pending"] == 0
        assert stats["max_batch_size_seen"] <= 4

    def test_mixed_series_lengths_share_a_batch(self, fitted_kgraph, fresh_series, gated_backend):
        longer = np.concatenate([fresh_series[0], fresh_series[0]])
        engine = InferenceEngine(fitted_kgraph, max_batch_size=8, backend=gated_backend)
        try:
            join_first = _hold_first_dispatch(engine, gated_backend, fresh_series[2])
            matrix = [fresh_series[0], longer, fresh_series[1]]
            join_rest = _start_predicts(engine, matrix)
            _wait_until(lambda: engine.stats()["pending"] == 3)
            gated_backend.gate.set()
            join_first()
            results = join_rest()
            stats = engine.stats()
        finally:
            gated_backend.gate.set()
            engine.close()
        # The three queued requests left together, split by length inside
        # the batch.
        assert stats["batches"] == 2
        assert stats["max_batch_size_seen"] == 3
        assert results[0] == fitted_kgraph.predict(fresh_series[:1])[0]
        assert results[2] == fitted_kgraph.predict(fresh_series[1:2])[0]
        assert results[1] == fitted_kgraph.predict(longer[None, :])[0]


class TestValidationAndLifecycle:
    def test_malformed_series_fails_fast(self, fitted_kgraph):
        with InferenceEngine(fitted_kgraph) as engine:
            with pytest.raises(ValidationError, match="1-dimensional"):
                engine.predict(np.zeros((3, 64)))
            with pytest.raises(ValidationError, match="length"):
                engine.predict(np.zeros(3))
            with pytest.raises(ValidationError, match="NaN"):
                engine.predict([float("nan")] * 64)

    def test_bad_request_does_not_poison_later_ones(self, fitted_kgraph, fresh_series):
        with InferenceEngine(fitted_kgraph) as engine:
            with pytest.raises(ValidationError):
                engine.predict(np.zeros(2))
            assert engine.predict(fresh_series[0]) == fitted_kgraph.predict(fresh_series[:1])[0]

    def test_closed_engine_rejects_requests(self, fitted_kgraph, fresh_series):
        engine = InferenceEngine(fitted_kgraph)
        engine.close()
        with pytest.raises(ServiceError, match="closed"):
            engine.predict(fresh_series[0])

    def test_close_is_idempotent(self, fitted_kgraph):
        engine = InferenceEngine(fitted_kgraph)
        engine.close()
        engine.close()

    def test_close_drains_queued_requests(self, fitted_kgraph, fresh_series, gated_backend):
        engine = InferenceEngine(fitted_kgraph, max_batch_size=4, backend=gated_backend)
        closer = threading.Thread(target=engine.close)
        try:
            join_first = _hold_first_dispatch(engine, gated_backend, fresh_series[0])
            join_rest = _start_predicts(engine, fresh_series[1:7])
            _wait_until(lambda: engine.stats()["pending"] == 6)
            closer.start()
            _wait_until(lambda: engine.closed)
            with pytest.raises(ServiceError, match="closed"):
                engine.predict(fresh_series[0])
            gated_backend.gate.set()
            closer.join(WAIT)
            assert not closer.is_alive()
            results = np.concatenate([join_first(), join_rest()])
        finally:
            gated_backend.gate.set()
            engine.close()
        assert np.array_equal(results, fitted_kgraph.predict(fresh_series[:7]))
        assert engine.stats()["flush_reasons"] == {"size": 0, "idle": 1, "drain": 2}

    def test_parameter_validation(self, fitted_kgraph):
        with pytest.raises(ValidationError):
            InferenceEngine(fitted_kgraph, max_batch_size=0)
        with pytest.raises(ValidationError):
            InferenceEngine(fitted_kgraph, dispatch_chunk_size=0)
