"""Tests for the JSON wire codec behind ``JobOutcome.to_payload``."""

import base64
import json
import pickle

import numpy as np
import pytest

from repro.exceptions import BenchmarkError, ValidationError
from repro.parallel import (
    JobOutcome,
    JobTimeoutError,
    RemoteJobError,
    WorkerCrashError,
    WorkerPoolExhausted,
)
from repro.parallel.wire import (
    decode_exception,
    decode_outcome,
    decode_value,
    encode_exception,
    encode_outcome,
    encode_value,
    json_dumps_outcomes,
)


def _roundtrip(value):
    node = encode_value(value)
    # The node must survive an actual JSON hop, not just an in-memory one.
    return decode_value(json.loads(json.dumps(node)))


class TestValueCodec:
    def test_none_and_scalars(self):
        for value in (None, True, False, 0, -7, 3.25, "label", ""):
            assert _roundtrip(value) == value
            assert type(_roundtrip(value)) is type(value)

    def test_ndarray_bit_identical(self):
        rng = np.random.default_rng(3)
        for array in (
            rng.standard_normal((5, 7)),
            np.arange(12, dtype=np.int32).reshape(3, 4),
            np.array([], dtype=np.float64),
            rng.standard_normal((2, 3, 4)).astype(np.float32),
        ):
            decoded = _roundtrip(array)
            assert decoded.dtype == array.dtype
            assert decoded.shape == array.shape
            np.testing.assert_array_equal(decoded, array)

    def test_decoded_ndarray_is_writable(self):
        decoded = _roundtrip(np.ones(4))
        decoded[0] = 5.0
        assert decoded[0] == 5.0

    def test_non_contiguous_ndarray(self):
        array = np.arange(20, dtype=np.float64).reshape(4, 5)[:, ::2]
        np.testing.assert_array_equal(_roundtrip(array), array)

    def test_numpy_scalar(self):
        scalar = np.float64(2.5)
        decoded = _roundtrip(scalar)
        assert decoded == scalar
        assert decoded.dtype == scalar.dtype

    def test_bytes(self):
        payload = b"\x00\x01\xff binary"
        assert _roundtrip(payload) == payload

    def test_list_tuple_identity_preserved(self):
        value = [1, (2.0, "three"), [None, (4,)]]
        decoded = _roundtrip(value)
        assert decoded == value
        assert type(decoded[1]) is tuple
        assert type(decoded[2]) is list
        assert type(decoded[2][1]) is tuple

    def test_dict_with_nested_arrays(self):
        value = {"labels": np.arange(6), "score": 0.5, "meta": {"k": 3}}
        decoded = _roundtrip(value)
        np.testing.assert_array_equal(decoded["labels"], value["labels"])
        assert decoded["score"] == 0.5
        assert decoded["meta"] == {"k": 3}

    def test_pickle_fallback_for_unmodelled_types(self):
        value = {1: "non-str-keyed dicts fall back to pickle"}
        node = encode_value(value)
        assert node["t"] == "pickle"
        assert decode_value(node) == value

    def test_object_dtype_array_uses_pickle(self):
        array = np.array([{"a": 1}, None], dtype=object)
        node = encode_value(array)
        assert node["t"] == "pickle"
        decoded = decode_value(node)
        assert decoded[0] == {"a": 1}

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="unknown wire tag"):
            decode_value({"t": "mystery"})


class TestExceptionCodec:
    @pytest.mark.parametrize(
        "exc",
        [
            ValidationError("n_clusters must be positive"),
            BenchmarkError("no such spec"),
            JobTimeoutError("job 3 timed out after 0.5s"),
            WorkerCrashError("worker pid 123 died"),
            WorkerPoolExhausted("all workers unreachable"),
            ValueError("plain builtin"),
            KeyError("missing"),
        ],
    )
    def test_allowlisted_types_reconstruct(self, exc):
        decoded = decode_exception(encode_exception(exc))
        assert type(decoded) is type(exc)
        assert str(exc) in str(decoded)

    def test_unknown_type_degrades_to_remote_job_error(self):
        decoded = decode_exception(
            {"type": "SomeVendorError", "message": "gpu fell off"}
        )
        assert isinstance(decoded, RemoteJobError)
        assert "SomeVendorError" in str(decoded)
        assert "gpu fell off" in str(decoded)


class TestOutcomePayload:
    def test_ok_ndarray_outcome_roundtrip(self):
        labels = np.array([0, 1, 1, 2, 0], dtype=np.int64)
        outcome = JobOutcome(index=4, value=labels, duration_seconds=0.125)
        restored = JobOutcome.from_payload(
            json.loads(json.dumps(outcome.to_payload()))
        )
        assert restored.index == 4
        assert restored.ok
        np.testing.assert_array_equal(restored.value, labels)
        assert restored.value.dtype == labels.dtype
        assert restored.duration_seconds == 0.125

    def test_failed_outcome_preserves_exception_type(self):
        try:
            raise ValidationError("negative input")
        except ValidationError as exc:
            outcome = JobOutcome(
                index=1,
                error=f"{type(exc).__name__}: {exc}",
                exception=exc,
                traceback="Traceback (most recent call last): ...",
            )
        restored = JobOutcome.from_payload(outcome.to_payload())
        assert not restored.ok
        assert isinstance(restored.exception, ValidationError)
        assert "negative input" in restored.error
        assert restored.traceback.startswith("Traceback")
        with pytest.raises(ValidationError):
            restored.unwrap()

    def test_fault_tolerance_fields_survive(self):
        outcome = JobOutcome(
            index=2,
            error="JobTimeoutError: job 2 timed out",
            exception=JobTimeoutError("job 2 timed out"),
            attempts=3,
            retried=True,
            timed_out=True,
        )
        restored = JobOutcome.from_payload(outcome.to_payload())
        assert restored.attempts == 3
        assert restored.retried is True
        assert restored.timed_out is True
        assert isinstance(restored.exception, JobTimeoutError)

    def test_error_without_exception_stays_unwrappable(self):
        payload = JobOutcome(index=0, error="Exception: lost").to_payload()
        payload["exception"] = None
        restored = JobOutcome.from_payload(payload)
        assert isinstance(restored.exception, RemoteJobError)
        with pytest.raises(RemoteJobError):
            restored.unwrap()

    def test_missing_fault_fields_default_to_single_attempt(self):
        # Payloads from older workers never carried the retry fields.
        payload = encode_outcome(JobOutcome(index=5, value=1.5))
        for key in ("attempts", "retried", "timed_out"):
            del payload[key]
        restored = decode_outcome(payload)
        assert restored.attempts == 1
        assert restored.retried is False
        assert restored.timed_out is False

    def test_pickled_library_value_roundtrips(self):
        # Library dataclasses (e.g. BenchmarkResult) fall back to pickle.
        value = pickle.loads(pickle.dumps({"nested": (np.arange(3), "x")}))
        restored = JobOutcome.from_payload(
            JobOutcome(index=0, value=value).to_payload()
        )
        np.testing.assert_array_equal(restored.value["nested"][0], np.arange(3))

    def test_json_dumps_outcomes_document(self):
        outcomes = [
            JobOutcome(index=0, value=np.ones(2)),
            JobOutcome(index=1, error="ValueError: boom"),
        ]
        document = json.loads(json_dumps_outcomes(outcomes))
        assert [node["index"] for node in document["outcomes"]] == [0, 1]
        restored = [decode_outcome(node) for node in document["outcomes"]]
        assert restored[0].ok and not restored[1].ok


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


class TestMalformedPayloads:
    @pytest.mark.parametrize(
        "payload, field",
        [
            ({}, "'index'"),
            ({"index": "a"}, "'index'"),
            ({"index": -1}, "'index'"),
            ({"index": 0, "attempts": None}, "'attempts'"),
            ({"index": 0, "duration_seconds": "fast"}, "'duration_seconds'"),
            ({"index": 0, "retried": "yes"}, "'retried'"),
            ({"index": 0, "error": 5}, "'error'"),
            ({"index": 0, "exception": "boom"}, "'exception'"),
            (
                {
                    "index": 0,
                    "value": {"t": "ndarray", "dtype": "<f8", "shape": [2], "data": _b64(b"x" * 7)},
                },
                "'value'",
            ),
            (["index", 0], "JSON object"),
        ],
    )
    def test_outcome_decoder_names_the_bad_field(self, payload, field):
        with pytest.raises(ValidationError, match=field):
            JobOutcome.from_payload(payload)

    @pytest.mark.parametrize(
        "node",
        [
            {"t": "ndarray", "dtype": "<f8", "shape": [2], "data": _b64(b"x" * 7)},
            {"t": "ndarray", "dtype": "<f8", "shape": [3], "data": _b64(b"x" * 16)},
            {"t": "ndarray", "dtype": "<f8", "shape": [2]},
            {"t": "ndarray", "dtype": "no-such-dtype", "shape": [1], "data": _b64(b"x" * 8)},
            {"t": "ndarray", "dtype": "|O", "shape": [1], "data": _b64(b"x" * 8)},
            {"t": "npscalar", "dtype": "<f8", "data": ""},
            {"t": "list", "items": 5},
            {"t": "dict", "items": [1]},
            {"t": "pickle", "data": _b64(b"not a pickle")},
            "not a node",
        ],
    )
    def test_malformed_value_node_is_a_validation_error(self, node):
        with pytest.raises(ValidationError, match="wire|do not fit"):
            decode_value(node)
