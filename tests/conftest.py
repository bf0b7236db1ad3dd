"""Shared fixtures for the test suite.

Fixtures are intentionally small (tens of series, short lengths) so the whole
suite runs quickly; the session-scoped fitted models are reused by every test
that only needs to *read* a fitted pipeline.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.kgraph import KGraph
from repro.datasets.synthetic import make_cylinder_bell_funnel, make_sine_families
from repro.parallel import SerialBackend
from repro.utils.containers import TimeSeriesDataset

#: Seconds any test waits for a thread, a gate or a polled condition.
WAIT_SECONDS = 30.0


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic generator for ad-hoc random data."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_dataset() -> TimeSeriesDataset:
    """A small labelled pattern dataset (3 classes, 24 series of length 64)."""
    return make_cylinder_bell_funnel(n_series=24, length=64, noise=0.2, random_state=0)


@pytest.fixture(scope="session")
def periodic_dataset() -> TimeSeriesDataset:
    """A small periodic dataset (3 sine families)."""
    return make_sine_families(n_series=18, length=64, noise=0.2, random_state=1)


@pytest.fixture(scope="session")
def blob_data() -> tuple:
    """Well-separated Gaussian blobs in 2-D plus their true assignment."""
    generator = np.random.default_rng(7)
    centers = np.array([[0.0, 0.0], [6.0, 6.0], [0.0, 8.0]])
    points = []
    labels = []
    for label, center in enumerate(centers):
        points.append(generator.normal(0.0, 0.5, size=(20, 2)) + center)
        labels.extend([label] * 20)
    return np.vstack(points), np.asarray(labels)


@pytest.fixture(scope="session")
def fitted_kgraph(small_dataset) -> KGraph:
    """A k-Graph model fitted once and shared by read-only tests."""
    model = KGraph(n_clusters=3, n_lengths=3, random_state=0)
    model.fit(small_dataset.data)
    return model


class GatedBackend(SerialBackend):
    """A serial backend whose dispatches wait until the test opens ``gate``.

    ``entered`` is set as soon as a dispatch reaches the gate, so a test can
    hold the serving engine's flusher inside one batch while it queues more
    requests, without relying on timing.
    """

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.entered = threading.Event()

    def map_jobs(self, fn, jobs, **kwargs):
        self.entered.set()
        if not self.gate.wait(WAIT_SECONDS):
            raise TimeoutError("the test never opened the dispatch gate")
        return super().map_jobs(fn, jobs, **kwargs)


@pytest.fixture
def gated_backend():
    """A :class:`GatedBackend`; the gate is opened before it is closed.

    Tests open the gate themselves (in ``finally``) before closing an engine
    that uses it, since closing drains the queue through the gate.
    """
    backend = GatedBackend()
    try:
        yield backend
    finally:
        backend.gate.set()
        backend.close()
