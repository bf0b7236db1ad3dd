"""grid: a k-Graph parameter sweep on a 2-worker process pool.

``BenchmarkRunner(methods=["kgraph"], backend="process", n_jobs=2)
.run_estimator_grid`` on ``make_cylinder_bell_funnel(200, 256)`` over
``GRID``, sweep after sweep (closed loop, 1 client).  All combinations of one
sweep share one ``MemoryStageCache``: the first combination writes every
checkpoint (the cold operation), the others replay ``embed`` or four stages
(the repeated operations).  After the window every combination's labels are
compared with an independent serial cold fit of the same config.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

from common import Measured, Outcome, Traced, fresh_import_s, median, self_peak_rss_mb, tail

N_SERIES, LENGTH, POOL_SIZE = 200, 256, 2
GRID = {"n_clusters": [2, 3, 4], "gamma_threshold": [0.6, 0.8]}
SETUP_REPEATS = 3

Key = Tuple[int, float]


def _setup(seed: int):
    """The input, and set-up seconds: median fresh import + median generation."""
    import_s = fresh_import_s(["repro.benchmark.runner", "repro.datasets.synthetic"])
    from repro.datasets.synthetic import make_cylinder_bell_funnel

    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dataset = make_cylinder_bell_funnel(N_SERIES, LENGTH, random_state=seed)
        samples.append(time.perf_counter() - start)
    return dataset, import_s + median(samples)


@contextmanager
def _label_log(sink: List[Tuple[Key, np.ndarray]]):
    """Record (n_clusters, gamma_threshold) and labels of every k-Graph fit."""
    from repro.core.kgraph import KGraph

    original = KGraph.__dict__["fit_predict"]

    def fit_predict(model, data):
        labels = original(model, data)
        sink.append(((model.n_clusters, model.gamma_threshold), labels))
        return labels

    KGraph.fit_predict = fit_predict
    try:
        yield sink
    finally:
        KGraph.fit_predict = original


def sweep(dataset, seed: int, outcome: Outcome, labels: List[Tuple[Key, np.ndarray]]):
    """One grid sweep; returns (sweep seconds, per-combination seconds)."""
    from repro.benchmark.runner import BenchmarkRunner

    runner = BenchmarkRunner(methods=["kgraph"], backend="process", n_jobs=POOL_SIZE)
    start = time.perf_counter()
    with _label_log(labels):
        results = runner.run_estimator_grid(dataset, "kgraph", GRID, random_state=seed)
    elapsed = time.perf_counter() - start
    for result in results:
        outcome.check(result.error is None, f"{result.method}: {result.error}")
    return elapsed, [result.runtime_seconds for result in results]


def _check_labels(dataset, seed: int, outcome: Outcome, labels) -> None:
    """Every combination's labels equal an independent serial cold fit."""
    from repro.core.kgraph import KGraph

    reference: Dict[Key, np.ndarray] = {}
    for n_clusters in GRID["n_clusters"]:
        for gamma in GRID["gamma_threshold"]:
            model = KGraph(n_clusters=n_clusters, gamma_threshold=gamma, random_state=seed)
            reference[(n_clusters, gamma)] = model.fit(dataset.data).labels_
    for key, got in labels:
        outcome.check(
            key in reference and np.array_equal(got, reference[key]),
            f"grid labels for n_clusters={key[0]}, gamma_threshold={key[1]} "
            "differ from a serial cold fit",
        )


def run(seed: int, seconds: float) -> Measured:
    dataset, setup_s = _setup(seed)
    outcome = Outcome()
    labels: List[Tuple[Key, np.ndarray]] = []
    sweeps, colds, replays = [], [], []
    start = time.perf_counter()
    while len(sweeps) < 2 or time.perf_counter() - start < seconds:
        elapsed, combos = sweep(dataset, seed, outcome, labels)
        sweeps.append(elapsed)
        colds.append(combos[0])
        replays.extend(combos[1:])
    peak_rss_mb = self_peak_rss_mb()
    _check_labels(dataset, seed, outcome, labels)

    tail_s, percentile, samples = tail(replays)
    return Measured(
        setup_s=setup_s,
        peak_rss_mb=peak_rss_mb,
        cold_s=median(colds),
        ops=replays,
        tail_s=tail_s,
        per_s=len(sweeps) / sum(sweeps),
        outcome=outcome,
        aliases={
            "grid_s": (median(sweeps), "s", f"median of {len(sweeps)} sweeps"),
            "grid_cold_s": (median(colds), "s", "first combination, cache writes"),
            "grid_replay_s": (median(replays), "s", f"{samples} replaying combinations"),
            "grid_replay_tail_s": (tail_s, "s", f"p{percentile:.1f} of {samples}"),
        },
        details={"sweep_s": sweeps, "cold_s": colds, "replay_s": replays},
    )


def run_traced(seed: int, seconds: float) -> Traced:
    """An untraced warm-up sweep, a traced sweep, then an untraced one."""
    import layers
    from tracer import Tracer

    dataset, _ = _setup(seed)
    outcome = Outcome()
    labels: List[Tuple[Key, np.ndarray]] = []
    sweep(dataset, seed, outcome, labels)
    tracer, fit_log = Tracer(), []
    layers.install(tracer, fit_log)
    try:
        with tracer.operation("sweep"):
            traced_s, _ = sweep(dataset, seed, outcome, labels)
    finally:
        tracer.restore()
    untraced_s, _ = sweep(dataset, seed, outcome, labels)
    _check_labels(dataset, seed, outcome, labels)
    metrics = layers.compute(
        tracer,
        fit_log,
        ops=1,
        overhead_pct=100.0 * (traced_s - untraced_s) / untraced_s,
        pool_size=POOL_SIZE,
    )
    return Traced(
        metrics=metrics,
        outcome=outcome,
        details={"traced_s": traced_s, "untraced_s": untraced_s},
        tracer=tracer,
    )
