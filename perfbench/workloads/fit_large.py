"""fit_large: serial k-Graph fits at paper/UCR scale.

``KGraph(n_clusters=3, random_state=seed).fit`` on
``make_cylinder_bell_funnel(n_series=500, length=512, noise=0.2)``, one fit
after another in this process (closed loop, 1 client).  The first fit of the
process is the cold operation; the later ones are the repeated operations.
"""

from __future__ import annotations

import time

import numpy as np

from common import Measured, Outcome, Traced, fresh_import_s, median, self_peak_rss_mb, tail

N_SERIES, LENGTH, NOISE, N_CLUSTERS = 500, 512, 0.2, 3
#: Lowest adjusted Rand index against the generator's classes a fit may reach.
ARI_FLOOR = 0.8
SETUP_REPEATS = 3
#: A fit takes 7-11 s, so a 20 s window holds the cold fit and two warm
#: ones: the median is their mean and the tail the slower of the two.
MIN_WARM_FITS = 2


def _setup(seed: int):
    """The input, and set-up seconds: median fresh import + median generation."""
    import_s = fresh_import_s(["repro.core.kgraph", "repro.datasets.synthetic"])
    from repro.datasets.synthetic import make_cylinder_bell_funnel

    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        dataset = make_cylinder_bell_funnel(
            n_series=N_SERIES, length=LENGTH, noise=NOISE, random_state=seed
        )
        samples.append(time.perf_counter() - start)
    return dataset, import_s + median(samples)


def _fit(dataset, seed: int):
    from repro.core.kgraph import KGraph

    start = time.perf_counter()
    model = KGraph(n_clusters=N_CLUSTERS, random_state=seed).fit(dataset.data)
    return model.labels_, time.perf_counter() - start


def _check(outcome: Outcome, dataset, labels, reference) -> None:
    from repro.metrics.clustering import adjusted_rand_index

    ari = adjusted_rand_index(dataset.labels, labels)
    same = reference is None or np.array_equal(labels, reference)
    outcome.check(
        same and ari >= ARI_FLOOR,
        f"fit labels differ from the run's first fit ({not same}) or ARI {ari:.3f} < {ARI_FLOOR}",
    )


def run(seed: int, seconds: float) -> Measured:
    dataset, setup_s = _setup(seed)
    outcome = Outcome()
    times, reference = [], None
    start = time.perf_counter()
    while len(times) < 1 + MIN_WARM_FITS or time.perf_counter() - start < seconds:
        labels, elapsed = _fit(dataset, seed)
        times.append(elapsed)
        _check(outcome, dataset, labels, reference)
        reference = labels if reference is None else reference
    warm = times[1:]
    fit_s = median(warm)
    slowest, percentile, samples = tail(warm)
    return Measured(
        setup_s=setup_s,
        peak_rss_mb=self_peak_rss_mb(),
        cold_s=times[0],
        ops=warm,
        tail_s=slowest,
        per_s=len(warm) / sum(warm),
        outcome=outcome,
        aliases={
            "fit_s": (fit_s, "s", f"median of {len(warm)} warm fits"),
            "first_fit_s": (times[0], "s", "first fit of the process"),
            "slowest_fit_s": (slowest, "s", f"p{percentile:.1f} of {samples}"),
        },
        details={"fit_seconds": times, "input": [N_SERIES, LENGTH]},
    )


def run_traced(seed: int, seconds: float) -> Traced:
    import layers
    from tracer import Tracer

    dataset, _ = _setup(seed)
    outcome = Outcome()
    # Cold fit first, so both compared fits run warm.
    reference, _ = _fit(dataset, seed)
    _check(outcome, dataset, reference, None)
    tracer, fit_log = Tracer(), []
    layers.install(tracer, fit_log)
    try:
        with tracer.operation("fit"):
            labels, traced_s = _fit(dataset, seed)
    finally:
        tracer.restore()
    _check(outcome, dataset, labels, reference)
    labels, untraced_s = _fit(dataset, seed)
    _check(outcome, dataset, labels, reference)
    metrics = layers.compute(
        tracer, fit_log, ops=1, overhead_pct=100.0 * (traced_s - untraced_s) / untraced_s
    )
    return Traced(
        metrics=metrics,
        outcome=outcome,
        details={"traced_s": traced_s, "untraced_s": untraced_s},
        tracer=tracer,
    )
