"""explore: one analyst session against ``graphint serve --port 0``.

Closed loop, 1 client.  The client opens each dataset of ``OPENED`` with
``GET /?dataset=...`` (the cold operations: the server fits k-Graph, k-Means,
k-Shape and the quizzes before the first page), then replays a seeded
sequence of interactions (the repeated operations): even steps move the λ/γ
sliders, odd steps click a node, cycling through ``DATASETS`` so every run
has the same mix.  Every interaction re-renders every frame.
"""

from __future__ import annotations

import json
import re
import time
from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np

from common import (
    Measured,
    Outcome,
    ServerProcess,
    Traced,
    http_request,
    median,
    tail,
)

#: Datasets the interactions cycle through.
DATASETS = ("cylinder_bell_funnel", "two_patterns", "mixed_bag")
#: Datasets opened first.  Open times differ by dataset (0.5-1.5 s), so the
#: mean of six opens is reported: the median would jump between datasets.
OPENED = DATASETS + ("sine_families", "shapelet_classes", "random_walk_regimes")
#: Opened during set-up, so the server's first-page imports are paid there
#: and not by whichever dataset happens to be opened first.
WARMUP_DATASET = "trend_classes"
SETUP_REPEATS = 3
_NODES = re.compile(rb"(\d+) nodes, \d+ edges")

#: (status, body) for one GET path.
Fetch = Callable[[str], Tuple[int, bytes]]


def interactions(seed: int, n_nodes: Dict[str, int]) -> Iterator[str]:
    """The seeded slider/node-click sequence, one request path per step."""
    rng = np.random.default_rng([seed, 7])
    sliders = {name: (0.5, 0.5) for name in DATASETS}
    step = 0
    while True:
        name = DATASETS[step % len(DATASETS)]
        if step % 2 == 0:
            sliders[name] = tuple(round(float(v), 2) for v in rng.uniform(0.3, 0.9, 2))
            suffix = ""
        else:
            suffix = f"&node={int(rng.integers(n_nodes[name]))}"
        lam, gam = sliders[name]
        yield f"/?dataset={name}&lam={lam}&gam={gam}{suffix}"
        step += 1


def _page_ok(outcome: Outcome, path: str, status: int, body: bytes) -> bool:
    return outcome.check(
        status == 200 and body.lstrip().startswith(b"<!DOCTYPE html>"),
        f"GET {path} -> {status}, {len(body)} bytes",
    )


def session(
    fetch: Fetch, seed: int, outcome: Outcome, *, seconds: float = 0.0, steps: int = 0
) -> Tuple[List[float], List[float], List[int]]:
    """Open every dataset, then interact for ``seconds`` (or ``steps`` steps).

    Returns the open times, the interaction times and the page sizes.
    """
    opens, steps_s, sizes = [], [], []
    n_nodes: Dict[str, int] = {}
    start = time.perf_counter()
    for name in OPENED:
        path = f"/?dataset={name}"
        began = time.perf_counter()
        status, body = fetch(path)
        opens.append(time.perf_counter() - began)
        sizes.append(len(body))
        if _page_ok(outcome, path, status, body):
            match = _NODES.search(body)
            n_nodes[name] = int(match.group(1)) if match else 1
        else:
            n_nodes[name] = 1
    for path in interactions(seed, n_nodes):
        if steps and len(steps_s) >= steps:
            break
        if not steps and len(steps_s) >= 11 and time.perf_counter() - start >= seconds:
            break
        began = time.perf_counter()
        status, body = fetch(path)
        steps_s.append(time.perf_counter() - began)
        sizes.append(len(body))
        _page_ok(outcome, path, status, body)
    return opens, steps_s, sizes


def _reference_ari(seed: int) -> Dict[str, float]:
    """k-Graph ARI of an in-process session built the way the server builds it."""
    from repro.datasets.catalogue import default_catalogue
    from repro.viz.session import GraphintSession

    catalogue = default_catalogue()
    ari = {}
    for name in OPENED:
        dataset = catalogue.get(name).generate(random_state=seed)
        fitted = GraphintSession(dataset, n_lengths=4, random_state=seed).fit()
        ari[name] = fitted.summary()["ari"]["kgraph"]
    return ari


def _check_summaries(fetch: Fetch, seed: int, outcome: Outcome) -> None:
    expected = _reference_ari(seed)
    for name in OPENED:
        status, body = fetch(f"/summary?dataset={name}")
        served = json.loads(body)["ari"]["kgraph"] if status == 200 else None
        outcome.check(
            served == expected[name],
            f"/summary k-Graph ARI for {name}: served {served}, in-process {expected[name]}",
        )


def run(seed: int, seconds: float) -> Measured:
    setups, server = [], None
    try:
        for repeat in range(SETUP_REPEATS):
            began = time.perf_counter()
            server = ServerProcess(["--seed", str(seed)], "explore-server.log")
            port = server.start()
            for path in ("/datasets", f"/?dataset={WARMUP_DATASET}"):
                status, _ = http_request(port, "GET", path)
                if status != 200:
                    raise RuntimeError(f"GET {path} -> {status}")
            setups.append(time.perf_counter() - began)
            if repeat < SETUP_REPEATS - 1:
                server.stop()

        def fetch(path: str) -> Tuple[int, bytes]:
            return http_request(port, "GET", path)

        outcome = Outcome()
        opens, steps_s, sizes = session(fetch, seed, outcome, seconds=seconds)
        peak_rss_mb = server.peak_rss_mb()
        _check_summaries(fetch, seed, outcome)
    finally:
        if server is not None:
            server.stop()

    tail_s, percentile, samples = tail(steps_s)
    return Measured(
        setup_s=median(setups),
        peak_rss_mb=peak_rss_mb,
        cold_s=sum(opens) / len(opens),
        ops=steps_s,
        tail_s=tail_s,
        per_s=len(steps_s) / sum(steps_s),
        outcome=outcome,
        aliases={
            "open_s": (sum(opens) / len(opens), "s", f"mean of {len(opens)} first pages"),
            "interact_p50_ms": (1e3 * median(steps_s), "ms", f"{samples} interactions"),
            "interact_tail_ms": (1e3 * tail_s, "ms", f"p{percentile:.1f} of {samples}"),
            "page_mb": (sum(sizes) / len(sizes) / 1e6, "MB", "mean page size"),
        },
        details={"open_s": opens, "interact_s": steps_s, "datasets": list(OPENED)},
    )


def run_traced(seed: int, seconds: float) -> Traced:
    """The same session on in-process applications: untraced, then traced."""
    import layers
    from repro.viz.server import DashboardApplication
    from tracer import Tracer

    def fetcher(application) -> Fetch:
        def fetch(path: str) -> Tuple[int, bytes]:
            status, _, text = application.handle_request("GET", path)
            return status, text.encode("utf-8")

        return fetch

    outcome = Outcome()
    DashboardApplication(random_state=seed).handle_request("GET", f"/?dataset={WARMUP_DATASET}")
    opens, steps_s, _ = session(
        fetcher(DashboardApplication(random_state=seed)), seed, outcome, seconds=seconds / 2
    )
    untraced_s = sum(opens) + sum(steps_s)

    tracer, fit_log = Tracer(), []
    traced_app = DashboardApplication(random_state=seed)
    traced_fetch = fetcher(traced_app)

    def traced_page(path: str) -> Tuple[int, bytes]:
        with tracer.operation("page"):
            return traced_fetch(path)

    layers.install(tracer, fit_log)
    try:
        t_opens, t_steps, sizes = session(traced_page, seed, outcome, steps=len(steps_s))
    finally:
        tracer.restore()
    traced_s = sum(t_opens) + sum(t_steps)
    _check_summaries(traced_fetch, seed, outcome)
    metrics = layers.compute(
        tracer,
        fit_log,
        ops=len(t_opens) + len(t_steps),
        overhead_pct=100.0 * (traced_s - untraced_s) / untraced_s,
        html_bytes=sum(sizes) / len(sizes),
    )
    return Traced(
        metrics=metrics,
        outcome=outcome,
        details={"traced_s": traced_s, "untraced_s": untraced_s, "pages": len(sizes)},
        tracer=tracer,
    )
