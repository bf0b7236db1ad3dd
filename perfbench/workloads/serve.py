"""serve: ``POST /predict`` against ``graphint serve --registry DIR --port 0``.

Each set-up repeat fits k-Graph on a 200x256 cylinder-bell-funnel set,
publishes it as one more version into a fresh ``ModelRegistry`` and starts
the server, which runs its default engine (``max_batch_size=32``,
``flush_interval=0.005``).  The cold operations are lone single-series
predicts from one client, which share a batch with nobody and so wait out
the flush timer.  The repeated operations: a closed loop of 2 client threads, each sending a
seeded mix of bodies (about 3/4 carry one series, 1/4 carry 16), timed
client-side with the HTTP round trip.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from common import (
    MAX_CLIENTS,
    OUT,
    Measured,
    Outcome,
    ServerProcess,
    Traced,
    block_tail,
    http_request,
    median,
)

N_SERIES, LENGTH, N_CLUSTERS = 200, 256, 3
POOL, MULTI, MULTI_SHARE, BODIES = 256, 16, 0.25, 400
SETUP_REPEATS = 3
LONE_REQUESTS = 100
WARMUP_S = 1.0
#: Requests per block of ``block_tail``: each block's tail is its p97.25.
TAIL_BLOCK = 400

#: POST one body -> (status, response bytes).
Post = Callable[[bytes], Tuple[int, bytes]]


class Model:
    """Published copies of one fitted model, its query pool and the answers."""

    def __init__(self, seed: int) -> None:
        from repro.datasets.synthetic import make_cylinder_bell_funnel

        self.seed = seed
        self.directory = tempfile.mkdtemp(prefix="serve-registry-", dir=OUT)
        # Bodies carry 6 decimals; the offline answer uses the same values.
        queries = make_cylinder_bell_funnel(n_series=POOL, length=LENGTH, random_state=seed + 1)
        self.pool = np.round(queries.data, 6)
        self.expected = None

    def publish(self) -> None:
        """Fit and publish one more version."""
        from repro.core.kgraph import KGraph
        from repro.datasets.synthetic import make_cylinder_bell_funnel
        from repro.serve import ModelRegistry, load_model

        train = make_cylinder_bell_funnel(n_series=N_SERIES, length=LENGTH, random_state=self.seed)
        fitted = KGraph(n_clusters=N_CLUSTERS, random_state=self.seed).fit(train.data)
        record = ModelRegistry(self.directory).publish(fitted, "cbf")
        if self.expected is None:
            self.expected = load_model(record.path).predict(self.pool)

    def bodies(self, seed: int, client: int) -> List[Tuple[np.ndarray, bytes]]:
        rng = np.random.default_rng([seed, client])
        bodies = []
        for _ in range(BODIES):
            if rng.random() < MULTI_SHARE:
                indices = rng.choice(POOL, MULTI, replace=False)
                series = self.pool[indices].tolist()
            else:
                indices = rng.integers(POOL, size=1)
                series = self.pool[indices[0]].tolist()
            bodies.append((indices, json.dumps({"series": series}).encode()))
        return bodies

    def correct(self, indices: np.ndarray, status: int, payload: bytes) -> bool:
        if status != 200:
            return False
        return json.loads(payload)["predictions"] == self.expected[indices].tolist()

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)


def load(model: Model, post: Post, seed: int, seconds: float):
    """Closed loop of ``MAX_CLIENTS`` threads for ``seconds``.

    Returns per-request latencies (s) in completion order, the failed
    request count and the wall time from start to the last response.
    """
    results: List[List[Tuple[float, float, bool]]] = [[] for _ in range(MAX_CLIENTS)]
    errors: List[BaseException] = []
    start = time.perf_counter()
    stop_at = start + seconds

    def client(index: int) -> None:
        bodies = model.bodies(seed, index)
        step = 0
        try:
            while time.perf_counter() < stop_at:
                indices, body = bodies[step % len(bodies)]
                step += 1
                began = time.perf_counter()
                status, payload = post(body)
                ended = time.perf_counter()
                results[index].append((ended, ended - began, model.correct(indices, status, payload)))
        except BaseException as exc:  # noqa: BLE001 - reported by the caller
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(MAX_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    flat = sorted(item for per_client in results for item in per_client)
    return [latency for _, latency, _ in flat], sum(not ok for _, _, ok in flat), wall


def _count(outcome: Outcome, latencies: List[float], failed: int, phase: str) -> None:
    outcome.attempted += len(latencies)
    outcome.failed += failed
    if failed:
        outcome.reasons.append(f"{failed} {phase} predictions differ from offline predict")


def run(seed: int, seconds: float) -> Measured:
    outcome = Outcome()
    model = Model(seed)
    server = None
    try:
        setups = []
        for repeat in range(SETUP_REPEATS):
            began = time.perf_counter()
            model.publish()
            server = ServerProcess(["--registry", model.directory], "serve-server.log")
            port = server.start()
            status, _ = http_request(port, "GET", "/healthz")
            if status != 200:
                raise RuntimeError(f"GET /healthz -> {status}")
            setups.append(time.perf_counter() - began)
            if repeat < SETUP_REPEATS - 1:
                server.stop()

        def post(body: bytes) -> Tuple[int, bytes]:
            return http_request(port, "POST", "/predict", body)

        latencies, failed, _ = load(model, post, seed + 1000, WARMUP_S)
        _count(outcome, latencies, failed, "warm-up")
        latencies, failed, wall = load(model, post, seed, seconds)
        _count(outcome, latencies, failed, "measured")
        peak_rss_mb = server.peak_rss_mb()
        stats = json.loads(http_request(port, "GET", "/healthz")[1])["engines"]
        # Cold operations: lone single-series predicts, which no other
        # request shares a batch with, so each waits out the flush timer.
        lone = []
        singles = [item for item in model.bodies(seed, MAX_CLIENTS) if len(item[0]) == 1]
        for indices, body in singles[:LONE_REQUESTS]:
            began = time.perf_counter()
            status, payload = post(body)
            lone.append(time.perf_counter() - began)
            outcome.check(model.correct(indices, status, payload), "lone predict")
    finally:
        if server is not None:
            server.stop()
        model.close()

    rps = len(latencies) / wall
    tail_s, percentile, blocks = block_tail(latencies, TAIL_BLOCK)
    return Measured(
        setup_s=median(setups),
        peak_rss_mb=peak_rss_mb,
        cold_s=median(lone),
        ops=latencies,
        tail_s=tail_s,
        per_s=rps,
        outcome=outcome,
        aliases={
            "predict_rps": (rps, "1/s", f"{MAX_CLIENTS} closed-loop clients"),
            "predict_p50_ms": (1e3 * median(latencies), "ms", f"{len(latencies)} requests"),
            "predict_tail_ms": (
                1e3 * tail_s,
                "ms",
                f"median over {blocks} blocks of {TAIL_BLOCK} of p{percentile:.2f}",
            ),
            "lone_predict_ms": (1e3 * median(lone), "ms", f"{len(lone)} requests alone"),
        },
        details={"engine_stats": stats, "lone_s": lone, "setup_s": setups},
    )


def _engine_counters(application) -> Dict[str, float]:
    _, _, text = application.handle_request("GET", "/healthz")
    engines = list(json.loads(text)["engines"].values())
    stats = engines[0] if engines else {}
    reasons = stats.get("flush_reasons", {})
    return {
        "batches": stats.get("batches", 0),
        "predictions": stats.get("predictions", 0),
        "flush_size": reasons.get("size", 0),
        "flush_timeout": reasons.get("timeout", 0),
    }


def run_traced(seed: int, seconds: float) -> Traced:
    """The same load on an in-process server: untraced half, traced half."""
    import layers
    from repro.serve import ModelRegistry, ServeApplication
    from repro.viz.server import serve_application
    from tracer import Tracer

    outcome = Outcome()
    model = Model(seed)
    model.publish()
    application = ServeApplication(ModelRegistry(model.directory))
    server = serve_application(application, port=0, poll=False)
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    tracer, fit_log = Tracer(), []
    try:
        port = server.server_port

        def post(body: bytes) -> Tuple[int, bytes]:
            return http_request(port, "POST", "/predict", body)

        latencies, failed, _ = load(model, post, seed + 1000, WARMUP_S)
        _count(outcome, latencies, failed, "warm-up")
        untraced, failed, _ = load(model, post, seed, seconds / 2)
        _count(outcome, untraced, failed, "untraced")
        before = _engine_counters(application)
        layers.install(tracer, fit_log)
        try:
            traced, failed, _ = load(model, post, seed, seconds / 2)
        finally:
            tracer.restore()
        _count(outcome, traced, failed, "traced")
        after = _engine_counters(application)
    finally:
        server.shutdown()
        server.server_close()
        serving.join(timeout=30)
        application.close()
        model.close()

    delta = {key: after[key] - before[key] for key in after}
    untraced_mean, traced_mean = sum(untraced) / len(untraced), sum(traced) / len(traced)
    metrics = layers.compute(
        tracer,
        fit_log,
        ops=len(traced),
        overhead_pct=100.0 * (traced_mean - untraced_mean) / untraced_mean,
        client_ms=[1e3 * latency for latency in traced],
        engine_stats={
            "mean_batch_size": delta["predictions"] / max(1, delta["batches"]),
            "flush_size": delta["flush_size"],
            "flush_timeout": delta["flush_timeout"],
        },
    )
    return Traced(
        metrics=metrics,
        outcome=outcome,
        details={
            "traced_s": traced_mean,
            "untraced_s": untraced_mean,
            "engine_delta": delta,
        },
        tracer=tracer,
    )
