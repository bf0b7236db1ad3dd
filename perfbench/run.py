#!/usr/bin/env python3
"""Graphint benchmark: end-to-end metrics per workload, per-layer when traced.

Run from the repository root::

    python3 perfbench/run.py --workload fit_large --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads/``): ``fit_large``, ``explore``,
``serve`` and ``grid``.  Inputs come from ``--seed``; each run measures for
``--seconds``, checks every output, prints a human-readable table and, as its
last line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run of the same workload with the library's
public functions wrapped in spans, reporting the per-layer metrics and
writing the spans (Trace Event Format) to ``.perfbench_out/``.

Every workload reports every end-to-end metric; what each one means on each
workload is in ``E2E_METRICS`` below, and the human-readable table prints the
same numbers under their workload-specific names (``fit_s``, ``open_s``,
``predict_rps``, ``grid_cold_s``, ...).
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, SRC, become_subreaper, median, provenance, stop_children  # noqa: E402

WORKLOADS = ("fit_large", "explore", "serve", "grid")

#: name -> (unit, meaning on fit_large / explore / serve / grid)
E2E_METRICS = {
    "setup_s": ("s", "imports, inputs, model fit and publish, server start-up; median of repeats"),
    "peak_rss_mb": ("MB", "peak RSS of the fitting / server / server / sweeping process"),
    "cold_ms": ("ms", "first fit of the process / mean open_s / median lone predict / grid_cold_s"),
    "p50_ms": ("ms", "fit_s / interact_p50_ms / predict_p50_ms / grid_replay_s"),
    "tail_ms": (
        "ms",
        "slower of the 2 warm fits / interact_tail_ms / predict_tail_ms / replay tail",
    ),
    "per_s": ("1/s", "warm fits / interactions / predict_rps / sweeps per second"),
}


def _end_to_end(measured) -> dict:
    values = {
        "setup_s": measured.setup_s,
        "peak_rss_mb": measured.peak_rss_mb,
        "cold_ms": 1e3 * measured.cold_s,
        "p50_ms": 1e3 * median(measured.ops),
        "tail_ms": 1e3 * measured.tail_s,
        "per_s": measured.per_s,
    }
    return {name: {"value": values[name], "unit": E2E_METRICS[name][0]} for name in E2E_METRICS}


def _print_table(workload, seed, trace, metrics, notes, extra, lines, outcome) -> None:
    print(f"workload {workload}  seed {seed}  trace {trace}")
    for key, value in provenance().items():
        print(f"  {key:<34} {value}")
    for name, metric in metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']:<6} {notes[name]}")
    for name, (value, unit, note) in extra.items():
        print(f"  {name:<34} {value:>16.6g} {unit:<6} {note}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"  {'error_rate':<34} {rate:>16.6g} ratio  {outcome.failed}/{outcome.attempted}")
    for reason in outcome.reasons:
        print(f"  FAILED: {reason}")
    for line in lines:
        print(line)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no library sources at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds, so server children and pools are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)
    become_subreaper()
    try:
        return _run(args)
    finally:
        stop_children()


def _run(args) -> int:
    workload = importlib.import_module(f"workloads.{args.workload}")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        import layers

        traced = workload.run_traced(args.seed, args.seconds)
        outcome = traced.outcome
        metrics = {
            name: {"value": traced.metrics[name], "unit": unit}
            for name, unit, _ in layers.PER_LAYER
        }
        notes = {name: note for name, _, note in layers.PER_LAYER}
        extra = {}
        lines = layers.table(traced.tracer, traced.metrics, traced.details)
        traced.tracer.write_chrome_trace(str(OUT / f"{stem}-spans.json"))
        details = traced.details
    else:
        measured = workload.run(args.seed, args.seconds)
        outcome = measured.outcome
        metrics = _end_to_end(measured)
        notes = {name: meaning for name, (_, meaning) in E2E_METRICS.items()}
        extra = measured.aliases
        lines = []
        details = measured.details

    _print_table(args.workload, args.seed, args.trace, metrics, notes, extra, lines, outcome)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "provenance": provenance(),
                "metrics": metrics,
                "aliases": {k: list(v) for k, v in extra.items()},
                "failures": outcome.reasons,
                "details": details,
            },
            handle,
            indent=2,
        )
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
