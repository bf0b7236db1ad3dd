#!/usr/bin/env python3
"""Record the benchmark's baseline: two sets of seeded runs per workload, plus a traced run.

Run from the repository root::

    python3 perfbench/baseline.py --output perfbench/baseline.json

For every workload of ``BENCHMARK.json`` it runs ``perfbench/run.py``
untraced on seeds 1..10 for ``run_seconds`` each, and then once more on the
same seeds: two sets of runs of the same code.  Per set it reports each
end-to-end metric's median and spread (distance between the first and third
quartile over the median, as ``statistics.quantiles(values, n=4)`` gives
them), and how much worse the second set's median is than the first's.
Then one traced run (seed 1) gives the per-layer numbers.  Runs are
sequential, so they never compete for the cores they measure.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    began = time.perf_counter()
    finished = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if finished.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} failed:\n{finished.stderr[-4000:]}")
    result = json.loads(finished.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - began
    return result


def summarise(results: list) -> dict:
    summary = {}
    for name in results[0]["metrics"]:
        values = [result["metrics"][name]["value"] for result in results]
        middle = statistics.median(values)
        quartiles = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": middle,
            "spread": (quartiles[2] - quartiles[0]) / middle,
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(ROOT / ".perfbench_out" / "baseline.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    report = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in [entry["name"] for entry in spec["workloads"]]:
        sets = [[run(workload, seed, seconds, 0) for seed in SEEDS] for _ in range(2)]
        traced = run(workload, 1, seconds, 1)
        first, second = summarise(sets[0]), summarise(sets[1])
        rows = {}
        for name, metric in metrics.items():
            change = (second[name]["median"] - first[name]["median"]) / first[name]["median"]
            rows[name] = {
                "unit": metric["unit"],
                "bound": metric["bound"],
                "sets": [first[name], second[name]],
                "second_worse_by": change if metric["better"] == "lower" else -change,
            }
        runs = sets[0] + sets[1]
        report["workloads"][workload] = {
            "correct": all(result["correct"] for result in runs + [traced]),
            "attempted": sum(result["attempted"] for result in runs),
            "failed": sum(result["failed"] for result in runs),
            "run_wall_s": statistics.median(result["wall_s"] for result in runs),
            "end_to_end": rows,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{workload}: median run {report['workloads'][workload]['run_wall_s']:.1f} s")
        for name, row in rows.items():
            spreads = [entry["spread"] for entry in row["sets"]]
            over = name != "setup_s" and max(spreads) > row["bound"]
            over = over or row["second_worse_by"] > row["bound"]
            print(
                f"  {name:<12} median {row['sets'][0]['median']:>12.4f} {row['unit']:<4} "
                f"spreads {spreads[0]:.3f} {spreads[1]:.3f}  second worse by "
                f"{row['second_worse_by']:+.3f} / bound {row['bound']}"
                + ("  (above bound)" if over else "")
            )
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
