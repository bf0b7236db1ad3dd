#!/usr/bin/env python
"""Compare a fresh hotpaths run against the committed baseline (CI perf smoke).

Usage::

    python benchmarks/compare_hotpaths.py BASELINE.json CURRENT.json \
        [--max-slowdown 2.0]

Both files are hotpaths payloads written by
``benchmarks/test_bench_hotpaths.py`` (E13): the committed baseline
``benchmarks/results/hotpaths.json`` and a fresh ``benchmarks/out/hotpaths.json``.  Comparing raw seconds across
machines is meaningless — a laptop baseline would fail every CI runner — so
the regression signal is the *speedup* of each vectorized hot path over its
retained reference implementation, which both runs measure on their own
hardware.  A hot path fails the smoke check when its current speedup drops
below ``baseline_speedup / max_slowdown`` (i.e. the vectorized path became
more than ``max_slowdown`` x slower relative to the reference than the
committed baseline says it should be), or when a baseline hot path is
missing from the current run.

Exit status: 0 when every hot path passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_payload(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    version = payload.get("schema_version")
    if not isinstance(version, int) or version < 1:
        raise SystemExit(f"{path}: missing or malformed schema_version")
    return payload


def entries_by_name(payload: dict) -> dict:
    return {entry["hot_path"]: entry for entry in payload.get("entries", [])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=Path, help="committed hotpaths.json")
    parser.add_argument("current", type=Path, help="freshly generated hotpaths.json")
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="fail when a hot path's speedup drops below baseline/this factor",
    )
    args = parser.parse_args(argv)
    if args.max_slowdown <= 0:
        parser.error("--max-slowdown must be positive")

    baseline_payload = load_payload(args.baseline)
    current_payload = load_payload(args.current)
    # Speedups are only comparable for the same benchmark config: a
    # full-mode baseline vs a tiny-mode run would set nonsense floors.
    if baseline_payload.get("full_mode") != current_payload.get("full_mode"):
        raise SystemExit(
            f"config mismatch: baseline full_mode="
            f"{baseline_payload.get('full_mode')} but current full_mode="
            f"{current_payload.get('full_mode')}; regenerate the baseline "
            "with the same REPRO_BENCH_FULL setting"
        )
    baseline = entries_by_name(baseline_payload)
    current = entries_by_name(current_payload)

    failures = []
    width = max(len(name) for name in baseline) if baseline else 10
    print(f"{'hot path':<{width}}  baseline  current  floor  status")
    for name, base_entry in sorted(baseline.items()):
        base_speedup = float(base_entry["speedup"])
        floor = base_speedup / args.max_slowdown
        entry = current.get(name)
        if entry is None:
            failures.append(f"{name}: missing from the current run")
            print(f"{name:<{width}}  {base_speedup:7.1f}x  missing  {floor:4.1f}x  FAIL")
            continue
        speedup = float(entry["speedup"])
        ok = speedup >= floor
        status = "ok" if ok else "FAIL"
        print(
            f"{name:<{width}}  {base_speedup:7.1f}x  {speedup:6.1f}x  {floor:4.1f}x  {status}"
        )
        if not ok:
            failures.append(
                f"{name}: speedup {speedup:.1f}x fell below {floor:.1f}x "
                f"(baseline {base_speedup:.1f}x / max slowdown {args.max_slowdown:g})"
            )

    if failures:
        print("\nPerf smoke FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nPerf smoke passed: no vectorized hot path regressed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
