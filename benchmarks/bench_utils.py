"""Shared helpers for the benchmark harness.

Every experiment Ei of DESIGN.md has one ``test_bench_*.py`` module in this
directory.  Benchmarks are run with::

    pytest benchmarks/ --benchmark-only

Each experiment prints the rows/series the corresponding paper frame shows
and also writes them to ``benchmarks/out/<experiment>.txt`` so the output
survives pytest's capture.  Set the environment variable ``REPRO_BENCH_FULL=1``
to run the full-size dataset catalogue instead of the reduced one (the
reduced catalogue keeps the default run within a few minutes while preserving
every dataset family and therefore the shape of the results).

Runs write only to the git-ignored ``benchmarks/out/``, so running the test
suite never touches a tracked file.  The committed results in
``benchmarks/results/`` change only when someone blesses a run by copying
files across by hand, e.g. after checking a fresh E13 run::

    cp benchmarks/out/hotpaths.json benchmarks/results/hotpaths.json

``benchmarks/results/hotpaths.json`` is the baseline the CI perf-smoke job
compares ``benchmarks/out/hotpaths.json`` against.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict

from repro.datasets.catalogue import DatasetCatalogue, DatasetSpec, default_catalogue
from repro.datasets import synthetic

RESULTS_DIR = Path(__file__).parent / "out"


def full_mode() -> bool:
    """Whether the full-size catalogue was requested."""
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_catalogue() -> DatasetCatalogue:
    """The catalogue used by the benchmark harness.

    In default (reduced) mode every dataset family is kept but generated with
    fewer, shorter series so the 15-method campaign completes quickly; with
    ``REPRO_BENCH_FULL=1`` the paper-scale default catalogue is used.
    """
    if full_mode():
        return default_catalogue()
    reduced = DatasetCatalogue()
    entries = [
        ("cylinder_bell_funnel", synthetic.make_cylinder_bell_funnel, "synthetic-shape", 24, 96, 3),
        ("two_patterns", synthetic.make_two_patterns, "synthetic-shape", 24, 96, 4),
        ("gun_point_like", synthetic.make_gun_point_like, "synthetic-motion", 20, 96, 2),
        ("sine_families", synthetic.make_sine_families, "synthetic-periodic", 24, 96, 3),
        ("seasonal_mixture", synthetic.make_seasonal_mixture, "synthetic-seasonal", 24, 96, 3),
        ("trend_classes", synthetic.make_trend_classes, "synthetic-trend", 20, 96, 2),
        ("random_walk_regimes", synthetic.make_random_walk_regimes, "synthetic-stochastic", 24, 96, 3),
        ("shapelet_classes", synthetic.make_shapelet_classes, "synthetic-shape", 24, 96, 3),
        ("spiky_patterns", synthetic.make_spiky_patterns, "synthetic-sensor", 20, 96, 2),
        ("mixed_bag", synthetic.make_mixed_bag, "synthetic-mixed", 24, 96, 4),
        ("noise_only", synthetic.make_noise_only, "synthetic-control", 20, 96, 2),
    ]
    for name, generator, dataset_type, n_series, length, n_classes in entries:
        reduced.register(
            DatasetSpec(
                name=name,
                generator=generator,
                dataset_type=dataset_type,
                n_series=n_series,
                length=length,
                n_classes=n_classes,
            )
        )
    return reduced


def report(experiment: str, text: str) -> None:
    """Print an experiment report and persist it under benchmarks/out/."""
    banner = f"\n{'=' * 78}\n{experiment}\n{'=' * 78}\n"
    print(banner + text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    stem = experiment.split(":")[0].strip().lower().replace(" ", "_").replace("/", "_")
    (RESULTS_DIR / f"{stem}.txt").write_text(banner + text + "\n", encoding="utf-8")


def format_table(rows, columns) -> str:
    """Minimal fixed-width table formatter for the experiment reports."""
    widths: Dict[str, int] = {}
    for column in columns:
        widths[column] = max(
            len(str(column)), *(len(_fmt(row.get(column, ""))) for row in rows)
        ) if rows else len(str(column))
    header = "  ".join(f"{column:<{widths[column]}}" for column in columns)
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append("  ".join(f"{_fmt(row.get(column, '')):<{widths[column]}}" for column in columns))
    return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
