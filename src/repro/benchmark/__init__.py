"""Benchmark harness backing the Benchmark frame (Fig. 2 / Fig. 3 frame 1.2).

The harness runs a population of clustering methods over the dataset
catalogue, evaluates each run with the four Benchmark-frame measures
(ARI, RI, NMI, AMI), stores results as plain dictionaries (JSON-serialisable)
and provides the filtering + aggregation operations the GUI exposes
(filter by dataset type / length / number of classes / number of series,
box-plot summaries per method, mean-rank tables).
"""

from repro.benchmark.runner import BenchmarkRunner, BenchmarkResult
from repro.benchmark.aggregate import (
    boxplot_summary,
    filter_results,
    mean_rank_table,
    results_to_rows,
    summarize_by_method,
)
from repro.benchmark.store import load_results, save_results

__all__ = [
    "BenchmarkResult",
    "BenchmarkRunner",
    "boxplot_summary",
    "filter_results",
    "load_results",
    "mean_rank_table",
    "results_to_rows",
    "save_results",
    "summarize_by_method",
]
