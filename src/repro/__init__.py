"""Graphint / k-Graph: graph-based interpretable time series clustering.

This package is a from-scratch reproduction of

    *Graphint: Graph-Based Time Series Clustering Visualisation Tool*
    (Boniol, Tiano, Bonifati, Palpanas — ICDE 2025),

covering both the k-Graph clustering pipeline (graph embedding, graph
clustering, consensus clustering, interpretability computation) and the
Graphint visual-analysis tool (five interactive frames rendered as
self-contained HTML/SVG).

Quickstart
----------
>>> from repro import KGraph, generate_dataset
>>> dataset = generate_dataset("cylinder_bell_funnel", random_state=0)
>>> model = KGraph(n_clusters=3, n_lengths=3, random_state=0)
>>> labels = model.fit_predict(dataset.data)

See ``examples/`` for end-to-end scenarios and ``benchmarks/`` for the
experiments reproducing every frame/figure of the paper.
"""

from repro.api.config import BaselineConfig, EstimatorConfig, KGraphConfig
from repro.api.protocol import Estimator, ServableState, SupportsServing
from repro.core.kgraph import KGraph, KGraphResult
from repro.datasets.catalogue import default_catalogue, generate_dataset, list_dataset_names
from repro.parallel import (
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.metrics.clustering import (
    adjusted_mutual_information,
    adjusted_rand_index,
    normalized_mutual_information,
    rand_index,
)
from repro.utils.blas import cap_blas_threads
from repro.utils.containers import TimeSeriesDataset

# NumPy (and its OpenBLAS) is loaded by now: one BLAS thread per process
# keeps fitted arrays independent of the host's core count.
cap_blas_threads()

__version__ = "1.1.0"

#: Serving API re-exported lazily (PEP 562) — repro.serve sits on top of the
#: whole library, so importing it eagerly here would be circular.
_SERVE_EXPORTS = {
    "save_model",
    "load_model",
    "ModelRegistry",
    "InferenceEngine",
    "ServeApplication",
}

#: Estimator-registry exports re-exported lazily — building the registry
#: imports every baseline (and hence every clustering module).
_API_EXPORTS = {"EstimatorRegistry", "EstimatorSpec", "default_registry"}


def __getattr__(name):
    if name in _SERVE_EXPORTS:
        from repro import serve

        return getattr(serve, name)
    if name in _API_EXPORTS:
        from repro import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BaselineConfig",
    "Estimator",
    "EstimatorConfig",
    "EstimatorRegistry",
    "EstimatorSpec",
    "KGraphConfig",
    "ServableState",
    "SupportsServing",
    "default_registry",
    "InferenceEngine",
    "ModelRegistry",
    "ServeApplication",
    "load_model",
    "save_model",
    "ExecutionBackend",
    "KGraph",
    "KGraphResult",
    "ProcessBackend",
    "SerialBackend",
    "ThreadBackend",
    "TimeSeriesDataset",
    "__version__",
    "resolve_backend",
    "adjusted_mutual_information",
    "adjusted_rand_index",
    "default_catalogue",
    "generate_dataset",
    "list_dataset_names",
    "normalized_mutual_information",
    "rand_index",
]
