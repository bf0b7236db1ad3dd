"""One module per workload, each with ``run(seed, seconds)`` and ``run_traced``."""
