"""Reference implementations that the library's fast paths are checked against.

Each oracle is the straightforward, loop-by-loop form of a computation the
library performs in bulk.  They live with the tests, not in ``src/``: the
equivalence tests and the hot-path benchmark (E13,
``benchmarks/test_bench_hotpaths.py``) import them from here.
"""
