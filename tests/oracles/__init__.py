"""Reference implementations that the library's fast paths are checked against.

Each oracle is the straightforward, loop-by-loop form of a computation the
library performs in bulk.  They live with the tests, not in ``src/``: the
equivalence tests, the hot-path benchmark (E13,
``benchmarks/test_bench_hotpaths.py``) and the pipeline-resume smoke check
(``benchmarks/pipeline_resume_smoke.py``) import them from here.
"""
