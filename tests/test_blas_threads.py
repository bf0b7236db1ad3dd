"""Fitted graphs must not depend on how many BLAS threads a host would run.

OpenBLAS's GEMM/SYRK results change in the last ulps with its thread
count, and by default it runs one thread per core.  ``import repro`` caps
every loaded OpenBLAS at one thread (``repro.utils.blas``), so a fit is
byte-identical whatever ``OPENBLAS_NUM_THREADS`` the interpreter started
with — in the coordinator and in process-pool workers alike.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

_FIT_DIGEST = textwrap.dedent(
    """
    import hashlib, sys
    from oracles.graph import graph_arrays
    from repro import KGraph
    from repro.datasets.synthetic import make_cylinder_bell_funnel

    dataset = make_cylinder_bell_funnel(n_series=200, length=256, random_state=7)
    parallel = {"backend": "process", "n_jobs": 2} if sys.argv[1] == "process" else {}
    model = KGraph(n_clusters=3, random_state=7, **parallel).fit(dataset.data)
    digest = hashlib.sha256()
    for length in sorted(model.result_.graphs):
        for name, array in graph_arrays(model.result_.graphs[length]).items():
            digest.update(f"{length}:{name}:{array.dtype.str}:{array.shape};".encode())
            digest.update(array.tobytes())
    print(digest.hexdigest())
    """
)


def test_fit_is_identical_under_any_openblas_thread_setting():
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(root / "src"), str(root / "tests")])
    runs = [("1", "serial"), ("2", "serial"), ("2", "process")]
    workers = [
        subprocess.Popen(
            [sys.executable, "-c", _FIT_DIGEST, mode],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for threads, mode in runs
    ]
    digests = {}
    for run, worker in zip(runs, workers):
        out, err = worker.communicate(timeout=300)
        assert worker.returncode == 0, err
        digests[run] = out.strip()
    assert len(set(digests.values())) == 1, digests
