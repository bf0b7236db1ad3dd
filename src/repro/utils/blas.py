"""One BLAS thread per process, so fitted arrays do not depend on the core count.

OpenBLAS runs one thread per core by default, and its GEMM/SYRK results
change in the last ulps with the thread count.  The embedding's Gram
matrix is such a call, so without a cap a fitted graph differs between a
1-core and a 2-core host (labels agree; projections, node positions and
graph payloads do not).

:func:`cap_blas_threads` runs once, on ``import repro``: it finds every
OpenBLAS already mapped into the process through ``/proc/self/maps`` and
sets it to one thread through its exported setter — the technique of
threadpoolctl (https://github.com/joblib/threadpoolctl).  The setting is
process-wide and overrides ``OPENBLAS_NUM_THREADS``.  Forked workers
inherit it; spawned workers and ``graphint worker`` import ``repro`` and
set it themselves.  With another BLAS (MKL, Accelerate), no BLAS found, or
no ``/proc``, it does nothing.
"""

from __future__ import annotations

import ctypes
import os
from typing import List

#: Thread-count setters: the OpenBLAS bundled with NumPy 2 and with
#: NumPy 1 (both ILP64 builds), and a system OpenBLAS.
_SETTERS = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _loaded_openblas() -> List[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return []
    return sorted(path for path in paths if path.startswith("/"))


def cap_blas_threads() -> None:
    """Set every loaded OpenBLAS to one thread."""
    for path in _loaded_openblas():
        try:
            # RTLD_NOLOAD: only look up a library that is already mapped.
            library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break
