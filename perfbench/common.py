"""Shared pieces of the workloads: statistics, server processes, HTTP, results."""

from __future__ import annotations

import http.client
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run leaves behind (logs, traces, temporary registries) goes
#: here; the directory is git-ignored.
OUT = ROOT / ".perfbench_out"

#: Client threads/connections a workload may use at most (the box's cores).
MAX_CLIENTS = 2
#: Fresh interpreters ``fresh_import_s`` times; a single import varies by 2x.
IMPORT_REPEATS = 5

# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile with >=10 beyond.

    With fewer than 11 samples no percentile has ten beyond it, so the
    maximum is reported with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return float(ordered[-1]), 100.0, n
    index = n - 11
    return float(ordered[index]), 100.0 * (index + 1) / n, n


def block_tail(values: Sequence[float], block: int) -> Tuple[float, float, int]:
    """(value, percentile, blocks): the median over consecutive blocks of ``tail``.

    ``values`` are in completion order.  The tail of the whole run rests on
    its ten slowest samples, so one host stall moves it; the median of the
    per-block tails does not move with a single stall.  A short final block
    is dropped; with fewer than ``block`` samples this is ``tail(values)``.
    """
    blocks = [values[i : i + block] for i in range(0, len(values) - block + 1, block)]
    if not blocks:
        value, percentile, _ = tail(values)
        return value, percentile, 1
    tails = [tail(chunk) for chunk in blocks]
    return median([value for value, _, _ in tails]), tails[0][1], len(blocks)


def fresh_import_s(modules: Sequence[str]) -> float:
    """Median seconds to import ``modules`` in ``IMPORT_REPEATS`` fresh interpreters.

    The interpreter's own start-up is not counted; each import runs in its
    own process, so none of them finds the modules already loaded.
    """
    imports = "; ".join(f"import {module}" for module in modules)
    code = (
        "import time; start = time.perf_counter(); "
        f"{imports}; print(time.perf_counter() - start)"
    )
    samples = []
    for _ in range(IMPORT_REPEATS):
        finished = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(finished.stdout.strip().splitlines()[-1]))
    return median(samples)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of another live process."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def provenance() -> Dict[str, object]:
    """What a result was measured with."""
    import numpy

    blas = {
        name: os.environ.get(name, "unset")
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "blas_threads": blas,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------- #
# results
# ---------------------------------------------------------------------- #


@dataclass
class Outcome:
    """Operations attempted and those that failed or were incorrect."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(what)
        return ok


@dataclass
class Measured:
    """One untraced run of a workload, before it is turned into metrics.

    ``cold_s`` is the typical operation that reuses nothing, ``ops`` the
    repeated operations (seconds) and ``tail_s`` their tail; ``aliases``
    names the same numbers the way the workload's users know them
    (``fit_s``, ``predict_rps``, ...) as (value, unit, note).
    """

    setup_s: float
    peak_rss_mb: float
    cold_s: float
    ops: List[float]
    tail_s: float
    per_s: float
    outcome: Outcome
    aliases: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)


@dataclass
class Traced:
    """One traced run: per-layer metrics, and the tracer holding its spans."""

    metrics: Dict[str, float]
    outcome: Outcome
    details: Dict[str, object] = field(default_factory=dict)
    tracer: object = None


# ---------------------------------------------------------------------- #
# processes and HTTP
# ---------------------------------------------------------------------- #


#: Seconds ``stop_children`` lets children end on their own before killing them.
CHILD_GRACE_S = 5.0
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper() -> None:
    """Adopt every orphaned descendant (Linux), so ``stop_children`` sees it.

    Without this, a grandchild whose parent ended first (the multiprocessing
    resource tracker of a server child, say) is handed to init and outlives
    the run unseen.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    """Live or unreaped processes whose parent is this one."""
    me, children = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after "(comm)": state, ppid, ...; comm may hold spaces.
        if int(stat[stat.rfind(b")") + 2 :].split()[1]) == me:
            children.append(int(entry))
    return children


def stop_children() -> None:
    """Stop every process this run started, and wait until each has ended.

    The multiprocessing resource tracker, started by process pools, lives
    until its pipe closes, which would otherwise be after this process
    exits; closing the pipe here lets it end now.  Children that do not end
    within ``CHILD_GRACE_S`` are killed.  All are reaped.
    """
    try:
        from multiprocessing import resource_tracker

        tracker = resource_tracker._resource_tracker
        if tracker._fd is not None:
            os.close(tracker._fd)
            tracker._fd = None
    except (ImportError, AttributeError, OSError):
        pass
    deadline = time.monotonic() + CHILD_GRACE_S
    while True:
        pids = _child_pids()
        if not pids:
            return
        late = time.monotonic() >= deadline
        for pid in pids:
            try:
                if late:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0 if late else os.WNOHANG)
            except (ProcessLookupError, ChildProcessError):
                pass
        time.sleep(0.01)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class ServerProcess:
    """A ``graphint serve --port 0`` child process; callers ``stop`` it."""

    _READY = re.compile(rb"serving Graphint on http://[^:]+:(\d+)")

    def __init__(self, args: Sequence[str], log_name: str) -> None:
        self.args = list(args)
        self.log_path = OUT / log_name
        self.process: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 60.0) -> int:
        command = [sys.executable, "-m", "repro.viz.cli", "serve", "--port", "0", *self.args]
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdout=log, stderr=subprocess.STDOUT
            )
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = self._READY.search(self.log_path.read_bytes())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        log_tail = self.log_path.read_bytes()[-2000:].decode(errors="replace")
        self.stop()
        raise RuntimeError(f"server did not start: {log_tail}")

    def peak_rss_mb(self) -> float:
        return pid_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        process, self.process = self.process, None
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGINT)  # serve_forever exits cleanly on ^C
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)


def http_request(
    port: int, method: str, path: str, body: Optional[bytes] = None, timeout: float = 60.0
) -> Tuple[int, bytes]:
    """One request on a fresh connection (the server speaks HTTP/1.0)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()
