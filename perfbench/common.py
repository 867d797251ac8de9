"""Shared plumbing: isolation, statistics, set-up timing, result rows."""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives here (listed in the root .gitignore).
OUT = ROOT / ".bench_runs"
#: Bytecode cache for the program, so import times do not depend on
#: stray ``__pycache__`` directories or ``PYTHONDONTWRITEBYTECODE``.
PYCACHE = OUT / "pycache"

#: Environment the program would otherwise read: a user's warm cache
#: directory or worker count must never leak into a measurement.
ISOLATED_ENV = ("REPRO_CACHE_DIR", "REPRO_JOBS", "REPRO_BENCH_CACHE")

#: Set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def isolate() -> None:
    """Drop the program's environment knobs, put ``src`` on the path and
    keep the program's bytecode in :data:`PYCACHE` whatever the
    environment says about writing it."""
    for name in ISOLATED_ENV:
        os.environ.pop(name, None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.pycache_prefix = str(PYCACHE)
    sys.dont_write_bytecode = False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise ImportError(f"imported repro from {repro.__file__}, "
                          f"not from {SRC}")


def scratch_dir(prefix: str) -> str:
    """A fresh, empty directory under :data:`OUT` (caller removes it)."""
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT / "tmp")


def remove(path: Optional[str]) -> None:
    if path:
        shutil.rmtree(path, ignore_errors=True)


#: Probe seconds on the reference host (2-vCPU x86-64 VM, CPython 3.11).
#: Timings are reported rescaled to this probe speed; see :func:`probe`.
REFERENCE_PROBE_S = 0.008


def _probe_once() -> None:
    heap: List[tuple] = []
    table: Dict[int, int] = {}
    for i in range(6000):
        heapq.heappush(heap, ((i * 7919) % 10007, i))
        table[i & 255] = table.get(i & 255, 0) + i
    while heap:
        heapq.heappop(heap)


def probe(repeats: int = 11) -> float:
    """Median seconds of a fixed pure-Python probe (heap, dict, loop).

    On a shared virtual machine other tenants' load moves the speed of
    interpreter-bound code by +-20% within minutes.  Each timed window is
    bracketed by probes, and its timings are rescaled by
    ``REFERENCE_PROBE_S`` over the probes' mean, so that drift of the
    host cancels while a change in the program does not: the probe is
    the benchmark's own code and calls nothing in ``src/``.  The cyclic
    collector is off while it runs: a collection's cost grows with the
    program's live heap, and would make the probe depend on the program.
    """
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            _probe_once()
            samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(samples: Sequence[float], pct: int) -> float:
    """Percentile of raw samples (linear interpolation between ranks)."""
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process (the one hosting the program)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_mb() -> float:
    """Sum of the peak resident sets (``VmHWM``) of this process's live
    children, as ``ps`` reports them: forked children's shared pages
    count once per process.  Linux only; 0 elsewhere."""
    total_kb = 0
    for listing in Path("/proc/self/task").glob("*/children"):
        for pid in listing.read_text().split():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:                     # it has just exited
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def time_imports(modules: Sequence[str]) -> float:
    """Seconds a fresh interpreter spends importing *modules* and hashing
    the model source (the cache namespace every run computes first)."""
    code = ("import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "t = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "from repro.analysis.executor import model_fingerprint\n"
            "model_fingerprint()\n"
            "print(time.perf_counter() - t)\n")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


def source_rev() -> Dict[str, str]:
    """A digest of ``src/``, plus the git revision in a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    rev = {"src_sha256": digest.hexdigest()}
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            rev["git"] = done.stdout.strip()
    return rev


def host_info() -> Dict[str, object]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine()}


def append_row(row: Dict[str, object]) -> Path:
    """Append one run's row (everything needed to reproduce and analyse
    it) to ``.bench_runs/rows.jsonl``."""
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / "rows.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(row, sort_keys=True) + "\n")
    return path


class Clock:
    """The run's time budget.  A new pass (or round) starts only if one
    more of the length of the last fits, so a run lasts about
    ``seconds`` whatever the host speed."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.started = self._mark = time.perf_counter()

    def another(self) -> bool:
        now = time.perf_counter()
        last, self._mark = now - self._mark, now
        return now - self.started + last <= self.seconds
