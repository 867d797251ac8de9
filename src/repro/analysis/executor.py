"""Parallel sweep execution and the persistent result cache.

The characterization grid is a pure function: a :class:`RunKey` plus a
:class:`JobConf` fully determine the resulting :class:`JobResult`.  This
module exploits that twice:

* :func:`run_cells` fans a batch of cells out over a
  ``ProcessPoolExecutor`` (``jobs`` worker processes) and merges the
  results **in input order**, so a parallel run is bit-identical to a
  serial one — only the wall clock changes.
* :class:`ResultCache` persists finished cells to disk, content-addressed
  by :func:`cache_key` (a SHA-256 over every RunKey and JobConf field)
  and namespaced by :func:`model_fingerprint` (a SHA-256 over the source
  of every model package).  Re-running ``repro-hadoop run all`` after a
  model edit starts cold automatically; re-running it unchanged
  simulates nothing.

Cell failures surface as :class:`CellError` carrying the failing cell's
coordinates instead of a bare traceback from an anonymous worker.

Example::

    from repro.analysis.executor import ResultCache, run_cells
    from repro.core.characterization import RunKey

    cache = ResultCache()              # ~/.cache/repro-hadoop by default
    keys = [RunKey("atom", "wordcount", freq_ghz=f) for f in (1.2, 1.8)]
    results = run_cells(keys, jobs=2, cache=cache)   # dict RunKey->JobResult
"""

from __future__ import annotations

import hashlib
import os
import pickle
import re
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..core import characterization
from ..core.characterization import Cell, RunKey
from ..mapreduce.config import DEFAULT_CONF, JobConf
from ..mapreduce.driver import JobResult

__all__ = ["CellError", "CacheStats", "MEMORY_ENTRIES", "ResultCache",
           "cache_key", "default_cache_dir", "model_fingerprint",
           "resolve_jobs", "run_cells"]

#: Bump when the on-disk entry layout changes (forces a cold cache).
CACHE_FORMAT = 1

#: Decoded results one :class:`ResultCache` keeps in process (about
#: 3.5 KB each, so about 3.6 MB at the bound).
MEMORY_ENTRIES = 1024

#: A bucket directory's name: the first 16 hex digits of a fingerprint.
_BUCKET_NAME = re.compile(r"[0-9a-f]{16}")

#: Packages whose source determines simulation results.  ``analysis``
#: (rendering, drivers) and the CLI cannot change a JobResult, so they
#: are deliberately excluded — editing a figure driver keeps the cache
#: warm, editing the power model invalidates it.
MODEL_PACKAGES = ("arch", "cluster", "core", "hdfs", "mapreduce", "sim",
                  "workloads")

_fingerprint: Optional[str] = None


def model_fingerprint() -> str:
    """SHA-256 over the source of every model package (memoized).

    Two checkouts with identical model code share a fingerprint; any
    edit under the packages in :data:`MODEL_PACKAGES` produces a new one
    and therefore a cold cache namespace.
    """
    global _fingerprint
    if _fingerprint is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256(f"format:{CACHE_FORMAT}".encode())
        for pkg in MODEL_PACKAGES:
            for path in sorted((root / pkg).rglob("*.py")):
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
        _fingerprint = digest.hexdigest()
    return _fingerprint


_RUNKEY_FIELDS = tuple(f.name for f in fields(RunKey))
_CONF_FIELDS = tuple(f.name for f in fields(JobConf))
#: ``machine=%r;...;conf.fault_plan=%r``: one ``name=repr(value)`` part
#: per RunKey field, then per JobConf field, built once at import.
_KEY_TEMPLATE = ";".join([f"{name}=%r" for name in _RUNKEY_FIELDS]
                         + [f"conf.{name}=%r" for name in _CONF_FIELDS])
_runkey_values = attrgetter(*_RUNKEY_FIELDS)
_conf_values = attrgetter(*_CONF_FIELDS)


def cache_key(key: RunKey, conf: JobConf = DEFAULT_CONF) -> str:
    """Stable content hash of one cell's full input (RunKey + JobConf).

    The digest addresses entries on disk: its bytes must not change.
    """
    text = _KEY_TEMPLATE % (_runkey_values(key) + _conf_values(conf))
    return hashlib.sha256(text.encode()).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro-hadoop``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-hadoop"


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None -> $REPRO_JOBS or 1, 0 -> CPUs.

    A ``$REPRO_JOBS`` that is not a non-negative integer raises
    ``ValueError``, as a negative ``--jobs`` does.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS") or "1"
        if not env.isdecimal():
            raise ValueError(f"REPRO_JOBS must be a non-negative integer, "
                             f"got {env!r}")
        jobs = int(env)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


class CellError(RuntimeError):
    """A sweep cell failed; carries the cell's coordinates.

    Raised instead of the worker's bare exception so a 2000-cell sweep
    reports *which* (machine, workload, frequency, …) combination died.
    The original exception is chained as ``__cause__``.
    """

    def __init__(self, key: RunKey, cause: BaseException):
        super().__init__(f"sweep cell failed at [{key.describe()}] "
                         f"({key!r}): {cause}")
        self.key = key


@dataclass
class CacheStats:
    """Snapshot of the on-disk cache plus this process's hit counters."""

    path: Path
    fingerprint: str
    entries: int          #: cells stored under the current fingerprint
    stale_entries: int    #: cells under superseded fingerprints
    size_bytes: int       #: total on-disk footprint, all fingerprints
    hits: int             #: hits served by this process
    misses: int           #: lookups this process had to simulate
    stores: int           #: cells this process wrote

    @property
    def lookups(self) -> int:
        """Cache probes made by this process (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of this process's lookups served from cache (0..1)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def render(self) -> str:
        rate = (f"{100.0 * self.hit_rate:.1f}% of {self.lookups} lookups"
                if self.lookups else "n/a (no lookups yet)")
        lines = [
            f"cache directory : {self.path}",
            f"model fingerprint: {self.fingerprint[:16]}",
            f"entries (current): {self.entries}",
            f"entries (stale)  : {self.stale_entries}",
            f"size on disk     : {self.size_bytes / 1024:.1f} KiB",
            f"this process     : {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stores",
            f"hit rate         : {rate}",
        ]
        return "\n".join(lines)


class ResultCache:
    """Content-addressed on-disk store of simulated :class:`JobResult`\\ s.

    Entries live at ``<path>/<fingerprint[:16]>/<cache_key>.pkl``; the
    fingerprint prefix means a model-code edit silently starts a fresh
    namespace while ``cache clear`` can still reap the stale ones.  The
    service's shards share a root one level deeper
    (``<path>/shard-XX/<fingerprint[:16]>/``), and :meth:`stats`,
    :meth:`clear` and :meth:`reap_orphans` see those entries too.
    Writes are atomic (temp file + ``os.replace``), and unreadable or
    corrupt entries are treated as misses and deleted.

    In front of the disk sits an in-process tier of at most
    *memory_entries* decoded results (:data:`MEMORY_ENTRIES` by
    default).  It fills only on a validated disk hit, never on
    :meth:`put` or a miss, evicts the oldest-inserted entry when full,
    and :meth:`clear` empties it.  A tier hit counts in ``hits`` like a
    disk hit.  Results are immutable by convention, so one decoded
    result may be handed to many callers.

    ``get`` and ``put`` take the cell's :func:`cache_key` as *key_hex*
    when the caller has it already, so a cell is hashed once.
    """

    def __init__(self, path: Optional[os.PathLike] = None,
                 fingerprint: Optional[str] = None,
                 memory_entries: int = MEMORY_ENTRIES):
        self.path = Path(path) if path is not None else default_cache_dir()
        if self.path.exists() and not self.path.is_dir():
            raise ValueError(
                f"cache dir {self.path} exists and is not a directory")
        self.fingerprint = fingerprint or model_fingerprint()
        self._prefix = os.path.join(self.path, self.fingerprint[:16], "")
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        self.memory_entries = memory_entries
        self._memory: Dict[str, JobResult] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0   #: unreadable entries dropped by this process

    @property
    def _bucket(self) -> Path:
        return self.path / self.fingerprint[:16]

    def _entry(self, key_hex: str) -> str:
        return f"{self._prefix}{key_hex}.pkl"

    def get(self, key: RunKey, conf: JobConf = DEFAULT_CONF,
            key_hex: Optional[str] = None) -> Optional[JobResult]:
        """Return the cached result for a cell, or None (counted a miss)."""
        if key_hex is None:
            key_hex = cache_key(key, conf)
        memory = self._memory
        result = memory.get(key_hex)
        if result is not None:
            self.hits += 1
            return result
        entry = self._entry(key_hex)
        try:
            with open(entry, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Corrupt/truncated entry (e.g. a writer killed mid-write
            # before the atomic-rename discipline existed, or a torn
            # disk): drop it and re-simulate.
            self._drop_corrupt(entry)
            return None
        if not isinstance(result, JobResult):
            # Readable pickle, wrong payload — same treatment: a stale
            # or foreign object must never masquerade as a cell result.
            self._drop_corrupt(entry)
            return None
        if len(memory) >= self.memory_entries:
            del memory[next(iter(memory))]
        memory[key_hex] = result
        self.hits += 1
        return result

    def _drop_corrupt(self, entry: str) -> None:
        try:
            os.unlink(entry)
        except OSError:
            pass            # gone already, or a read-only cache: a miss
        self.corrupt += 1
        self.misses += 1

    def put(self, key: RunKey, conf: JobConf, result: JobResult,
            key_hex: Optional[str] = None) -> None:
        """Persist one cell atomically."""
        if key_hex is None:
            key_hex = cache_key(key, conf)
        self._bucket.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self._bucket, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._entry(key_hex))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stores += 1

    def _buckets(self) -> List[Path]:
        """Every fingerprint directory under the root, in path order.

        A directory is a bucket by its name (a fingerprint prefix), at
        the top level or inside a shard directory, so each entry is
        judged by the fingerprint directory it sits in.
        """
        buckets: List[Path] = []
        if not self.path.is_dir():
            return buckets
        for top in sorted(self.path.iterdir()):
            if not top.is_dir():
                continue
            inner = ([top] if _BUCKET_NAME.fullmatch(top.name)
                     else sorted(top.iterdir()))
            buckets += [d for d in inner
                        if d.is_dir() and _BUCKET_NAME.fullmatch(d.name)]
        return buckets

    def stats(self) -> CacheStats:
        current = stale = size = 0
        for bucket in self._buckets():
            entries = sorted(bucket.glob("*.pkl"))
            size += sum(e.stat().st_size for e in entries)
            if bucket.name == self.fingerprint[:16]:
                current += len(entries)
            else:
                stale += len(entries)
        return CacheStats(path=self.path, fingerprint=self.fingerprint,
                          entries=current, stale_entries=stale,
                          size_bytes=size, hits=self.hits,
                          misses=self.misses, stores=self.stores)

    def reap_orphans(self, max_age_s: float = 300.0) -> int:
        """Delete abandoned ``*.tmp`` spill files; returns how many.

        A writer killed between ``mkstemp`` and ``os.replace`` leaves a
        temp file behind.  Readers never open them (lookups address only
        ``<key>.pkl``), so orphans cannot poison results — they only
        leak disk.  Long-lived processes (the HTTP service) call this on
        startup.  Only files older than *max_age_s* are removed so a
        concurrent writer mid-``put`` is never raced.
        """
        removed = 0
        cutoff = time.time() - max_age_s
        for bucket in self._buckets():
            for tmp in sorted(bucket.glob("*.tmp")):
                try:
                    if tmp.stat().st_mtime <= cutoff:
                        tmp.unlink()
                        removed += 1
                except OSError:
                    pass    # racing writer finished or cleaned up first
        return removed

    def clear(self, stale_only: bool = False) -> int:
        """Delete cached entries; returns how many were removed.

        Empties the in-process tier too, so it never outlives the files
        it was read from.
        """
        self._memory.clear()
        removed = 0
        for bucket in self._buckets():
            if stale_only and bucket.name == self.fingerprint[:16]:
                continue
            removed += len(sorted(bucket.glob("*.pkl")))
            shutil.rmtree(bucket)
        return removed


def _simulate_worker(key: RunKey, conf: JobConf) -> JobResult:
    """Top-level worker (must be picklable for the process pool)."""
    return characterization.simulate_cell(key, conf)


def run_cells(cells: Sequence[Cell],
              conf: JobConf = DEFAULT_CONF,
              jobs: Optional[int] = 1,
              cache: Optional[ResultCache] = None
              ) -> Dict[Cell, JobResult]:
    """Simulate a batch of cells, in parallel when ``jobs > 1``.

    A cell is a :class:`RunKey`, simulated under *conf*, or a
    ``(RunKey, JobConf)`` pair carrying its own conf.  Results come back
    as an insertion-ordered dict following the *input* order of
    ``cells`` (duplicates collapsed), never worker completion order — so
    serial and parallel runs are exactly reproducible.  Cached cells are
    served from ``cache`` without touching the pool; fresh cells are
    written back to it.  The serial path calls
    ``characterization.simulate_cell`` through its module, so a wrapper
    installed there sees every cell.

    Raises :class:`CellError` (with the cell's coordinates) on the first
    failing cell.
    """
    jobs = resolve_jobs(jobs)
    pairs = {cell: cell if isinstance(cell, tuple) else (cell, conf)
             for cell in cells}
    results: Dict[Cell, JobResult] = {}
    pending: List[Cell] = []
    hexes: Dict[Cell, str] = {}
    for cell, (key, cell_conf) in pairs.items():
        hit = None
        if cache is not None:
            hexes[cell] = key_hex = cache_key(key, cell_conf)
            hit = cache.get(key, cell_conf, key_hex)
        if hit is not None:
            results[cell] = hit
        else:
            pending.append(cell)

    if jobs <= 1 or len(pending) <= 1:
        for cell in pending:
            key, cell_conf = pairs[cell]
            try:
                results[cell] = characterization.simulate_cell(key,
                                                               cell_conf)
            except Exception as exc:
                raise CellError(key, exc) from exc
            if cache is not None:
                cache.put(key, cell_conf, results[cell], hexes[cell])
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = [(cell, pool.submit(_simulate_worker, *pairs[cell]))
                       for cell in pending]
            for cell, future in futures:
                key, cell_conf = pairs[cell]
                try:
                    results[cell] = future.result()
                except Exception as exc:
                    raise CellError(key, exc) from exc
                if cache is not None:
                    cache.put(key, cell_conf, results[cell], hexes[cell])

    return {cell: results[cell] for cell in pairs}
