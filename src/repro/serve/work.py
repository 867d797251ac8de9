"""The pure batch worker the service's process pool executes.

This is the only code in :mod:`repro.serve` that computes simulation
results, so it is held to the same determinism bar as the model
packages: no wall clock, no randomness, no I/O — the DET003/PURE001
lint rules include this file explicitly (see ``docs/LINTING.md``).
Everything else in ``serve/`` (latency accounting, timeouts, drain) is
traffic plumbing and may read the host clock freely.

Keeping the worker in its own module also keeps the pickle surface
small: the pool only ever imports this module plus the model packages,
never the asyncio service.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..core.characterization import RunKey, simulate_cell
from ..mapreduce.config import JobConf
from ..mapreduce.driver import JobResult

__all__ = ["simulate_batch"]


def simulate_batch(keys: Sequence[RunKey],
                   conf: JobConf) -> List[Tuple[RunKey, JobResult]]:
    """Simulate a micro-batch of cells in one worker round-trip.

    Results are returned in input order, paired with their keys, so the
    admission layer can fan them back out to the coalesced waiters
    without re-deriving cache keys in the worker.
    """
    return [(key, simulate_cell(key, conf)) for key in keys]
