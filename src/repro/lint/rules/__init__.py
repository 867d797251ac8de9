"""Rule modules; importing this package registers every shipped rule.

Rule catalog (see ``docs/LINTING.md`` for the full rationale):

========  =====================================================
ARCH001   cross-tier imports outside the committed contract
DET001    builtin ``hash()`` (PYTHONHASHSEED-randomized)
DET002    unseeded ``random.Random()`` / global ``random.*``
DET003    wall-clock reads inside model code (flow-backed)
DET004    unordered set iteration feeding ordered sinks (dict
          views carry their dict's order; flow-backed)
DET005    unsorted directory listings (flow-backed prove-safe)
DET006    tainted value reaches a deterministic-output sink
PURE001   filesystem/network/console I/O in ``sim/`` / ``arch/``
OBS001    obs/prof handle calls without a ``None`` guard
DOC001    broken relative markdown links
========  =====================================================
"""

from . import architecture, determinism, docs, observability, purity

__all__ = ["architecture", "determinism", "docs", "observability",
           "purity"]
