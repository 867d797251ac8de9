"""repro: reproduction of "Big vs little core for energy-efficient Hadoop
computing" (Malik et al., DATE 2017 / JPDC 2018).

A discrete-event Hadoop MapReduce cluster simulator with analytical
big/little core, cache, DVFS, power and cost models, performance
profiles of the paper's six applications, and one experiment driver per
figure/table of the evaluation.
"""

__version__ = "1.0.0"

from .arch import ATOM_C2758, XEON_E5_2420, MachineSpec, machine
from .core.metrics import CostPoint, ed2ap, ed2p, ed3p, edap, edp, speedup
from .mapreduce import DEFAULT_CONF, JobConf, JobResult, simulate_job
from .workloads import all_workloads, workload

__all__ = [
    "__version__", "ATOM_C2758", "XEON_E5_2420", "MachineSpec", "machine",
    "CostPoint", "ed2ap", "ed2p", "ed3p", "edap", "edp", "speedup",
    "DEFAULT_CONF", "JobConf", "JobResult", "simulate_job",
    "all_workloads", "workload",
]
