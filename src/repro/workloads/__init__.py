"""Workloads: the six Hadoop applications of Table 2 plus SPEC/PARSEC."""

from .base import (EXTENSIONS, IO_PATH_PROFILE, MICRO_BENCHMARKS,
                   REAL_WORLD, Category, JobStage, WorkloadSpec,
                   all_workloads, register_workload, workload)
from .kmeans import KMEANS
from .fp_growth import FP_GROWTH
from .grep import GREP
from .naive_bayes import NAIVE_BAYES
from .sort import SORT
from .terasort import TERASORT
from .traditional import (PARSEC_21, SPEC_CPU2006, TraditionalResult,
                          run_traditional, suite_average_ipc,
                          suite_average_result)
from .wordcount import WORDCOUNT

__all__ = [
    "EXTENSIONS", "IO_PATH_PROFILE", "MICRO_BENCHMARKS", "REAL_WORLD",
    "Category", "JobStage", "WorkloadSpec", "all_workloads",
    "register_workload", "workload", "FP_GROWTH", "GREP", "KMEANS",
    "NAIVE_BAYES", "SORT", "TERASORT", "PARSEC_21", "SPEC_CPU2006",
    "TraditionalResult", "run_traditional", "suite_average_ipc",
    "suite_average_result", "WORDCOUNT",
]
