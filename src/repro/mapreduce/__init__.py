"""MapReduce substrate: configuration, task models, driver."""

from .config import DEFAULT_CONF, JobConf
from .driver import HadoopJobRunner, JobResult, StageTiming, simulate_job
from .shuffle import MergePlan, SpillPlan, plan_reduce_merge, plan_spills
from .tasks import MapTask, ReduceTask, RunCounters, TaskAttemptError

__all__ = [
    "DEFAULT_CONF", "JobConf", "HadoopJobRunner", "JobResult", "StageTiming",
    "simulate_job", "MergePlan", "SpillPlan", "plan_reduce_merge",
    "plan_spills", "MapTask", "ReduceTask", "RunCounters", "TaskAttemptError",
]
