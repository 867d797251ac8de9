"""Analysis layer: sweeps, parallel execution, result cache, table
rendering, and per-figure experiment drivers."""

from .executor import (CacheStats, CellError, ResultCache, cache_key,
                       default_cache_dir, model_fingerprint, resolve_jobs,
                       run_cells)
from .experiments import (ALL_EXPERIMENTS, Experiment, Plan, run_experiments,
                          run_plans)
from .sweep import SweepResult, sweep
from .tables import eng, format_grid, format_series, format_table
from .report import generate_report
from .validation import (PAPER_CLAIMS, Claim, ClaimResult,
                         ValidationReport, validate)

__all__ = ["ALL_EXPERIMENTS", "Experiment", "SweepResult", "sweep", "eng",
           "format_grid", "format_series", "format_table", "PAPER_CLAIMS",
           "Claim", "ClaimResult", "ValidationReport", "validate",
           "generate_report", "CacheStats", "CellError", "ResultCache",
           "cache_key", "default_cache_dir", "model_fingerprint",
           "resolve_jobs", "run_cells", "Plan", "run_plans",
           "run_experiments"]
