"""ExeGPT core: profiler, simulator, scheduler, runner and facade."""

from repro.core.allocation import (
    Placement,
    StagePlan,
    allocate_rra,
    allocate_waa,
    build_placement,
    waa_memory_weights,
)
from repro.core.config import (
    LatencyConstraint,
    ScheduleConfig,
    SchedulePolicy,
    TensorParallelConfig,
    UNBOUNDED,
)
from repro.core.distributions import (
    SequenceDistribution,
    average_context_length,
    completion_probability,
)
from repro.core.dynamic import DynamicWorkloadAdjuster
from repro.core.exegpt import ExeGPT
from repro.core.profiler import MeasurementGrid, ProfileTable, XProfiler
from repro.core.runner import XRunner
from repro.core.scheduler import (
    SearchResult,
    SearchSpace,
    XScheduler,
    branch_and_bound,
    exhaustive_search,
    random_search,
)
from repro.core.simulator import ScheduleEstimate, XSimulator

__all__ = [
    "DynamicWorkloadAdjuster",
    "ExeGPT",
    "LatencyConstraint",
    "MeasurementGrid",
    "Placement",
    "ProfileTable",
    "ScheduleConfig",
    "ScheduleEstimate",
    "SchedulePolicy",
    "SearchResult",
    "SearchSpace",
    "SequenceDistribution",
    "StagePlan",
    "TensorParallelConfig",
    "UNBOUNDED",
    "XProfiler",
    "XRunner",
    "XScheduler",
    "XSimulator",
    "allocate_rra",
    "allocate_waa",
    "average_context_length",
    "branch_and_bound",
    "build_placement",
    "completion_probability",
    "exhaustive_search",
    "random_search",
    "waa_memory_weights",
]
