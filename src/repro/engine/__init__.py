"""Discrete-event execution engine shared by XRunner and the baselines."""

from repro.engine.batching import split_ids
from repro.engine.execution import (
    SMALL_PLAN_ITEMS,
    Bookkeeping,
    DecodeOutcome,
    ExecutionEngine,
    IterationPlan,
    KVHandover,
    MixedOutcome,
    PlanColumns,
    TaskRef,
    price_columns,
    price_item,
)
from repro.engine.kv_manager import (
    ContiguousKVCache,
    KVCacheError,
    PagedKVCache,
)
from repro.engine.metrics import RunResult, collect_result
from repro.engine.pool import EMPTY_IDS, DecodeRunSteps, RequestPool
from repro.engine.timeline import StageTask, Timeline

__all__ = [
    "Bookkeeping",
    "ContiguousKVCache",
    "DecodeOutcome",
    "DecodeRunSteps",
    "EMPTY_IDS",
    "ExecutionEngine",
    "IterationPlan",
    "KVCacheError",
    "KVHandover",
    "MixedOutcome",
    "PagedKVCache",
    "PlanColumns",
    "RequestPool",
    "RunResult",
    "SMALL_PLAN_ITEMS",
    "StageTask",
    "TaskRef",
    "Timeline",
    "collect_result",
    "price_columns",
    "price_item",
    "split_ids",
]
