"""ORCA baseline: iteration-level scheduling with continuous batching.

ORCA keeps a running batch of at most ``max_batch`` requests.  At every
decoding iteration, completed requests leave the batch (early termination)
and new requests join it; the prefill of a joining request is executed in
the *same* iteration as the other requests' decode steps, which keeps the
batch full but makes that iteration much longer -- the pipeline-bubble and
latency-variability problem the paper highlights (Figure 1, Section 2).

The paper evaluates ORCA through vLLM's iteration-level mode (at most one
prefill per iteration); this class follows the same policy but with the
contiguous, reservation-based KV cache of the original ORCA design.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import BaselineSystem
from repro.core.config import require_count
from repro.engine.execution import (
    ExecutionEngine,
    IterationPlan,
    TaskRef,
    max_replay_cycles,
)
from repro.engine.kv_manager import ContiguousKVCache, KVCacheError
from repro.engine.metrics import RunResult, collect_result
from repro.engine.pool import EMPTY_IDS, RequestPool
from repro.engine.timeline import Timeline
from repro.workloads.trace import WorkloadTrace


@dataclass
class Orca(BaselineSystem):
    """Iteration-level scheduling with a reservation-based KV cache."""

    iteration_overhead_s: float = 0.001
    name: str = "orca"
    max_prefills_per_iteration: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        require_count("max_prefills_per_iteration", self.max_prefills_per_iteration)

    # -- parameter selection ----------------------------------------------------------

    def worst_case_latency(self, batch_size: int) -> float:
        """Latency of a 99th-percentile-length request at full batch.

        Iteration-level schedulers early-terminate, so the bound applies to
        the 99th-percentile output length; every iteration may additionally
        carry one prefill of an average-length input, which is what inflates
        ORCA's per-token latency.
        """
        require_count("batch_size", batch_size)
        stages = self.placement.stages
        target = float(self.output_distribution.percentile(99))
        avg_in = self.input_distribution.mean
        context = avg_in + self.output_distribution.mean / 2.0 if self.decoder_only else (
            self.output_distribution.mean / 2.0
        )
        decodes = self.decode_times(stages, batch_size, context)
        prefills = self.encode_times(stages, 1.0, avg_in)
        per_iter = 0.0
        for decode, prefill in zip(decodes, prefills):
            per_iter += decode + prefill
        admission_wait = per_iter * self.input_distribution.mean / max(avg_in, 1.0)
        return admission_wait + target * per_iter

    # -- KV management (the cache flavour and ``_admit`` are vLLM's hooks) ----------

    def _make_kv_cache(self) -> ContiguousKVCache:
        return ContiguousKVCache(
            model=self.model,
            num_layers=self.model.num_decoder_layers,
            capacity_bytes=self.kv_capacity(),
        )

    def _admit(self, cache, pool, rid: int) -> bool:
        """Reserve ``rid``'s maximum-length KV state; False if it does not fit."""
        max_tokens = pool.input_len_of(rid) + self.output_distribution.max_len
        try:
            cache.reserve(pool.request_id_of(rid), max_tokens)
        except KVCacheError:
            return False
        return True

    def _release(self, cache, pool, rid: int) -> None:
        cache.release(pool.request_id_of(rid))

    def _release_batch(self, cache, pool, ids: np.ndarray) -> None:
        """Free the KV state of every id in one trace-id gather and one
        ``release_many``; both cache flavours pop from a dict keyed by
        trace id, so this covers ORCA and vLLM alike."""
        if ids.size:
            cache.release_many(pool.request_ids_of(ids).tolist())

    # -- execution ----------------------------------------------------------------------

    def cycle(
        self,
        engine: ExecutionEngine,
        cache,
        batch_size: int,
        active: np.ndarray,
        pending: np.ndarray,
        plan: IterationPlan | None = None,
        prev_last: object | None = None,
        release_s: float = 0.0,
    ) -> tuple[np.ndarray, int, TaskRef]:
        """One continuous-batching cycle: admit, emit, release, compact.

        Admits the head of ``pending`` (waiting ids, oldest first) under the
        ``batch_size`` cap, ``max_prefills_per_iteration`` and :meth:`_admit`,
        then decodes ``active`` one token while the admitted ids prefill,
        chained on ``prev_last`` and released at ``release_s``: into ``plan``
        through ``ExecutionEngine.mixed_iteration`` when one is passed, else
        through ``mixed_decode_template``.  Completed ids free their KV
        state.  The offline :meth:`run`, the online server and its plan-loop
        test oracle all run this body.  Returns the compacted running batch,
        how many ids of ``pending`` it admitted and the cycle's last stage
        task; raises ``RuntimeError`` if nothing runs and the first pending
        id does not fit.
        """
        pool = engine.pool
        limit = min(
            pending.size, batch_size - active.size, self.max_prefills_per_iteration
        )
        count = 0
        while count < limit and self._admit(cache, pool, int(pending[count])):
            count += 1
        if not count and not active.size:
            raise RuntimeError(
                f"{self.name} cannot admit any request: KV cache too small for one query"
            )
        admitted = pending[:count]
        stages = self.placement.stages
        if plan is None:
            outcome = engine.mixed_decode_template(
                stages, active, prev_last=prev_last, release_s=release_s,
                admitted=admitted,
            )
        else:
            outcome = engine.mixed_iteration(
                plan, stages, active, admitted, prev_last=prev_last,
                release_s=release_s,
            )
        self._release_batch(cache, pool, outcome.completed)
        if count:
            active = np.concatenate([active, admitted])
        return pool.compact(active), count, outcome.last

    def run(self, trace: WorkloadTrace, batch_size: int) -> RunResult:
        """Replay the trace with iteration-level continuous batching.

        Every iteration is one :meth:`cycle` over the not yet admitted ids,
        in trace order, planned into one whole-replay plan: admission
        depends only on request and KV state, never on task times, so all
        stage durations resolve in a handful of batched profile lookups at
        commit time.
        """
        require_count("batch_size", batch_size)
        timeline = Timeline()
        pool = RequestPool.from_trace(trace)
        engine = self.make_engine(timeline, pool)
        plan = engine.plan()
        all_ids = pool.ids()
        total = all_ids.size
        max_iterations = max_replay_cycles(trace)
        pos = 0  # pending requests are all_ids[pos:], in trace order
        active = EMPTY_IDS
        cache = self._make_kv_cache()
        last: TaskRef | None = None
        iterations = 0

        while pos < total or active.size:
            active, admitted, last = self.cycle(
                engine, cache, batch_size, active, all_ids[pos:], plan=plan,
                prev_last=last,
            )
            pos += admitted
            iterations += 1
            if iterations > max_iterations:
                raise RuntimeError(f"{self.name} runner did not converge")

        engine.commit(plan)
        return collect_result(
            self.name,
            engine,
            extra={
                "batch_size": float(batch_size),
                "iterations": float(iterations),
                "peak_kv_gib": cache.peak_bytes / (1024 ** 3),
            },
        )
