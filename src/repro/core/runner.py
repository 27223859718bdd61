"""XRunner: enforce an ExeGPT schedule on the simulated cluster.

The runner takes the schedule XScheduler selected and replays a workload
trace on the discrete-event engine, honouring the schedule's semantics:

* **RRA** -- every pipeline stage alternates between encoding phases and
  ``N_D`` decoding iterations; new queries are admitted once per cycle to
  refill the slots freed by early-terminated queries.
* **WAA** -- dedicated encoder stages continuously encode fresh batches of
  ``B_E`` queries, hand their KV-cache entries to the decoder stages through
  host memory, and the decoder stages run pipelined decode iterations over
  ``B_m`` micro-batches of the standing pool.

Early termination, KV-cache compaction, the encoder→decoder KV transfer and
dynamic workload adjustment are all part of the replay, so the measured
throughput/latency include their costs.

Each cycle is built by the policy's cycle body in
:class:`~repro.engine.execution.ExecutionEngine` --
:meth:`~repro.engine.execution.ExecutionEngine.rra_cycle` (a committed
encode plan, then a bulk decode run) and
:meth:`~repro.engine.execution.ExecutionEngine.waa_cycle` (planned into
one plan the runner commits once, after the whole replay) -- the same
bodies :class:`~repro.serving.online.ExeGPTOnlineServer` calls.  The
runner's loops only decide what differs offline: admission from the
whole trace (RRA's cycle 0 fills the decode batch; otherwise the dynamic
workload adjuster refills it), every release time 0, and when to stop.

Request lifecycle state lives in a columnar
:class:`~repro.engine.pool.RequestPool`: the runner holds *id arrays* (the
pending window is a column slice, the standing pool an id array compacted
through the pool's done mask once per cycle), so no per-request ``done``
scans or Python context-length sums remain on the replay hot path.
"""

from __future__ import annotations

from repro.core.allocation import Placement, stage_weight_bytes_per_gpu
from repro.core.config import ScheduleConfig, SchedulePolicy
from repro.core.dynamic import DynamicWorkloadAdjuster
from repro.core.simulator import XSimulator
from repro.engine.execution import (
    ExecutionEngine,
    KVHandover,
    TaskRef,
    max_replay_cycles,
)
from repro.engine.metrics import RunResult, collect_result
from repro.engine.pool import EMPTY_IDS, RequestPool
from repro.engine.timeline import Timeline
from repro.workloads.trace import WorkloadTrace

GIB = 1024 ** 3


class XRunner:
    """Executes a schedule on the simulated cluster.

    Args:
        simulator: The XSimulator holding the profile and distributions; the
            runner reuses its placement construction so the executed layout
            is exactly the scheduled one.
        config: The schedule to enforce.
        dynamic_adjustment: Enable the Section 5.2 runtime batch adjustment.
    """

    def __init__(
        self,
        simulator: XSimulator,
        config: ScheduleConfig,
        dynamic_adjustment: bool = True,
    ) -> None:
        self.simulator = simulator
        self.config = config
        self.profile = simulator.profile
        self.model = simulator.model
        self.placement: Placement = simulator.build_placement(config)
        self.dynamic_adjustment = dynamic_adjustment
        self.decoder_only = not self.model.is_encoder_decoder
        #: Timeline of the most recent :meth:`run`, kept for introspection
        #: (cross-layer parity tests compare task graphs across drivers).
        self.last_timeline: Timeline | None = None

    # -- public API ------------------------------------------------------------

    def run(self, trace: WorkloadTrace) -> RunResult:
        """Replay ``trace`` under the configured schedule and collect metrics."""
        if len(trace) == 0:
            raise ValueError("trace must contain at least one request")
        if self.config.policy is SchedulePolicy.RRA:
            return self._run_rra(trace)
        return self._run_waa(trace)

    def _make_engine(self, timeline: Timeline, pool) -> ExecutionEngine:
        return ExecutionEngine(
            timeline,
            self.profile,
            self.placement,
            pool,
            decoder_only=self.decoder_only,
        )

    # -- RRA ------------------------------------------------------------------------

    def _run_rra(self, trace: WorkloadTrace) -> RunResult:
        micro_batches = max(len(self.placement.stages), 1)
        adjuster = DynamicWorkloadAdjuster.for_schedule(
            self.simulator, self.config, self.dynamic_adjustment
        )
        decode_batch_target = max(int(round(adjuster.target_decode_batch)), 1)

        timeline = Timeline()
        self.last_timeline = timeline
        pool = RequestPool.from_trace(trace)
        engine = self._make_engine(timeline, pool)

        all_ids = pool.ids()
        total = all_ids.size
        max_cycles = max_replay_cycles(trace)
        pos = 0  # pending requests are all_ids[pos:], a contiguous window
        active = EMPTY_IDS
        cycle = 0
        freed = 0
        warmup_requests = min(decode_batch_target, total)

        while pos < total or active.size:
            # Admission: cycle 0 fills the decode batch, later cycles refill
            # the slots early termination freed.
            if pos < total:
                if cycle == 0:
                    take = min(max(decode_batch_target - active.size, 0), total - pos)
                else:
                    window = pool.input_lens_range(
                        pos, min(total, pos + adjuster.max_admit)
                    )
                    take = adjuster.admit_count(window, active.size, freed)
                admitted = all_ids[pos : pos + take]
                pos += take
            else:
                admitted = EMPTY_IDS
            active, freed = engine.rra_cycle(
                micro_batches, self.config.decode_iterations, active, admitted
            )
            cycle += 1
            if cycle > max_cycles:
                raise RuntimeError("RRA runner did not converge; check the schedule")

        return self._collect("exegpt-rra", engine, warmup_requests)

    # -- WAA ---------------------------------------------------------------------------

    def _run_waa(self, trace: WorkloadTrace) -> RunResult:
        adjuster = DynamicWorkloadAdjuster.for_schedule(
            self.simulator, self.config, self.dynamic_adjustment
        )
        decode_batch_target = max(int(round(adjuster.target_decode_batch)), 1)

        timeline = Timeline()
        self.last_timeline = timeline
        pool = RequestPool.from_trace(trace)
        engine = self._make_engine(timeline, pool)
        handover = KVHandover()
        kv_layers = self.model.num_decoder_layers if self.decoder_only else 1
        # Offline construction never reads the clock: one plan, one batched
        # pricing pass at commit time.
        plan = engine.plan()

        all_ids = pool.ids()
        total = all_ids.size
        max_iterations = max_replay_cycles(trace)
        pos = 0
        active = EMPTY_IDS
        warmup_requests = min(decode_batch_target, total)
        prev_iter_last: dict[int, TaskRef] = {}
        iteration = 0
        freed = 0

        while pos < total or active.size or handover:
            if pos < total:
                window = pool.input_lens_range(
                    pos, min(total, pos + adjuster.max_admit)
                )
                take = adjuster.admit_count(window, active.size, freed)
                admitted = all_ids[pos : pos + take]
                pos += take
            else:
                admitted = EMPTY_IDS
            active, freed = engine.waa_cycle(
                plan,
                self.config.micro_batches,
                kv_layers,
                active,
                admitted,
                handover,
                prev_iter_last,
            )
            iteration += 1
            if iteration > max_iterations:
                raise RuntimeError("WAA runner did not converge")

        engine.commit(plan)
        name = "exegpt-waa-m" if self.config.policy is SchedulePolicy.WAA_M else "exegpt-waa-c"
        return self._collect(name, engine, warmup_requests)

    # -- shared collection -------------------------------------------------------------

    def _collect(
        self, system: str, engine: ExecutionEngine, warmup_requests: int
    ) -> RunResult:
        return collect_result(
            system,
            engine,
            peak_memory_gib=self._peak_memory_gib(engine.peak_kv_tokens),
            extra={"num_tasks": float(engine.timeline.num_tasks)},
            warmup_requests=warmup_requests,
        )

    def _peak_memory_gib(self, peak_kv_tokens: dict[int, float]) -> dict[object, float]:
        model = self.model
        result: dict[object, float] = {}
        for stage in self.placement.stages:
            tp = stage.tp_degree
            weights = stage_weight_bytes_per_gpu(self.placement, stage)
            layers = stage.decoder_layers if stage.decoder_layers else 1
            kv = (
                peak_kv_tokens.get(stage.stage_id, 0.0)
                * layers
                * model.kv_bytes_per_token_per_layer()
                / tp
            )
            result[stage.stage_id] = (weights + kv) / GIB
        return result
