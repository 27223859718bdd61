"""FasterTransformer baseline (static batching, no early termination).

FT processes requests in fixed-size batches: the whole batch is encoded,
then decoded until the *longest* request in the batch finishes, keeping the
full batch size in every decoding iteration.  Completed queries keep
consuming compute (the white boxes of Figure 1), which is the "diminishing
decoding batch" inefficiency ExeGPT removes.  FT also adopts DSI's hybrid
micro-batching: more micro-batches for encoding than for decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.base import BaselineSystem
from repro.core.config import require_count
from repro.engine.batching import split_ids
from repro.engine.metrics import RunResult, collect_result
from repro.engine.pool import RequestPool
from repro.engine.timeline import Timeline
from repro.workloads.trace import WorkloadTrace


@dataclass
class FasterTransformer(BaselineSystem):
    """NVIDIA FasterTransformer's scheduling policy on the shared engine.

    Attributes:
        encode_micro_batches: Micro-batches used for the encoding phase.
        decode_micro_batches: Micro-batches used for decoding iterations.
    """

    encode_micro_batches: int = 0
    decode_micro_batches: int = 0
    name: str = "ft"

    def __post_init__(self) -> None:
        super().__post_init__()
        stages = len(self.placement.stages)
        if self.encode_micro_batches <= 0:
            self.encode_micro_batches = max(2 * stages, 1)
        if self.decode_micro_batches <= 0:
            self.decode_micro_batches = max(stages, 1)

    # -- parameter selection ---------------------------------------------------------

    def worst_case_latency(self, batch_size: int) -> float:
        """Latency of a batch whose slowest request hits the maximum lengths.

        FT applies the latency bound to generating a *maximum-length* output
        because it cannot early-terminate (Section 7.1).
        """
        require_count("batch_size", batch_size)
        stages = self.placement.stages
        max_in = float(self.input_distribution.max_len)
        max_out = float(self.output_distribution.max_len)
        enc_micro = min(self.encode_micro_batches, batch_size)
        enc_times = self.encode_times(stages, batch_size / enc_micro, max_in)
        encode = sum(enc_times) + (enc_micro - 1) * max(enc_times)
        dec_micro = min(self.decode_micro_batches, batch_size)
        context = max_in + max_out / 2.0 if self.decoder_only else max_out / 2.0
        dec_times = self.decode_times(stages, batch_size / dec_micro, context)
        per_iter = max(dec_micro * max(dec_times), sum(dec_times))
        return encode + max_out * per_iter

    # -- execution ----------------------------------------------------------------------

    def run(self, trace: WorkloadTrace, batch_size: int) -> RunResult:
        """Replay the trace in consecutive fixed-size batches.

        Each batch commits one plan of hybrid-micro-batched encode chains,
        then decodes through the engine's fixed-slot bulk ``decode_run``
        (no early termination): every decode micro-batch runs as many
        iterations as the batch's longest output, at its full size.
        """
        require_count("batch_size", batch_size)
        stages = self.placement.stages
        timeline = Timeline()
        pool = RequestPool.from_trace(trace)
        engine = self.make_engine(timeline, pool)
        all_ids = pool.ids()

        for batch_start in range(0, all_ids.size, batch_size):
            batch = all_ids[batch_start : batch_start + batch_size]
            plan = engine.plan()
            enc_groups = split_ids(batch, min(self.encode_micro_batches, batch.size))
            encode_last_tasks = engine.encode_phase(plan, stages, enc_groups)
            engine.commit(plan)
            engine.decode_run(
                stages,
                split_ids(batch, min(self.decode_micro_batches, batch.size)),
                pool.max_output_len(batch),
                first_deps=encode_last_tasks,
                early_termination=False,
            )

        return collect_result(
            self.name, engine, extra={"batch_size": float(batch_size)}
        )
