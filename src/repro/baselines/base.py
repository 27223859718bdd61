"""Shared machinery for the baseline inference systems.

The paper compares ExeGPT against FasterTransformer, DeepSpeed-Inference,
ORCA and vLLM, all run with the parallel configuration their authors used:
tensor parallelism maximised within a node and pipeline parallelism across
nodes.  Each baseline here is a scheduling-policy driver over the same
profiled stage times and the same discrete-event timeline as XRunner, so the
comparison isolates the scheduling policy -- exactly the variable the paper
studies.

Every baseline exposes:

* :meth:`BaselineSystem.run` -- replay a trace with a given batch size,
* :meth:`BaselineSystem.worst_case_latency` -- the latency of the workload's
  worst-case sequence for a batch size (used to pick parameters), and
* :meth:`BaselineSystem.configure_for_bound` -- the paper's procedure of
  choosing the largest batch size (in multiples of four) whose worst case
  satisfies the latency bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.allocation import Placement, StagePlan, stage_weight_bytes
from repro.core.config import SchedulePolicy, require_count
from repro.core.distributions import SequenceDistribution
from repro.core.profiler import ProfileTable
from repro.engine.execution import (
    KIND_DECODE,
    KIND_ENCODE,
    ExecutionEngine,
    price_item,
)
from repro.engine.metrics import RunResult
from repro.engine.timeline import Timeline
from repro.hardware.cluster import Cluster
from repro.models.spec import ModelSpec
from repro.workloads.trace import WorkloadTrace

GIB = 1024 ** 3
_RESERVED_FRACTION = 0.08


def tp_maximized_placement(model: ModelSpec, cluster: Cluster) -> Placement:
    """The baselines' parallel layout: TP within a node, PP across nodes.

    Every pipeline stage is one node-wide tensor-parallel group hosting an
    equal share of the layers; encoding and decoding run on the same stages
    (no decoupling).
    """
    tp_degree = min(cluster.gpus_per_node, cluster.num_gpus, model.num_heads)
    num_stages = max(cluster.num_gpus // tp_degree, 1)
    enc_per_stage = _split(model.num_encoder_layers, num_stages)
    dec_per_stage = _split(model.num_decoder_layers, num_stages)
    stages = []
    for i in range(num_stages):
        gpus = tuple(range(i * tp_degree, (i + 1) * tp_degree))
        stages.append(
            StagePlan(
                stage_id=i,
                gpu_indices=gpus,
                encoder_layers=enc_per_stage[i],
                decoder_layers=dec_per_stage[i],
                role="both",
            )
        )
    return Placement(
        policy=SchedulePolicy.RRA,
        stages=tuple(stages),
        cluster=cluster,
        model=model,
        weight_replication=1.0,
    )


def _split(total: int, parts: int) -> list[int]:
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def kv_capacity_bytes(placement: Placement) -> float:
    """Total bytes available for KV cache across the placement's GPUs."""
    model = placement.model
    total = 0.0
    for stage in placement.stages:
        per_gpu_capacity = placement.cluster.gpu.memory_bytes * (1 - _RESERVED_FRACTION)
        weights = stage_weight_bytes(model, stage) + (
            model.embedding_parameters * model.dtype_bytes / len(placement.stages)
        )
        free = per_gpu_capacity * stage.tp_degree - weights
        total += max(free, 0.0)
    return total


@dataclass
class BaselineSystem:
    """Base class of the baseline inference systems.

    Attributes:
        profile: Profiled per-layer times of the model on the cluster.
        input_distribution / output_distribution: Workload length
            distributions (used for worst-case parameter selection).
        iteration_overhead_s: Fixed per-iteration engine overhead added to
            every stage execution -- zero for the CUDA-native FT engine,
            larger for Python-based executors, which is the effect the paper
            credits for FT outperforming vLLM (Section 7.2).  Must be finite
            and non-negative.
        name: System name used in results.
    """

    profile: ProfileTable
    input_distribution: SequenceDistribution
    output_distribution: SequenceDistribution
    iteration_overhead_s: float = 0.0
    name: str = "baseline"

    def __post_init__(self) -> None:
        if not 0 <= self.iteration_overhead_s < math.inf:
            raise ValueError(
                "iteration_overhead_s must be finite and non-negative, "
                f"got {self.iteration_overhead_s!r}"
            )
        self.model = self.profile.model
        self.cluster = self.profile.cluster
        self.placement = tp_maximized_placement(self.model, self.cluster)
        self.decoder_only = not self.model.is_encoder_decoder

    # -- stage-time helpers ------------------------------------------------------

    def encode_times(
        self, stages: tuple[StagePlan, ...], batch: float, input_len: float
    ) -> list[float]:
        """Encode time of each stage, with overhead."""
        return [
            price_item(
                self.profile, KIND_ENCODE, s.encoder_layers, s.tp_degree,
                self.placement.stage_spans_nodes(s), float(batch),
                float(input_len), self.iteration_overhead_s,
            )
            for s in stages
        ]

    def decode_times(
        self, stages: tuple[StagePlan, ...], batch: float, context: float
    ) -> list[float]:
        """Decode-step time of each stage, with overhead."""
        return [
            price_item(
                self.profile, KIND_DECODE, s.decoder_layers, s.tp_degree,
                self.placement.stage_spans_nodes(s), float(batch),
                float(context), self.iteration_overhead_s,
            )
            for s in stages
        ]

    def make_engine(self, timeline: Timeline, pool) -> ExecutionEngine:
        """The shared iteration-graph engine, carrying this system's overhead."""
        return ExecutionEngine(
            timeline,
            self.profile,
            self.placement,
            pool,
            decoder_only=self.decoder_only,
            overhead_s=self.iteration_overhead_s,
        )

    # -- parameter selection --------------------------------------------------------

    def worst_case_latency(self, batch_size: int) -> float:
        """Latency of the worst-case sequence for ``batch_size``.

        Subclasses override this to match their latency-bound semantics: FT
        and DSI apply the bound to generating a maximum-length output (no
        early termination), ORCA/vLLM to the 99th-percentile length.
        """
        raise NotImplementedError

    def configure_for_bound(
        self, bound_s: float, max_batch: int = 256, step: int = 4
    ) -> int:
        """Largest batch size (multiple of ``step``) meeting ``bound_s``.

        The batch is additionally capped by the GPU memory available for KV
        cache (every baseline must hold the cache of a full batch).  Returns
        at least 1; when even a single-request batch misses the bound, the
        system simply cannot satisfy it and runs at batch 1.

        Raises:
            ValueError: if ``max_batch`` or ``step`` is not an integer >= 1,
                or ``bound_s`` is not positive (NaN included; ``inf`` means
                unbounded).
        """
        require_count("max_batch", max_batch)
        require_count("step", step)
        if not bound_s > 0:
            raise ValueError(f"bound_s must be positive, got {bound_s!r}")
        limit = min(max_batch, self.memory_limited_batch())
        best = 1
        batch = step
        while batch <= limit:
            if self.worst_case_latency(batch) <= bound_s:
                best = batch
            batch += step
        if best == 1 and self.worst_case_latency(1) > bound_s:
            return 1
        return best

    # -- memory --------------------------------------------------------------------

    def kv_capacity(self) -> float:
        """Bytes available for KV cache across the deployment."""
        return kv_capacity_bytes(self.placement)

    def reserved_tokens_per_request(self) -> int:
        """KV tokens the system sets aside for one request.

        Reservation-based systems (FT, DSI, ORCA) must provision for the
        worst case -- maximum input plus maximum output length.  Paged
        systems override this with the expected usage.
        """
        return self.input_distribution.max_len + self.output_distribution.max_len

    def memory_limited_batch(self) -> int:
        """Largest batch whose KV cache fits in the deployment's free memory."""
        per_request = (
            self.reserved_tokens_per_request()
            * self.model.num_decoder_layers
            * self.model.kv_bytes_per_token_per_layer()
        )
        if per_request <= 0:
            return 2 ** 30
        return max(int(self.kv_capacity() // per_request), 1)

    # -- execution -------------------------------------------------------------------

    def run(self, trace: WorkloadTrace, batch_size: int) -> RunResult:
        """Replay ``trace`` with the system's scheduling policy."""
        raise NotImplementedError
