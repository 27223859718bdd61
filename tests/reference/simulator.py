"""The scalar XSimulator cost model: the oracle of ``estimate_batch``.

One configuration in, one :class:`~repro.core.simulator.ScheduleEstimate`
out, with the per-iteration Python loop written the way Section 6
describes the timeline: per-stage encode and decode times from the
scalar profile lookups, the pipeline algebra over them, and a per-stage
memory estimate.  This was ``XSimulator.estimate`` before the batched
estimator took that method too; every production estimate must equal
:func:`estimate` of its configuration under ``==`` on every field.

The oracle shares the simulator's memoized :class:`EstimateContext`
(placements, distribution statistics, the RRA completion arrays), as the
scalar path always did, so a parity test compares the two pricings of
the same schedule, not two placements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.allocation import Placement, StagePlan, stage_weight_bytes_per_gpu
from repro.core.analytical import GIB, _RESERVED_FRACTION, StageMemory
from repro.core.config import ScheduleConfig, SchedulePolicy
from repro.core.profiler import ProfileTable
from repro.core.simulator import ScheduleEstimate


@dataclass(frozen=True)
class StageTimes:
    """Per-stage execution times for one (micro-)batch.

    Attributes:
        times: Stage times in pipeline order, seconds.
    """

    times: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))

    @property
    def bottleneck(self) -> float:
        """Time of the slowest stage."""
        return max(self.times) if self.times else 0.0

    @property
    def traversal(self) -> float:
        """Sum of all stage times: time for one micro-batch to cross the pipeline."""
        return float(sum(self.times))

    @property
    def num_stages(self) -> int:
        """Pipeline depth."""
        return len(self.times)


def encode_stage_time(
    profile: ProfileTable,
    placement: Placement,
    stage: StagePlan,
    batch: float,
    avg_input_len: float,
) -> float:
    """Time for ``stage`` to encode a (micro-)batch of ``batch`` sequences."""
    if batch <= 0 or stage.encoder_layers == 0:
        return 0.0
    spans = placement.stage_spans_nodes(stage)
    per_layer = profile.encode_layer_time(stage.tp_degree, batch, avg_input_len)
    sync = profile.encode_sync_time(stage.tp_degree, batch, avg_input_len, spans)
    return stage.encoder_layers * (per_layer + sync)


def decode_stage_time(
    profile: ProfileTable,
    placement: Placement,
    stage: StagePlan,
    batch: float,
    avg_context_len: float,
) -> float:
    """Time for ``stage`` to run one decode step for a (micro-)batch."""
    if batch <= 0 or stage.decoder_layers == 0:
        return 0.0
    spans = placement.stage_spans_nodes(stage)
    per_layer = profile.decode_layer_time(stage.tp_degree, batch, avg_context_len)
    sync = profile.decode_sync_time(stage.tp_degree, batch, spans)
    return stage.decoder_layers * (per_layer + sync)


def encode_stage_times(
    profile: ProfileTable,
    placement: Placement,
    batch: float,
    avg_input_len: float,
) -> StageTimes:
    """Encode-phase times of all encode stages for one (micro-)batch."""
    return StageTimes(
        tuple(
            encode_stage_time(profile, placement, stage, batch, avg_input_len)
            for stage in placement.encode_stages
        )
    )


def decode_stage_times(
    profile: ProfileTable,
    placement: Placement,
    batch: float,
    avg_context_len: float,
) -> StageTimes:
    """Decode-step times of all decode stages for one (micro-)batch."""
    return StageTimes(
        tuple(
            decode_stage_time(profile, placement, stage, batch, avg_context_len)
            for stage in placement.decode_stages
        )
    )


# --- pipeline algebra -------------------------------------------------------------


def pipelined_iteration_period(stage_times: StageTimes, micro_batches: int) -> float:
    """Steady-state wall time of one decode iteration over ``micro_batches``.

    ``stage_times`` are per-*micro-batch* stage times.  The period is the
    larger of the bottleneck-stage occupancy (``m * t_max``) and the
    autoregressive traversal (``sum_j t_j``).
    """
    if micro_batches < 1:
        raise ValueError("micro_batches must be >= 1")
    return max(micro_batches * stage_times.bottleneck, stage_times.traversal)


def pipelined_batch_completion(stage_times: StageTimes, micro_batches: int) -> float:
    """Wall time for ``micro_batches`` independent micro-batches to clear a
    pipeline: fill plus steady state, ``sum_j t_j + (m - 1) * t_max``."""
    if micro_batches < 1:
        raise ValueError("micro_batches must be >= 1")
    return stage_times.traversal + (micro_batches - 1) * stage_times.bottleneck


def token_latency(stage_times: StageTimes) -> float:
    """Latency contribution of generating one token: pipeline traversal time."""
    return stage_times.traversal


# --- memory estimation --------------------------------------------------------------


def estimate_stage_memory(
    placement: Placement,
    stage: StagePlan,
    encode_batch: float,
    decode_batch: float,
    avg_input_len: float,
    avg_context_len: float,
) -> StageMemory:
    """Estimate one stage's per-GPU memory use under a schedule.

    Encoder-role stages hold their encoder layers' weights (for decoder-only
    models these are decoder layers, i.e. the replicated copy) plus prefill
    activations; decoder-role stages hold decoder weights plus the standing
    KV cache of the in-flight decode batch; RRA stages hold both.
    """
    model = placement.model
    tp = stage.tp_degree
    weights = stage_weight_bytes_per_gpu(placement, stage)
    kv = 0.0
    act = 0.0
    if stage.encoder_layers > 0:
        act += (
            4.0
            * encode_batch
            * avg_input_len
            * model.hidden_size
            * model.dtype_bytes
            / tp
        )
        if model.is_encoder_decoder:
            # Encoder output kept for cross-attention until handover.
            kv += (
                encode_batch
                * avg_input_len
                * model.hidden_size
                * model.dtype_bytes
                / tp
            )
    if stage.decoder_layers > 0:
        kv += (
            decode_batch
            * avg_context_len
            * stage.decoder_layers
            * model.kv_bytes_per_token_per_layer()
            / tp
        )
        act += 2.0 * decode_batch * model.hidden_size * model.dtype_bytes / tp
    capacity = placement.cluster.gpu.memory_bytes * (1.0 - _RESERVED_FRACTION)
    return StageMemory(
        stage_id=stage.stage_id,
        role=stage.role,
        weights_gib=weights / GIB,
        kv_cache_gib=kv / GIB,
        activation_gib=act / GIB,
        capacity_gib=capacity / GIB,
    )


def estimate_placement_memory(
    placement: Placement,
    encode_batch: float,
    decode_batch: float,
    avg_input_len: float,
    avg_context_len: float,
) -> list[StageMemory]:
    """Memory estimate for every stage of a placement."""
    return [
        estimate_stage_memory(
            placement, stage, encode_batch, decode_batch, avg_input_len, avg_context_len
        )
        for stage in placement.stages
    ]


def placement_fits_memory(stage_memory: list[StageMemory]) -> bool:
    """Whether every stage of a placement fits on its GPUs."""
    return all(m.fits for m in stage_memory)


# --- the estimate -------------------------------------------------------------------


def estimate(
    simulator, config: ScheduleConfig, target_length: int | None = None
) -> ScheduleEstimate:
    """Scalar estimate of ``config`` on ``simulator``.

    ``target_length`` defaults to the 99th percentile of the output
    distribution, as in ``XSimulator.estimate``.

    Raises:
        ValueError / KeyError: where the schedule cannot be estimated
            (no valid WAA split, a zero completion fraction, an
            unprofiled TP degree, ...), as the batched estimator does.
    """
    if target_length is None:
        target_length = simulator.output_distribution.percentile(99)
    if config.policy is SchedulePolicy.RRA:
        return estimate_rra(simulator, config, target_length)
    return estimate_waa(simulator, config, target_length)


def estimate_rra(simulator, config: ScheduleConfig, target: int) -> ScheduleEstimate:
    """RRA: an encode phase of ``B_E`` split over the stages, then ``N_D``
    decode iterations over the shrinking steady-state batch."""
    ctx = simulator.context
    profile = simulator.profile
    placement = ctx.placement_for(config)
    avg_input = ctx.avg_input
    avg_context = ctx.avg_context
    decode_batch = ctx.decode_batch_for(config)
    num_stages = len(placement.decode_stages)
    micro_batches = max(num_stages, 1)

    # Encoding phase: B_E split into as many micro-batches as stages.
    enc_micro = config.encode_batch / micro_batches
    enc_times = encode_stage_times(profile, placement, enc_micro, avg_input)
    encode_phase = pipelined_batch_completion(enc_times, micro_batches)

    # Decoding phase: N_D iterations over a shrinking batch.
    _, remaining = ctx.rra_decode(config.decode_iterations)
    per_iter_batches = decode_batch * remaining
    decode_phase = 0.0
    for alive in per_iter_batches:
        dec_times = decode_stage_times(
            profile, placement, alive / micro_batches, avg_context
        )
        decode_phase += pipelined_iteration_period(dec_times, micro_batches)

    cycle_time = encode_phase + decode_phase
    completed_per_cycle = float(config.encode_batch)
    throughput_seq = completed_per_cycle / cycle_time if cycle_time > 0 else 0.0
    tokens_per_cycle = float(np.add.accumulate(per_iter_batches)[-1])
    throughput_tok = tokens_per_cycle / cycle_time if cycle_time > 0 else 0.0

    # Latency of generating `target` tokens: the query decodes N_D tokens
    # per cycle, interleaved with the encoding phases of later cycles.
    avg_iter = decode_phase / config.decode_iterations
    full_cycles = max(math.ceil(target / config.decode_iterations) - 1, 0)
    remaining_tokens = target - full_cycles * config.decode_iterations
    latency = encode_phase + full_cycles * cycle_time + remaining_tokens * avg_iter

    stage_memory = estimate_placement_memory(
        placement,
        encode_batch=config.encode_batch,
        decode_batch=decode_batch,
        avg_input_len=avg_input,
        avg_context_len=avg_context,
    )
    return ScheduleEstimate(
        config=config,
        throughput_seq_per_s=throughput_seq,
        throughput_tokens_per_s=throughput_tok,
        latency_s=latency,
        target_length=target,
        decode_batch=decode_batch,
        cycle_time_s=cycle_time,
        memory_feasible=placement_fits_memory(stage_memory),
        stage_memory=tuple(stage_memory),
        placement=placement,
    )


def estimate_waa(simulator, config: ScheduleConfig, target: int) -> ScheduleEstimate:
    """WAA: dedicated encode stages feed ``B_E`` queries per iteration of
    the ``B_m``-micro-batch decode pipeline."""
    ctx = simulator.context
    profile = simulator.profile
    model = simulator.model
    placement = ctx.placement_for(config)
    avg_input = ctx.avg_input
    avg_context = ctx.avg_context
    decode_batch = ctx.decode_batch_for(config)
    micro_batches = config.micro_batches

    # Decode side: B_m micro-batches pipelined across the decode stages.
    dec_times = decode_stage_times(
        profile, placement, decode_batch / micro_batches, avg_context
    )
    decode_period = pipelined_iteration_period(dec_times, micro_batches)

    # Encode side: the encoder pipeline must deliver B_E fresh queries per
    # decode iteration; consecutive encode batches pipeline freely, so its
    # period is the bottleneck encode stage time, and the handover adds a
    # KV transfer for decoder-only models.
    enc_times = encode_stage_times(profile, placement, config.encode_batch, avg_input)
    encode_period = enc_times.bottleneck
    kv_layers = model.num_decoder_layers if not model.is_encoder_decoder else 1
    kv_transfer = profile.kv_transfer_time(config.encode_batch, avg_input, kv_layers)

    iteration_period = max(decode_period, encode_period)
    throughput_seq = (
        config.encode_batch / iteration_period if iteration_period > 0 else 0.0
    )
    throughput_tok = decode_batch / iteration_period if iteration_period > 0 else 0.0

    # Latency: wait for admission into an encode batch (up to one encode
    # period), traverse the encoder pipeline, hand over the KV cache, then
    # generate `target` tokens at one iteration period each, with the last
    # token's pipeline traversal exposed.
    latency = (
        encode_period
        + enc_times.traversal
        + kv_transfer
        + max(target - 1, 0) * iteration_period
        + token_latency(dec_times)
    )

    stage_memory = estimate_placement_memory(
        placement,
        encode_batch=config.encode_batch,
        decode_batch=decode_batch,
        avg_input_len=avg_input,
        avg_context_len=avg_context,
    )
    return ScheduleEstimate(
        config=config,
        throughput_seq_per_s=throughput_seq,
        throughput_tokens_per_s=throughput_tok,
        latency_s=latency,
        target_length=target,
        decode_batch=decode_batch,
        cycle_time_s=iteration_period,
        memory_feasible=placement_fits_memory(stage_memory),
        stage_memory=tuple(stage_memory),
        placement=placement,
    )
