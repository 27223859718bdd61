"""GPU/layer allocation policies: RRA, WAA-C and WAA-M (Section 4.1).

An allocation turns (model, cluster, TP configuration, policy) into a
:class:`Placement`: an ordered list of pipeline stages, each stage being a
tensor-parallel group of GPUs hosting a contiguous span of encoder and/or
decoder layers.

* **RRA** (Round-Robin Allocation) gives every stage an equal share of both
  encoder and decoder layers, so the same GPUs alternate between encoding
  and decoding phases.
* **WAA** (Workload-Aware Allocation) dedicates some stages to encoding and
  the rest to decoding.  WAA-C sizes the split by estimated computation time
  (``C_E`` vs ``C_D``), WAA-M by memory consumption.  For decoder-only
  models WAA stores a second copy of the (decoder) weights on the encoder
  GPUs, the memory overhead quantified in Figure 9.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields

import numpy as np

from repro.core.config import SchedulePolicy, TensorParallelConfig
from repro.hardware.cluster import Cluster
from repro.models.spec import ModelSpec


@dataclass(frozen=True)
class StagePlan:
    """One pipeline stage: a TP group and the layers it hosts.

    Attributes:
        stage_id: Position in the pipeline (0-based).
        gpu_indices: GPUs forming this stage's tensor-parallel group.
        encoder_layers: Number of encoding-phase layers hosted.
        decoder_layers: Number of decoding-phase layers hosted.
        role: ``"both"`` (RRA), ``"encode"`` or ``"decode"`` (WAA).
    """

    stage_id: int
    gpu_indices: tuple[int, ...]
    encoder_layers: int
    decoder_layers: int
    role: str = "both"

    def __post_init__(self) -> None:
        if not self.gpu_indices:
            raise ValueError("a stage needs at least one GPU")
        if self.encoder_layers < 0 or self.decoder_layers < 0:
            raise ValueError("layer counts must be non-negative")
        if self.role not in ("both", "encode", "decode"):
            raise ValueError(f"unknown stage role {self.role!r}")

    @property
    def tp_degree(self) -> int:
        """Tensor-parallel degree of this stage."""
        return len(self.gpu_indices)


def _frozen(values: list, dtype, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only array: placement views are shared by every estimate."""
    array = np.array(values, dtype=dtype).reshape(shape)
    array.setflags(write=False)
    return array


def _column(values: list, dtype=float) -> np.ndarray:
    """A ``(len(values), 1)`` column that broadcasts against per-point rows."""
    return _frozen(values, dtype, (-1, 1))


@dataclass(frozen=True, eq=False)
class PhaseStages:
    """One phase's stages as arrays, for pricing many points at once.

    Stages with the same ``(TP degree, spans nodes)`` signature take the
    same per-layer time, so a batched pricing looks up each signature
    once and builds the ``(stages, points)`` times with one multiply by
    :attr:`layers`.

    Attributes:
        layers: ``(stages, 1)`` column of the layers each stage runs in
            this phase.
        signatures: Distinct ``(tp_degree, spans_nodes)`` of the stages
            that run at least one layer, in order of first appearance.
        signature_of: Each stage's index into ``signatures``; a stage
            without layers points at signature 0, which its zero layer
            count cancels.
    """

    layers: np.ndarray
    signatures: tuple[tuple[int, bool], ...]
    signature_of: np.ndarray

    def spread(self, per_layer: list[np.ndarray], num_points: int) -> np.ndarray:
        """``(stages, points)`` times from one per-layer row per signature."""
        if not per_layer:
            return np.zeros((self.layers.shape[0], num_points))
        if len(per_layer) == 1:
            return self.layers * per_layer[0]
        return self.layers * np.stack(per_layer)[self.signature_of]


@dataclass(frozen=True, eq=False)
class StageArrays:
    """Per-stage constants of a placement, each a ``(stages, 1)`` column.

    Attributes:
        tp: Tensor-parallel degree.
        has_encoder / has_decoder: Whether the stage hosts encoder /
            decoder layers.
        decoder_layers: Decoder layers hosted.
        weight_bytes: Weight bytes per GPU
            (:func:`stage_weight_bytes_per_gpu`).
    """

    tp: np.ndarray
    has_encoder: np.ndarray
    has_decoder: np.ndarray
    decoder_layers: np.ndarray
    weight_bytes: np.ndarray


@dataclass(frozen=True)
class Placement:
    """A complete mapping of model layers onto cluster GPUs.

    Attributes:
        policy: The allocation policy that produced this placement.
        stages: All pipeline stages in execution order.  For WAA, encoder
            stages precede decoder stages.
        cluster: The cluster the placement targets.
        model: The placed model.
        weight_replication: Factor >= 1 accounting for duplicated weights
            (WAA on decoder-only models stores the stack twice).
    """

    policy: SchedulePolicy
    stages: tuple[StagePlan, ...]
    cluster: Cluster
    model: ModelSpec
    weight_replication: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError("placement needs at least one stage")
        used = [g for s in self.stages for g in s.gpu_indices]
        if len(used) != len(set(used)):
            raise ValueError("a GPU is assigned to more than one stage")

    def __getstate__(self) -> dict:
        # Pickle the fields only: the cached views below are derived from
        # them and rebuilt on first use after unpickling.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- views ------------------------------------------------------------------
    #
    # A placement is immutable, so every view is computed once, on first
    # read.  Estimating a schedule reads them for every evaluated point.

    @functools.cached_property
    def encode_stages(self) -> tuple[StagePlan, ...]:
        """Stages that execute the encoding phase, in pipeline order."""
        return tuple(s for s in self.stages if s.role in ("both", "encode"))

    @functools.cached_property
    def decode_stages(self) -> tuple[StagePlan, ...]:
        """Stages that execute decoding iterations, in pipeline order."""
        return tuple(s for s in self.stages if s.role in ("both", "decode"))

    @functools.cached_property
    def num_gpus(self) -> int:
        """GPUs used by the placement."""
        return sum(s.tp_degree for s in self.stages)

    @functools.cached_property
    def _spans_nodes(self) -> dict[StagePlan, bool]:
        return {
            s: self.cluster.group_spans_nodes(list(s.gpu_indices)) for s in self.stages
        }

    def stage_spans_nodes(self, stage: StagePlan) -> bool:
        """Whether a stage's TP group crosses a node boundary."""
        spans = self._spans_nodes.get(stage)
        if spans is None:
            spans = self.cluster.group_spans_nodes(list(stage.gpu_indices))
        return spans

    @functools.cached_property
    def encode_phase(self) -> PhaseStages:
        """The encode stages as arrays, for batched stage-time pricing."""
        stages = self.encode_stages
        return self._phase(stages, [s.encoder_layers for s in stages])

    @functools.cached_property
    def decode_phase(self) -> PhaseStages:
        """The decode stages as arrays, for batched stage-time pricing."""
        stages = self.decode_stages
        return self._phase(stages, [s.decoder_layers for s in stages])

    def _phase(self, stages: tuple[StagePlan, ...], layers: list[int]) -> PhaseStages:
        signatures: list[tuple[int, bool]] = []
        signature_of: list[int] = []
        for stage, count in zip(stages, layers):
            if count == 0:
                signature_of.append(0)
                continue
            key = (stage.tp_degree, self.stage_spans_nodes(stage))
            if key not in signatures:
                signatures.append(key)
            signature_of.append(signatures.index(key))
        return PhaseStages(
            layers=_column(layers),
            signatures=tuple(signatures),
            signature_of=_frozen(signature_of, np.intp, (-1,)),
        )

    @functools.cached_property
    def stage_arrays(self) -> StageArrays:
        """Per-stage constants as columns, for batched memory estimates."""
        stages = self.stages
        return StageArrays(
            tp=_column([s.tp_degree for s in stages]),
            has_encoder=_column([s.encoder_layers > 0 for s in stages], bool),
            has_decoder=_column([s.decoder_layers > 0 for s in stages], bool),
            decoder_layers=_column([s.decoder_layers for s in stages]),
            weight_bytes=_column([stage_weight_bytes_per_gpu(self, s) for s in stages]),
        )

    def validate_layer_totals(self) -> None:
        """Check that every model layer is assigned exactly once per phase.

        Raises:
            ValueError: if encoder or decoder layer totals do not match the
                model.
        """
        enc = sum(s.encoder_layers for s in self.encode_stages)
        dec = sum(s.decoder_layers for s in self.decode_stages)
        if enc != self.model.num_encoder_layers:
            raise ValueError(
                f"placement hosts {enc} encoder layers, model has "
                f"{self.model.num_encoder_layers}"
            )
        if dec != self.model.num_decoder_layers:
            raise ValueError(
                f"placement hosts {dec} decoder layers, model has "
                f"{self.model.num_decoder_layers}"
            )


# --- helpers -------------------------------------------------------------------


def _split_evenly(total: int, parts: int) -> list[int]:
    """Split ``total`` items into ``parts`` nearly equal contiguous chunks."""
    if parts <= 0:
        raise ValueError("parts must be positive")
    base, rem = divmod(total, parts)
    return [base + (1 if i < rem else 0) for i in range(parts)]


def waa_stage_split(
    num_stages: int,
    encode_weight: float,
    decode_weight: float,
    min_encode_stages: int = 1,
    min_decode_stages: int = 1,
) -> int:
    """Number of encoder stages a WAA placement assigns out of ``num_stages``.

    This is the only way the (continuous) encode/decode weights influence the
    shape of a WAA placement, so memoizing placements by the returned split
    is exact.  Shared by :func:`allocate_waa` and the simulator's placement
    cache to keep the two from diverging.
    """
    if encode_weight < 0 or decode_weight < 0:
        raise ValueError("weights must be non-negative")
    if encode_weight + decode_weight == 0:
        raise ValueError("at least one weight must be positive")
    if num_stages < min_encode_stages + min_decode_stages:
        raise ValueError(
            f"WAA needs at least {min_encode_stages + min_decode_stages} pipeline "
            f"stages, got {num_stages}"
        )
    total = encode_weight + decode_weight
    encode_stages = int(round(num_stages * encode_weight / total))
    return min(max(encode_stages, min_encode_stages), num_stages - min_decode_stages)


def _build_tp_groups(
    num_gpus: int, tensor_parallel: TensorParallelConfig
) -> list[tuple[int, ...]]:
    """Group GPU indices 0..num_gpus-1 into pipeline stages under partial TP.

    The TP-covered GPUs come first (they host the earliest layers); the
    remaining GPUs form single-GPU stages.
    """
    if tensor_parallel.num_gpus > num_gpus:
        raise ValueError(
            f"TP covers {tensor_parallel.num_gpus} GPUs but only "
            f"{num_gpus} are available"
        )
    groups: list[tuple[int, ...]] = []
    degree = max(tensor_parallel.degree, 1)
    covered = tensor_parallel.num_gpus if degree > 1 else 0
    index = 0
    while index < covered:
        groups.append(tuple(range(index, index + degree)))
        index += degree
    while index < num_gpus:
        groups.append((index,))
        index += 1
    return groups


# --- allocation policies ----------------------------------------------------------


def allocate_rra(
    model: ModelSpec,
    cluster: Cluster,
    tensor_parallel: TensorParallelConfig | None = None,
) -> Placement:
    """Round-Robin Allocation: every stage hosts encoders and decoders.

    With ``N`` stages, each receives ``E/N`` consecutive encoder layers and
    ``D/N`` consecutive decoder layers (Figure 3, top).
    """
    tp = tensor_parallel or TensorParallelConfig()
    groups = _build_tp_groups(cluster.num_gpus, tp)
    enc_split = _split_evenly(model.num_encoder_layers, len(groups))
    dec_split = _split_evenly(model.num_decoder_layers, len(groups))
    stages = [
        StagePlan(
            stage_id=i,
            gpu_indices=group,
            encoder_layers=enc_split[i],
            decoder_layers=dec_split[i],
            role="both",
        )
        for i, group in enumerate(groups)
    ]
    return Placement(
        policy=SchedulePolicy.RRA,
        stages=tuple(stages),
        cluster=cluster,
        model=model,
        weight_replication=1.0,
    )


def allocate_waa(
    model: ModelSpec,
    cluster: Cluster,
    encode_weight: float,
    decode_weight: float,
    policy: SchedulePolicy,
    tensor_parallel: TensorParallelConfig | None = None,
    min_encode_stages: int = 1,
    min_decode_stages: int = 1,
) -> Placement:
    """Workload-Aware Allocation: dedicate stages to encoding or decoding.

    GPUs are assigned proportionally to ``encode_weight : decode_weight``
    (estimated computation times for WAA-C, memory consumption for WAA-M),
    with at least one stage on each side -- which is why WAA needs a minimum
    of two pipeline stages and can violate tight latency bounds (Section 7.3).

    Args:
        model: Model to place.
        cluster: Target (sub-)cluster.
        encode_weight: Relative weight of the encoding workload (``C_E``).
        decode_weight: Relative weight of the decoding workload (``C_D``).
        policy: ``WAA_C`` or ``WAA_M`` (recorded on the placement).
        tensor_parallel: Partial-TP configuration applied across all GPUs;
            encoder stages take the earliest groups.
        min_encode_stages / min_decode_stages: Lower bounds on the split.
    """
    if not policy.is_waa:
        raise ValueError("allocate_waa requires a WAA policy")
    tp = tensor_parallel or TensorParallelConfig()
    groups = _build_tp_groups(cluster.num_gpus, tp)
    num_stages = len(groups)
    encode_stages = waa_stage_split(
        num_stages,
        encode_weight,
        decode_weight,
        min_encode_stages=min_encode_stages,
        min_decode_stages=min_decode_stages,
    )
    decode_stages = num_stages - encode_stages

    enc_split = _split_evenly(model.num_encoder_layers, encode_stages)
    dec_split = _split_evenly(model.num_decoder_layers, decode_stages)
    stages: list[StagePlan] = []
    for i in range(encode_stages):
        stages.append(
            StagePlan(
                stage_id=i,
                gpu_indices=groups[i],
                encoder_layers=enc_split[i],
                decoder_layers=0,
                role="encode",
            )
        )
    for j in range(decode_stages):
        stages.append(
            StagePlan(
                stage_id=encode_stages + j,
                gpu_indices=groups[encode_stages + j],
                encoder_layers=0,
                decoder_layers=dec_split[j],
                role="decode",
            )
        )
    # Decoder-only models must replicate the decoder stack onto the encoder
    # GPUs (they run the same layers for prefill), which is WAA's memory
    # overhead on GPT/OPT-style models.
    replication = 1.0
    if not model.is_encoder_decoder:
        replication = 1.0 + model.num_encoder_layers / max(model.num_layers, 1)
    return Placement(
        policy=policy,
        stages=tuple(stages),
        cluster=cluster,
        model=model,
        weight_replication=replication,
    )


def stage_weight_bytes(model: ModelSpec, stage: StagePlan) -> float:
    """Weight bytes a stage must hold for its assigned layers.

    For decoder-only models the "encoder" layers of an RRA/baseline stage are
    the same physical decoder layers used for prefill, so they are counted
    once; WAA stages are dedicated to one phase and therefore a decoder-only
    model deployed with WAA ends up storing the stack twice across the
    cluster (the overhead Figure 9 quantifies).
    """
    if model.is_encoder_decoder:
        return (
            stage.encoder_layers * model.layer_bytes(False)
            + stage.decoder_layers * model.layer_bytes(True)
        )
    if stage.role == "both":
        layers = max(stage.encoder_layers, stage.decoder_layers)
    else:
        layers = stage.encoder_layers + stage.decoder_layers
    return layers * model.layer_bytes(False)


def stage_weight_bytes_per_gpu(placement: Placement, stage: StagePlan) -> float:
    """Weight bytes per GPU of a stage's TP group.

    The stage's layers are split over its TP group.  Embedding / LM-head
    weights live on the first and last stages; their cost is spread
    evenly over all GPUs as an approximation.
    """
    model = placement.model
    weights = stage_weight_bytes(model, stage) / stage.tp_degree
    weights += model.embedding_parameters * model.dtype_bytes / placement.num_gpus
    return weights


def waa_memory_weights(
    model: ModelSpec,
    avg_input_len: float,
    avg_output_len: float,
    decode_batch: float,
    encode_batch: float,
) -> tuple[float, float]:
    """Encode/decode *memory* weights used by WAA-M.

    Encoder GPUs hold the encoding weights plus transient activations;
    decoder GPUs hold the decoding weights plus the standing KV cache of the
    in-flight decode batch, which dominates for long outputs.

    ``encode_batch`` / ``decode_batch`` may be numpy arrays (one entry per
    candidate configuration); the returned weights then are arrays too.
    """
    if np.any(np.asarray(decode_batch) < 0) or np.any(np.asarray(encode_batch) < 0):
        raise ValueError("batch sizes must be non-negative")
    enc_weights = float(model.encoder_parameters * model.dtype_bytes)
    dec_weights = float(model.decoder_parameters * model.dtype_bytes)
    kv_per_token = model.kv_bytes_per_token()
    context = avg_input_len + avg_output_len / 2.0 if not model.is_encoder_decoder else avg_output_len / 2.0
    dec_kv = decode_batch * context * kv_per_token
    enc_act = encode_batch * avg_input_len * model.hidden_size * model.dtype_bytes * 4
    return enc_weights + enc_act, dec_weights + dec_kv


def build_placement(
    policy: SchedulePolicy,
    model: ModelSpec,
    cluster: Cluster,
    tensor_parallel: TensorParallelConfig | None = None,
    encode_weight: float = 1.0,
    decode_weight: float = 1.0,
) -> Placement:
    """Dispatch to the right allocation policy and validate the result."""
    if policy is SchedulePolicy.RRA:
        placement = allocate_rra(model, cluster, tensor_parallel)
    else:
        placement = allocate_waa(
            model,
            cluster,
            encode_weight=encode_weight,
            decode_weight=decode_weight,
            policy=policy,
            tensor_parallel=tensor_parallel,
        )
    placement.validate_layer_totals()
    return placement
