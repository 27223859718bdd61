"""Analytical timeline building blocks of the XSimulator estimator.

These functions turn a :class:`~repro.core.allocation.Placement` plus a
:class:`~repro.core.profiler.ProfileTable` into stage-level execution times,
steady-state pipeline periods and per-stage memory, for many evaluation
points at once (one column per point):

* a stage's time is its layer count times the profiled per-layer time plus
  the tensor-parallel synchronisation overhead -- the formula the execution
  engine's :func:`~repro.engine.execution.price_item` prices its tasks
  with, so estimates and replays share one cost model,
* a pipelined decode iteration over ``m`` micro-batches and ``P`` stages has
  steady-state period ``max(m * t_bottleneck, sum_j t_j)`` -- the resource
  constraint of the bottleneck stage versus the autoregressive traversal
  constraint -- which is what makes decoder micro-batches (WAA) and the
  choice of ``N_D`` (RRA) genuine latency/throughput trade-offs.

The one-point forms of these helpers make up the test suite's scalar cost
model (``tests/reference/simulator.py``), the oracle every column here must
equal under ``==``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.allocation import PhaseStages, Placement
from repro.core.profiler import ProfileTable


@dataclass(frozen=True)
class StageTimesBatch:
    """Per-stage execution times for many (micro-)batches at once.

    ``times[s, p]`` is the time of stage ``s`` for evaluation point ``p``.

    Attributes:
        times: Array of shape ``(num_stages, num_points)``, seconds.
    """

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 2:
            raise ValueError("times must be a (num_stages, num_points) array")
        object.__setattr__(self, "times", times)

    @property
    def bottleneck(self) -> np.ndarray:
        """Per-point time of the slowest stage."""
        if self.times.shape[0] == 0:
            return np.zeros(self.times.shape[1])
        return np.max(self.times, axis=0)

    @property
    def traversal(self) -> np.ndarray:
        """Per-point sum of all stage times (pipeline traversal).

        Summed stage by stage: a reduction would sum a one-point column
        pairwise once it has 8 or more stages, so a point's traversal would
        depend on its batch.
        """
        if self.times.shape[0] == 0:
            return np.zeros(self.times.shape[1])
        return np.add.accumulate(self.times, axis=0)[-1]

    @property
    def num_stages(self) -> int:
        """Pipeline depth."""
        return int(self.times.shape[0])

    @property
    def num_points(self) -> int:
        """Number of evaluation points."""
        return int(self.times.shape[1])


def encode_stage_times_batches(
    profile: ProfileTable,
    placements: Sequence[Placement],
    batches: Sequence[np.ndarray],
    avg_input_len: float,
) -> list[StageTimesBatch]:
    """Encode-phase times of all encode stages of several placements.

    ``batches[g]`` is a 1-D array of micro-batch sizes (one per evaluation
    point) priced on ``placements[g]``.  Each distinct (TP degree,
    node-spanning) signature of the placements' encode stages costs one
    vectorized lookup, over the concatenated batches of every placement
    that has it (lookups are element-wise, so sharing one changes no
    value); each placement's per-stage times are then one multiply by its
    layer-count column (:attr:`~repro.core.allocation.Placement.encode_phase`).
    """

    def per_layer(tp: int, spans: bool, batch: np.ndarray) -> np.ndarray:
        return profile.encode_layer_time_batch(
            tp, batch, avg_input_len
        ) + profile.encode_sync_time_batch(tp, batch, avg_input_len, spans)

    return _phase_times([p.encode_phase for p in placements], batches, per_layer)


def decode_stage_times_batches(
    profile: ProfileTable,
    placements: Sequence[Placement],
    batches: Sequence[np.ndarray],
    avg_context_len: float,
) -> list[StageTimesBatch]:
    """Decode-step times of all decode stages of several placements."""

    def per_layer(tp: int, spans: bool, batch: np.ndarray) -> np.ndarray:
        return profile.decode_layer_time_batch(
            tp, batch, avg_context_len
        ) + profile.decode_sync_time_batch(tp, batch, spans)

    return _phase_times([p.decode_phase for p in placements], batches, per_layer)


def _phase_times(
    phases: list[PhaseStages], batches: Sequence[np.ndarray], per_layer
) -> list[StageTimesBatch]:
    """Stage times of several phases, one ``per_layer`` call per signature."""
    batches = [np.asarray(batch, dtype=float) for batch in batches]
    users: dict[tuple[int, bool], list[int]] = {}
    for g, phase in enumerate(phases):
        for signature in phase.signatures:
            users.setdefault(signature, []).append(g)
    rows: list[dict[tuple[int, bool], np.ndarray]] = [{} for _ in phases]
    for signature, groups in users.items():
        priced = per_layer(*signature, np.concatenate([batches[g] for g in groups]))
        start = 0
        for g in groups:
            stop = start + batches[g].size
            rows[g][signature] = priced[start:stop]
            start = stop
    return [
        StageTimesBatch(
            phase.spread([row[s] for s in phase.signatures], batch.size)
        )
        for phase, row, batch in zip(phases, rows, batches)
    ]


# --- pipeline algebra -------------------------------------------------------------


def pipelined_iteration_period_batch(
    stage_times: StageTimesBatch, micro_batches: int | np.ndarray
) -> np.ndarray:
    """Per-point steady-state wall time of one decode iteration over
    ``micro_batches``.

    ``stage_times`` are per-*micro-batch* stage times.  The period is the
    larger of the bottleneck-stage occupancy (``m * t_max``) and the
    autoregressive traversal (``sum_j t_j``): the next iteration of a
    micro-batch can neither start before the bottleneck stage has drained all
    micro-batches of the current iteration nor before the micro-batch's own
    token has left the last stage.  ``micro_batches`` may be a scalar or a
    per-point array (WAA searches vary ``B_m`` per configuration).
    """
    micro = np.asarray(micro_batches)
    if (micro < 1).any():
        raise ValueError("micro_batches must be >= 1")
    return np.maximum(micro * stage_times.bottleneck, stage_times.traversal)


def pipelined_batch_completion_batch(
    stage_times: StageTimesBatch, micro_batches: int | np.ndarray
) -> np.ndarray:
    """Per-point wall time for ``micro_batches`` independent micro-batches
    to clear a pipeline.

    Classic pipeline fill + steady state: ``sum_j t_j + (m - 1) * t_max``.
    Used for the encoding phase, where micro-batches have no mutual
    dependency.
    """
    micro = np.asarray(micro_batches)
    if (micro < 1).any():
        raise ValueError("micro_batches must be >= 1")
    return stage_times.traversal + (micro - 1) * stage_times.bottleneck


# --- memory estimation --------------------------------------------------------------


@dataclass(frozen=True)
class StageMemory:
    """Estimated memory footprint of one stage (per GPU of its TP group).

    Attributes:
        stage_id: The stage.
        role: ``both`` / ``encode`` / ``decode``.
        weights_gib: Weight bytes per GPU, in GiB.
        kv_cache_gib: Steady-state KV-cache bytes per GPU, in GiB.
        activation_gib: Peak activation bytes per GPU, in GiB.
        capacity_gib: Usable device capacity in GiB.
    """

    stage_id: int
    role: str
    weights_gib: float
    kv_cache_gib: float
    activation_gib: float
    capacity_gib: float

    @property
    def total_gib(self) -> float:
        """Total used memory per GPU in GiB."""
        return self.weights_gib + self.kv_cache_gib + self.activation_gib

    @property
    def fits(self) -> bool:
        """Whether the stage fits in device memory."""
        return self.total_gib <= self.capacity_gib


GIB = 1024 ** 3
_RESERVED_FRACTION = 0.08


@dataclass(frozen=True, eq=False)
class MemoryColumns:
    """Per-stage memory of one placement at many evaluation points.

    ``kv_cache_gib[s, p]`` and ``activation_gib[s, p]`` belong to stage
    ``s`` at point ``p``.

    Attributes:
        placement: The placement whose stages the rows follow.
        weights_gib: ``(stages, 1)`` weight GiB per GPU.
        kv_cache_gib: ``(stages, points)`` steady-state KV-cache GiB per GPU.
        activation_gib: ``(stages, points)`` peak activation GiB per GPU.
        capacity_gib: Usable device capacity in GiB.
        fits: Per point, whether every stage fits in device memory.
    """

    placement: Placement
    weights_gib: np.ndarray
    kv_cache_gib: np.ndarray
    activation_gib: np.ndarray
    capacity_gib: float
    fits: np.ndarray

    def stage_memory(self, point: int) -> tuple[StageMemory, ...]:
        """The per-stage breakdown of one evaluation point."""
        return tuple(
            StageMemory(
                stage_id=stage.stage_id,
                role=stage.role,
                weights_gib=weights,
                kv_cache_gib=kv,
                activation_gib=act,
                capacity_gib=self.capacity_gib,
            )
            for stage, weights, kv, act in zip(
                self.placement.stages,
                self.weights_gib[:, 0].tolist(),
                self.kv_cache_gib[:, point].tolist(),
                self.activation_gib[:, point].tolist(),
            )
        )

    def at(self, point: int) -> "StageMemorySequence":
        """One point's breakdown, built only when it is read."""
        return StageMemorySequence(self, point)


class StageMemorySequence(Sequence):
    """Read-only per-stage memory breakdown of one evaluation point.

    Behaves like the tuple of :class:`StageMemory` it stands for --
    length, indexing, iteration, equality and hashing (also against real
    tuples), and pickling, which stores that tuple -- but builds the
    objects only on first read.  A schedule search estimates tens of
    thousands of points and reads the breakdown of a handful.
    """

    __slots__ = ("_columns", "_point", "_items")

    def __init__(self, columns: MemoryColumns, point: int) -> None:
        self._columns = columns
        self._point = point
        self._items: tuple[StageMemory, ...] | None = None

    def _tuple(self) -> tuple[StageMemory, ...]:
        if self._items is None:
            self._items = self._columns.stage_memory(self._point)
            self._columns = None
        return self._items

    def __len__(self) -> int:
        return len(self._tuple())

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other) -> bool:
        if isinstance(other, StageMemorySequence):
            other = other._tuple()
        if isinstance(other, tuple):
            return self._tuple() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __reduce__(self):
        return (tuple, (self._tuple(),))

    def __repr__(self) -> str:
        return repr(self._tuple())


def estimate_memory_columns(
    placement: Placement,
    encode_batch: np.ndarray,
    decode_batch: np.ndarray,
    avg_input_len: float,
    avg_context_len: float,
) -> MemoryColumns:
    """Per-stage, per-GPU memory of a placement at per-point batch sizes.

    Encoder-role stages hold their encoder layers' weights (for decoder-only
    models these are decoder layers, i.e. the replicated copy) plus prefill
    activations; decoder-role stages hold decoder weights plus the standing
    KV cache of the in-flight decode batch; RRA stages hold both.  Every
    stage and point is one ``(stages, points)`` broadcast against the
    placement's :attr:`~repro.core.allocation.Placement.stage_arrays`; a
    term that does not apply to a stage is a zero, which adds exactly.
    """
    encode_batch = np.asarray(encode_batch, dtype=float)
    decode_batch = np.asarray(decode_batch, dtype=float)
    model = placement.model
    stages = placement.stage_arrays
    tp = stages.tp
    hidden = model.hidden_size
    dtype_bytes = model.dtype_bytes
    act = np.where(
        stages.has_encoder,
        4.0 * encode_batch * avg_input_len * hidden * dtype_bytes / tp,
        0.0,
    )
    kv = 0.0
    if model.is_encoder_decoder:
        # Encoder output kept for cross-attention until handover.
        kv = np.where(
            stages.has_encoder,
            encode_batch * avg_input_len * hidden * dtype_bytes / tp,
            0.0,
        )
    kv = kv + np.where(
        stages.has_decoder,
        decode_batch
        * avg_context_len
        * stages.decoder_layers
        * model.kv_bytes_per_token_per_layer()
        / tp,
        0.0,
    )
    act = act + np.where(
        stages.has_decoder, 2.0 * decode_batch * hidden * dtype_bytes / tp, 0.0
    )
    weights_gib = stages.weight_bytes / GIB
    kv_gib = kv / GIB
    act_gib = act / GIB
    capacity_gib = placement.cluster.gpu.memory_bytes * (1.0 - _RESERVED_FRACTION) / GIB
    return MemoryColumns(
        placement=placement,
        weights_gib=weights_gib,
        kv_cache_gib=kv_gib,
        activation_gib=act_gib,
        capacity_gib=capacity_gib,
        fits=(weights_gib + kv_gib + act_gib <= capacity_gib).all(axis=0),
    )
