"""XSimulator: estimate throughput and latency of a schedule (Section 6).

The simulator combines the profiled per-layer times, the allocation produced
by the chosen policy and the input/output sequence-length distributions to
construct the expected execution timeline of a schedule, without running any
requests.  It returns a :class:`ScheduleEstimate` with the throughput, the
latency of generating the target (99th-percentile) sequence length, and a
per-stage memory estimate used to reject infeasible schedules -- which is
what rules WAA out for the 175B/341B models.

There is one estimator, :meth:`XSimulator.estimate_batch`, which prices
*many* points in a handful of numpy passes; :meth:`XSimulator.estimate` is
its one-point call.  Its native input is a :class:`ConfigColumns`: per
(policy, partial-TP setting) group, the ``B_E`` axis, the ``N_D`` (RRA) or
``B_m`` (WAA) axis, and each point as integer coordinates ``(x1, x2)`` into
them.  Its output is an :class:`EstimateColumns` -- latency, throughput and
feasibility arrays -- which builds a point's :class:`ScheduleEstimate` only
when asked.  A list of configurations is grouped into columns (each group's
axes are the distinct values in the call), priced by the same passes and
boxed point by point.

Placements, distribution statistics and two tables per RRA group axis are
memoized in an :class:`EstimateContext` -- the encode phase of every
``B_E`` on the axis, and the completion fraction and zero-padded
alive-batch row of every ``N_D`` -- so an RRA pass gathers them by
coordinate.  The shrinking-batch decode phase of a whole column of points
becomes a 2-D (point x iteration) array fed through one vectorized grid
interpolation, and memory feasibility is array arithmetic.  The RRA groups
of a call share one pass and its WAA groups another, with one profile
lookup per (TP degree, node-spanning) signature across groups.  Stages and
decode iterations are summed sequentially, so an estimate does not depend
on the other points in its call -- which is what lets the scheduler price
any mix of subspaces, and speculative points, in one call without changing
a search decision.  The test suite's scalar cost model
(``tests/reference/simulator.py``: one configuration at a time, with the
per-iteration loop written the way Section 6 describes the timeline) is
the oracle every estimate must equal under ``==``.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.allocation import (
    Placement,
    build_placement,
    waa_memory_weights,
    waa_stage_split,
)
from repro.core.analytical import (
    MemoryColumns,
    StageMemory,
    decode_stage_times_batches,
    encode_stage_times_batches,
    estimate_memory_columns,
    pipelined_batch_completion_batch,
    pipelined_iteration_period_batch,
)
from repro.core.config import (
    ScheduleConfig,
    SchedulePolicy,
    TensorParallelConfig,
    require_count,
)
from repro.core.distributions import (
    SequenceDistribution,
    average_context_length,
    completion_probability,
    surviving_fraction,
)
from repro.core.profiler import ProfileTable

# Cap on the number of points evaluated in one numpy pass; larger requests
# are processed in chunks to bound the size of the (point x
# decode-iteration) temporaries.
_BATCH_CHUNK = 4096

# Axis tables an EstimateContext keeps before its memo starts over.  A
# search reuses a few per simulator; list calls may bring new axes on every
# call, and must not grow the memo for the life of the simulator.
_AXIS_TABLE_LIMIT = 64


# The coordinates of a one-point group's point.
_ORIGIN = np.zeros(1, dtype=np.int64)

# One pass's share of a group: (group, its points, call position of the
# first of them).
_Piece = tuple["ConfigGroup", slice, int]


def _chunks(groups: list[tuple[ConfigGroup, int]]) -> list[list[_Piece]]:
    """Split ``(group, call position of its first point)`` pairs into
    passes of at most ``_BATCH_CHUNK`` points, splitting a group where a
    pass fills up."""
    chunks: list[list[_Piece]] = []
    chunk: list[_Piece] = []
    room = _BATCH_CHUNK
    for group, offset in groups:
        start, size = 0, len(group)
        while start < size:
            stop = min(start + room, size)
            chunk.append((group, slice(start, stop), offset + start))
            room -= stop - start
            start = stop
            if not room:
                chunks.append(chunk)
                chunk, room = [], _BATCH_CHUNK
    if chunk:
        chunks.append(chunk)
    return chunks


def _remember(memo: dict, key, table) -> None:
    """Memoize an axis table, starting over once the memo is full."""
    if len(memo) >= _AXIS_TABLE_LIMIT:
        memo.clear()
    memo[key] = table


def _slices(sizes: list[int]) -> list[slice]:
    """Consecutive slices of the given sizes."""
    stops = itertools.accumulate(sizes)
    return [slice(stop - size, stop) for size, stop in zip(sizes, stops)]


@dataclass(frozen=True)
class ScheduleEstimate:
    """Simulator output for one schedule configuration.

    Attributes:
        config: The evaluated schedule.
        throughput_seq_per_s: Completed sequences per second at steady state.
        throughput_tokens_per_s: Generated tokens per second at steady state.
        latency_s: Expected latency of generating ``target_length`` tokens,
            measured from the start of the request's encoding phase.
        target_length: Output length the latency refers to (99th percentile
            by default).
        decode_batch: Steady-state decoder batch size ``B_D``.
        cycle_time_s: RRA cycle time (encode phase + ``N_D`` decode
            iterations) or the WAA per-iteration period.
        memory_feasible: Whether every stage fits in GPU memory.
        stage_memory: Per-stage memory breakdown, a lazily built
            :class:`~repro.core.analytical.StageMemorySequence` that acts
            as (and equals) the tuple of its :class:`StageMemory` s.
        placement: The GPU/layer placement behind the estimate.
    """

    config: ScheduleConfig
    throughput_seq_per_s: float
    throughput_tokens_per_s: float
    latency_s: float
    target_length: int
    decode_batch: float
    cycle_time_s: float
    memory_feasible: bool
    stage_memory: Sequence[StageMemory]
    placement: Placement

    @property
    def feasible(self) -> bool:
        """Feasible means the schedule fits in memory."""
        return self.memory_feasible

    def satisfies(self, latency_bound_s: float, tolerance: float = 0.0) -> bool:
        """Whether the estimate meets a latency bound (and is feasible)."""
        return self.feasible and self.latency_s <= latency_bound_s + tolerance


class ConfigGroup:
    """The points of one (policy, partial-TP setting) group, as coordinates.

    Point ``i`` has ``B_E = encode_batches[x1[i]]`` and ``N_D`` (RRA) or
    ``B_m`` (WAA) ``= second_values[x2[i]]``.  The axes hold integers
    >= 1, need not be sorted, and a coordinate may repeat.

    Attributes:
        policy: Scheduling policy of every point.
        tensor_parallel: Partial-TP setting of every point.
        encode_batches: The ``B_E`` axis (int64).
        second_values: The ``N_D`` (RRA) or ``B_m`` (WAA) axis (int64).
        x1: Per-point index into ``encode_batches`` (int64).
        x2: Per-point index into ``second_values`` (int64).
        decode_batch_override: Per-point decoder batch size, NaN where it
            is derived; ``None`` when no point overrides it.
    """

    __slots__ = (
        "policy",
        "tensor_parallel",
        "encode_batches",
        "second_values",
        "x1",
        "x2",
        "decode_batch_override",
    )

    def __init__(
        self,
        policy: SchedulePolicy,
        tensor_parallel: TensorParallelConfig,
        encode_batches: np.ndarray,
        second_values: np.ndarray,
        x1: np.ndarray,
        x2: np.ndarray,
        decode_batch_override: np.ndarray | None = None,
    ) -> None:
        self.policy = policy
        self.tensor_parallel = tensor_parallel
        self.encode_batches = encode_batches
        self.second_values = second_values
        self.x1 = x1
        self.x2 = x2
        self.decode_batch_override = decode_batch_override

    def __len__(self) -> int:
        return len(self.x1)

    def config(self, i: int) -> ScheduleConfig:
        """The :class:`ScheduleConfig` of point ``i``."""
        second = int(self.second_values[self.x2[i]])
        override = None
        if self.decode_batch_override is not None:
            value = float(self.decode_batch_override[i])
            override = None if math.isnan(value) else int(value)
        if self.policy is SchedulePolicy.RRA:
            second_field = {"decode_iterations": second}
        else:
            second_field = {"micro_batches": second}
        return ScheduleConfig(
            policy=self.policy,
            encode_batch=int(self.encode_batches[self.x1[i]]),
            tensor_parallel=self.tensor_parallel,
            decode_batch_override=override,
            **second_field,
        )

    def single(self, i: int) -> "ConfigGroup":
        """Point ``i`` alone: a one-point group whose axes hold only its
        values."""
        override = self.decode_batch_override
        return ConfigGroup(
            self.policy,
            self.tensor_parallel,
            self.encode_batches[self.x1[i : i + 1]],
            self.second_values[self.x2[i : i + 1]],
            _ORIGIN,
            _ORIGIN,
            None if override is None else override[i : i + 1],
        )


class ConfigColumns:
    """The points of one :meth:`XSimulator.estimate_batch` call, by group.

    Points are numbered through the groups in order; ``len()`` is the
    point count.

    Attributes:
        groups: The call's :class:`ConfigGroup` s.
    """

    __slots__ = ("groups",)

    def __init__(self, groups: Iterable[ConfigGroup]) -> None:
        self.groups = tuple(groups)

    def __len__(self) -> int:
        return sum(len(group) for group in self.groups)

    @classmethod
    def from_configs(
        cls, configs: Sequence[ScheduleConfig]
    ) -> tuple["ConfigColumns", list[int]]:
        """Group ``configs`` by (policy, partial-TP setting).

        Each group's axes are the distinct values of its configurations.
        Returns the columns and, per point, the index of its configuration.
        """
        members: dict[tuple, list[int]] = {}
        for i, config in enumerate(configs):
            members.setdefault((config.policy, config.tensor_parallel), []).append(i)
        groups = []
        for (policy, tensor_parallel), idxs in members.items():
            group_configs = [configs[i] for i in idxs]
            encode_batches, x1 = np.unique(
                np.array([c.encode_batch for c in group_configs], dtype=np.int64),
                return_inverse=True,
            )
            second_values, x2 = np.unique(
                np.array(
                    [
                        c.decode_iterations
                        if policy is SchedulePolicy.RRA
                        else c.micro_batches
                        for c in group_configs
                    ],
                    dtype=np.int64,
                ),
                return_inverse=True,
            )
            overrides = [c.decode_batch_override for c in group_configs]
            override = None
            if any(value is not None for value in overrides):
                override = np.array(
                    [np.nan if value is None else value for value in overrides],
                    dtype=float,
                )
            groups.append(
                ConfigGroup(
                    policy,
                    tensor_parallel,
                    encode_batches,
                    second_values,
                    x1,
                    x2,
                    override,
                )
            )
        return cls(groups), [i for idxs in members.values() for i in idxs]


class EstimateColumns:
    """Estimates of one :class:`ConfigColumns` call, in point order.

    ``len()`` is the point count.  A point that could not be estimated
    reads as infeasible: infinite latency, zero throughput.  Its
    :class:`ScheduleEstimate` is built only by :meth:`estimate`.

    Attributes:
        target_length: Output length the latencies refer to.
        latency_s: Per-point latency of generating ``target_length`` tokens.
        throughput_seq_per_s: Per-point sequences per second.
        throughput_tokens_per_s: Per-point generated tokens per second.
        decode_batch: Per-point steady-state decoder batch ``B_D``.
        cycle_time_s: Per-point RRA cycle time or WAA iteration period.
        feasible: Per point, whether every stage fits in GPU memory.
    """

    __slots__ = (
        "target_length",
        "latency_s",
        "throughput_seq_per_s",
        "throughput_tokens_per_s",
        "decode_batch",
        "cycle_time_s",
        "feasible",
        "_part",
        "_pos",
        "_parts",
    )

    def __init__(self, size: int, target_length: int) -> None:
        self.target_length = target_length
        self.latency_s = np.full(size, np.inf)
        self.throughput_seq_per_s = np.zeros(size)
        self.throughput_tokens_per_s = np.zeros(size)
        self.decode_batch = np.zeros(size)
        self.cycle_time_s = np.zeros(size)
        self.feasible = np.zeros(size, dtype=bool)
        # Point k's placement and memory columns are _parts[_part[k]], and
        # it is column _pos[k] of them; _part[k] is -1 until it is priced.
        self._part = np.full(size, -1, dtype=np.int64)
        self._pos = np.zeros(size, dtype=np.int64)
        self._parts: list[tuple[Placement, MemoryColumns]] = []

    def __len__(self) -> int:
        return len(self.latency_s)

    def _add_part(
        self, points: np.ndarray, placement: Placement, memory: MemoryColumns
    ) -> None:
        """Points ``points`` share ``placement`` and are ``memory``'s columns."""
        self._part[points] = len(self._parts)
        self._pos[points] = np.arange(len(points))
        self._parts.append((placement, memory))
        self.feasible[points] = memory.fits

    def estimate(self, k: int, config: ScheduleConfig) -> ScheduleEstimate | None:
        """Point ``k``'s :class:`ScheduleEstimate`, or ``None`` if it could
        not be estimated.

        ``config`` is the configuration at the point's coordinates.  The
        per-stage memory breakdown is a lazy view of the pass's memory
        columns.
        """
        part = self._part[k]
        if part < 0:
            return None
        placement, memory = self._parts[part]
        return ScheduleEstimate(
            config=config,
            throughput_seq_per_s=float(self.throughput_seq_per_s[k]),
            throughput_tokens_per_s=float(self.throughput_tokens_per_s[k]),
            latency_s=float(self.latency_s[k]),
            target_length=self.target_length,
            decode_batch=float(self.decode_batch[k]),
            cycle_time_s=float(self.cycle_time_s[k]),
            memory_feasible=bool(self.feasible[k]),
            stage_memory=memory.at(int(self._pos[k])),
            placement=placement,
        )


class EstimateContext:
    """Memoized, simulator-wide state shared across estimate calls.

    Everything here is a pure function of the simulator's (immutable) model,
    cluster, profile and distributions: the GPU/layer placements, the
    average input/context lengths, and the RRA completion-probability
    arrays.  A schedule search evaluates tens of thousands of points against
    the same simulator, so memoizing these turns per-point setup cost into
    one-time cost.  The RRA tables are memoized per group axis, by its
    values: a search prices the same axes at every step.

    Attributes:
        avg_input: Mean input length ``E[S_in]``.
        avg_output: Mean output length ``E[S_out]``.
        avg_context: Steady-state average attention context per decode step.
    """

    def __init__(self, simulator: "XSimulator") -> None:
        self.simulator = simulator
        self.model = simulator.model
        self.cluster = simulator.cluster
        self.profile = simulator.profile
        self.avg_input = simulator.input_distribution.mean
        self.avg_output = simulator.output_distribution.mean
        self.avg_context = average_context_length(
            simulator.input_distribution,
            simulator.output_distribution,
            decoder_only=not self.model.is_encoder_decoder,
        )
        self._placements: dict[tuple, Placement] = {}
        self._rra_decode: dict[int, tuple[float, np.ndarray]] = {}
        self._rra_encode_tables: dict[tuple, np.ndarray] = {}
        self._rra_decode_tables: dict[bytes, tuple[np.ndarray, np.ndarray]] = {}

    # -- RRA completion statistics ------------------------------------------------

    def rra_decode(self, num_decode_iterations: int) -> tuple[float, np.ndarray]:
        """``(completion fraction, per-iteration alive fraction)`` for one ``N_D``.

        The alive-fraction array has length ``N_D``; multiplying it by the
        steady-state decode batch gives the expected batch at each iteration
        of a decoding phase (the shrinking batch of Section 6).
        """
        cached = self._rra_decode.get(num_decode_iterations)
        if cached is None:
            p_u = completion_probability(
                self.simulator.output_distribution, num_decode_iterations
            )
            cached = (float(p_u.sum()), surviving_fraction(p_u))
            self._rra_decode[num_decode_iterations] = cached
        return cached

    def rra_decode_table(
        self, decode_iterations: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Completion fraction and alive row of every ``N_D`` on an axis.

        Row ``i`` of the alive table is :meth:`rra_decode`'s alive fraction
        of ``N_D = decode_iterations[i]``, zero-padded to the axis maximum:
        a padded entry is an alive batch of zero, which prices to a zero
        decode period and adds exactly.  The table is sized by the axis,
        never by a larger ``N_D``.

        Raises:
            ValueError: if a completion fraction is zero.
        """
        key = decode_iterations.tobytes()
        table = self._rra_decode_tables.get(key)
        if table is None:
            values = decode_iterations.tolist()
            fractions = np.empty(len(values))
            alive = np.zeros((len(values), max(values)))
            for row, iterations in enumerate(values):
                fraction, remaining = self.rra_decode(iterations)
                fractions[row] = fraction
                alive[row, :iterations] = remaining
            if (fractions <= 0).any():
                raise ValueError(
                    "completion fraction is zero; N_D too small for support"
                )
            table = (fractions, alive)
            _remember(self._rra_decode_tables, key, table)
        return table

    def rra_encode_table(
        self, tensor_parallel: TensorParallelConfig, encode_batches: np.ndarray
    ) -> np.ndarray:
        """RRA encode-phase time of every ``B_E`` on an axis.

        ``B_E`` is split into as many micro-batches as the placement has
        stages.  Profile lookups are element-wise,
        so pricing the axis once and gathering by coordinate equals pricing
        every point.
        """
        key = (tensor_parallel, encode_batches.tobytes())
        table = self._rra_encode_tables.get(key)
        if table is None:
            placement = self.rra_placement(tensor_parallel)
            micro = max(len(placement.decode_stages), 1)
            (times,) = encode_stage_times_batches(
                self.profile, [placement], [encode_batches / micro], self.avg_input
            )
            table = pipelined_batch_completion_batch(times, micro)
            _remember(self._rra_encode_tables, key, table)
        return table

    def decode_batch_for(self, config: ScheduleConfig) -> float:
        """Steady-state decoder batch ``B_D`` implied by ``config`` (Section 6)."""
        if config.decode_batch_override is not None:
            return float(config.decode_batch_override)
        if config.policy is SchedulePolicy.RRA:
            fraction, _ = self.rra_decode(config.decode_iterations)
            if fraction <= 0:
                raise ValueError(
                    "completion fraction is zero; N_D too small for support"
                )
            return config.encode_batch / fraction
        return config.encode_batch * self.avg_output

    # -- placements ---------------------------------------------------------------

    def waa_weights(self, config: ScheduleConfig) -> tuple[float, float]:
        """Encode/decode weights used to split GPUs for a WAA config."""
        decode_batch = (
            float(config.decode_batch_override)
            if config.decode_batch_override is not None
            else config.encode_batch * self.avg_output
        )
        if config.policy is SchedulePolicy.WAA_M:
            return waa_memory_weights(
                self.model,
                avg_input_len=self.avg_input,
                avg_output_len=self.avg_output,
                decode_batch=decode_batch,
                encode_batch=config.encode_batch,
            )
        # WAA-C: estimated per-iteration computation time of the full encoder
        # stack (for B_E fresh queries) versus the full decoder stack (for
        # the standing B_D batch), measured at TP=1 from the profile.
        encode_time = (
            self.profile.encode_layer_time(1, config.encode_batch, self.avg_input)
            * self.model.num_encoder_layers
        )
        decode_time = (
            self.profile.decode_layer_time(1, decode_batch, self.avg_context)
            * self.model.num_decoder_layers
        )
        return max(encode_time, 1e-12), max(decode_time, 1e-12)

    def rra_placement(self, tensor_parallel: TensorParallelConfig) -> Placement:
        """The (memoized) RRA placement for one partial-TP setting."""
        key = (SchedulePolicy.RRA, tensor_parallel)
        placement = self._placements.get(key)
        if placement is None:
            placement = build_placement(
                SchedulePolicy.RRA, self.model, self.cluster, tensor_parallel
            )
            self._placements[key] = placement
        return placement

    def waa_placement(
        self,
        policy: SchedulePolicy,
        tensor_parallel: TensorParallelConfig,
        split: int,
        encode_weight: float,
        decode_weight: float,
    ) -> Placement:
        """The (memoized) WAA placement for one stage split.

        The weights only shape a WAA placement through the encoder-stage
        count (:func:`waa_stage_split`), so the split is the exact memo key;
        the weights of the first configuration that produced the split are
        used to build it.
        """
        key = (policy, tensor_parallel, split)
        placement = self._placements.get(key)
        if placement is None:
            placement = build_placement(
                policy,
                self.model,
                self.cluster,
                tensor_parallel,
                encode_weight=encode_weight,
                decode_weight=decode_weight,
            )
            self._placements[key] = placement
        return placement

    def placement_for(self, config: ScheduleConfig) -> Placement:
        """The GPU/layer placement a configuration implies (memoized)."""
        if config.policy is SchedulePolicy.RRA:
            return self.rra_placement(config.tensor_parallel)
        encode_w, decode_w = self.waa_weights(config)
        num_stages = config.tensor_parallel.stages_for(self.cluster.num_gpus)
        split = waa_stage_split(num_stages, encode_w, decode_w)
        return self.waa_placement(
            config.policy, config.tensor_parallel, split, encode_w, decode_w
        )


class XSimulator:
    """Constructs execution timelines from profile results and distributions.

    Args:
        profile: Profiled per-layer execution times.
        input_distribution: Distribution ``P_E(S)`` of input lengths.
        output_distribution: Distribution ``P_D(S)`` of output lengths.
    """

    def __init__(
        self,
        profile: ProfileTable,
        input_distribution: SequenceDistribution,
        output_distribution: SequenceDistribution,
    ) -> None:
        self.profile = profile
        self.model = profile.model
        self.cluster = profile.cluster
        self.input_distribution = input_distribution
        self.output_distribution = output_distribution
        self._context: EstimateContext | None = None

    # -- public API -----------------------------------------------------------

    @property
    def context(self) -> EstimateContext:
        """The (lazily built) memoized estimation context."""
        if self._context is None:
            self._context = EstimateContext(self)
        return self._context

    def estimate(
        self,
        config: ScheduleConfig,
        target_length: int | None = None,
    ) -> ScheduleEstimate:
        """Estimate throughput/latency/memory of ``config``: the one-point
        :meth:`estimate_batch` call.

        Args:
            config: Schedule configuration to evaluate.
            target_length: Output length whose generation latency is reported,
                an integer >= 1; defaults to the 99th percentile of the
                output distribution.

        Raises:
            ValueError / KeyError: if ``config`` cannot be estimated (no
                valid WAA split, an unprofiled TP degree, ...).
        """
        return self.estimate_batch([config], target_length)[0]

    def estimate_batch(
        self,
        configs: ConfigColumns | Sequence[ScheduleConfig],
        target_length: int | None = None,
        strict: bool = True,
    ) -> EstimateColumns | list[ScheduleEstimate | None]:
        """Estimate many points.

        The RRA groups of the call share one numpy pass and the WAA groups
        another, each chunked to at most ``_BATCH_CHUNK`` points.  An
        estimate depends only on its configuration, whatever else is in
        the call.

        Args:
            configs: The points, as :class:`ConfigColumns` (the scheduler's
                form) or as a list of configurations, which is grouped by
                (policy, partial-TP setting) into columns whose axes are the
                distinct values of each group.
            target_length: Output length whose generation latency is
                reported, an integer >= 1; defaults to the 99th percentile.
            strict: When ``True`` (default) the first point that cannot be
                estimated raises.  When ``False`` such points are reported
                as not estimated instead, which is what the scheduler uses
                to treat un-estimable points as infeasible.

        Returns:
            For :class:`ConfigColumns`, their :class:`EstimateColumns`.  For
            a list, one :class:`ScheduleEstimate` per configuration, in
            input order (``None`` in non-strict mode where estimation
            failed).
        """
        target = self._target(target_length)
        if isinstance(configs, ConfigColumns):
            return self._estimate_columns(configs, target, strict)
        configs = list(configs)
        columns, order = ConfigColumns.from_configs(configs)
        priced = self._estimate_columns(columns, target, strict)
        results: list[ScheduleEstimate | None] = [None] * len(configs)
        for k, i in enumerate(order):
            results[i] = priced.estimate(k, configs[i])
        return results

    def _target(self, target_length: int | None) -> int:
        """The validated latency target, the 99th percentile by default."""
        if target_length is None:
            return self.output_distribution.percentile(99)
        require_count("target_length", target_length)
        return target_length

    def _estimate_columns(
        self, columns: ConfigColumns, target: int, strict: bool
    ) -> EstimateColumns:
        """Price ``columns``: one pass per chunk of its RRA groups, then of
        its WAA groups."""
        priced = EstimateColumns(len(columns), target)
        rra: list[tuple[ConfigGroup, int]] = []
        waa: list[tuple[ConfigGroup, int]] = []
        offset = 0
        for group in columns.groups:
            (rra if group.policy is SchedulePolicy.RRA else waa).append(
                (group, offset)
            )
            offset += len(group)
        for estimator, groups in (
            (self._estimate_rra_batch, rra),
            (self._estimate_waa_batch, waa),
        ):
            for chunk in _chunks(groups):
                self._estimate_isolated(estimator, chunk, priced, strict)
        return priced

    def _estimate_isolated(
        self,
        estimator,
        pieces: list[_Piece],
        priced: EstimateColumns,
        strict: bool,
    ) -> None:
        """Run a batched ``estimator`` with per-group fault isolation.

        If the pass raises, each group is retried alone, and a group that
        still raises (unprofiled TP degree, no valid WAA split, degenerate
        distribution, ...) is retried one point at a time, each on axes of
        its own values, so that a point's error surfaces -- or, in
        non-strict mode, the point stays not estimated.
        """
        group, part, out = pieces[0]
        try:
            estimator(pieces, priced)
            return
        except (ValueError, KeyError):
            if len(pieces) == 1 and len(group) == 1:
                if strict:
                    raise
                return
        if len(pieces) > 1:
            retries = [[piece] for piece in pieces]
        else:
            retries = [
                [(group.single(i), slice(0, 1), out + i - part.start)]
                for i in range(part.start, part.stop)
            ]
        for retry in retries:
            self._estimate_isolated(estimator, retry, priced, strict)

    def build_placement(self, config: ScheduleConfig) -> Placement:
        """The GPU/layer placement a config implies (exposed for the runner)."""
        return self.context.placement_for(config)

    def derived_decode_batch(self, config: ScheduleConfig) -> float:
        """Steady-state decoder batch ``B_D`` implied by ``B_E`` (Section 6)."""
        return self.context.decode_batch_for(config)

    # -- RRA ---------------------------------------------------------------------

    def _estimate_rra_batch(
        self, pieces: list[_Piece], priced: EstimateColumns
    ) -> None:
        """Vectorized RRA estimation of several partial-TP groups in one pass.

        A point's encode phase, completion fraction and alive-batch row are
        gathered by coordinate from its group's axis tables
        (:meth:`EstimateContext.rra_encode_table` and
        :meth:`~EstimateContext.rra_decode_table`).  The shrinking-batch
        decode phase of a group is one (point x iteration) array: row ``p``
        holds the expected alive batch of point ``p`` at each of its
        ``N_D`` decode iterations (zero-padded to the group's largest
        ``N_D``).  Each (TP degree, node-spanning) signature is looked up
        once over the concatenated inputs of every group that has it;
        stage times, stage sums and decode sums stay per group, and cycle
        time and latency are one shared array expression.  Every sum runs
        sequentially, stage by stage and iteration by iteration, so no
        result depends on the rest of the call.
        """
        ctx = self.context
        target = priced.target_length
        placements: list[Placement] = []
        micro: list[int] = []
        points: list[np.ndarray] = []
        encode_batches: list[np.ndarray] = []
        encode_phases: list[np.ndarray] = []
        decode_batches: list[np.ndarray] = []
        iterations: list[np.ndarray] = []
        per_iter: list[np.ndarray] = []
        for group, part, out in pieces:
            tensor_parallel = group.tensor_parallel
            placement = ctx.rra_placement(tensor_parallel)
            x1, x2 = group.x1[part], group.x2[part]
            fraction, alive = ctx.rra_decode_table(group.second_values)
            encode_batch = group.encode_batches[x1].astype(float)
            decode_batch = encode_batch / fraction[x2]
            if group.decode_batch_override is not None:
                override = group.decode_batch_override[part]
                decode_batch = np.where(np.isnan(override), decode_batch, override)
            n_d = group.second_values[x2]
            placements.append(placement)
            micro.append(max(len(placement.decode_stages), 1))
            points.append(np.arange(out, out + len(x1)))
            encode_batches.append(encode_batch)
            encode_phases.append(
                ctx.rra_encode_table(tensor_parallel, group.encode_batches)[x1]
            )
            decode_batches.append(decode_batch)
            iterations.append(n_d)
            per_iter.append(decode_batch[:, None] * alive[:, : n_d.max()][x2])

        # Decoding phase: all (point, iteration) pairs at once.  Padded
        # entries have an alive batch of zero, price to a zero stage time
        # and therefore a zero period -- as if a per-point loop never
        # visited them -- and add exactly to the running sum.
        dec_times = decode_stage_times_batches(
            self.profile,
            placements,
            [(batches / m).reshape(-1) for batches, m in zip(per_iter, micro)],
            ctx.avg_context,
        )
        decode_phase = np.concatenate(
            [
                np.add.accumulate(
                    pipelined_iteration_period_batch(t, m).reshape(batches.shape),
                    axis=1,
                )[:, -1]
                for t, m, batches in zip(dec_times, micro, per_iter)
            ]
        )
        tokens_per_cycle = np.concatenate(
            [np.add.accumulate(batches, axis=1)[:, -1] for batches in per_iter]
        )
        encode_batch = np.concatenate(encode_batches)
        encode_phase = np.concatenate(encode_phases)
        decode_batch = np.concatenate(decode_batches)
        n_d = np.concatenate(iterations)

        cycle_time = encode_phase + decode_phase
        positive = cycle_time > 0
        safe_cycle = np.where(positive, cycle_time, 1.0)
        throughput_seq = np.where(positive, encode_batch / safe_cycle, 0.0)
        throughput_tok = np.where(positive, tokens_per_cycle / safe_cycle, 0.0)

        avg_iter = decode_phase / n_d
        full_cycles = np.maximum(np.ceil(target / n_d) - 1, 0)
        remaining_tokens = target - full_cycles * n_d
        latency = encode_phase + full_cycles * cycle_time + remaining_tokens * avg_iter

        self._store_columns(
            priced,
            placements,
            points,
            encode_batch=encode_batch,
            decode_batch=decode_batch,
            throughput_seq=throughput_seq,
            throughput_tok=throughput_tok,
            latency=latency,
            cycle_time=cycle_time,
        )

    # -- WAA ---------------------------------------------------------------------

    def _estimate_waa_batch(
        self, pieces: list[_Piece], priced: EstimateColumns
    ) -> None:
        """Vectorized WAA estimation of several (policy, TP) groups in one pass.

        The encode/decode GPU split can differ between points of a group
        (the WAA weights depend on the batch sizes), so each group is
        partitioned by the resulting stage split, and each partition shares
        one memoized placement.  Like the RRA pass, each (TP degree,
        node-spanning) signature is looked up once over every partition
        that has it, and the period and latency arithmetic is shared.
        """
        ctx = self.context
        target = priced.target_length
        avg_input = ctx.avg_input
        avg_context = ctx.avg_context
        num_gpus = self.cluster.num_gpus
        placements: list[Placement] = []
        points: list[np.ndarray] = []
        encode_batches: list[np.ndarray] = []
        decode_batches: list[np.ndarray] = []
        micro_batches: list[np.ndarray] = []
        for group, part, out in pieces:
            policy, tensor_parallel = group.policy, group.tensor_parallel
            encode_batch = group.encode_batches[group.x1[part]].astype(float)
            decode_batch = encode_batch * ctx.avg_output
            if group.decode_batch_override is not None:
                override = group.decode_batch_override[part]
                decode_batch = np.where(np.isnan(override), decode_batch, override)
            micro = group.second_values[group.x2[part]]
            # WAA weights for every point in one pass, then partition by the
            # stage split they imply.
            if policy is SchedulePolicy.WAA_M:
                enc_w, dec_w = waa_memory_weights(
                    self.model,
                    avg_input_len=avg_input,
                    avg_output_len=ctx.avg_output,
                    decode_batch=decode_batch,
                    encode_batch=encode_batch,
                )
            else:
                enc_w = np.maximum(
                    self.profile.encode_layer_time_batch(1, encode_batch, avg_input)
                    * self.model.num_encoder_layers,
                    1e-12,
                )
                dec_w = np.maximum(
                    self.profile.decode_layer_time_batch(1, decode_batch, avg_context)
                    * self.model.num_decoder_layers,
                    1e-12,
                )
            num_stages = tensor_parallel.stages_for(num_gpus)
            weights = list(zip(np.asarray(enc_w).tolist(), np.asarray(dec_w).tolist()))
            split_groups: dict[int, list[int]] = {}
            for pos, (enc, dec) in enumerate(weights):
                split = waa_stage_split(num_stages, enc, dec)
                split_groups.setdefault(split, []).append(pos)
            for split, positions in split_groups.items():
                placements.append(
                    ctx.waa_placement(
                        policy, tensor_parallel, split, *weights[positions[0]]
                    )
                )
                points.append(out + np.array(positions))
                encode_batches.append(encode_batch[positions])
                decode_batches.append(decode_batch[positions])
                micro_batches.append(micro[positions])

        b_e = np.concatenate(encode_batches)
        b_d = np.concatenate(decode_batches)
        m = np.concatenate(micro_batches)
        parts = _slices([len(p) for p in points])

        # Decode side: B_m micro-batches pipelined across the decode stages.
        dec_times = decode_stage_times_batches(
            self.profile, placements, [b_d[p] / m[p] for p in parts], avg_context
        )
        # Encode side: the encoder pipeline must deliver B_E fresh queries per
        # decode iteration; its period is the bottleneck encode stage time,
        # and the handover adds a KV transfer.
        enc_times = encode_stage_times_batches(
            self.profile, placements, [b_e[p] for p in parts], avg_input
        )
        decode_period = np.concatenate(
            [
                pipelined_iteration_period_batch(times, m[part])
                for times, part in zip(dec_times, parts)
            ]
        )
        encode_period = np.concatenate([t.bottleneck for t in enc_times])
        encode_traversal = np.concatenate([t.traversal for t in enc_times])
        decode_traversal = np.concatenate([t.traversal for t in dec_times])
        kv_layers = (
            self.model.num_decoder_layers
            if not self.model.is_encoder_decoder
            else 1
        )
        kv_transfer = self.profile.kv_transfer_time_batch(b_e, avg_input, kv_layers)

        iteration_period = np.maximum(decode_period, encode_period)
        positive = iteration_period > 0
        safe_period = np.where(positive, iteration_period, 1.0)
        throughput_seq = np.where(positive, b_e / safe_period, 0.0)
        throughput_tok = np.where(positive, b_d / safe_period, 0.0)

        latency = (
            encode_period
            + encode_traversal
            + kv_transfer
            + max(target - 1, 0) * iteration_period
            + decode_traversal
        )

        self._store_columns(
            priced,
            placements,
            points,
            encode_batch=b_e,
            decode_batch=b_d,
            throughput_seq=throughput_seq,
            throughput_tok=throughput_tok,
            latency=latency,
            cycle_time=iteration_period,
        )

    def _store_columns(
        self,
        priced: EstimateColumns,
        placements: list[Placement],
        points: list[np.ndarray],
        *,
        encode_batch: np.ndarray,
        decode_batch: np.ndarray,
        throughput_seq: np.ndarray,
        throughput_tok: np.ndarray,
        latency: np.ndarray,
        cycle_time: np.ndarray,
    ) -> None:
        """Write one pass's arrays into ``priced``.

        The pass's points are ``points[0]``, then ``points[1]``, ... of the
        call; the points of ``points[g]`` share ``placements[g]``, whose
        memory columns give their feasibility and lazy per-stage breakdown.
        """
        ctx = self.context
        call = np.concatenate(points)
        priced.latency_s[call] = latency
        priced.throughput_seq_per_s[call] = throughput_seq
        priced.throughput_tokens_per_s[call] = throughput_tok
        priced.decode_batch[call] = decode_batch
        priced.cycle_time_s[call] = cycle_time
        for placement, group_points, part in zip(
            placements, points, _slices([len(p) for p in points])
        ):
            memory = estimate_memory_columns(
                placement,
                encode_batch=encode_batch[part],
                decode_batch=decode_batch[part],
                avg_input_len=ctx.avg_input,
                avg_context_len=ctx.avg_context,
            )
            priced._add_part(group_points, placement, memory)
