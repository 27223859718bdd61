"""Unified iteration-graph execution engine.

Every driver in this repository -- the offline :class:`~repro.core.runner.XRunner`
replaying RRA/WAA schedules, the continuous-batching baselines
(ORCA/vLLM/FasterTransformer/DSI) and the online arrival-driven servers --
expresses its schedule as the same kind of structure: chains of per-stage
tasks on the discrete-event :class:`~repro.engine.timeline.Timeline`, with
micro-batch splitting, early-termination compaction, WAA encoder→decoder
KV handover and deferred timestamp bookkeeping.  Before this module each
driver hand-rolled that construction, so the offline and online simulators
(and the baselines) could silently diverge on the same cost model.

:class:`ExecutionEngine` is the one implementation of those semantics.
Drivers describe one scheduling cycle declaratively as an
:class:`IterationPlan` -- encode chains, pipelined decode iterations, mixed
continuous-batching iterations, KV transfers -- and ``commit()`` prices and
emits the cycle's tasks:

* **Construction** is shared: per-stage task chaining, dependency wiring
  (pipeline hand-offs, autoregressive feedback, merge/transfer edges),
  micro-batch iteration, compaction after early termination, and the
  first-token/completion bookkeeping all live here.
* **Pricing** is one formula: a work item (stage, batch, length) costs
  ``layers * (per_layer + sync)`` from the profile, plus the driver's
  per-iteration overhead when positive -- the stage time of the
  simulator's cost model, whose scalar form is the test suite's oracle
  (``tests/reference/simulator.py``).  :func:`price_item` prices one item
  from plain floats; :func:`price_columns` prices a plan's columnar buffer,
  through :func:`price_item` under :data:`SMALL_PLAN_ITEMS` items and
  otherwise with one vectorized grid interpolation per (phase,
  TP-signature) group -- the batched profile lookups that power
  :meth:`~repro.core.simulator.XSimulator.estimate_batch`.  The batched
  lookups are element-wise bit-identical to the scalar ones (see
  :meth:`MeasurementGrid.lookup_batch`), and tasks are emitted in plan
  order, so the pricer a plan takes is invisible in the results (replays
  are pinned by ``tests/core/test_runner_parity.py``).
* **Templates** skip the plan where a cycle's shape is fixed.  An online
  continuous-batching cycle -- a decode step of the running batch plus at
  most a few single-request prefills -- is one
  :meth:`ExecutionEngine.mixed_decode_template` call that prices each
  component straight from Python floats through :func:`price_item` (the
  scalar pricer's per-item arithmetic) and adds its stage tasks to the
  timeline directly; fixed decode runs -- an RRA cycle's ``N_D``
  iterations, a FasterTransformer/DSI batch's fixed-slot decode -- go out
  through the bulk :meth:`ExecutionEngine.decode_run`.  Both emit what the
  plan path would, bit for bit.
* **Cycles** are shared: each ExeGPT policy has one cycle body,
  :meth:`ExecutionEngine.rra_cycle` and :meth:`ExecutionEngine.waa_cycle`,
  which the offline runner and the online server both call.  WAA plans
  one decode iteration per cycle into a caller-owned plan: the offline
  replay commits one plan for the whole replay, the online server one per
  cycle.

Timestamp decisions never feed back into construction *within* a cycle
(admission and completion depend only on request state), which is what
makes the collect-then-price design exact; online drivers query the clock
only between committed cycles.

Request lifecycle state lives in a :mod:`~repro.engine.pool` request pool:
the engine's helpers take *id arrays* (micro-batch groups, admitted
batches, alive sets) and resolve batch sizes, context sums and
advancement through the pool's vectorized columns; bookkeeping stamps
timestamps straight into the pool's timestamp columns at resolve time.
The engine only calls the pool's interface, so the per-object reference
pool of the test suite (``tests/reference/pool.py``) runs the same replays
byte-for-byte identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.allocation import Placement, StagePlan
from repro.core.profiler import ProfileTable
from repro.engine.batching import split_ids
from repro.engine.pool import EMPTY_IDS
from repro.engine.timeline import NO_DEP, Timeline

# ---------------------------------------------------------------------------
# Priced work items
# ---------------------------------------------------------------------------


# Integer kind codes of the columnar work buffer (kind column, int8).
KIND_ENCODE = 0
KIND_DECODE = 1

# Scalar/batched pricing crossover.  Below this many work items a vectorized
# lookup costs more than it saves: packing the query arrays, grouping them
# and the wider ``lookup_batch`` kernel carry a fixed overhead of about
# 100 us per plan, while a plain-float scalar lookup costs a few us per
# item.  The value is *measured*, not guessed: the ``pricing_crossover``
# series in ``benchmarks/perf/harness.py`` times both pricers over plan
# sizes 1..64.  On a 2-vCPU x86 host the scalar loop still wins at 24
# mixed encode/decode items (~89-103 us vs ~102-116 us per plan) and the
# batched path has overtaken it by 32 (~93-104 us vs ~108-196 us), hence
# 28.  Both pricers are element-wise bit-identical, so the choice is
# invisible in the results.
SMALL_PLAN_ITEMS = 28


class PlanColumns:
    """Preallocated columnar (structure-of-arrays) buffer of work items.

    One slot per work item: ``kind`` (int8 code: :data:`KIND_ENCODE` or
    :data:`KIND_DECODE`, which profile grid prices it), ``layers``/``tp``
    (int64: layers the stage hosts for the phase, its TP degree),
    ``spans`` (bool: whether its TP group crosses a node boundary),
    ``batch``/``length`` (float64: the (micro-)batch size, and its average
    input or attention-context length).  The buffer grows by doubling and
    is *reset*, never reallocated, between cycles -- the engine hands the
    same buffer to every plan it builds, so steady-state serving performs
    zero per-cycle allocation for plan storage.
    """

    __slots__ = ("kind", "layers", "tp", "spans", "batch", "length", "count")

    def __init__(self, capacity: int = 64) -> None:
        capacity = max(int(capacity), 1)
        self.kind = np.zeros(capacity, dtype=np.int8)
        self.layers = np.zeros(capacity, dtype=np.int64)
        self.tp = np.zeros(capacity, dtype=np.int64)
        self.spans = np.zeros(capacity, dtype=bool)
        self.batch = np.zeros(capacity, dtype=np.float64)
        self.length = np.zeros(capacity, dtype=np.float64)
        self.count = 0

    def reset(self) -> None:
        """Empty the buffer without releasing its capacity."""
        self.count = 0

    def _ensure(self, extra: int) -> None:
        need = self.count + extra
        cap = self.batch.size
        if need <= cap:
            return
        new_cap = max(cap * 2, need)
        for name in self.__slots__[:-1]:
            old = getattr(self, name)
            grown = np.zeros(new_cap, dtype=old.dtype)
            grown[: self.count] = old[: self.count]
            setattr(self, name, grown)

    def push(
        self,
        kind: int,
        layers: int,
        tp: int,
        spans: bool,
        batch: float,
        length: float,
    ) -> int:
        """Append one item; returns its slot index."""
        i = self.count
        if i >= self.batch.size:
            self._ensure(1)
        self.kind[i] = kind
        self.layers[i] = layers
        self.tp[i] = tp
        self.spans[i] = spans
        self.batch[i] = batch
        self.length[i] = length
        self.count = i + 1
        return i

    def extend(
        self,
        kind: int,
        layers: int,
        tp: int,
        spans: bool,
        batch: np.ndarray,
        length: np.ndarray,
    ) -> int:
        """Bulk-append items sharing scalar kind/layers/tp/spans; returns start."""
        m = len(batch)
        start = self.count
        self._ensure(m)
        sl = slice(start, start + m)
        self.kind[sl] = kind
        self.layers[sl] = layers
        self.tp[sl] = tp
        self.spans[sl] = spans
        self.batch[sl] = batch
        self.length[sl] = length
        self.count = start + m
        return start


def price_item(
    profile: ProfileTable,
    kind: int,
    layers: int,
    tp: int,
    spans: bool,
    batch: float,
    length: float,
    overhead_s: float,
) -> float:
    """Duration of one work item, from plain Python scalars.

    ``layers * (per_layer + sync)`` through the scalar profile lookups,
    plus ``overhead_s`` when that base time is positive; an item without
    layers or batch costs nothing.  ``kind`` is :data:`KIND_ENCODE` or
    :data:`KIND_DECODE`; ``batch`` and ``length`` must be floats, as the
    columnar buffer would store them, for the result to equal
    :func:`price_columns` bit for bit.
    """
    if batch <= 0 or layers == 0:
        return 0.0
    if kind == KIND_ENCODE:
        per = profile.encode_layer_time(tp, batch, length)
        sync = profile.encode_sync_time(tp, batch, length, spans)
    else:
        per = profile.decode_layer_time(tp, batch, length)
        sync = profile.decode_sync_time(tp, batch, spans)
    base = layers * (per + sync)
    return base + (overhead_s if base > 0 else 0.0)


def _price_positions_scalar(
    profile: ProfileTable,
    cols: PlanColumns,
    positions,
    overhead_s: float,
    out: np.ndarray,
) -> None:
    """Price ``positions`` of ``cols`` through :func:`price_item`."""
    kind = cols.kind
    layers = cols.layers
    tp_col = cols.tp
    spans_col = cols.spans
    batch_col = cols.batch
    length_col = cols.length
    for pos in positions:
        out[pos] = price_item(
            profile,
            int(kind[pos]),
            int(layers[pos]),
            int(tp_col[pos]),
            bool(spans_col[pos]),
            float(batch_col[pos]),
            float(length_col[pos]),
            overhead_s,
        )


def _price_positions_batched(
    profile: ProfileTable,
    cols: PlanColumns,
    positions: np.ndarray,
    overhead_s: float,
    out: np.ndarray,
) -> None:
    """Price ``positions`` of ``cols``, one vectorized lookup per group.

    Group-by is an argsort over a composite ``(kind, tp, spans)`` key code
    instead of a ``dict.setdefault`` loop; element-wise results are
    independent of the grouping, so this matches the scalar path bit for
    bit (see :meth:`MeasurementGrid.lookup_batch`).
    """
    code = (
        (cols.kind[positions].astype(np.int64) << 33)
        | (cols.tp[positions] << 1)
        | cols.spans[positions]
    )
    order = np.argsort(code, kind="stable")
    sorted_pos = positions[order]
    sorted_code = code[order]
    boundaries = np.flatnonzero(np.diff(sorted_code)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [sorted_code.size]))
    for s, e in zip(starts, ends):
        grp = sorted_pos[s:e]
        first = grp[0]
        tp = int(cols.tp[first])
        spans = bool(cols.spans[first])
        batch = cols.batch[grp]
        length = cols.length[grp]
        layers = cols.layers[grp].astype(float)
        if cols.kind[first] == KIND_ENCODE:
            per = profile.encode_layer_time_batch(tp, batch, length)
            sync = profile.encode_sync_time_batch(tp, batch, length, spans)
        else:
            per = profile.decode_layer_time_batch(tp, batch, length)
            sync = profile.decode_sync_time_batch(tp, batch, spans)
        base = layers * (per + sync)
        if overhead_s:
            base = np.where(base > 0, base + overhead_s, base)
        out[grp] = base


def price_columns(
    profile: ProfileTable,
    cols: PlanColumns,
    overhead_s: float = 0.0,
) -> np.ndarray:
    """Durations of a columnar work buffer.

    Each item costs what :func:`price_item` gives it: ``layers *
    (per_layer + sync)``, plus ``overhead_s`` on components with a positive
    base time (the baselines' per-iteration engine overhead).
    Buffers under :data:`SMALL_PLAN_ITEMS` items are priced through the
    scalar profile lookups, larger ones through one vectorized lookup per
    group; the two pricers agree bit for bit.
    """
    n = cols.count
    out = np.zeros(n)
    if n == 0:
        return out
    if n < SMALL_PLAN_ITEMS:
        _price_positions_scalar(profile, cols, range(n), overhead_s, out)
    else:
        _price_positions_batched(profile, cols, np.arange(n), overhead_s, out)
    return out


# ---------------------------------------------------------------------------
# Declarative iteration plans
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TaskRef:
    """Handle for a planned task; its timeline id is assigned at commit."""

    task_id: int = -1

    @property
    def committed(self) -> bool:
        """Whether the owning plan has been committed."""
        return self.task_id >= 0


@dataclass(slots=True)
class _PlannedTask:
    """One task of an iteration plan, before pricing/emission.

    ``work_start``/``work_count`` index the owning plan's columnar work
    buffer; a fixed-duration task has an empty span.
    """

    stage: object
    work_start: int
    work_count: int
    fixed_s: float
    deps: list[object]
    tag: str
    bucket: str | None
    release_s: float
    ref: TaskRef = field(default_factory=TaskRef)


class IterationPlan:
    """Declarative description of one scheduling cycle's task graph.

    Tasks are appended through the engine's chain/iteration helpers (or
    :meth:`add_task` directly) and hold :class:`TaskRef` placeholders.
    Work items live in a columnar :class:`PlanColumns` buffer -- engine
    helpers push scalars straight into the columns and register the span
    with :meth:`add_span_task`, so steady-state cycles build no per-item
    objects at all.  :meth:`ExecutionEngine.commit` prices the whole
    buffer in batched profile lookups and emits the tasks onto the
    timeline in plan order.
    """

    def __init__(self, columns: PlanColumns | None = None) -> None:
        self.tasks: list[_PlannedTask] = []
        self.columns = columns if columns is not None else PlanColumns()
        self.committed = False

    def add_task(
        self,
        stage: object,
        fixed_s: float = 0.0,
        deps: list[object] | tuple[object, ...] = (),
        tag: str = "",
        bucket: str | None = None,
        release_s: float = 0.0,
    ) -> TaskRef:
        """Append one fixed-duration task (no priced work); ``deps`` may
        mix TaskRefs and task ids."""
        return self.add_span_task(
            stage, self.columns.count, fixed_s, deps, tag, bucket, release_s
        )

    def add_span_task(
        self,
        stage: object,
        work_start: int,
        fixed_s: float = 0.0,
        deps: list[object] | tuple[object, ...] = (),
        tag: str = "",
        bucket: str | None = None,
        release_s: float = 0.0,
    ) -> TaskRef:
        """Append a task whose work is ``columns[work_start:count]``.

        The caller has already pushed the task's items onto
        :attr:`columns`; this just records the span boundary.
        """
        if self.committed:
            raise RuntimeError("cannot add tasks to a committed plan")
        task = _PlannedTask(
            stage=stage,
            work_start=work_start,
            work_count=self.columns.count - work_start,
            fixed_s=fixed_s,
            deps=list(deps),
            tag=tag,
            bucket=bucket,
            release_s=release_s,
        )
        self.tasks.append(task)
        return task.ref

    @property
    def num_tasks(self) -> int:
        """Planned tasks so far."""
        return len(self.tasks)


def _dep_id(dep: object) -> int:
    if isinstance(dep, TaskRef):
        if not dep.committed:
            raise ValueError("dependency TaskRef belongs to an uncommitted plan")
        return dep.task_id
    return int(dep)


# ---------------------------------------------------------------------------
# Bookkeeping and WAA handover
# ---------------------------------------------------------------------------


#: Bookkeeping entries of one event kind: ``(ids, task)`` pairs, where
#: ``task`` is one :class:`TaskRef` or task id for the whole id batch, or
#: an int64 array of per-id task ids (a bulk decode run's completions).
Events = list[tuple[np.ndarray, TaskRef | int | np.ndarray]]


def _event_columns(entries: Events) -> tuple[np.ndarray, np.ndarray]:
    """Every id recorded in ``entries`` and the task id stamping it, in
    record order."""
    if not entries:
        return EMPTY_IDS, EMPTY_IDS
    per_batch = []
    per_id = []
    for k, (_, task) in enumerate(entries):
        if isinstance(task, np.ndarray):
            per_batch.append(-1)
            per_id.append(k)
        else:
            per_batch.append(_dep_id(task))
    sizes = np.fromiter((ids.size for ids, _ in entries), dtype=np.int64, count=len(entries))
    tasks = np.repeat(np.asarray(per_batch, dtype=np.int64), sizes)
    if per_id:
        ends = np.cumsum(sizes)
        for k in per_id:
            tasks[ends[k] - sizes[k]:ends[k]] = entries[k][1]
    return np.concatenate([ids for ids, _ in entries]), tasks


class Bookkeeping:
    """Deferred timestamp assignments resolved after the timeline runs.

    Construction-time decisions never depend on task times, so drivers
    record (id-batch, task) pairs while building and resolve them once at
    the end: encode starts map to task *start* times, first tokens and
    completions to task *finish* times.  Each event kind resolves as one
    gather of task times and one scatter into the timestamp columns; an id
    recorded twice (a request requeued onto the same replica) keeps its
    later event's time.
    """

    def __init__(self, pool) -> None:
        self.pool = pool
        self.encode_starts: Events = []
        self.first_tokens: Events = []
        self.completions: Events = []

    def resolve(self, timeline: Timeline) -> None:
        """Offline semantics: stamp the pool's timestamp columns."""
        timeline.run()
        ids, tasks = _event_columns(self.encode_starts)
        self.pool.stamp_encode_start(ids, timeline.start_times(tasks))
        ids, tasks = _event_columns(self.completions)
        self.pool.stamp_finish(ids, timeline.finish_times(tasks))

    def resolve_events(self, timeline: Timeline):
        """Online semantics: yield one ``(event, ids, times)`` triple per
        event kind.

        Events are ``"admitted"`` (task start), ``"first_token"`` and
        ``"finish"`` (task finishes); ``ids`` holds every recorded id of
        that kind in record order and ``times`` the matching time of each.
        The serving layer maps them onto its per-request records.
        """
        ids, tasks = _event_columns(self.encode_starts)
        yield "admitted", ids, timeline.start_times(tasks)
        ids, tasks = _event_columns(self.first_tokens)
        yield "first_token", ids, timeline.finish_times(tasks)
        ids, tasks = _event_columns(self.completions)
        yield "finish", ids, timeline.finish_times(tasks)


class KVHandover:
    """WAA encoder→decoder handover queue.

    Encoded batches (id arrays) wait here until their KV transfer may
    merge into the decode pool; at most one batch merges per decode
    iteration (the handover granularity of WAA), and a batch whose
    transfer was issued in the *current* iteration only merges early when
    the pool is empty.
    """

    def __init__(self) -> None:
        self._incoming: list[tuple[np.ndarray, TaskRef]] = []

    def push(self, ids: np.ndarray, transfer: TaskRef) -> None:
        """Queue an encoded id batch behind its KV-transfer task."""
        self._incoming.append((ids, transfer))

    def merge_one(
        self,
        pool_ids: np.ndarray,
        latest_transfer: TaskRef | None,
    ) -> tuple[np.ndarray, list[TaskRef]]:
        """Merge at most one ready batch into the alive set ``pool_ids``.

        Returns ``(new_pool_ids, deps)`` where ``deps`` is the merge
        dependency (the batch's transfer task) the next decode iteration
        must wait on; ``deps`` is empty when nothing merged.
        """
        if not self._incoming:
            return pool_ids, []
        ids, transfer = self._incoming[0]
        if transfer is latest_transfer and pool_ids.size:
            return pool_ids, []
        self._incoming.pop(0)
        return np.concatenate([pool_ids, ids]), [transfer]

    def pending_ids(self) -> np.ndarray:
        """Ids of every queued batch (encoded, not yet merged), in order."""
        if not self._incoming:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([ids for ids, _ in self._incoming])

    @property
    def pending_count(self) -> int:
        """Total ids queued across batches (no concatenation)."""
        return sum(ids.size for ids, _ in self._incoming)

    def __bool__(self) -> bool:
        return bool(self._incoming)

    def __len__(self) -> int:
        return len(self._incoming)


# ---------------------------------------------------------------------------
# Outcomes of the iteration helpers
# ---------------------------------------------------------------------------


@dataclass
class DecodeOutcome:
    """Result of planning one pipelined decode iteration.

    Attributes:
        any_alive: Whether any micro-batch still had live requests.
        freed: Requests that completed (slots freed for admission).
    """

    any_alive: bool
    freed: int


@dataclass
class MixedOutcome:
    """Result of planning one continuous-batching iteration.

    Attributes:
        first: First stage task of the iteration (admission timestamps).
        last: Last stage task (first-token/completion timestamps).
        completed: Ids of requests that finished in this iteration.
    """

    first: TaskRef | None
    last: TaskRef | None
    completed: np.ndarray


def _identity_key(stage: StagePlan) -> object:
    return stage.stage_id


def _encoder_key(stage: StagePlan) -> object:
    # WAA's encoder and decoder stages are separate timeline resources.
    return ("enc", stage.stage_id)


def _decoder_key(stage: StagePlan) -> object:
    return ("dec", stage.stage_id)


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class ExecutionEngine:
    """Builds iteration graphs on a timeline for one driver run.

    Args:
        timeline: The discrete-event timeline tasks are emitted onto.
        profile: Profiled per-layer times pricing the stage tasks.
        placement: The GPU/layer placement whose stages execute the tasks.
        pool: The request pool holding the run's lifecycle columns; every
            group/batch argument of the iteration helpers is an array of
            this pool's ids.
        decoder_only: Whether attention contexts include the prompt.
        overhead_s: Fixed per-component engine overhead (baselines).
    """

    def __init__(
        self,
        timeline: Timeline,
        profile: ProfileTable,
        placement: Placement,
        pool,
        decoder_only: bool,
        overhead_s: float = 0.0,
    ) -> None:
        self.timeline = timeline
        self.profile = profile
        self.placement = placement
        self.pool = pool
        self.decoder_only = decoder_only
        self.overhead_s = overhead_s
        self.bookkeeping = Bookkeeping(pool)
        self.stage_times: dict[str, list[float]] = {"encode": [], "decode": []}
        self.peak_kv_tokens: dict[int, float] = {
            s.stage_id: 0.0 for s in placement.stages
        }
        # Reusable columnar buffers: one for the plan under construction,
        # one scratch buffer for the bulk decode_run.  Reset, not
        # reallocated.
        self._plan_columns = PlanColumns(128)
        self._columns_owner: IterationPlan | None = None
        self._scratch_columns = PlanColumns(256)

    # -- plan lifecycle ---------------------------------------------------------

    def plan(self) -> IterationPlan:
        """Start a new (empty) iteration plan.

        The engine's reusable columnar buffer backs the plan whenever the
        previous plan built on it has been committed; otherwise (two plans
        in flight -- unusual, but legal) the new plan gets its own buffer.
        """
        owner = self._columns_owner
        if owner is None or owner.committed:
            self._plan_columns.reset()
            plan = IterationPlan(self._plan_columns)
            self._columns_owner = plan
            return plan
        return IterationPlan()

    def commit(self, plan: IterationPlan) -> None:
        """Price the plan's work and emit its tasks.

        Durations are resolved straight from the plan's columnar buffer by
        :func:`price_columns` (scalar lookups for small plans, otherwise
        one vectorized grid interpolation per (phase, TP-signature) group);
        tasks are then added to the timeline in plan order (preserving the
        per-stage FIFO semantics of the scalar construction), their
        :class:`TaskRef` handles are filled in, and per-phase stage times
        are recorded for the Table 7 variance analysis.
        """
        if plan.committed:
            raise RuntimeError("plan was already committed")
        cols = plan.columns
        priced = price_columns(self.profile, cols, self.overhead_s).tolist()
        timeline = self.timeline
        stage_code = timeline.stage_code
        tag_code = timeline.tag_code
        tasks = plan.tasks
        first = timeline.num_tasks
        codes, durations, preds, tags, releases = [], [], [], [], []
        deps: dict[int, list[int]] = {}
        try:
            for row, task in enumerate(tasks):
                # Ids are positional, so a ref is valid once its task's row
                # is reached; a ref to a later task of the plan still fails.
                task.ref.task_id = first + row
                duration = task.fixed_s
                for pos in range(task.work_start, task.work_start + task.work_count):
                    duration += priced[pos]
                durations.append(duration)
                task_deps = task.deps
                if len(task_deps) == 1:
                    preds.append(_dep_id(task_deps[0]))
                else:
                    preds.append(NO_DEP)
                    if task_deps:
                        deps[row] = [_dep_id(d) for d in task_deps]
                codes.append(stage_code(task.stage))
                tags.append(tag_code(task.tag))
                releases.append(task.release_s)
            timeline.add_tasks(codes, durations, preds, tags, releases, deps)
        except BaseException:
            # Nothing was emitted: no ref of the plan may look committed.
            for task in tasks:
                task.ref.task_id = -1
            raise
        for task, duration in zip(tasks, durations):
            if task.bucket is not None:
                self.stage_times[task.bucket].append(duration)
        plan.committed = True

    # -- encode construction -----------------------------------------------------

    def encode_chain(
        self,
        plan: IterationPlan,
        stages: tuple[StagePlan, ...],
        group: np.ndarray,
        stage_key=None,
        release_s: float = 0.0,
    ) -> tuple[TaskRef, TaskRef]:
        """Chain one encode (micro-)batch of pool ids across ``stages``.

        Tasks depend on their predecessor in the chain; the first task
        carries the release time (online admission clock).  Encode-start
        bookkeeping is recorded for the whole id batch against the first
        task.  An encode-only stage (WAA's encoder side) raises its peak KV
        tokens to the batch's prompt tokens, which it holds until the KV
        transfer; a stage that also decodes counts that KV through the
        decode contexts of the iterations that follow.  Returns ``(first,
        last)`` refs.
        """
        if group.size == 0:
            raise ValueError("encode_chain needs a non-empty group")
        key = stage_key or _identity_key
        avg_input = self.pool.average_input(group)
        placement = self.placement
        cols = plan.columns
        kv_tokens = float(group.size * avg_input)
        peak = self.peak_kv_tokens
        prev: TaskRef | None = None
        first: TaskRef | None = None
        for stage in stages:
            start = cols.push(
                KIND_ENCODE,
                stage.encoder_layers,
                stage.tp_degree,
                placement.stage_spans_nodes(stage),
                group.size,
                avg_input,
            )
            ref = plan.add_span_task(
                key(stage),
                start,
                deps=[prev] if prev is not None else [],
                tag="encode",
                bucket="encode",
                release_s=release_s if prev is None else 0.0,
            )
            if stage.role == "encode":
                peak[stage.stage_id] = max(peak.get(stage.stage_id, 0.0), kv_tokens)
            if first is None:
                first = ref
            prev = ref
        self.bookkeeping.encode_starts.append((group, first))
        return first, prev

    def encode_phase(
        self,
        plan: IterationPlan,
        stages: tuple[StagePlan, ...],
        groups: list[np.ndarray],
        stage_key=None,
        release_s: float = 0.0,
    ) -> list[TaskRef]:
        """Encode several micro-batches; returns each chain's last task."""
        last_tasks: list[TaskRef] = []
        for group in groups:
            _, last = self.encode_chain(
                plan, stages, group, stage_key=stage_key, release_s=release_s
            )
            last_tasks.append(last)
        return last_tasks

    def kv_transfer(
        self,
        plan: IterationPlan,
        group: np.ndarray,
        dep: TaskRef,
        kv_layers: int,
        handover: KVHandover | None = None,
        stage: object = "kv-transfer",
    ) -> TaskRef:
        """WAA encoder→decoder KV-cache transfer of one encoded batch.

        The transfer is a fixed-duration task on the host-staging link,
        dependent on the encode chain's last task; when ``handover`` is
        given the id batch is queued for a later :meth:`KVHandover.merge_one`.
        """
        duration = self.profile.kv_transfer_time(
            group.size, self.pool.average_input(group), kv_layers
        )
        ref = plan.add_task(
            stage, fixed_s=duration, deps=[dep], tag="kv-transfer"
        )
        if handover is not None:
            handover.push(group, ref)
        return ref

    # -- decode construction -------------------------------------------------------

    def decode_iteration(
        self,
        plan: IterationPlan,
        stages: tuple[StagePlan, ...],
        groups: list[np.ndarray],
        first_deps: list[object] = (),
        prev_last: dict[int, object] | None = None,
        stage_key=None,
        release_s: float = 0.0,
    ) -> DecodeOutcome:
        """One pipelined, early-terminating decode iteration over ``groups``.

        Each group's chain depends on ``first_deps`` (encode hand-offs or
        WAA merges) plus the group's previous-iteration tail from
        ``prev_last`` (autoregressive feedback; updated in place).  The
        pool advances every live member one token; finished requests leave
        the batch (mask compaction, no per-request scans) and a
        KV-compaction task closes the holes they leave (appended to the
        group's chain tail).  The WAA cycle (:meth:`waa_cycle`) is the
        production caller.
        """
        key = stage_key or _identity_key
        pool = self.pool
        prev_last = prev_last if prev_last is not None else {}
        freed = 0
        any_alive = False
        placement = self.placement
        peak = self.peak_kv_tokens
        cols = plan.columns
        for g_index, group in enumerate(groups):
            # One fused pool pass per group: alive filtering, context sums
            # and the one-token advance with first/completion detection.
            step = pool.decode_step(group, self.decoder_only)
            if step is None:
                continue
            any_alive = True
            avg_ctx = step.avg_context
            kv_tokens = float(step.context_tokens)
            deps_first: list[object] = list(first_deps)
            if g_index in prev_last:
                deps_first.append(prev_last[g_index])
            prev: TaskRef | None = None
            for stage in stages:
                start = cols.push(
                    KIND_DECODE,
                    stage.decoder_layers,
                    stage.tp_degree,
                    placement.stage_spans_nodes(stage),
                    step.batch,
                    avg_ctx,
                )
                ref = plan.add_span_task(
                    key(stage),
                    start,
                    deps=[prev] if prev is not None else deps_first,
                    tag="decode",
                    bucket="decode",
                    release_s=release_s if prev is None else 0.0,
                )
                if kv_tokens > peak.get(stage.stage_id, 0.0):
                    peak[stage.stage_id] = kv_tokens
                prev = ref
            last_decode = prev
            first_ids, completed = step.first_ids, step.completed_ids
            if first_ids.size:
                self.bookkeeping.first_tokens.append((first_ids, last_decode))
            if completed.size:
                self.bookkeeping.completions.append((completed, last_decode))
                freed += int(completed.size)
                # Compaction copies the freed entries' worth of cache to
                # close the holes left by early termination; it occupies the
                # chain's last stage.
                compaction = self.profile.kv_compaction_time(
                    completed.size,
                    pool.average_context(completed, self.decoder_only),
                    stages[-1].decoder_layers,
                )
                if compaction > 0:
                    prev = plan.add_task(
                        key(stages[-1]),
                        fixed_s=compaction,
                        deps=[prev],
                        tag="compaction",
                    )
            prev_last[g_index] = prev
        return DecodeOutcome(any_alive=any_alive, freed=freed)

    def decode_run(
        self,
        stages: tuple[StagePlan, ...],
        groups: list[np.ndarray],
        iterations: int,
        first_deps: list[object] = (),
        release_s: float = 0.0,
        early_termination: bool = True,
    ) -> DecodeOutcome:
        """Plan-free bulk decode: ``iterations`` pipelined decode iterations.

        Emits the iterations over ``groups`` directly onto the timeline.
        Per-iteration batch sizes, context sums, first tokens, completions
        and compaction loads come from one vectorized
        :meth:`~repro.engine.pool.RequestPool.decode_run` pass per group,
        and durations are priced straight from the engine's scratch columns
        through :func:`price_columns`.

        With ``early_termination`` (ExeGPT's RRA cycle) finished requests
        leave the batch, a KV-compaction task closes the holes they leave,
        and the run stops once every group drains.  Task order,
        dependencies, release stamps and bookkeeping then replicate the
        loop

        ``prev_last = {}; for i in range(iterations): decode_iteration(...,
        first_deps if i == 0 else [], prev_last, ...)``

        bit-for-bit (pinned by the template-parity serving tests).  Without
        it (FasterTransformer/DSI) the slots are fixed: every group runs
        exactly ``iterations`` iterations at its full size, finished
        requests stay in their slots without advancing, and no compaction
        runs.

        The run's tasks -- iterations x stages per group, plus each
        iteration's compaction tail -- reach the timeline in one
        :meth:`~repro.engine.timeline.Timeline.add_tasks` call, laid out
        as a (slot, stage + compaction) grid in emission order, where a
        slot is one group's iteration.  Any plan whose tasks feed
        ``first_deps`` must be committed first, since emission is
        immediate.
        """
        pool = self.pool
        timeline = self.timeline
        runs = [
            run
            for run in [
                pool.decode_run(g, self.decoder_only, iterations, early_termination)
                for g in groups
            ]
            if run is not None
        ]
        if not runs:
            return DecodeOutcome(any_alive=False, freed=0)
        n_stages = len(stages)
        tail_layers = stages[-1].decoder_layers
        placement = self.placement
        cols = self._scratch_columns
        cols.reset()
        comp_parts: list[np.ndarray] = []
        for r in runs:
            batch_f = r.batches.astype(np.float64)
            # int64/int64 division is the same correctly-rounded float64 the
            # scalar path's ``context_tokens / members.size`` produces.
            avg = r.context_tokens / r.batches
            for stage in stages:
                cols.extend(
                    KIND_DECODE, stage.decoder_layers, stage.tp_degree,
                    placement.stage_spans_nodes(stage), batch_f, avg,
                )
            comp = np.zeros(r.batches.size)
            mask = r.completed_counts > 0
            if early_termination and mask.any():
                comp[mask] = self.profile.kv_compaction_time_batch(
                    r.completed_counts[mask].astype(np.float64),
                    r.completed_context[mask] / r.completed_counts[mask],
                    tail_layers,
                )
            comp_parts.append(comp)
        priced = price_columns(self.profile, cols, self.overhead_s)
        # Slots in emission order: iteration-major, then group.  ``dec``
        # holds each slot's per-stage decode durations; groups are laid out
        # stage-major in the priced buffer.
        lengths = [r.batches.size for r in runs]
        if len(runs) == 1:
            order = None
            dec = priced.reshape(n_stages, lengths[0]).T
            comp = comp_parts[0]
        else:
            order = np.argsort(
                np.concatenate([np.arange(t) for t in lengths]), kind="stable"
            )
            bounds = np.cumsum([0] + lengths) * n_stages
            dec = np.concatenate([
                priced[lo:hi].reshape(n_stages, t).T
                for lo, hi, t in zip(bounds[:-1], bounds[1:], lengths)
            ])[order]
            comp = np.concatenate(comp_parts)[order]
        n_slots = comp.size
        has_comp = comp > 0
        width = has_comp + n_stages
        ends = np.cumsum(width)
        heads = ends - width
        first = timeline.num_tasks
        tails = first + ends - 1
        last_decode = first + heads + (n_stages - 1)
        shape = (n_slots, n_stages + 1)
        grid = np.empty(shape)
        grid[:, :n_stages] = dec
        grid[:, n_stages] = comp
        keep = np.ones(shape, dtype=bool)
        keep[:, n_stages] = has_comp
        codes = [timeline.stage_code(s.stage_id) for s in stages]
        stage_grid = np.empty(shape, dtype=np.int32)
        stage_grid[:] = codes + codes[-1:]
        tag_grid = np.empty(shape, dtype=np.int16)
        tag_grid[:, :n_stages] = timeline.tag_code("decode")
        tag_grid[:, n_stages] = timeline.tag_code("compaction")
        m = int(ends[-1])
        # Every task follows the one emitted before it, except slot heads:
        # a head follows its group's previous slot tail, and the first
        # slot of each group (the first len(runs) slots) joins
        # ``first_deps``.
        preds = np.arange(first - 1, first - 1 + m)
        n_first = len(runs)
        if order is None:
            prev_slot = np.arange(n_slots - 1)
        else:
            rank = np.empty(n_slots, dtype=np.int64)
            rank[order] = np.arange(n_slots)
            prev_slot = rank[order[n_first:] - 1]
        preds[heads[n_first:]] = tails[prev_slot]
        first_dep_ids = tuple(_dep_id(d) for d in first_deps)
        head_deps = {int(heads[slot]): first_dep_ids for slot in range(n_first)}
        releases = np.zeros(m)
        releases[heads] = release_s
        timeline.add_tasks(
            stage_grid[keep], grid[keep], preds, tag_grid[keep], releases, head_deps
        )
        self.stage_times["decode"].extend(dec.ravel().tolist())
        kv_tokens = float(max(r.context_tokens.max() for r in runs))
        peak = self.peak_kv_tokens
        for stage in stages:
            if kv_tokens > peak.get(stage.stage_id, 0.0):
                peak[stage.stage_id] = kv_tokens
        bookkeeping = self.bookkeeping
        freed = 0
        start = 0
        for slot, r in enumerate(runs):
            t = r.batches.size
            slots = np.arange(t) if order is None else rank[start:start + t]
            start += t
            if r.first_ids.size:
                bookkeeping.first_tokens.append((r.first_ids, int(last_decode[slot])))
            done = r.completed_ids
            if done.size:
                bookkeeping.completions.append(
                    (done, np.repeat(last_decode[slots], r.completed_counts))
                )
                freed += int(done.size)
        return DecodeOutcome(any_alive=True, freed=freed)

    # -- ExeGPT cycles --------------------------------------------------------------------

    def rra_cycle(
        self,
        micro_batches: int,
        decode_iterations: int,
        active: np.ndarray,
        admitted: np.ndarray,
        release_s: float = 0.0,
    ) -> tuple[np.ndarray, int]:
        """One RRA cycle: encode the admitted ids, then ``N_D`` decode
        iterations over the whole standing pool.

        The encode phase (``admitted`` split into ``micro_batches``) is one
        plan, committed at once; the decode iterations chain on its tails
        through the bulk :meth:`decode_run`.  Both carry ``release_s``.
        Returns the compacted standing pool and the count of requests the
        cycle finished.  The offline replay and the online server share
        this body and differ only in admission and release time.
        """
        stages = self.placement.stages
        plan = self.plan()
        encode_last: list[TaskRef] = []
        if admitted.size:
            encode_last = self.encode_phase(
                plan, stages, split_ids(admitted, micro_batches), release_s=release_s
            )
            active = np.concatenate([active, admitted])
        self.commit(plan)
        freed = 0
        if active.size:
            outcome = self.decode_run(
                stages,
                split_ids(active, micro_batches),
                decode_iterations,
                first_deps=encode_last,
                release_s=release_s,
            )
            freed = outcome.freed
        return self.pool.compact(active), freed

    def waa_cycle(
        self,
        plan: IterationPlan,
        micro_batches: int,
        kv_layers: int,
        active: np.ndarray,
        admitted: np.ndarray,
        handover: KVHandover,
        prev_last: dict[int, object],
        release_s: float = 0.0,
    ) -> tuple[np.ndarray, int]:
        """One WAA iteration, planned into the caller's ``plan``.

        The encoder stages encode ``admitted`` and queue its KV transfer on
        ``handover``; at most one earlier batch merges into the decode pool;
        the decoder stages then run one pipelined :meth:`decode_iteration`
        over the pool in ``micro_batches``, chained on ``prev_last``.  The
        caller commits the plan: the online server once per iteration, the
        offline replay once for the whole replay.  Returns the compacted
        decode pool and the count of requests the iteration finished.
        """
        placement = self.placement
        encode_stages = placement.encode_stages
        decode_stages = placement.decode_stages
        if not encode_stages or not decode_stages:
            raise ValueError("WAA placement needs both encode and decode stages")
        transfer: TaskRef | None = None
        if admitted.size:
            _, encode_last = self.encode_chain(
                plan, encode_stages, admitted, stage_key=_encoder_key,
                release_s=release_s,
            )
            transfer = self.kv_transfer(
                plan, admitted, encode_last, kv_layers, handover=handover
            )
        active, merge_deps = handover.merge_one(active, transfer)
        freed = 0
        if active.size:
            outcome = self.decode_iteration(
                plan,
                decode_stages,
                split_ids(active, micro_batches),
                first_deps=merge_deps,
                prev_last=prev_last,
                stage_key=_decoder_key,
                release_s=release_s,
            )
            freed = outcome.freed
        return self.pool.compact(active), freed

    # -- continuous batching ----------------------------------------------------------

    def mixed_iteration(
        self,
        plan: IterationPlan,
        stages: tuple[StagePlan, ...],
        alive: np.ndarray,
        admitted: np.ndarray,
        prev_last: object | None = None,
        release_s: float = 0.0,
    ) -> MixedOutcome:
        """One ORCA-style iteration: pool decodes + admitted prefills.

        ``alive`` and ``admitted`` are id batches; every member of
        ``alive`` must still owe tokens (callers keep their alive sets
        compacted).  Every stage task's duration sums the decode step of
        the running batch and one single-request prefill per admitted
        request (each component carrying the engine overhead), which is
        exactly what makes prefill-carrying iterations long -- the
        latency-variability effect the paper highlights.  Admission
        bookkeeping binds to the first stage task, first-token/completion
        bookkeeping to the last.  The offline ORCA/vLLM replays plan every
        cycle through here; the online server emits the same cycle without
        a plan through :meth:`mixed_decode_template`.
        """
        key = _identity_key
        pool = self.pool
        avg_ctx = (
            pool.average_context(alive, self.decoder_only) if alive.size else 0.0
        )
        prefill_lens = (
            pool.input_lens(admitted).tolist() if admitted.size else ()
        )
        placement = self.placement
        cols = plan.columns
        prev: TaskRef | None = None
        first: TaskRef | None = None
        for stage in stages:
            spans = placement.stage_spans_nodes(stage)
            start = cols.count
            if alive.size:
                cols.push(
                    KIND_DECODE, stage.decoder_layers, stage.tp_degree,
                    spans, alive.size, avg_ctx,
                )
            for input_len in prefill_lens:
                cols.push(
                    KIND_ENCODE, stage.encoder_layers, stage.tp_degree,
                    spans, 1.0, input_len,
                )
            deps: list[object] = []
            if prev is not None:
                deps.append(prev)
            elif prev_last is not None:
                deps.append(prev_last)
            ref = plan.add_span_task(
                key(stage),
                start,
                deps=deps,
                tag="iteration",
                bucket="decode" if alive.size else "encode",
                release_s=release_s if prev is None else 0.0,
            )
            if first is None:
                first = ref
            prev = ref
        if admitted.size:
            self.bookkeeping.encode_starts.append((admitted, first))
        first_ids, completed = pool.advance(alive)
        if first_ids.size:
            self.bookkeeping.first_tokens.append((first_ids, prev))
        if completed.size:
            self.bookkeeping.completions.append((completed, prev))
        return MixedOutcome(first=first, last=prev, completed=completed)

    def mixed_decode_template(
        self,
        stages: tuple[StagePlan, ...],
        alive: np.ndarray,
        prev_last: object | None = None,
        release_s: float = 0.0,
        admitted: np.ndarray = EMPTY_IDS,
    ) -> MixedOutcome:
        """One online continuous-batching cycle, emitted without a plan.

        Every cycle of the online continuous-batching server goes through
        here, admitting or not.  A cycle has a fixed shape: per stage, one
        decode component for the running batch ``alive`` (when it is
        non-empty), then one single-request prefill per ``admitted`` id,
        in the order :meth:`mixed_iteration` pushes them.  Each component
        is priced straight from Python floats by :func:`price_item`, a
        stage's duration is ``0.0`` plus its components in that order (the
        sum ``commit`` forms), and the stage tasks go onto the timeline
        one by one.  Stage times go to the ``"decode"`` bucket when the
        running batch is non-empty, else to ``"encode"``.  The first stage
        task carries ``release_s`` and depends on ``prev_last``;
        encode-start bookkeeping of ``admitted`` binds to it, first-token
        and completion bookkeeping to the last stage task.

        ``alive`` may be empty (a cycle that only admits); ``alive`` and
        ``admitted`` are not both empty.  ``prev_last`` must be committed.
        Task graph, durations, bookkeeping and stage times are
        bit-identical to ``mixed_iteration(plan, stages, alive, admitted,
        ...)`` followed by ``commit`` (pinned by the engine and serving
        template-parity tests).
        """
        pool = self.pool
        timeline = self.timeline
        profile = self.profile
        overhead_s = self.overhead_s
        placement = self.placement
        batch = float(alive.size)
        if batch:
            avg_ctx = float(pool.average_context(alive, self.decoder_only))
            stage_times = self.stage_times["decode"]
        else:
            stage_times = self.stage_times["encode"]
        prefill_lens = (
            [float(n) for n in pool.input_lens(admitted).tolist()]
            if admitted.size else ()
        )
        deps = (_dep_id(prev_last),) if prev_last is not None else ()
        release = release_s
        first_tid = last_tid = -1
        for stage in stages:
            tp = stage.tp_degree
            spans = placement.stage_spans_nodes(stage)
            duration = 0.0
            if batch:
                duration += price_item(
                    profile, KIND_DECODE, stage.decoder_layers, tp, spans,
                    batch, avg_ctx, overhead_s,
                )
            for input_len in prefill_lens:
                duration += price_item(
                    profile, KIND_ENCODE, stage.encoder_layers, tp, spans,
                    1.0, input_len, overhead_s,
                )
            last_tid = timeline.add_task(
                stage.stage_id, duration, deps, tag="iteration",
                earliest_start_s=release,
            )
            if first_tid < 0:
                first_tid = last_tid
            deps = (last_tid,)
            release = 0.0
            stage_times.append(duration)
        bookkeeping = self.bookkeeping
        if admitted.size:
            bookkeeping.encode_starts.append((admitted, first_tid))
        first_ids, completed = pool.advance(alive)
        if first_ids.size:
            bookkeeping.first_tokens.append((first_ids, last_tid))
        if completed.size:
            bookkeeping.completions.append((completed, last_tid))
        return MixedOutcome(
            first=TaskRef(first_tid), last=TaskRef(last_tid), completed=completed
        )
