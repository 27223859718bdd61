"""Deterministic pipelined-execution timeline.

The runner and every baseline express their schedule as a partially ordered
set of *stage tasks*: "stage ``j`` spends ``d`` seconds processing micro-batch
``m`` of iteration ``u``".  The :class:`Timeline` executor assigns start and
finish times respecting two constraints:

* a stage executes one task at a time, in the order the driver enqueued them
  (FIFO per stage, which is how a real pipelined runner issues work),
* a task cannot start before all its dependencies have finished (pipeline
  hand-offs, autoregressive token feedback, KV-cache transfers), and
* a task cannot start before its *release time* (``earliest_start_s``),
  which online drivers use to model request arrivals: work on a request
  admitted at wall-clock ``t`` cannot begin before ``t``.

Because every driver enqueues tasks in its own execution order, dependencies
always point backwards and the timeline can be computed in a single linear
pass, which keeps even large traces fast while still exposing pipeline
bubbles, phase-boundary drains and communication stalls.  The pass can also
run *incrementally* (:meth:`Timeline.schedule_pending`): an online driver
alternates between appending an iteration's tasks and reading their assigned
times to decide what the next iteration admits.

Tasks are stored column-wise (one numpy array per field, grown by
doubling): integer stage and tag codes, duration, release time, one
predecessor per task (plus an explicit dependency tuple for the few tasks
that join several chains), and the assigned start and finish.
:meth:`Timeline.add_tasks` appends a whole batch in one call, and the
scheduling pass computes a run of tasks that each continue their
predecessor on the same stage with one sequential ``np.cumsum`` -- the
same max/add order as the per-task loop, so the times are bit-identical.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

#: ``pred`` column value of a task without dependencies.
NO_DEP = -1
#: ``pred`` column value of a task whose dependencies live in the
#: timeline's explicit dependency map (zero or several of them).
MULTI_DEP = -2

# Runs of chained tasks shorter than this go through the per-task loop: the
# vectorized pass has a fixed cost worth about this many loop iterations.
_CHAIN_MIN = 16

# Bulk adds of at most this many rows are stored row by row.
_SMALL_BATCH = 8

_INF = float("inf")

_COLUMNS = ("_stage", "_duration", "_release", "_pred", "_tag", "_start", "_finish")


class StageTask:
    """Read-through view of one task of a :class:`Timeline`.

    Attributes read the timeline's columns on access, so a view taken
    before scheduling shows the task's times once the timeline has run.

    Attributes:
        task_id: Index assigned by the timeline when the task was added.
        stage: Identifier of the executing stage (any hashable, typically the
            stage index or a ``("encode", i)`` tuple).
        duration_s: Execution time in seconds.
        deps: Task ids that must finish before this task starts.
        tag: Free-form label used by metrics (e.g. ``"decode"``).
        earliest_start_s: Release time; the task cannot start earlier even if
            its stage and dependencies are ready (models request arrival).
        start_s / finish_s: Assigned by the timeline (-1 until scheduled).
    """

    __slots__ = ("_timeline", "task_id")

    def __init__(self, timeline: "Timeline", task_id: int) -> None:
        self._timeline = timeline
        self.task_id = task_id

    @property
    def stage(self) -> object:
        tl = self._timeline
        return tl._stage_keys[tl._stage[self.task_id]]

    @property
    def duration_s(self) -> float:
        return float(self._timeline._duration[self.task_id])

    @property
    def deps(self) -> tuple[int, ...]:
        return self._timeline._deps_of(self.task_id)

    @property
    def tag(self) -> str:
        tl = self._timeline
        return tl._tag_keys[tl._tag[self.task_id]]

    @property
    def earliest_start_s(self) -> float:
        return float(self._timeline._release[self.task_id])

    @property
    def start_s(self) -> float:
        return float(self._timeline._start[self.task_id])

    @property
    def finish_s(self) -> float:
        return float(self._timeline._finish[self.task_id])

    @property
    def scheduled(self) -> bool:
        """Whether the timeline has assigned times to this task."""
        return self.start_s >= 0.0

    def __repr__(self) -> str:
        return (
            f"StageTask(task_id={self.task_id}, stage={self.stage!r}, "
            f"duration_s={self.duration_s!r}, deps={self.deps!r}, "
            f"tag={self.tag!r}, start_s={self.start_s!r}, "
            f"finish_s={self.finish_s!r})"
        )


class Timeline:
    """Collects stage tasks and computes their start/finish times.

    Args:
        time_scale: Multiplier applied to every task duration as it is
            added.  The fleet layer uses this to model *straggler* replicas:
            a slowdown factor of 2.0 makes every iteration on that replica's
            timeline take twice as long, which the routing policies then
            observe through queue depth / outstanding work.  The default of
            1.0 leaves durations bit-identical (no multiply is performed).
            It must be finite and positive.
    """

    def __init__(self, time_scale: float = 1.0) -> None:
        if not 0 < time_scale < _INF:
            raise ValueError(
                f"time_scale must be finite and positive, got {time_scale!r}"
            )
        self._time_scale = time_scale
        capacity = 256
        self._stage = np.zeros(capacity, dtype=np.int32)
        self._duration = np.zeros(capacity)
        self._release = np.zeros(capacity)
        self._pred = np.zeros(capacity, dtype=np.int64)
        self._tag = np.zeros(capacity, dtype=np.int16)
        self._start = np.full(capacity, -1.0)
        self._finish = np.full(capacity, -1.0)
        self._multi_deps: dict[int, tuple[int, ...]] = {}
        self._stage_codes: dict[object, int] = {}
        self._stage_keys: list[object] = []
        self._tag_codes: dict[str, int] = {}
        self._tag_keys: list[str] = []
        # Per stage code: finish of the stage's last scheduled task, and its
        # summed busy time (accumulated lazily, up to task ``_busy_upto``);
        # None while the stage has no task.
        self._free: list[float | None] = []
        self._busy: list[float | None] = []
        self._busy_upto = 0
        self._n = 0
        self._scheduled = 0
        self._makespan = 0.0
        self._finalized = False

    # -- construction ---------------------------------------------------------

    def stage_code(self, stage: object) -> int:
        """Integer code of a stage key (assigned on first use)."""
        code = self._stage_codes.get(stage)
        if code is None:
            code = len(self._stage_keys)
            self._stage_codes[stage] = code
            self._stage_keys.append(stage)
            self._free.append(None)
            self._busy.append(None)
        return code

    def tag_code(self, tag: str) -> int:
        """Integer code of a task tag (assigned on first use)."""
        code = self._tag_codes.get(tag)
        if code is None:
            code = len(self._tag_keys)
            self._tag_codes[tag] = code
            self._tag_keys.append(tag)
        return code

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        capacity = self._duration.size
        if need <= capacity:
            return
        capacity = max(2 * capacity, need)
        n = self._n
        for name in _COLUMNS:
            old = getattr(self, name)
            if name in ("_start", "_finish"):
                grown = np.full(capacity, -1.0)
            else:
                grown = np.zeros(capacity, dtype=old.dtype)
            grown[:n] = old[:n]
            setattr(self, name, grown)

    def add_task(
        self,
        stage: object,
        duration_s: float,
        deps: tuple[int, ...] | list[int] = (),
        tag: str = "",
        earliest_start_s: float = 0.0,
    ) -> int:
        """Append a task and return its id.

        Raises:
            ValueError: for negative, NaN or infinite durations or release
                times, or forward dependencies.
        """
        if self._finalized:
            raise RuntimeError("cannot add tasks after the timeline was run")
        task_id = self._n
        dep_tuple = self._checked_row(task_id, duration_s, earliest_start_s, deps)
        self._write_row(
            task_id, self.stage_code(stage), duration_s, earliest_start_s,
            dep_tuple, self.tag_code(tag),
        )
        return task_id

    def _checked_row(self, task_id, duration_s, earliest_start_s, deps) -> tuple[int, ...]:
        """Validate one row; returns its dependency tuple."""
        if not 0 <= duration_s < _INF:
            raise ValueError(
                f"duration_s must be finite and non-negative, got {duration_s!r}"
            )
        if not 0 <= earliest_start_s < _INF:
            raise ValueError(
                "earliest_start_s must be finite and non-negative, "
                f"got {earliest_start_s!r}"
            )
        dep_tuple = tuple(map(int, deps))
        for dep in dep_tuple:
            if dep < 0 or dep >= task_id:
                raise ValueError(
                    f"dependency {dep} of task {task_id} must reference an "
                    "earlier task"
                )
        return dep_tuple

    def _write_row(self, task_id, code, duration_s, earliest_start_s, dep_tuple, tag_code) -> None:
        """Store one validated row as task ``task_id`` (the next id)."""
        if len(dep_tuple) == 1:
            pred = dep_tuple[0]
        elif not dep_tuple:
            pred = NO_DEP
        else:
            pred = MULTI_DEP
            self._multi_deps[task_id] = dep_tuple
        if task_id == self._duration.size:
            self._reserve(1)
        if self._time_scale != 1.0:
            duration_s = duration_s * self._time_scale
        self._stage[task_id] = code
        self._duration[task_id] = duration_s
        self._release[task_id] = earliest_start_s
        self._pred[task_id] = pred
        self._tag[task_id] = tag_code
        self._n = task_id + 1

    def add_tasks(
        self,
        stages: Sequence[int] | np.ndarray,
        durations: Sequence[float] | np.ndarray,
        preds: Sequence[int] | np.ndarray,
        tags: Sequence[int] | np.ndarray,
        releases: float | Sequence[float] | np.ndarray = 0.0,
        deps: Mapping[int, Sequence[int]] | None = None,
    ) -> int:
        """Append a batch of tasks in one call; returns the first task's id.

        Row ``j`` becomes task ``first + j``, exactly as ``len(durations)``
        successive :meth:`add_task` calls would number them.  ``stages`` and
        ``tags`` are codes from :meth:`stage_code` / :meth:`tag_code`;
        ``preds`` holds each row's single dependency (a task id, or -1 for
        none); ``releases`` is one release time for every row or one per
        row.  ``deps`` maps the rows with zero or several dependencies --
        typically chain heads joining other chains -- to their full
        dependency tuple, replacing their ``preds`` entry.  Durations are
        scaled by ``time_scale`` as in :meth:`add_task`.  Small batches
        (a committed one-task plan) are validated and stored row by row:
        at that size converting the inputs to arrays costs more than the
        loop.

        Raises:
            ValueError: for negative, NaN or infinite durations or release
                times, forward dependencies or unknown stage codes, before
                any row is added.
        """
        m = len(durations)
        first = self._n
        if m == 0:
            return first
        if self._finalized:
            raise RuntimeError("cannot add tasks after the timeline was run")
        deps = deps or {}
        if m <= _SMALL_BATCH:
            if isinstance(releases, (int, float, np.number)):
                releases = [releases] * m
            n_codes = len(self._stage_keys)
            dep_tuples = []
            for row in range(m):
                if not 0 <= stages[row] < n_codes:
                    raise ValueError("stage codes must come from stage_code()")
                pred = preds[row]
                dep_tuples.append(self._checked_row(
                    first + row, durations[row], releases[row],
                    deps[row] if row in deps else (pred,) if pred != NO_DEP else (),
                ))
            for row, dep_tuple in enumerate(dep_tuples):
                self._write_row(
                    first + row, stages[row], durations[row], releases[row],
                    dep_tuple, tags[row],
                )
            return first
        durations = np.asarray(durations, dtype=np.float64)
        # A NaN makes min() NaN, so one min and one max catch every bad row.
        if not (0 <= durations.min() and durations.max() < _INF):
            raise ValueError("duration_s must be finite and non-negative")
        if np.ndim(releases):
            releases = np.asarray(releases, dtype=np.float64)
            if not (0 <= releases.min() and releases.max() < _INF):
                raise ValueError("earliest_start_s must be finite and non-negative")
        elif not 0 <= releases < _INF:
            raise ValueError("earliest_start_s must be finite and non-negative")
        stages = np.asarray(stages, dtype=np.int32)
        if stages.min() < 0 or stages.max() >= len(self._stage_keys):
            raise ValueError("stage codes must come from stage_code()")
        preds = np.asarray(preds, dtype=np.int64)
        checked = preds
        if deps:
            checked = preds.copy()
            for row, row_deps in deps.items():
                checked[row] = NO_DEP
                self._checked_row(first + row, 0.0, 0.0, row_deps)
        # A row's dependency must be -1 (none) or an earlier task.
        ahead = checked - np.arange(first, first + m)
        if checked.min() < NO_DEP or ahead.max() >= 0:
            row = int(np.flatnonzero((checked < NO_DEP) | (ahead >= 0))[0])
            raise ValueError(
                f"dependency {int(checked[row])} of task {first + row} must "
                "reference an earlier task"
            )
        if self._time_scale != 1.0:
            durations = durations * self._time_scale
        end = first + m
        if end > self._duration.size:
            self._reserve(m)
        self._stage[first:end] = stages
        self._duration[first:end] = durations
        self._release[first:end] = releases
        self._pred[first:end] = preds
        self._tag[first:end] = tags
        for row, row_deps in deps.items():
            dep_tuple = tuple(map(int, row_deps))
            if len(dep_tuple) == 1:
                self._pred[first + row] = dep_tuple[0]
            elif not dep_tuple:
                self._pred[first + row] = NO_DEP
            else:
                self._pred[first + row] = MULTI_DEP
                self._multi_deps[first + row] = dep_tuple
        self._n = end
        return first

    def _deps_of(self, task_id: int) -> tuple[int, ...]:
        pred = int(self._pred[task_id])
        if pred >= 0:
            return (pred,)
        if pred == MULTI_DEP:
            return self._multi_deps[task_id]
        return ()

    # -- execution --------------------------------------------------------------

    def schedule_pending(self) -> None:
        """Assign start/finish times to tasks added since the last pass.

        Unlike :meth:`run` this does not finalize the timeline: more tasks may
        be added afterwards.  Online drivers interleave task construction with
        time queries this way.
        """
        lo, hi = self._scheduled, self._n
        if lo == hi:
            return
        pos = lo
        if hi - lo > _CHAIN_MIN:
            # link[j]: task lo+j+1 depends only on task lo+j, on the same
            # stage -- it starts the moment that one finishes unless its
            # release time binds.
            link = np.zeros(hi - lo + 1, dtype=bool)
            np.equal(self._pred[lo + 1:hi], np.arange(lo, hi - 1), out=link[1:-1])
            link[1:-1] &= self._stage[lo + 1:hi] == self._stage[lo:hi - 1]
            # Rising and falling edges of the False-padded link mask.
            edges = np.flatnonzero(link[1:] != link[:-1])
            for run_start, run_end in zip(edges[0::2].tolist(), edges[1::2].tolist()):
                if run_end - run_start < _CHAIN_MIN:
                    continue
                head, end = lo + run_start, lo + run_end + 1
                self._schedule_loop(pos, head + 1)
                pos = self._schedule_chain(head, end)
                while end - pos > _CHAIN_MIN:
                    # A release bound at task ``pos``: the loop schedules
                    # it, and the chain resumes behind it.
                    self._schedule_loop(pos, pos + 1)
                    pos = self._schedule_chain(pos, end)
        self._schedule_loop(pos, hi)
        self._scheduled = hi

    def _schedule_loop(self, lo: int, hi: int) -> None:
        """The per-task pass over ``[lo, hi)``."""
        stage_col, duration_col = self._stage, self._duration
        release_col, pred_col = self._release, self._pred
        start_col, finish_col = self._start, self._finish
        free = self._free
        makespan = self._makespan
        for i in range(lo, hi):
            ready = release_col.item(i)
            pred = pred_col.item(i)
            if pred >= 0:
                ready = max(ready, finish_col.item(pred))
            elif pred == MULTI_DEP:
                for dep in self._multi_deps[i]:
                    ready = max(ready, finish_col.item(dep))
            stage = stage_col.item(i)
            stage_free = free[stage]
            # A stage without tasks is free from 0, and ready >= 0 already.
            start = ready if stage_free is None else max(ready, stage_free)
            finish = start + duration_col.item(i)
            start_col[i] = start
            finish_col[i] = finish
            free[stage] = finish
            if finish > makespan:
                makespan = finish
        self._makespan = makespan

    def _schedule_chain(self, head: int, end: int) -> int:
        """Schedule tasks ``head+1 .. end-1``, each chained to the one before
        it on the same stage, after ``head`` was scheduled.

        Each task starts when its predecessor finishes, so the finishes are
        one sequential ``np.cumsum`` seeded with the head's finish -- the
        loop's additions in the loop's order.  That holds exactly while no
        release time exceeds the predecessor's finish; the run is cut at
        the first task where one does.  Returns the first task left
        unscheduled.
        """
        finish = np.cumsum(
            np.concatenate((self._finish[head:head + 1], self._duration[head + 1:end]))
        )
        binds = self._release[head + 1:end] > finish[:-1]
        count = int(binds.argmax()) if binds.any() else end - head - 1
        if count:
            stop = head + 1 + count
            self._start[head + 1:stop] = finish[:count]
            self._finish[head + 1:stop] = finish[1:count + 1]
            last = float(finish[count])
            self._free[int(self._stage[head])] = last
            if last > self._makespan:
                self._makespan = last
        return head + 1 + count

    def run(self) -> None:
        """Assign start/finish times to every task and finalize (idempotent)."""
        if self._finalized:
            return
        self.schedule_pending()
        self._finalized = True

    # -- queries ------------------------------------------------------------------

    def _index(self, task_id: int) -> int:
        """A task id outside ``[0, num_tasks)``: negative ids count from the
        end, as list indices do; anything else is out of range."""
        if -self._n <= task_id < 0:
            return task_id + self._n
        raise IndexError("task index out of range")

    def finish_time(self, task_id: int) -> float:
        """Finish time of a task (schedules pending tasks if needed)."""
        self.schedule_pending()
        if not 0 <= task_id < self._n:
            task_id = self._index(task_id)
        return self._finish.item(task_id)

    def start_time(self, task_id: int) -> float:
        """Start time of a task (schedules pending tasks if needed)."""
        self.schedule_pending()
        if not 0 <= task_id < self._n:
            task_id = self._index(task_id)
        return self._start.item(task_id)

    def finish_times(self, task_ids: np.ndarray) -> np.ndarray:
        """Finish times of a batch of tasks, as one gather."""
        self.schedule_pending()
        return self._finish[: self._n][task_ids]

    def start_times(self, task_ids: np.ndarray) -> np.ndarray:
        """Start times of a batch of tasks, as one gather."""
        self.schedule_pending()
        return self._start[: self._n][task_ids]

    def durations(self, tag: str) -> np.ndarray:
        """Durations of the tasks tagged ``tag``, in task order (a copy).

        Durations are as stored, after ``time_scale``.  Table 7 reads the
        ``"encode"`` and ``"decode"`` stage times this way.
        """
        code = self._tag_codes.get(tag)
        if code is None:
            return np.empty(0)
        n = self._n
        return self._duration[:n][self._tag[:n] == code]

    def stage_free_at(self, stage: object, default: float = 0.0) -> float:
        """Time at which a stage finishes its last scheduled task.

        Online drivers use this as the stage's wall clock when deciding what
        the next iteration can admit.
        """
        self.schedule_pending()
        code = self._stage_codes.get(stage)
        free = None if code is None else self._free[code]
        return default if free is None else free

    @property
    def tasks(self) -> tuple[StageTask, ...]:
        """Views of all tasks, in insertion order."""
        return tuple(StageTask(self, i) for i in range(self._n))

    @property
    def num_tasks(self) -> int:
        """Number of tasks added so far."""
        return self._n

    @property
    def makespan_s(self) -> float:
        """Finish time of the last-completing task (0 for an empty timeline)."""
        self.schedule_pending()
        return self._makespan

    def stage_utilization(self) -> dict[object, float]:
        """Busy-time fraction of each stage over the makespan."""
        busy = self.stage_busy_time()
        makespan = self._makespan
        if makespan <= 0:
            return {stage: 0.0 for stage in busy}
        return {
            stage: seconds / makespan for stage, seconds in sorted(
                busy.items(), key=lambda kv: str(kv[0])
            )
        }

    def stage_busy_time(self) -> dict[object, float]:
        """Total busy seconds per stage, summed in task order."""
        self.schedule_pending()
        lo, hi = self._busy_upto, self._n
        if lo < hi:
            stages = self._stage[lo:hi]
            durations = self._duration[lo:hi]
            busy = self._busy
            for code in np.unique(stages).tolist():
                prior = busy[code]
                sums = np.cumsum(np.concatenate((
                    (0.0 if prior is None else prior,), durations[stages == code]
                )))
                busy[code] = float(sums[-1])
            self._busy_upto = hi
        return {
            stage: seconds
            for stage, seconds in zip(self._stage_keys, self._busy)
            if seconds is not None
        }
