"""Plan-per-cycle online servers: the oracles of the serving fast paths.

The production servers skip plan construction where a cycle's shape is
fixed: :class:`~repro.serving.online.ContinuousBatchingOnlineServer` calls
``Orca.cycle`` without a plan, so every cycle, admitting or not, emits
through ``mixed_decode_template``, and the RRA cycle of
:class:`~repro.serving.online.ExeGPTOnlineServer`
(``ExecutionEngine.rra_cycle``) emits its decode iterations through the
bulk ``decode_run``.  The subclasses here build one
:class:`~repro.engine.execution.IterationPlan` per cycle instead and commit
it -- the continuous-batching one hands it to the same ``Orca.cycle``
(which then emits through ``mixed_iteration``), the RRA one keeps the
historical ``decode_iteration`` body -- so
``tests/serving/test_plan_templates.py`` can hold the fast paths to them
under ``==``.  Continuous batching's admission, release and compaction
are the shared body's, so only golden serves (``tests/serving/golden/``)
pin those.  WAA needs no oracle here: its production cycle (``ExecutionEngine.waa_cycle``) already
plans each iteration, and its online serves are pinned to
``tests/serving/golden/waa_online.json``.

:class:`SteppedServingLoop` is the historical per-event serving loop, the
oracle of the production loop's window batching; :func:`stepped_core`
substitutes it for ``ServingLoop`` in :mod:`repro.serving.fleet`, the one
place a loop is built.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from unittest import mock

import numpy as np

import repro.serving.fleet
from repro.engine.batching import split_ids
from repro.engine.execution import TaskRef
from repro.serving.online import (
    ContinuousBatchingOnlineServer,
    ExeGPTOnlineServer,
    ServingLoop,
)


class SteppedServingLoop(ServingLoop):
    """The per-event loop: each arrival is offered to the router at its
    own clock, as a window of one id, and every event re-scans the
    replicas' pending state.

    The production loop drains whole arrival windows and keeps pending
    flags incrementally; both must make the same decisions bit for bit.
    """

    def run(self) -> int:
        pool = self.pool
        replicas = self.replicas
        # Arrival order: (arrival_s, request_id), a pointer into one sorted
        # id array rather than a deque of objects.
        order = pool.arrival_order()
        arrival_s = pool.arrival_s
        pos = 0
        clock = 0.0
        next_ready = [0.0] * len(replicas)
        iterations = 0
        self.iteration_counts = [0] * len(replicas)
        faults = self.faults
        while True:
            if faults is not None:
                self._apply_faults(clock, next_ready)
            # Ingest: offer every arrival with arrival_s <= clock to the
            # router, one id at a time; it accounts for rejections.
            while pos < order.size and arrival_s[order[pos]] <= clock:
                self.route(order[pos:pos + 1], clock)
                pos += 1
            pending = [
                i for i, r in enumerate(replicas) if r.queue_depth or r.busy
            ]
            if not pending:
                if pos >= order.size:
                    break
                # Event-driven idle skip to the next arrival (or the next
                # fault transition, whose side effects may matter first).
                target = float(arrival_s[order[pos]])
                if faults is not None:
                    target = min(target, faults.next_time)
                clock = max(clock, target)
                continue
            index = min(pending, key=lambda i: (next_ready[i], i))
            if next_ready[index] > clock:
                # Advance the clock toward the replica's ready time, but
                # never past the next arrival: arrivals in between must be
                # routed (and rejections accounted) the moment they land --
                # an idle replica picks them up at their arrival time, not
                # when some busy replica frees up.  Fault transitions clamp
                # unconditionally: a crash between now and the ready time
                # changes who iterates next.
                target = next_ready[index]
                if pos < order.size:
                    target = min(target, float(arrival_s[order[pos]]))
                if faults is not None:
                    target = min(target, faults.next_time)
                clock = target
                continue
            next_ready[index] = max(replicas[index].iterate(clock), clock)
            self.iteration_counts[index] += 1
            iterations += 1
            if iterations > self.max_iterations:
                raise self._convergence_error(clock, pos, order.size)
        return iterations


@contextmanager
def stepped_core():
    """Serve every fleet (and single server) through
    :class:`SteppedServingLoop` inside the block."""
    with mock.patch.object(repro.serving.fleet, "ServingLoop", SteppedServingLoop):
        yield


#: The serving loops the parity suites compare: production and its oracle.
CORES = ("event", "stepped")


def serving_core(name: str):
    """A context that serves through the named loop of :data:`CORES`."""
    return stepped_core() if name == "stepped" else nullcontext()


class PlanLoopContinuousBatchingServer(ContinuousBatchingOnlineServer):
    """Continuous batching that plans and commits every cycle.

    The cycle is production's ``Orca.cycle`` handed a fresh plan, over the
    whole queue rather than its first ``max_prefills_per_iteration`` ids.
    """

    def _iterate(self, clock: float) -> float:
        engine = self._engine
        queue = self._queue
        plan = engine.plan()
        self._active, admitted, last = self.system.cycle(
            engine, self._cache, self.batch_size, self._active,
            queue.as_array(), plan=plan, prev_last=self._prev_last_task,
            release_s=clock,
        )
        engine.commit(plan)
        queue.pop_many(admitted)
        self._prev_last_task = last
        return self._timeline.finish_time(last.task_id)


class PlanLoopExeGPTServer(ExeGPTOnlineServer):
    """ExeGPT RRA serving with one plan per cycle, decode iterations
    included.

    Production WAA already plans each iteration (``waa_cycle``), so only
    the RRA cycle is overridden.
    """

    def _iterate_rra(self, clock: float) -> float:
        stages = self.placement.stages
        micro_batches = max(len(stages), 1)
        engine = self._engine

        admitted = self._admit_from_queue()

        plan = engine.plan()
        encode_last_tasks: list[TaskRef] = []
        if admitted.size:
            groups = split_ids(admitted, micro_batches)
            encode_last_tasks = engine.encode_phase(
                plan, stages, groups, release_s=clock
            )
            self._active = np.concatenate([self._active, admitted])

        self._freed_last_cycle = 0
        if self._active.size:
            groups = split_ids(self._active, micro_batches)
            prev_iter_last: dict[int, TaskRef] = {}
            for iteration in range(self.config.decode_iterations):
                outcome = engine.decode_iteration(
                    plan,
                    stages,
                    groups,
                    first_deps=encode_last_tasks if iteration == 0 else [],
                    prev_last=prev_iter_last,
                    release_s=clock,
                )
                self._freed_last_cycle += outcome.freed
                if not outcome.any_alive:
                    break
        engine.commit(plan)
        self._active = self._pool.compact(self._active)
        return self._timeline.stage_free_at(stages[0].stage_id, default=clock)
