"""Multi-replica serving: a routing fleet over ONE shared request pool.

The online drivers of :mod:`repro.serving.online` simulate one server; this
module scales them out.  A :class:`Fleet` owns

* **one shared** :class:`~repro.engine.pool.RequestPool` loaded from the
  trace (the single source of request lifecycle state),
* the **bounded admission queue**, realized as per-replica slices: each
  replica's local queue holds at most its ``max_queue`` ids, and an arrival
  is rejected at the *routing boundary* -- exactly when no routable replica
  has queue space -- so fleet and single-server rejection accounting agree
  by construction, and
* **N steppable replicas** -- any :class:`~repro.serving.online.OnlineServer`
  subclasses, homogeneous clones or per-replica schedules/placements --
  each bound to the shared pool and its own
  :class:`~repro.engine.timeline.Timeline`.

Admission is an **id handoff**: the routing policy picks a replica and the
request's id moves into that replica's local queue; the pool's columns are
never copied or partitioned.  Because every pool operation touches only the
ids it is given (see the multi-owner notes in :mod:`repro.engine.pool`),
replicas operating on disjoint id slices cannot interfere, and fleet-wide
aggregates -- queue depth, in-flight requests, outstanding work, completed
counts -- are sums of O(1) per-replica counters or the shared pool's own
counters.

Routing policies decide whole arrival windows
(:meth:`RoutingPolicy.select_batch`):

* :class:`RoundRobinRouting` -- cyclic assignment, skipping full queues.
* :class:`JoinShortestQueueRouting` -- fewest queued + in-flight requests;
  ties break on the lower replica index (deterministic).
* :class:`LeastOutstandingWorkRouting` -- smallest estimated drain time:
  the replica's outstanding tokens (queued prefill + all remaining
  generation, an O(1) counter each replica keeps exact) divided by its
  cost-model service rate (:meth:`OnlineServer.service_rate`), so
  heterogeneous replicas are compared in *time*, not tokens.

Every serve runs one :class:`~repro.serving.online.ServingLoop` behind one
:class:`WindowRouter`, and the single server is a 1-replica fleet.  The
router has one window path for arrivals and crash re-placement alike --
``admit_batch``, masked ``select_batch``, one enqueue per replica,
``note_placed_batch`` -- and halves any window a gate declines, down to a
per-id step for a declined window of one id.  A window costs work in
proportion to its size, not to its size times the replicas: JSQ cuts it
at a water level of the replicas' load streams, the router splits it into
per-replica slices with one counting sort, and each replica's result
reads the fleet's record columns through the serve's assignments
(:class:`~repro.serving.online.ReplicaRecords`) instead of copying them.

Operational realism plugs in at two fleet-level seams (see
:mod:`repro.serving.faults`): a ``faults`` schedule injects replica
crash/restart (queued + in-flight ids reclaimed through the shared pool's
``requeue`` and re-routed by the live policy) and per-replica straggler
slowdowns (timeline ``time_scale``); an ``admission`` policy may *shed*
arrivals before routing or preempt low-priority decodes.  Both are
parity-gated: with an empty schedule and no admission policy, the serve is
bit-identical to a fault-free fleet.  The conservation invariant
``offered == completed + rejected + shed`` is asserted at the end of every
serve, chaotic or not.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from itertools import accumulate
from dataclasses import dataclass

import numpy as np

from repro.engine.pool import EMPTY_IDS, RequestPool
from repro.engine.timeline import Timeline
from repro.serving.faults import AdmissionPolicy, FaultPlane, FaultSchedule
from repro.serving.online import (
    OnlineResult,
    OnlineServer,
    RecordColumns,
    ReplicaRecords,
    ServingLoop,
)
from repro.serving.sla import SLA
from repro.workloads.trace import WorkloadTrace


# ---------------------------------------------------------------------------
# Routing policies
# ---------------------------------------------------------------------------


class RoutingPolicy:
    """Base class of fleet routing policies.

    A policy sees the fleet mid-run and places each window of arrived
    request ids through :meth:`select_batch`.  It must only pick replicas
    that are *routable* (:meth:`Fleet.routable_mask` -- not down or
    warming under a fault plane; all-True without one) and have queue
    space (``queue_depth < max_queue``, counting the ids it already placed
    in the window), and return -1 for ids no such replica can take -- the
    fleet then rejects them, which is the only place a fleet rejects.
    Selection must be deterministic.  Admission decisions never interleave
    with selection: the fleet sheds a window's refused ids and routes only
    the admitted rest.
    """

    #: Registry name of the policy.
    name = "routing"

    def reset(self, fleet: "Fleet") -> None:
        """Clear per-run state before a serve."""

    def select(self, fleet: "Fleet", rid: int, clock: float) -> int | None:
        """Replica index to hand ``rid`` to, or ``None`` when all are full.

        A one-id adapter over :meth:`select_batch`, for the fleet's per-id
        step.
        """
        rids = np.full(1, rid, dtype=np.int64)
        index = int(self.select_batch(fleet, rids, clock)[0])
        return index if index >= 0 else None

    def select_batch(
        self, fleet: "Fleet", rids: np.ndarray, clock: float
    ) -> np.ndarray | None:
        """Route one window: the replica index per id of ``rids``.

        Returns the index per id, in order, with -1 for ids no replica can
        take, deciding **exactly** as one-id selections each followed by
        its enqueue would.  A policy may return ``None`` to decline a
        window whose decisions interact in ways its batch path does not
        follow (the fleet halves it and retries), but it must decide every
        window of one id.
        """
        raise NotImplementedError


class RoundRobinRouting(RoutingPolicy):
    """Cyclic assignment, skipping replicas whose queue is full."""

    name = "round-robin"

    def reset(self, fleet: "Fleet") -> None:
        self._next = 0

    def select_batch(
        self, fleet: "Fleet", rids: np.ndarray, clock: float
    ) -> np.ndarray | None:
        """A cyclic deal over the routable replicas with queue space.

        Sequential selection starts at the first such replica at or after
        ``self._next`` in cyclic order.  Queues only grow during a window,
        so the replicas full at its start stay skipped throughout, and the
        deal over the rest is exact while none of them fills mid-window:
        each needs ``ceil(k / open)`` free slots.  A window that fails
        that test is declined, which a window of one id never does.  A
        window of one id (the common case at low load) is the per-id scan
        from ``self._next``, with no array setup.
        """
        k = int(rids.size)
        _, space, routable = fleet.load_snapshot()
        if k == 1:
            n = len(routable)
            for offset in range(n):
                i = (self._next + offset) % n
                if routable[i] and space[i] > 0:
                    self._next = (i + 1) % n
                    return np.array([i], dtype=np.int64)
            return np.array([-1], dtype=np.int64)
        open_idx = [
            i for i, open_ in enumerate(routable) if open_ and space[i] > 0
        ]
        if not open_idx:
            # Nothing can take work: sequential selection rejects every id.
            return np.full(k, -1, dtype=np.int64)
        if min(space[i] for i in open_idx) < -(-k // len(open_idx)):
            return None
        start = bisect_left(open_idx, self._next) % len(open_idx)
        assigned = np.asarray(open_idx, dtype=np.int64)[
            (start + np.arange(k, dtype=np.int64)) % len(open_idx)
        ]
        self._next = (int(assigned[-1]) + 1) % len(routable)
        return assigned


class JoinShortestQueueRouting(RoutingPolicy):
    """Fewest outstanding *requests* (queued + in flight).

    Both terms are O(1) per replica; ties break on the lower replica
    index, so routing is deterministic.
    """

    name = "jsq"

    def select_batch(
        self, fleet: "Fleet", rids: np.ndarray, clock: float
    ) -> np.ndarray:
        """The k smallest picks of the merged load streams, by a water level.

        Sequential JSQ over a window is "assign to argmin load, then that
        load += 1": routable replica ``i`` offers the values ``load_i,
        load_i + 1, ...`` up to ``t_i = min(space_i, k)`` of them, and the
        k sequential picks are the k smallest ``(value, replica)`` pairs
        of the union of those streams -- the lower-index tie-break is the
        pair order.  When the streams hold more than k values, the cut
        sits at the smallest level ``L`` at or below which they hold k:
        each replica takes its values below ``L``, and the first replicas
        in index order whose stream holds ``L`` take one each until k are
        taken.  ``L`` comes from one walk over the ``2n`` stream ends, so
        no candidate beyond the k picks is built, and one stable sort of
        the picks' values, generated replica-major, puts them in pair
        order.
        """
        k = int(rids.size)
        loads, space, routable = fleet.load_snapshot()
        n = len(loads)
        if k <= 8:
            # Small windows (the chaos steady state: one ingest per loop
            # pass) pay more for the cut's array setup than it saves; run
            # the sequential greedy directly -- the same picks.
            loads = list(loads)
            space = list(space)
            assigned = np.full(k, -1, dtype=np.int64)
            for j in range(k):
                best = -1
                best_load = -1
                for i in range(n):
                    if routable[i] and space[i] > 0:
                        load = loads[i]
                        if best < 0 or load < best_load:
                            best, best_load = i, load
                if best < 0:
                    break
                assigned[j] = best
                loads[best] += 1
                space[best] -= 1
            return assigned
        # The cut runs on the snapshot lists: with a few dozen replicas,
        # per-call numpy overhead would cost more than the arithmetic.  A
        # replica outside the open fault window offers no stream, exactly
        # as sequential selection skips it.
        take = [
            min(free, k) if open_ and free > 0 else 0
            for free, open_ in zip(space, routable)
        ]
        total = sum(take)
        if total > k:
            # The count of stream values at or below a level grows by the
            # number of streams open there: walk the stream ends in order,
            # adding (streams open) x (run length), to the run where the
            # count reaches k.
            ends = sorted(
                [(loads[i], 1) for i in range(n) if take[i]]
                + [(loads[i] + take[i], -1) for i in range(n) if take[i]]
            )
            level = ends[0][0]
            counted = open_ = 0
            for end, step in ends:
                run = open_ * (end - level)
                if counted + run >= k:
                    break
                counted += run
                open_ += step
                level = end
            level += -(-(k - counted) // open_) - 1
            cut = [min(max(level - load, 0), t) for load, t in zip(loads, take)]
            short = k - sum(cut)
            for i in range(n):
                if short and loads[i] <= level < loads[i] + take[i]:
                    cut[i] += 1
                    short -= 1
            take, total = cut, k
        starts = accumulate(take, initial=0)
        offsets = [load - start for load, start in zip(loads, starts)]
        values = np.repeat(offsets, take) + np.arange(total)
        assigned = np.full(k, -1, dtype=np.int64)
        assigned[:total] = np.repeat(np.arange(n, dtype=np.int64), take)[
            np.argsort(values, kind="stable")
        ]
        return assigned


class LeastOutstandingWorkRouting(RoutingPolicy):
    """Smallest estimated drain time, priced via the cost model.

    Each replica's outstanding tokens (an O(1) exact counter, see
    :meth:`OnlineServer.outstanding_tokens`) are divided by its service
    rate (:meth:`OnlineServer.service_rate`, tokens/s from the replica's
    cost model, computed once per serve), so replicas with different
    schedules or placements are compared in estimated *time*.  Ties break
    on the lower replica index.
    """

    name = "least-outstanding-work"

    def reset(self, fleet: "Fleet") -> None:
        # Effective rates: the cost-model rate corrected for straggler
        # slowdown (untouched at slowdown 1.0), so a slow replica's drain
        # time is honestly longer and the policy routes around it.
        self._rates = tuple(
            max(replica.effective_service_rate(), 1e-12)
            for replica in fleet.replicas
        )

    def select_batch(
        self, fleet: "Fleet", rids: np.ndarray, clock: float
    ) -> np.ndarray:
        """Sequential one-id decisions from one heap.

        During an ingest batch no replica iterates, so each replica's
        outstanding tokens change only by the whole requests this batch
        assigns to it: an integer ``+= input + output`` per assignment.
        A heap of ``(tokens / rate, index)`` over the routable replicas
        with queue space pops the replica a one-id selection would pick
        -- the smallest cost, and the lowest index among ties -- and
        pushes it back with its new cost while it has space.  Python's
        ``int / float`` is the same division numpy runs on int64 /
        float64, so the costs are bit-identical too.
        """
        rates = self._rates
        routable = fleet.routable_mask().tolist()
        tokens = []
        space = []
        heap = []
        for i, replica in enumerate(fleet.replicas):
            tokens.append(replica.outstanding_tokens())
            space.append(replica.max_queue - replica.queue_depth)
            if routable[i] and space[i] > 0:
                heap.append((tokens[i] / rates[i], i))
        heapq.heapify(heap)
        added = fleet._pool.total_tokens(rids).tolist()
        assigned = []
        for tokens_j in added:
            if not heap:
                break
            index = heap[0][1]
            assigned.append(index)
            tokens[index] += tokens_j
            space[index] -= 1
            if space[index] > 0:
                heapq.heapreplace(heap, (tokens[index] / rates[index], index))
            else:
                heapq.heappop(heap)
        assigned.extend([-1] * (len(added) - len(assigned)))
        return np.array(assigned, dtype=np.int64)


ROUTING_POLICIES: dict[str, type[RoutingPolicy]] = {
    "round-robin": RoundRobinRouting,
    "rr": RoundRobinRouting,
    "jsq": JoinShortestQueueRouting,
    "join-shortest-queue": JoinShortestQueueRouting,
    "low": LeastOutstandingWorkRouting,
    "least-outstanding-work": LeastOutstandingWorkRouting,
}


def known_routings() -> tuple[str, ...]:
    """Names of the registered routing policies (aliases included)."""
    return tuple(sorted(ROUTING_POLICIES))


def make_routing(policy: str | RoutingPolicy) -> RoutingPolicy:
    """Instantiate a routing policy from its registry name.

    A :class:`RoutingPolicy` instance passes through unchanged (so a fleet
    can be handed a pre-configured policy object).
    """
    if isinstance(policy, RoutingPolicy):
        return policy
    key = policy.lower()
    if key not in ROUTING_POLICIES:
        known = ", ".join(known_routings())
        raise KeyError(f"unknown routing policy {policy!r}; known: {known}")
    return ROUTING_POLICIES[key]()


# ---------------------------------------------------------------------------
# Fleet result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetResult:
    """Outcome of serving one arrival-stamped trace through a fleet.

    Attributes:
        fleet: Fleet-wide :class:`OnlineResult` over every offered request
            (the result rate sweeps and SLOs are checked against).
        replicas: Per-replica :class:`OnlineResult`\\ s over the requests
            each replica served, in replica order (rejected requests
            belong to no replica).
        assignments: Replica index per pool id (-1 for rejected arrivals,
            -2 for arrivals shed by the admission policy).
        routing: Name of the routing policy that produced the assignment.
        crashes: Per-replica crash counts (None without a fault plane).
        requeued: Per-replica counts of ids reclaimed and requeued when
            that replica crashed (None without a fault plane).
    """

    fleet: OnlineResult
    replicas: tuple[OnlineResult, ...]
    assignments: np.ndarray
    routing: str
    crashes: np.ndarray | None = None
    requeued: np.ndarray | None = None

    @property
    def num_replicas(self) -> int:
        """Deployment size."""
        return len(self.replicas)

    @property
    def offered(self) -> int:
        """Requests that arrived (fleet-wide)."""
        return self.fleet.offered

    @property
    def completed(self) -> int:
        """Requests that finished generation (fleet-wide)."""
        return self.fleet.completed

    @property
    def rejected(self) -> int:
        """Arrivals rejected at the routing boundary."""
        return self.fleet.rejected

    @property
    def shed(self) -> int:
        """Arrivals dropped by the admission policy (fleet-wide)."""
        return self.fleet.shed

    @property
    def preempted(self) -> int:
        """Decode preemptions across the fleet."""
        return self.fleet.preempted

    @property
    def makespan_s(self) -> float:
        """Fleet makespan: the slowest replica's timeline."""
        return self.fleet.makespan_s

    def attainment(self, sla: SLA) -> float:
        """Fleet-wide SLO attainment over offered requests."""
        return self.fleet.attainment(sla)

    def satisfies(self, sla: SLA, max_rejection_rate: float = 0.0) -> bool:
        """Whether the fleet-wide run sustains the SLO."""
        return self.fleet.satisfies(sla, max_rejection_rate)

    def routed_counts(self) -> np.ndarray:
        """Requests routed to each replica (one bincount)."""
        placed = self.assignments[self.assignments >= 0]
        return np.bincount(placed, minlength=len(self.replicas))


# ---------------------------------------------------------------------------
# The window router
# ---------------------------------------------------------------------------


class WindowRouter:
    """Places the arrival windows and crash re-placements of one serve.

    One window path serves both.  For each window the router consults, in
    order, the admission policy's ``batch_placement_safe`` and
    ``admit_batch`` (arrivals only: crash re-placement skips admission)
    and the routing policy's ``select_batch`` over the admitted ids; only
    then does it write state: the refused ids are shed (-2), the admitted
    ones grouped by replica with one counting sort and enqueued with one
    enqueue per replica, the ids no replica could take rejected (-1), and
    the placements reported through ``note_placed_batch``.

    A gate that declines a window (``batch_placement_safe`` False, or a
    policy returning ``None``) changes nothing, so the router halves the
    window and retries, doubling the chunk again after every success: a
    uniform run of ``m`` ids costs ``O(m + replicas * log m)``.  A declined
    window of one id takes the per-id step -- ``admit``, ``select``,
    ``make_room``, ``enqueue``, ``note_placed`` -- which is where
    :class:`~repro.serving.faults.PriorityAdmissionPolicy` evicts and
    preempts.  Without an admission policy the base
    :class:`~repro.serving.faults.AdmissionPolicy` stands in (it admits
    every id and observes nothing), and without a fault plane the fleet's
    routable mask is all-True, so the path has no branch for either.
    """

    def __init__(self, fleet: "Fleet") -> None:
        self.fleet = fleet
        self.routing = fleet.routing
        self.admission = (
            fleet.admission if fleet.admission is not None
            else AdmissionPolicy()
        )
        self.records = fleet._records
        self.assignments = fleet._assignments
        # The narrowest integer type that holds every assignment (-1 ..
        # replicas - 1): numpy's stable sort of 8- and 16-bit keys is a
        # radix sort.
        self._key = np.min_scalar_type(-len(fleet.replicas))

    def route(self, rids: np.ndarray, clock: float) -> np.ndarray:
        """Place one arrival window; the replica index per id, -1 for
        rejected and -2 for shed ids."""
        return self._route(rids, clock, True)

    def on_crash(self, index: int, when: float) -> None:
        """Reclaim a crashed replica's work and re-route it.

        The fault plane has already marked the replica non-accepting, so
        nothing lands back on it.
        """
        fleet = self.fleet
        replica = fleet.replicas[index]
        queued = replica.drain_queue()
        in_flight = np.asarray(replica._in_flight_ids(), dtype=np.int64)
        replica.crash()
        if in_flight.size:
            # Rewind generation progress and stamps; raises if any id is
            # already done (resurrection), which cannot happen because
            # drivers compact completed ids out of the running batch at
            # the end of every iterate.
            fleet._pool.requeue(in_flight)
        fleet._plane.requeued[index] += queued.size + in_flight.size
        reclaimed = np.concatenate((queued, in_flight))
        if reclaimed.size:
            self._route(reclaimed, when, False)

    def diagnostics(self) -> str:
        """Convergence-failure forensics: where the router put work and
        what admission control did with the rest."""
        assignments = self.assignments
        placed = assignments[assignments >= 0]
        admitted = np.bincount(placed, minlength=len(self.fleet.replicas))
        return (
            f"per-replica admitted={admitted.tolist()}, "
            f"evicted={self.fleet._evicted.tolist()}, "
            f"shed={int(np.count_nonzero(self.records.shed))}, "
            f"rejected={int(np.count_nonzero(self.records.rejected))}"
        )

    def _route(self, rids: np.ndarray, clock: float, admit: bool) -> np.ndarray:
        """Place ``rids`` in galloping chunks of the window path."""
        n = int(rids.size)
        out = None
        start = 0
        chunk = n
        while start < n:
            end = min(start + chunk, n)
            sub = rids[start:end]
            assigned = self._window(sub, clock, admit)
            if assigned is None:
                if sub.size > 1:
                    chunk = sub.size // 2
                    continue
                assigned = np.full(
                    1, self._step(int(sub[0]), clock, admit), dtype=np.int64
                )
            if out is None:
                if end == n:
                    # The whole window in one piece: the common case.
                    return assigned
                out = np.empty(n, dtype=np.int64)
            out[start:end] = assigned
            start = end
            chunk = min(chunk * 2, n)
        return out

    def _window(
        self, rids: np.ndarray, clock: float, admit: bool
    ) -> np.ndarray | None:
        """The window path over ``rids``, or ``None`` when a gate declines
        it -- before any state changes."""
        fleet = self.fleet
        admission = self.admission
        if not admission.batch_placement_safe(fleet, rids):
            return None
        mask = None
        admitted = rids
        if admit:
            mask = admission.admit_batch(fleet, rids, clock)
            if mask is None:
                return None
            if np.count_nonzero(mask) == rids.size:
                # All-admit window (the steady state): no gathers.
                mask = None
            else:
                admitted = rids[mask]
        if admitted.size:
            assigned = self.routing.select_batch(fleet, admitted, clock)
            if assigned is None:
                return None
        else:
            assigned = EMPTY_IDS
        if mask is None:
            self._place(admitted, assigned)
            return assigned
        shed = rids[~mask]
        self.records.mark_shed_batch(shed)
        self.assignments[shed] = -2
        self._place(admitted, assigned)
        out = np.full(rids.size, -2, dtype=np.int64)
        out[mask] = assigned
        return out

    def _place(self, rids: np.ndarray, assigned: np.ndarray) -> None:
        """Commit one selection: enqueue each replica's ids, record the
        assignments (-1 included, so a reclaimed id that finds no replica
        is honestly unassigned), reject the ids no replica could take and
        report the placements."""
        replicas = self.fleet.replicas
        if rids.size <= 8:
            # Small windows: per-id appends beat the group-by setup.
            refused = False
            for rid, index in zip(rids.tolist(), assigned.tolist()):
                if index < 0:
                    refused = True
                elif not replicas[index].enqueue(rid):
                    raise self._overflow(index)
        else:
            # One counting sort groups the window by replica: contiguous
            # slices in arrival order, the unplaced (-1) slice first.
            counts = np.bincount(assigned + 1, minlength=len(replicas) + 1)
            ends = np.cumsum(counts).tolist()
            grouped = rids[np.argsort(assigned.astype(self._key), kind="stable")]
            refused = ends[0] > 0
            for index in np.flatnonzero(counts[1:]).tolist():
                mine = grouped[ends[index] : ends[index + 1]]
                if replicas[index].enqueue_batch(mine) != mine.size:
                    raise self._overflow(index)
        self.assignments[rids] = assigned
        if refused:
            placed = assigned >= 0
            self.records.reject_batch(rids[~placed])
            rids, assigned = rids[placed], assigned[placed]
        if rids.size:
            self.admission.note_placed_batch(self.fleet, rids, assigned)

    def _step(self, rid: int, clock: float, admit: bool) -> int:
        """Place one id through the per-id hooks; its assignment."""
        fleet = self.fleet
        admission = self.admission
        if admit and not admission.admit(fleet, rid, clock):
            self.records.mark_shed(rid)
            self.assignments[rid] = -2
            return -2
        index = self.routing.select(fleet, rid, clock)
        if index is None:
            index = admission.make_room(fleet, rid, clock)
        if index is None:
            self.records.reject(rid)
            self.assignments[rid] = -1
            return -1
        if not fleet.replicas[index].enqueue(rid):
            raise self._overflow(index)
        self.assignments[rid] = index
        admission.note_placed(fleet, rid, index)
        return index

    def _overflow(self, index: int) -> RuntimeError:
        return RuntimeError(
            f"routing policy {self.routing.name} placed ids on replica "
            f"{index} beyond its queue space"
        )


# ---------------------------------------------------------------------------
# The fleet
# ---------------------------------------------------------------------------


class Fleet:
    """N steppable replicas behind a routing policy, over one shared pool.

    Args:
        replicas: The replica servers (any :class:`OnlineServer`
            subclasses; schedules/placements may differ per replica).
            Each is reset against the shared pool at every serve.
        routing: Routing policy (name or instance); see
            :data:`ROUTING_POLICIES`.
        name: Fleet name used in fleet-wide results; defaults to
            ``"<first replica>x<N>-<policy>"``.
        admission: Optional :class:`~repro.serving.faults.AdmissionPolicy`
            consulted before routing -- arrivals it refuses are *shed*
            (assignment -2), and it may evict queued or preempt in-flight
            low-priority work.  ``None`` (and :class:`AcceptAll`) keeps
            the serve bit-identical to the admission-free path.
        faults: Optional :class:`~repro.serving.faults.FaultSchedule`
            injecting replica crash/restart windows and per-replica
            straggler slowdowns into every serve.  An empty schedule is
            bit-identical to running without one.
    """

    def __init__(
        self,
        replicas,
        routing: str | RoutingPolicy = "jsq",
        name: str | None = None,
        admission: AdmissionPolicy | None = None,
        faults: FaultSchedule | None = None,
    ) -> None:
        self.replicas: list[OnlineServer] = list(replicas)
        if not self.replicas:
            raise ValueError("a fleet needs at least one replica")
        if len({id(replica) for replica in self.replicas}) != len(self.replicas):
            raise ValueError(
                "fleet replicas must be distinct server objects (one engine "
                "cannot be stepped as two replicas); clone() the server or "
                "use Fleet.homogeneous"
            )
        self.routing = make_routing(routing)
        self.admission = admission
        self.faults = faults
        self.name = name or (
            f"{self.replicas[0].name}x{len(self.replicas)}-{self.routing.name}"
        )
        self._pool: RequestPool | None = None
        self._plane: FaultPlane | None = None
        self._records: RecordColumns | None = None
        self._assignments: np.ndarray | None = None
        self._all_routable = np.ones(len(self.replicas), dtype=bool)
        self._evicted = np.zeros(len(self.replicas), dtype=np.int64)
        self._snap_reset()

    def _snap_reset(self) -> None:
        n = len(self.replicas)
        self._snap_versions = [-1] * n
        self._snap_loads = [0] * n
        self._snap_space = [0] * n
        self._snap_routable = [True] * n
        self._snap_cursor = -2

    def load_snapshot(self) -> tuple[list[int], list[int], list[bool]]:
        """Per-replica ``(loads, space, routable)`` lists, cached.

        ``loads[i]`` is queued + in-flight requests, ``space[i]`` the free
        queue slots, ``routable[i]`` the fault plane's accepting flag.
        Each replica's entries refresh only when its load version moved
        (every queue/engine mutation bumps it), and the routable flags
        only when the fault cursor moved, so the steady-state window
        touches the one replica that changed instead of re-reading every
        property of every replica.  The lists are live caches: callers
        must copy before mutating.
        """
        versions = self._snap_versions
        loads = self._snap_loads
        space = self._snap_space
        for i, replica in enumerate(self.replicas):
            version = replica._load_version
            if version != versions[i]:
                versions[i] = version
                depth = replica.queue_depth
                loads[i] = depth + replica.in_flight
                space[i] = replica.max_queue - depth
        plane = self._plane
        if plane is not None and plane._cursor != self._snap_cursor:
            self._snap_cursor = plane._cursor
            self._snap_routable = plane.accepting.tolist()
        return loads, space, self._snap_routable

    @classmethod
    def homogeneous(
        cls,
        server: OnlineServer,
        replicas: int,
        routing: str | RoutingPolicy = "jsq",
        name: str | None = None,
        admission: AdmissionPolicy | None = None,
        faults: FaultSchedule | None = None,
    ) -> "Fleet":
        """A fleet of ``replicas`` clones of one server.

        The prototype itself is left untouched (it keeps working as a
        single server); clones share its configuration objects but carry
        independent per-run state.
        """
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        clones = [
            server.clone(name=f"{server.name}#{i}") for i in range(replicas)
        ]
        fleet_name = name or (
            f"{server.name}x{replicas}-{make_routing(routing).name}"
        )
        return cls(clones, routing=routing, name=fleet_name,
                   admission=admission, faults=faults)

    def __len__(self) -> int:
        return len(self.replicas)

    # -- fleet-wide mid-run reductions ---------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Ids queued across every replica (O(replicas))."""
        return sum(replica.queue_depth for replica in self.replicas)

    @property
    def in_flight(self) -> int:
        """Ids admitted into engines and unfinished (O(replicas))."""
        return sum(replica.in_flight for replica in self.replicas)

    def outstanding_tokens(self) -> int:
        """Tokens owed fleet-wide (O(replicas); 0 before the first serve)."""
        return sum(replica.outstanding_tokens() for replica in self.replicas)

    def routable(self, index: int) -> bool:
        """Whether routing may place work on a replica right now.

        False exactly while the fault plane holds the replica down or
        warming after a restart; always True without a fault plane.
        """
        plane = self._plane
        return plane is None or bool(plane.accepting[index])

    def routable_mask(self) -> np.ndarray:
        """Boolean per-replica routable flags (read-only, do not mutate).

        The batch form of :meth:`routable`: the fault plane's live
        ``accepting`` array, or a cached all-True array without a plane,
        so masked ``select_batch``/``admit_batch`` paths pay no per-call
        allocation in the fault-free case.
        """
        plane = self._plane
        if plane is None:
            return self._all_routable
        return plane.accepting

    # -- admission-policy seams ------------------------------------------------------

    def window_space(self, need: int) -> bool:
        """Whether the routable replicas jointly have queue space for
        ``need`` more ids.

        The space guard of the admission policies whose window decisions
        assume every admitted id gets placed (see
        :meth:`~repro.serving.faults.AdmissionPolicy.batch_placement_safe`):
        with it, routing places every admitted id, ``make_room`` stays
        unreachable and ``note_placed`` fires for every admitted id, as
        one-id placement would.
        """
        _, space, routable = self.load_snapshot()
        total = 0
        for i, open_ in enumerate(routable):
            if open_:
                total += space[i]
                if total >= need:
                    return True
        return need == 0

    def shed_queued(self, index: int, rid: int) -> None:
        """Evict one queued id on an admission policy's order: it is shed
        (assignment -2) and its queue slot freed."""
        self.replicas[index].remove_queued(rid)
        self._records.mark_shed(rid)
        self._assignments[rid] = -2
        self._evicted[index] += 1

    def preempt_to_queue(self, index: int, rid: int) -> None:
        """Preempt one in-flight id back to its replica's queue tail.

        The id leaves the running batch (KV freed where the driver tracks
        it), its generation progress rewinds through the shared pool's
        ``requeue``, and it re-enters the same replica's admission queue;
        its ``preempted`` record count increments.  The caller must have
        checked the queue has a slot.
        """
        replica = self.replicas[index]
        replica.preempt(rid)
        self._pool.requeue(np.asarray([rid], dtype=np.int64))
        if not replica.enqueue(rid):
            raise RuntimeError(
                f"fleet {self.name}: preempted request {rid} found replica "
                f"{index}'s queue full; the policy must check queue space"
            )
        self._records.preempted[rid] += 1

    # -- serving --------------------------------------------------------------------

    def serve(
        self,
        trace: WorkloadTrace,
        scenario: str = "",
        offered_rate_qps: float = 0.0,
    ) -> FleetResult:
        """Serve an arrival-stamped trace through the fleet.

        Loads the trace into ONE shared :class:`RequestPool` and hands it
        to :meth:`serve_pool`.
        """
        if len(trace) == 0:
            raise ValueError("trace must contain at least one request")
        return self.serve_pool(
            RequestPool.from_trace(trace),
            scenario=scenario,
            offered_rate_qps=offered_rate_qps,
        )

    def serve_pool(
        self,
        pool: RequestPool,
        scenario: str = "",
        offered_rate_qps: float = 0.0,
    ) -> FleetResult:
        """Serve an arrival-stamped request pool through the fleet.

        Resets every replica against the shared pool (each on its own
        timeline) and drives the :class:`ServingLoop` behind one
        :class:`WindowRouter`: every arrival window is admitted, routed --
        an id handoff into the selected replicas' bounded local queues --
        or rejected where the policy finds every queue full.  After the
        loop drains, each replica resolves its engine bookkeeping into the
        shared record columns.  The pool's generation progress is reset
        first, so one pool can be served through several fleets in turn
        (a stale ``done`` mask would otherwise empty the run).
        """
        records, counts = self._run(pool)
        plane = self._plane
        assignments = self._assignments
        makespans = [replica._timeline.makespan_s for replica in self.replicas]
        extra = {
            "iterations": float(sum(counts)),
            "replicas": float(len(self.replicas)),
        }
        if plane is not None:
            extra["crashes"] = float(plane.crashes.sum())
            extra["requeued"] = float(plane.requeued.sum())
        if self.admission is not None:
            extra["shed"] = float(np.count_nonzero(records.shed))
            extra["preempted"] = float(records.preempted.sum())
        fleet_result = OnlineResult.from_columns(
            system=self.name,
            scenario=scenario,
            offered_rate_qps=offered_rate_qps,
            columns=records,
            makespan_s=max(makespans),
            extra=extra,
        )
        # Each replica's records read the fleet columns through this
        # serve's assignments and gather a column only when it is read.
        per_replica = tuple(
            OnlineResult(
                system=replica.name,
                scenario=scenario,
                offered_rate_qps=0.0,
                records=ReplicaRecords(fleet_result.records, assignments, i),
                makespan_s=makespans[i],
                extra=replica._extra(counts[i]),
            )
            for i, replica in enumerate(self.replicas)
        )
        return FleetResult(
            fleet=fleet_result,
            replicas=per_replica,
            assignments=assignments,
            routing=self.routing.name,
            crashes=plane.crashes.copy() if plane is not None else None,
            requeued=plane.requeued.copy() if plane is not None else None,
        )

    def _run(self, pool: RequestPool) -> tuple[RecordColumns, list[int]]:
        """Serve ``pool`` and check its accounting.

        The one place a :class:`ServingLoop` is built, for the fleet's
        :meth:`serve_pool` and the single server's ``serve_pool`` alike.
        Returns the resolved record columns and the per-replica
        ``iterate`` counts; the assignments and the fault plane stay on
        the fleet for the result.
        """
        if len(pool) == 0:
            raise ValueError("pool must contain at least one request")
        router = self._bind(pool)
        plane = self._plane
        records = self._records
        assignments = self._assignments
        loop = ServingLoop(
            pool,
            self.replicas,
            route=router.route,
            name=self.name,
            faults=plane,
            on_crash=router.on_crash,
            diagnostics=router.diagnostics,
        )
        loop.run()
        # Under crashes or an admission policy, an id's bookkeeping may be
        # spread over replicas it visited before landing; each replica then
        # resolves only the ids whose *final* assignment it holds, so a
        # stale stamp can never overwrite a survivor's real one.
        chaotic = (
            (plane is not None and plane.has_downtime)
            or self.admission is not None
        )
        for i, replica in enumerate(self.replicas):
            if chaotic:
                replica.resolve_records(records, assignments=assignments,
                                        index=i)
            else:
                replica.resolve_records(records)

        # Accounting, asserted at the fleet boundary: unassigned ids (-1)
        # are exactly the rejected records and shed ids (-2) exactly the
        # shed records, so fleet drop accounting is the single-server
        # semantics by construction.
        if not np.array_equal(assignments == -1, records.rejected):
            raise RuntimeError(
                f"fleet {self.name}: rejection accounting diverged "
                f"({int(np.count_nonzero(assignments == -1))} unassigned vs "
                f"{int(np.count_nonzero(records.rejected))} rejected records)"
            )
        if not np.array_equal(assignments == -2, records.shed):
            raise RuntimeError(
                f"fleet {self.name}: shed accounting diverged "
                f"({int(np.count_nonzero(assignments == -2))} consumed vs "
                f"{int(np.count_nonzero(records.shed))} shed records)"
            )
        # Conservation: every offered request has exactly one outcome --
        # completed, rejected or shed.  In particular every id a crashed
        # replica requeued completed somewhere (or was rejected at
        # reroute), and no id was lost or double-counted.  One int8 pass
        # over the record columns, so every serve checks it.
        outcomes = (
            (records.finish_s >= 0.0).view(np.int8)
            + records.rejected.view(np.int8)
            + records.shed.view(np.int8)
        )
        if not bool(np.all(outcomes == 1)):
            bad = int(np.count_nonzero(outcomes != 1))
            raise RuntimeError(
                f"fleet {self.name}: conservation violated for {bad} "
                "requests (offered != completed + rejected + shed)"
            )
        return records, loop.iteration_counts

    def _bind(self, pool: RequestPool) -> WindowRouter:
        """Reset the fleet, its replicas and its policies for a serve of
        ``pool``; returns that serve's router."""
        pool.reset_progress()
        self._pool = pool
        self._records = RecordColumns(pool)
        self._assignments = np.full(len(pool), -1, dtype=np.int64)
        self._plane = (
            FaultPlane(self.faults, len(self.replicas))
            if self.faults is not None else None
        )
        self._evicted = np.zeros(len(self.replicas), dtype=np.int64)
        for i, replica in enumerate(self.replicas):
            slowdown = (
                self.faults.slowdown_for(i) if self.faults is not None else 1.0
            )
            replica.slowdown = slowdown
            replica.reset(Timeline(time_scale=slowdown), pool)
        self._snap_reset()
        self.routing.reset(self)
        if self.admission is not None:
            self.admission.reset(self)
        return WindowRouter(self)
