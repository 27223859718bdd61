"""Online arrival-driven serving simulation.

The offline runners replay a trace whose requests are all "already queued";
this module simulates *serving*: requests arrive over time (see
:mod:`repro.workloads.arrivals`), wait in a bounded admission queue, are
admitted into the engine under the system's scheduling policy, and leave
per-request records of

* **queueing delay** -- admission time minus arrival time,
* **TTFT** -- time to first generated token, measured from arrival, and
* **end-to-end latency** -- completion time minus arrival time,

from which SLO attainment is evaluated: an :class:`~repro.serving.sla.SLA`
reads the result's own end-to-end latency column (arrival to completion,
so queueing at overload shows up as SLO violations).

Two server drivers are provided:

* :class:`ContinuousBatchingOnlineServer` wraps an ORCA-family baseline
  (:class:`~repro.baselines.orca.Orca` or :class:`~repro.baselines.vllm.Vllm`)
  and runs its iteration-level policy online: at every iteration boundary
  :meth:`~repro.baselines.orca.Orca.cycle` admits arrived requests (at most
  ``max_prefills_per_iteration`` prefills) into the running batch, subject
  to the batch cap and the KV cache
  (:class:`~repro.engine.kv_manager.PagedKVCache` for vLLM, contiguous for
  ORCA).
* :class:`ExeGPTOnlineServer` enforces an ExeGPT
  :class:`~repro.core.config.ScheduleConfig` online: RRA alternates encode
  phases with ``N_D`` decode iterations, WAA encodes on dedicated stages
  concurrently with decoding; admission follows the Section 5.2 dynamic
  workload adjuster, gated by what has actually arrived.

Both drivers build their schedules on the shared discrete-event
:class:`~repro.engine.timeline.Timeline`, using its incremental scheduling
(``schedule_pending``) to learn the simulated clock after each iteration and
its release times (``earliest_start_s``) so work never starts before the
requests it serves have arrived.  Iteration construction itself -- stage
chaining, micro-batching, WAA KV handover, compaction, timestamp
bookkeeping -- goes through the same
:class:`~repro.engine.execution.ExecutionEngine` as the offline runner and
baselines, so the online and offline simulators share one implementation of
execution semantics.  Each cycle is the body the offline replay runs too:
``Orca.cycle`` (through the plan-free template) for continuous batching,
the engine's RRA or WAA cycle for ExeGPT.

Every server is a **steppable replica**: the arrival-ingest / clock /
termination loop lives in :class:`ServingLoop`, not in the server, and the
server exposes ``reset(timeline, pool)`` / ``enqueue(rid)`` / ``busy`` /
``iterate(clock) -> next_time`` over replica-local id arrays into a request
pool it does not own.  :class:`~repro.serving.fleet.Fleet` runs N replicas
behind a routing policy over ONE shared pool through that loop, and
``OnlineServer.serve`` is simply a 1-replica fleet, so the single server
and the fleet share one loop and one router.

:class:`OnlineEvaluator` sweeps offered request rates per traffic scenario
and reports the maximum sustainable QPS: the highest offered rate at which a
system completes every request (no admission-queue overflow) while meeting
the latency SLO -- for a single server or, with ``replicas=N``, for an
N-replica fleet deployment.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.baselines.orca import Orca
from repro.core.config import ScheduleConfig, require_count
from repro.core.dynamic import DynamicWorkloadAdjuster
from repro.core.simulator import XSimulator
from repro.engine.execution import ExecutionEngine, KVHandover, TaskRef
from repro.engine.metrics import reference_length_latency
from repro.engine.pool import EMPTY_IDS, RequestPool, scatter_last
from repro.engine.timeline import Timeline
from repro.serving.sla import SLA
from repro.workloads.arrivals import ArrivalProcess, attach_arrivals, make_scenario
from repro.workloads.trace import WorkloadTrace

_MAX_ITERATIONS = 500000


def default_max_iterations(pool, replicas: int = 1) -> int:
    """Convergence-guard default scaled to the workload.

    The historical fixed 500k cap tripped on any trace with >= 500k
    arrivals even while the loop was making progress.  The scaled default
    bounds honest progress instead: every request costs at most a few
    ``iterate`` calls of admission overhead plus its decode iterations
    (one generated token per iterate is the slowest possible pace), and
    each replica may burn a few idle iterations draining.  The explicit
    ``max_iterations`` override still wins when a caller wants a tighter
    guard.
    """
    remaining = int(pool.remaining_tokens(pool.ids()))
    return max(_MAX_ITERATIONS, 8 * len(pool) + remaining + 64 * replicas)


# ---------------------------------------------------------------------------
# Per-request records and aggregate result
# ---------------------------------------------------------------------------


@dataclass
class OnlineRequestRecord:
    """Outcome of one request in an online run.

    Attributes:
        request_id / input_len / output_len: The request's static properties.
        arrival_s: When the request arrived.
        admitted_s: When its prefill was issued (-1 if never admitted).
        first_token_s: When its first output token finished (-1 if none).
        finish_s: When its last token finished (-1 if unfinished).
        rejected: True when the admission queue overflowed at arrival.
        shed: True when an admission policy dropped the request (load
            shedding, tenant quota, priority eviction) -- accounted
            separately from ``rejected`` so drops stay attributable.
        preempted: How many times the request's decode was preempted back
            to an admission queue by a priority policy.
    """

    request_id: int
    input_len: int
    output_len: int
    arrival_s: float
    admitted_s: float = -1.0
    first_token_s: float = -1.0
    finish_s: float = -1.0
    rejected: bool = False
    shed: bool = False
    preempted: int = 0

    @property
    def completed(self) -> bool:
        """Whether the request generated all its tokens."""
        return self.finish_s >= 0.0

    @property
    def queue_delay_s(self) -> float:
        """Arrival-to-admission delay (-1 if never admitted)."""
        if self.admitted_s < 0:
            return -1.0
        return self.admitted_s - self.arrival_s

    @property
    def ttft_s(self) -> float:
        """Arrival-to-first-token latency (-1 if no token was generated)."""
        if self.first_token_s < 0:
            return -1.0
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency (-1 if unfinished)."""
        if self.finish_s < 0:
            return -1.0
        return self.finish_s - self.arrival_s


# The aggregate columns :class:`OnlineResult` reads, by name: their
# positions among a :class:`RecordSequence`'s ten arrays.
_AGGREGATES = {
    "arrival": 3,
    "admitted": 4,
    "first_token": 5,
    "finish": 6,
    "rejected": 7,
    "shed": 8,
    "preempted": 9,
    "output_len": 2,
}


class RecordSequence:
    """Immutable record sequence materialized on demand from columns.

    Behaves like a tuple of :class:`OnlineRequestRecord` -- length,
    indexing, slicing, iteration, equality (including against real record
    tuples) -- but stores only the ten backing arrays.  A million-request
    serve therefore allocates **no** per-request Python objects unless a
    caller actually touches individual records; building the boxed record
    tuple eagerly cost seconds of allocation plus a superlinear garbage-
    collector term (millions of tracked objects) that dominated large
    sweeps.  Indexing with an id array gathers a new sequence, so even
    result slicing stays columnar.
    """

    __slots__ = ("_arrays",)

    def __init__(
        self,
        request_id: np.ndarray,
        input_len: np.ndarray,
        output_len: np.ndarray,
        arrival_s: np.ndarray,
        admitted_s: np.ndarray,
        first_token_s: np.ndarray,
        finish_s: np.ndarray,
        rejected: np.ndarray,
        shed: np.ndarray,
        preempted: np.ndarray,
    ) -> None:
        self._arrays = (
            request_id, input_len, output_len, arrival_s,
            admitted_s, first_token_s, finish_s, rejected,
            shed, preempted,
        )

    def __len__(self) -> int:
        return int(self._arrays[0].shape[0])

    def _column(self, position: int) -> np.ndarray:
        """The backing array at ``position`` (see ``__init__``'s order)."""
        return self._arrays[position]

    def _all_arrays(self) -> tuple[np.ndarray, ...]:
        return self._arrays

    def _record(self, row: int) -> OnlineRequestRecord:
        (
            request_id, input_len, output_len, arrival_s,
            admitted_s, first_token_s, finish_s, rejected,
            shed, preempted,
        ) = self._all_arrays()
        return OnlineRequestRecord(
            request_id=int(request_id[row]),
            input_len=int(input_len[row]),
            output_len=int(output_len[row]),
            arrival_s=float(arrival_s[row]),
            admitted_s=float(admitted_s[row]),
            first_token_s=float(first_token_s[row]),
            finish_s=float(finish_s[row]),
            rejected=bool(rejected[row]),
            shed=bool(shed[row]),
            preempted=int(preempted[row]),
        )

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            row = int(index)
            if row < 0:
                row += len(self)
            if not 0 <= row < len(self):
                raise IndexError("record index out of range")
            return self._record(row)
        # Slices and id arrays gather columns, never boxing a record.
        return RecordSequence(*(a[index] for a in self._all_arrays()))

    def __iter__(self):
        for values in zip(*(a.tolist() for a in self._all_arrays())):
            yield OnlineRequestRecord(*values)

    def __eq__(self, other) -> bool:
        if isinstance(other, RecordSequence):
            return all(
                np.array_equal(a, b)
                for a, b in zip(self._all_arrays(), other._all_arrays())
            )
        if isinstance(other, (tuple, list)):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __ne__(self, other) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    __hash__ = None  # mutable-record elements; same as a list

    def columns(self) -> dict[str, np.ndarray]:
        """The aggregate columns :class:`OnlineResult` reads."""
        return {name: self._column(at) for name, at in _AGGREGATES.items()}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(len={len(self)})"


class ReplicaRecords(RecordSequence):
    """The records one fleet replica served: the rows of the fleet-wide
    sequence whose final assignment is ``index``, in id order.

    Building it copies nothing.  The row ids
    (``flatnonzero(assignments == index)``) are found on the first read,
    and each of the ten columns is gathered on its own first read, so a
    caller that reads only counts or latencies gathers only those columns,
    and one that reads only the fleet-wide result gathers none.  It is
    equal, record for record, to ``fleet_records[flatnonzero(assignments
    == index)]``.
    """

    __slots__ = ("_fleet", "_assignments", "_index", "_rows")

    def __init__(
        self, fleet: RecordSequence, assignments: np.ndarray, index: int
    ) -> None:
        self._fleet = fleet
        self._assignments = assignments
        self._index = index
        self._rows = None
        # The columns gathered so far.
        self._arrays = [None] * len(fleet._all_arrays())

    def _row_ids(self) -> np.ndarray:
        if self._rows is None:
            self._rows = np.flatnonzero(self._assignments == self._index)
        return self._rows

    def __len__(self) -> int:
        return int(self._row_ids().size)

    def _column(self, position: int) -> np.ndarray:
        column = self._arrays[position]
        if column is None:
            column = self._fleet._column(position)[self._row_ids()]
            self._arrays[position] = column
        return column

    def _all_arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(self._column(at) for at in range(len(self._arrays)))


class _ColumnView(Mapping):
    """A record sequence's aggregate columns by name, each read through
    the sequence when asked for (a :class:`ReplicaRecords` gathers only the
    keys a caller reads)."""

    __slots__ = ("_records",)

    def __init__(self, records: RecordSequence) -> None:
        self._records = records

    def __getitem__(self, name: str) -> np.ndarray:
        return self._records._column(_AGGREGATES[name])

    def __iter__(self):
        return iter(_AGGREGATES)

    def __len__(self) -> int:
        return len(_AGGREGATES)


@dataclass(frozen=True)
class OnlineResult:
    """Aggregate outcome of serving one arrival-stamped trace.

    Conservation holds by construction: every offered request is either
    completed, rejected or shed (``offered == completed + rejected + shed``),
    because the serving loop drains the queue and pool before returning and
    a crashed replica's requeued ids are re-routed, never lost
    (:meth:`~repro.engine.pool.RequestPool.requeue` refuses done ids, so no
    request is ever resurrected either).

    Aggregates (counts, latency arrays) are computed **once**, on first
    access, from a single pass over the records (:attr:`_columns`) and
    cached -- rate sweeps touch ``completed``/``rejected``/percentiles many
    times per run, and the historical per-access record scans were O(n)
    each.  The records are a :class:`RecordSequence` (records boxed on
    demand from columns); they are not meant to change after construction.

    Attributes:
        system: Serving system name.
        scenario: Traffic scenario name ("" when the trace carried arrivals).
        offered_rate_qps: Mean offered arrival rate (0 when unknown).
        records: Per-request records, in request order, as columns.
        makespan_s: Simulated time from 0 to the last completion.
        extra: Free-form driver measurements (iterations, peak KV, ...).
    """

    system: str
    scenario: str
    offered_rate_qps: float
    records: RecordSequence
    makespan_s: float
    extra: dict[str, float] = field(default_factory=dict)

    # -- cached summary columns ---------------------------------------------------

    @cached_property
    def _columns(self) -> Mapping[str, np.ndarray]:
        """The aggregate columns every aggregate derives from, read from
        the records one column at a time (so a fleet replica's result
        gathers only the columns its aggregates read)."""
        return _ColumnView(self.records)

    @cached_property
    def _completed_mask(self) -> np.ndarray:
        return self._columns["finish"] >= 0.0

    @cached_property
    def _latencies(self) -> np.ndarray:
        """End-to-end latency of every completed request, in record order
        (row for row with the completed rows of any other column): the
        column every SLA reads."""
        cols = self._columns
        mask = self._completed_mask
        return cols["finish"][mask] - cols["arrival"][mask]

    @cached_property
    def _delays(self) -> dict[str, np.ndarray]:
        """Non-negative TTFTs and queueing delays of completed requests."""
        cols = self._columns
        mask = self._completed_mask
        arrival = cols["arrival"][mask]
        values: dict[str, np.ndarray] = {}
        for name, column in (
            ("ttft_s", cols["first_token"]),
            ("queue_delay_s", cols["admitted"]),
        ):
            raw = column[mask]
            deltas = np.where(raw < 0, -1.0, raw - arrival)
            values[name] = deltas[deltas >= 0]
        return values

    # -- counts ----------------------------------------------------------------

    @property
    def offered(self) -> int:
        """Requests that arrived."""
        return len(self.records)

    @property
    def completed(self) -> int:
        """Requests that finished generation."""
        return int(np.count_nonzero(self._completed_mask))

    @property
    def rejected(self) -> int:
        """Requests dropped at arrival because the admission queue was full."""
        return int(np.count_nonzero(self._columns["rejected"]))

    @property
    def shed(self) -> int:
        """Requests dropped by an admission policy (load shedding, tenant
        quota, priority eviction) -- zero without one."""
        return int(np.count_nonzero(self._columns["shed"]))

    @property
    def preempted(self) -> int:
        """Total decode preemptions across all requests (a request
        preempted twice counts twice)."""
        return int(self._columns["preempted"].sum())

    @property
    def dropped(self) -> int:
        """Requests that never completed by decision: rejected + shed."""
        return self.rejected + self.shed

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered requests rejected."""
        if not self.records:
            return 0.0
        return self.rejected / len(self.records)

    @property
    def drop_rate(self) -> float:
        """Fraction of offered requests dropped (rejected or shed)."""
        if not self.records:
            return 0.0
        return self.dropped / len(self.records)

    @property
    def conserved(self) -> bool:
        """The conservation invariant: offered == completed + rejected +
        shed, with the three outcomes mutually exclusive."""
        cols = self._columns
        outcomes = (
            self._completed_mask.astype(np.int64)
            + cols["rejected"].astype(np.int64)
            + cols["shed"].astype(np.int64)
        )
        return bool(np.all(outcomes == 1))

    @property
    def achieved_qps(self) -> float:
        """Completed requests per second of simulated time."""
        if self.makespan_s <= 0:
            return 0.0
        return self.completed / self.makespan_s

    # -- latency statistics ------------------------------------------------------

    def latency_percentile(self, q: float) -> float:
        """End-to-end latency percentile over completed requests."""
        values = self._latencies
        if values.size == 0:
            return 0.0
        return float(np.percentile(values, q))

    def ttft_percentile(self, q: float) -> float:
        """TTFT percentile over completed requests."""
        values = self._delays["ttft_s"]
        if values.size == 0:
            return 0.0
        return float(np.percentile(values, q))

    def queue_delay_percentile(self, q: float) -> float:
        """Queueing-delay percentile over completed requests."""
        values = self._delays["queue_delay_s"]
        if values.size == 0:
            return 0.0
        return float(np.percentile(values, q))

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end latency of completed requests."""
        values = self._latencies
        if values.size == 0:
            return 0.0
        return float(values.mean())

    # -- SLO evaluation ------------------------------------------------------------

    def reference_length_latency(self, target_length: int) -> float:
        """The SLA-(b) measure (:func:`~repro.engine.metrics.
        reference_length_latency`) over the completed requests' end-to-end
        latencies."""
        lengths = self._columns["output_len"][self._completed_mask]
        return reference_length_latency(self._latencies, lengths, target_length)

    def attainment(self, sla: SLA) -> float:
        """Fraction of *offered* requests completing within the SLA bound.

        Rejected (and hypothetically unfinished) requests count as misses, so
        attainment degrades monotonically as the offered load outgrows the
        system.
        """
        if not self.records:
            return 1.0
        hits = int(np.count_nonzero(self._latencies <= sla.bound_s))
        return hits / len(self.records)

    def satisfies(self, sla: SLA, max_rejection_rate: float = 0.0) -> bool:
        """Whether the run sustains the SLO.

        Requires the SLA to hold on the completed requests' end-to-end
        latencies *and* the total drop rate -- rejected plus shed, so an
        admission policy cannot launder overload into "sustainable" by
        shedding -- to stay within ``max_rejection_rate``.
        """
        if self.completed == 0:
            return False
        if self.drop_rate > max_rejection_rate:
            return False
        return sla.satisfied(self)

    @classmethod
    def from_columns(
        cls,
        system: str,
        scenario: str,
        offered_rate_qps: float,
        columns: "RecordColumns",
        makespan_s: float,
        extra: dict[str, float],
    ) -> "OnlineResult":
        """Build a result straight from a serve's columnar record store.

        The records stay columnar: a :class:`RecordSequence` snapshots the
        pool's static columns next to the serve's outcome columns, boxing
        individual :class:`OnlineRequestRecord` objects only when a caller
        indexes or iterates.  The :attr:`_columns` aggregate cache is
        seeded with the same arrays -- a million-request result never
        scans (or even allocates) per-request records to compute counts or
        percentiles.
        """
        pool = columns.pool
        records = RecordSequence(
            pool.request_id.astype(np.int64, copy=True),
            pool.input_len.astype(np.int64, copy=True),
            pool.output_len.astype(np.int64, copy=True),
            pool.arrival_s.astype(float, copy=True),
            columns.admitted_s,
            columns.first_token_s,
            columns.finish_s,
            columns.rejected,
            columns.shed,
            columns.preempted,
        )
        result = cls(
            system=system,
            scenario=scenario,
            offered_rate_qps=offered_rate_qps,
            records=records,
            makespan_s=makespan_s,
            extra=extra,
        )
        # cached_property writes land in the instance __dict__, so seeding
        # the cache here short-circuits even the first-access column pick.
        result.__dict__["_columns"] = records.columns()
        return result


# ---------------------------------------------------------------------------
# The shared event loop: arrival ingest, clock, termination
# ---------------------------------------------------------------------------


class RecordColumns:
    """Columnar per-request outcome store of one serve.

    The record side of the serving loop at million-request scale: outcome
    timestamps land as vectorized scatters (``column[ids] = when``) and
    rejection flags as mask writes, so no per-request record object exists
    until the final :class:`OnlineResult` is built
    (:meth:`OnlineResult.from_columns`).  Requires an array-backed
    :class:`RequestPool` (the only pool online serving runs on).
    """

    __slots__ = (
        "pool", "admitted_s", "first_token_s", "finish_s", "rejected",
        "shed", "preempted",
    )

    def __init__(self, pool: RequestPool) -> None:
        n = len(pool)
        self.pool = pool
        self.admitted_s = np.full(n, -1.0)
        self.first_token_s = np.full(n, -1.0)
        self.finish_s = np.full(n, -1.0)
        self.rejected = np.zeros(n, dtype=bool)
        self.shed = np.zeros(n, dtype=bool)
        self.preempted = np.zeros(n, dtype=np.int64)

    def reject(self, rid: int) -> None:
        """Flag one arrival as rejected."""
        self.rejected[rid] = True

    def reject_batch(self, ids: np.ndarray) -> None:
        """Flag a batch of arrivals as rejected (one mask write)."""
        self.rejected[ids] = True

    def mark_shed(self, rid: int) -> None:
        """Flag one arrival as dropped by an admission policy."""
        self.shed[rid] = True

    def mark_shed_batch(self, ids: np.ndarray) -> None:
        """Flag a batch of arrivals as shed (one mask write).

        The batched-admission mirror of :meth:`reject_batch`: shedding a
        whole arrival window is a single scatter, not a per-id loop.  The
        caller (the fleet) writes the matching ``-2`` assignments.
        """
        self.shed[ids] = True


class ServingLoop:
    """The arrival-ingest / clock / termination loop of online serving.

    :meth:`repro.serving.fleet.Fleet.serve_pool` drives it over the fleet's
    replicas, and the single server is a 1-replica fleet, so every serve
    runs this one loop behind one router.

    The loop is event-driven over two event kinds: *arrivals*, read off
    the pool's ``arrival_s`` column in (arrival time, request id) order,
    and *replica readiness*, the next-start clock each ``iterate`` call
    returns.  Invariants:

    * Every arrival with ``arrival_s <= clock`` is offered to the router
      (an id handoff into some replica's bounded admission queue) before
      any replica iterates at ``clock`` -- an arrival landing at *exactly*
      a replica-ready clock is routed first, then the replica iterates.
      When no eligible queue has space, the arrival is rejected --
      permanently.
    * Among replicas with pending work (a queued id or engine work), the
      one with the earliest next-ready clock acts; ties break on the
      lower replica index, so interleaving is deterministic.
    * When no replica has work, the clock skips to the next arrival.

    Arrivals up to the clock are drained as one ``searchsorted`` slice of
    the sorted arrival array and routed as one window; per-replica ready
    times live in a Python list picked by one scan over the pending flags
    (no numpy call per event).  While every replica is pending, the clock
    jumps straight to the next ready time and the whole arrival window
    drains as one batch (routing cannot wake anyone or reorder iterates
    then); with an idle replica in the mix the advance is clamped to the
    next arrival, so wake-ups happen at arrival clocks.  The historical
    per-event loop, which offers each arrival at its own clock as a window
    of one id, is the oracle of this window batching
    (``SteppedServingLoop`` in ``tests/reference/serving.py``).

    Args:
        pool: The (shared) request pool whose arrival column feeds the loop.
        replicas: Steppable replicas (:class:`OnlineServer` instances,
            already ``reset`` against ``pool``).
        route: ``route(rids, clock) -> assignments`` -- place one arrival
            window (ids in arrival order) drained at ``clock``, returning
            the replica index per id, negative for ids it did not place.
            The router accounts for rejected and shed ids itself; the loop
            only raises the pending flags of the replicas that received
            work.
        max_iterations: Convergence guard over total ``iterate`` calls;
            defaults to :func:`default_max_iterations` of the pool.
        name: Label used in the convergence error.
        faults: Optional :class:`~repro.serving.faults.FaultPlane`.  At the
            top of every loop iteration, due fault transitions are applied
            *before* arrival ingest (a crash at an arrival's clock lands
            first, so the arrival routes around the dead replica), and
            every clock advance is clamped to the next fault transition so
            no event window spans one.  A plane with an empty schedule has
            ``next_time == inf`` and the loop is bit-identical to running
            without one.
        on_crash: ``on_crash(replica_index, when)`` -- invoked when a
            ``down`` transition fires, before the replica's ready time is
            reset.  The owner (the fleet) reclaims the replica's queued +
            in-flight ids and re-routes them.  Required when ``faults``
            schedules any downtime.
        diagnostics: Optional ``diagnostics() -> str`` hook appended to
            the convergence error -- the owner surfaces state the loop
            cannot see (the fleet reports per-replica admit/shed counts),
            so a real non-convergence is debuggable from the message.
    """

    def __init__(
        self,
        pool: RequestPool,
        replicas,
        route,
        max_iterations: int | None = None,
        name: str = "online",
        faults=None,
        on_crash=None,
        diagnostics=None,
    ) -> None:
        self.pool = pool
        self.replicas = list(replicas)
        if not self.replicas:
            raise ValueError("ServingLoop needs at least one replica")
        self.route = route
        if max_iterations is None:
            max_iterations = default_max_iterations(pool, len(self.replicas))
        self.max_iterations = max_iterations
        self.name = name
        if faults is not None and faults.has_downtime and on_crash is None:
            raise ValueError(
                "a fault plane scheduling downtime needs an on_crash handler"
            )
        self.faults = faults
        self.on_crash = on_crash
        self.diagnostics = diagnostics
        #: Per-replica ``iterate`` call counts of the last :meth:`run`.
        self.iteration_counts: list[int] = [0] * len(self.replicas)

    def _convergence_error(
        self, clock: float, ingested: int, total: int
    ) -> RuntimeError:
        """The convergence failure, carrying enough loop state to debug a
        real non-convergence from the message alone."""
        depths = [r.queue_depth for r in self.replicas]
        in_flight = [r.in_flight for r in self.replicas]
        message = (
            f"online serving loop {self.name} did not converge: "
            f"exceeded max_iterations={self.max_iterations} at "
            f"clock={clock:.6f}s with arrivals ingested={ingested}/{total} "
            f"(remaining={total - ingested}), per-replica "
            f"iterations={self.iteration_counts}, queue depths={depths}, "
            f"in flight={in_flight}"
        )
        if self.faults is not None:
            slowdowns = [
                getattr(r, "slowdown", 1.0) for r in self.replicas
            ]
            message += (
                f", fault states={self.faults.states()}, "
                f"crashes={self.faults.crashes.tolist()}, "
                f"requeued={self.faults.requeued.tolist()}, "
                f"slowdowns={slowdowns}, "
                f"next fault transition={self.faults.next_time}"
            )
        if self.diagnostics is not None:
            message += f", {self.diagnostics()}"
        return RuntimeError(message)

    def _apply_faults(self, clock: float, next_ready) -> bool:
        """Apply every fault transition due at ``clock``; True if any was.

        Transitions are applied in time order before arrival ingest.  A
        ``down`` transition first hands the replica to ``on_crash`` (which
        reclaims and re-routes its work), then rewinds the replica's ready
        time to the crash instant so a restarted replica wakes as an idle
        one would.  ``warming``/``ready`` only flip plane state, which
        routing observes through the plane's accepting mask.
        """
        due = self.faults.pop_due(clock)
        for when, index, kind in due:
            if kind == "down":
                if self.on_crash is not None:
                    self.on_crash(index, when)
                next_ready[index] = when
        return bool(due)

    def run(self) -> int:
        """Drive until arrivals, queues and engines drain; returns the
        total number of ``iterate`` calls across all replicas."""
        replicas = self.replicas
        n = len(replicas)
        order = self.pool.arrival_order()
        # One contiguous sorted-arrival array: the ingest slice per event
        # is a searchsorted on it, not a per-arrival comparison loop.
        arrival_sorted = np.ascontiguousarray(self.pool.arrival_s[order])
        total = order.size
        pos = 0
        # The next arrival's time as a plain float (inf once all arrived).
        upcoming = float(arrival_sorted[0]) if total else math.inf
        clock = 0.0
        # Per-replica ready clocks as a Python list: the event pick below
        # is one scan over at most a few dozen replicas, where per-event
        # numpy calls cost more than they save.  ``pending`` stays an array
        # so routing raises a whole window's flags with one scatter.
        next_ready = [0.0] * n
        pending = np.zeros(n, dtype=bool)
        iterations = 0
        self.iteration_counts = [0] * n
        faults = self.faults
        while True:
            if faults is not None and self._apply_faults(clock, next_ready):
                # A transition (crash reclaim/reroute, restart) may change
                # any replica's work; recompute all pending flags.
                for i, replica in enumerate(replicas):
                    pending[i] = bool(replica.queue_depth or replica.busy)
            # Batched ingest: every arrival with arrival_s <= clock, as one
            # slice of the sorted order ('right' side: arrival_s <= clock).
            if upcoming <= clock:
                stop = pos + int(
                    np.searchsorted(arrival_sorted[pos:], clock, side="right")
                )
                batch = order[pos:stop]
                pos = stop
                if pos < total:
                    upcoming = float(arrival_sorted[pos])
                else:
                    upcoming = math.inf
                assigned = self.route(batch, clock)
                # Only the replicas that received ids can have become
                # pending; duplicate indices are fine for a boolean
                # scatter, so skip the sort np.unique would pay.
                placed = assigned[assigned >= 0]
                if placed.size:
                    pending[placed] = True
            # The event pick: min over pending replicas of (next_ready,
            # index) -- the first minimum wins, i.e. the lowest replica
            # index among ties.
            flags = pending.tolist()
            index = -1
            ready_at = 0.0
            for i in range(n):
                if flags[i] and (index < 0 or next_ready[i] < ready_at):
                    index = i
                    ready_at = next_ready[i]
            if index < 0:
                if pos >= total:
                    break
                target = upcoming
                if faults is not None:
                    target = min(target, faults.next_time)
                clock = max(clock, target)
                continue
            if ready_at > clock:
                # With every replica pending, routing cannot change which
                # replica iterates next or when (next-ready times move only
                # in iterate, pending flags cannot rise further), so ALL
                # arrivals up to the ready time drain as one batch at the
                # loop top -- the million-request fast path.  With an idle
                # replica in the mix an arrival may wake it mid-window, and
                # it must iterate at that arrival's clock, so the advance
                # is clamped to the next arrival (per-arrival semantics).
                if pos < total and not all(flags):
                    # Only an *accepting* idle replica can be woken by a
                    # routed arrival; a down or warming replica never
                    # receives work (routing masks it out), so it does not
                    # force per-arrival stepping.  Restart transitions are
                    # fault transitions, which clamp below.
                    if faults is None or bool(
                        np.any(~pending & faults.accepting)
                    ):
                        ready_at = min(ready_at, upcoming)
                if faults is not None:
                    # Unconditional: a fault transition inside the window
                    # invalidates the "nothing can change" reasoning above.
                    ready_at = min(ready_at, faults.next_time)
                    if (
                        faults.next_time <= ready_at
                        and upcoming < ready_at
                    ):
                        # Arrivals strictly before the transition must be
                        # routed against the pre-transition fault state, as
                        # per-arrival routing would; jumping straight to the
                        # transition would drain them at the loop top AFTER
                        # pop_due flips the accepting mask.  Reaching here
                        # means the wake clamp above did not fire (an idle
                        # accepting replica would have pulled ready_at
                        # under the transition), so nothing can change
                        # between these arrivals -- ingest every one of
                        # them as a single batch at the LAST pre-transition
                        # arrival, not one window per arrival.
                        stop = pos + int(
                            np.searchsorted(
                                arrival_sorted[pos:], ready_at, side="left"
                            )
                        )
                        ready_at = float(arrival_sorted[stop - 1])
                clock = ready_at
                continue
            replica = replicas[index]
            next_ready[index] = max(replica.iterate(clock), clock)
            # Only the iterated replica's pending state can change here:
            # routing is the sole other writer, and it raises flags itself.
            pending[index] = bool(replica.queue_depth or replica.busy)
            self.iteration_counts[index] += 1
            iterations += 1
            if iterations > self.max_iterations:
                raise self._convergence_error(clock, pos, total)
        return iterations


# ---------------------------------------------------------------------------
# Server base: a steppable replica with a bounded admission queue
# ---------------------------------------------------------------------------


class IdQueue:
    """FIFO of request ids on a growable numpy ring buffer.

    The replica-local admission queue.  Same ordering semantics as a
    ``deque`` (append/extend at the tail, pop at the head, ``remove``
    drops the first occurrence), but the bulk views the hot paths need --
    :meth:`as_array` for crash reclaim, :meth:`head_array` for engine
    admission -- are ring-buffer slices instead of per-element Python
    iteration.  The ring starts small and doubles, up to ``capacity``,
    when an append would overflow it, so its memory follows the ids
    actually queued rather than the configured bound (the server enforces
    the bound itself).

    A queue bound to a pool's ``input_len`` / ``output_len`` columns also
    keeps :attr:`input_tokens` and :attr:`output_tokens`, the exact sums of
    those columns over its ids, updated by every operation that adds or
    drops ids.  An unbound queue keeps both at 0.
    """

    __slots__ = (
        "_buf", "_head", "_size", "_capacity", "_input_len", "_output_len",
        "input_tokens", "output_tokens",
    )

    def __init__(
        self,
        capacity: int,
        input_len: np.ndarray | None = None,
        output_len: np.ndarray | None = None,
    ) -> None:
        self._capacity = max(1, capacity)
        self._buf = np.empty(min(self._capacity, 64), dtype=np.int64)
        self._head = 0
        self._size = 0
        self._input_len = input_len
        self._output_len = output_len
        #: Input tokens of the queued ids (0 when unbound).
        self.input_tokens = 0
        #: Output tokens of the queued ids (0 when unbound).
        self.output_tokens = 0

    def _add(self, rid: int, sign: int) -> None:
        if self._input_len is not None:
            self.input_tokens += sign * self._input_len.item(rid)
            self.output_tokens += sign * self._output_len.item(rid)

    def _add_many(self, rids: np.ndarray, sign: int) -> None:
        if self._input_len is not None and rids.size:
            self.input_tokens += sign * int(self._input_len[rids].sum())
            self.output_tokens += sign * int(self._output_len[rids].sum())

    def _reserve(self, need: int) -> None:
        """Grow the ring to hold ``need`` ids, unrolling it head first."""
        buf = self._buf
        if need <= buf.size:
            return
        grown = np.empty(max(need, min(2 * buf.size, self._capacity)), dtype=np.int64)
        size = self._size
        first = min(size, buf.size - self._head)
        grown[:first] = buf[self._head:self._head + first]
        grown[first:size] = buf[: size - first]
        self._buf = grown
        self._head = 0

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def head(self) -> int:
        """Peek the id at the front (the next :meth:`popleft`)."""
        return int(self._buf[self._head])

    def append(self, rid: int) -> None:
        if self._size == self._buf.size:
            self._reserve(self._size + 1)
        buf = self._buf
        buf[(self._head + self._size) % buf.size] = rid
        self._size += 1
        self._add(rid, 1)

    def extend(self, rids: np.ndarray) -> None:
        count = int(rids.size)
        self._reserve(self._size + count)
        buf = self._buf
        n = buf.size
        start = (self._head + self._size) % n
        first = min(count, n - start)
        buf[start : start + first] = rids[:first]
        if first < count:
            buf[: count - first] = rids[first:]
        self._size += count
        self._add_many(rids[:count], 1)

    def popleft(self) -> int:
        rid = int(self._buf[self._head])
        self._head = (self._head + 1) % self._buf.size
        self._size -= 1
        self._add(rid, -1)
        return rid

    def pop_many(self, count: int) -> None:
        """Drop the first ``count`` ids (already read via head_array)."""
        self._add_many(self._front(count), -1)
        self._head = (self._head + count) % self._buf.size
        self._size -= count

    def _front(self, count: int) -> np.ndarray:
        """The first ``count`` ids: a ring view when they are contiguous,
        else a joined copy."""
        buf, head = self._buf, self._head
        end = head + count
        if end <= buf.size:
            return buf[head:end]
        return np.concatenate((buf[head:], buf[: end - buf.size]))

    def head_array(self, count: int) -> np.ndarray:
        """The first ``min(count, len)`` ids, head first, as a copy."""
        count = min(count, self._size)
        front = self._front(count)
        if self._head + count <= self._buf.size:
            return front.copy()  # a view into the ring
        return front

    def as_array(self) -> np.ndarray:
        """Every queued id, head first, as a copy."""
        return self.head_array(self._size)

    def clear(self) -> None:
        self._head = 0
        self._size = 0
        self.input_tokens = 0
        self.output_tokens = 0

    def remove(self, rid: int) -> None:
        """Drop the first occurrence of ``rid`` (priority eviction).

        Raises:
            ValueError: if the id is not queued here.
        """
        ids = self.as_array()
        hits = np.flatnonzero(ids == rid)
        if hits.size == 0:
            raise ValueError(f"request {rid} is not queued")
        kept = np.delete(ids, hits[0])
        self._head = 0
        self._size = int(kept.size)
        self._buf[: kept.size] = kept
        self._add(rid, -1)


class OnlineServer:
    """Base class of the online serving drivers -- a *steppable replica*.

    A server owns its scheduling policy and per-run engine state, but
    neither the request pool nor the event loop: :meth:`reset` binds it to
    a timeline and a (possibly shared) pool, after which a driver -- its
    own :meth:`serve` in the single-server case, a
    :class:`~repro.serving.fleet.Fleet` for N replicas behind a router --
    hands it request ids (:meth:`enqueue`) and steps it (:meth:`iterate`)
    through the shared :class:`ServingLoop`.  The server only ever touches
    the replica-local ids routed to it, so any number of replicas can
    operate on disjoint id slices of one shared pool.

    Subclasses implement one engine iteration (admit queued ids, plan the
    iteration's stage tasks through the shared :class:`ExecutionEngine`,
    advance the pool) and report the next iteration's start clock; the
    engine's deferred bookkeeping is resolved once, after the loop drains,
    by :meth:`resolve_records`.

    **Admission-queue bound.**  ``max_queue`` is the capacity of the
    replica-local admission queue, enforced at the instant of handoff:
    :meth:`enqueue` refuses (returns ``False``) exactly when
    ``queue_depth == max_queue``, and a refused arrival is *rejected* --
    dropped permanently, never retried.  Draining the queue into the
    engine is the subclass's scheduling policy and never rejects.  A fleet
    applies the same per-replica bound at its routing boundary (an arrival
    is rejected only when every routable replica's queue is full), so
    single-server and fleet rejection accounting agree by construction.

    **Outstanding work.**  :meth:`outstanding_tokens` is an exact integer
    counter, not a column reduction: the queue keeps the input and output
    token sums of its ids, and the server keeps the tokens its in-flight
    ids still owe.  :meth:`iterate` brackets the subclass's
    :meth:`_iterate` with reads of the queue's output sum and the pool's
    :attr:`~repro.engine.pool.RequestPool.generated_total`: the output
    tokens that left the queue join the in-flight debt, and the tokens the
    pool generated leave it.  That is exact under one contract, which both
    drivers here keep: every id :meth:`_iterate` takes from the queue stays
    in :meth:`_in_flight_ids` until the pool marks it done or the fleet
    reclaims it (:meth:`preempt`, :meth:`crash`).

    Args:
        name: System name used in results.
        max_queue: Admission-queue capacity; arrivals beyond it are rejected.
    """

    def __init__(self, name: str, max_queue: int = 512) -> None:
        require_count("max_queue", max_queue)
        self.name = name
        self.max_queue = max_queue
        #: Straggler factor (durations multiply by it); the fleet sets it
        #: per serve from the fault schedule.  1.0 = healthy.
        self.slowdown = 1.0
        self._engine: ExecutionEngine | None = None
        self._pool: RequestPool | None = None
        self._queue = IdQueue(max_queue)
        # Bumped on every mutation that can change the replica's load, so
        # snapshot readers (JSQ's load_snapshot, the load-shedding memo)
        # can tell whether anything moved since their last read.
        self._load_version = 0
        # Tokens the in-flight ids still owe (see "Outstanding work").
        self._owed = 0

    # -- subclass hooks ----------------------------------------------------------

    def _reset(self, timeline: Timeline, pool: RequestPool) -> None:
        """Prepare per-run state (alive set, KV cache, engine, ...)."""
        raise NotImplementedError

    def _busy(self) -> bool:
        """Whether admitted-but-unfinished work remains."""
        raise NotImplementedError

    def _iterate(self, clock: float) -> float:
        """Run one engine iteration starting at ``clock``; returns the next
        iteration's start clock (must make progress whenever work was done)."""
        raise NotImplementedError

    def _in_flight_ids(self) -> np.ndarray:
        """Ids admitted into the engine and not yet shed by compaction."""
        return self._active

    def _crash(self) -> None:
        """Drop all engine scheduling state (subclass hook)."""
        raise NotImplementedError

    # -- steppable replica API ----------------------------------------------------

    def reset(self, timeline: Timeline, pool: RequestPool) -> None:
        """Bind the replica to a run: a fresh timeline and a (possibly
        shared) request pool it does not own.  Clears the admission queue
        and all per-run engine state."""
        self._timeline = timeline
        self._pool = pool
        self._queue = IdQueue(self.max_queue, pool.input_len, pool.output_len)
        self._load_version = 0
        self._owed = 0
        self._reset(timeline, pool)

    @property
    def busy(self) -> bool:
        """Whether admitted-but-unfinished work remains in the engine."""
        return self._busy()

    @property
    def queue_depth(self) -> int:
        """Ids waiting in the replica-local admission queue (O(1))."""
        return len(self._queue)

    @property
    def in_flight(self) -> int:
        """Ids admitted into the engine and not yet finished (O(1)).

        Routing policies read this per replica per decision, so it must
        count without materializing the id arrays (subclasses with extra
        in-flight stashes override the *count*, not :meth:`_in_flight_ids`,
        for this path).
        """
        return int(self._active.size)

    def enqueue(self, rid: int) -> bool:
        """Id handoff into the local admission queue.

        Returns ``False`` -- without side effects -- when the queue is at
        ``max_queue``; the caller must then reject the arrival (it is
        never retried).
        """
        if len(self._queue) >= self.max_queue:
            return False
        self._queue.append(rid)
        self._load_version += 1
        return True

    def enqueue_batch(self, rids: np.ndarray) -> int:
        """Admit the longest possible prefix of ``rids`` into the queue.

        Returns the count accepted -- exactly what per-id :meth:`enqueue`
        calls in the same order would accept, since the queue only grows
        during an ingest batch.  The caller rejects the rest.
        """
        space = self.max_queue - len(self._queue)
        if space <= 0:
            return 0
        accepted = min(space, int(rids.size))
        self._queue.extend(rids[:accepted])
        self._load_version += 1
        return accepted

    def queued_ids(self) -> list[int]:
        """The admission queue's ids, head first (admission-policy view)."""
        return self._queue.as_array().tolist()

    def drain_queue(self) -> np.ndarray:
        """Empty the admission queue, returning its ids head first.

        The crash-reclaim primitive: one ring-buffer slice and one clear,
        so the fleet's crash handler never walks the queue itself.
        """
        ids = self._queue.as_array()
        self._queue.clear()
        self._load_version += 1
        return ids

    def remove_queued(self, rid: int) -> None:
        """Drop one id from the admission queue (priority eviction).

        Raises:
            ValueError: if the id is not queued here.
        """
        self._queue.remove(rid)
        self._load_version += 1

    def preemptible_ids(self) -> np.ndarray:
        """In-flight ids a priority policy may preempt (the running batch;
        ids parked in a KV handover are not preemptible)."""
        return self._active

    def preempt(self, rid: int) -> None:
        """Evict one id from the running batch (priority preemption).

        The caller owns the rest of the preemption protocol: rewinding the
        id's progress through ``pool.requeue`` and re-enqueueing it.

        Raises:
            ValueError: if the id is not in the running batch.
        """
        remaining = self._active[self._active != rid]
        if remaining.size == self._active.size:
            raise ValueError(f"request {rid} is not in the running batch")
        self._active = remaining
        pool = self._pool
        self._owed -= pool.output_len_of(rid) - int(pool.generated[rid])
        self._load_version += 1
        self._release_preempted(rid)

    def _release_preempted(self, rid: int) -> None:
        """Free per-request engine resources of a preempted id (hook)."""

    def crash(self) -> None:
        """Lose all engine scheduling state mid-serve (replica failure).

        The caller (the fleet's crash handler) drains the admission queue
        and requeues the in-flight ids first; this call then forgets the
        running batch, KV state and iteration chaining.  The timeline and
        deferred bookkeeping survive: work the replica already executed
        stays priced, and stale events of ids that finish elsewhere are
        filtered out at record resolution by final assignment.
        """
        self._load_version += 1
        self._owed = 0
        self._crash()

    def iterate(self, clock: float) -> float:
        """Run one engine iteration starting at ``clock``; returns the
        next iteration's start clock."""
        self._load_version += 1
        queue = self._queue
        pool = self._pool
        queued_output = queue.output_tokens
        generated = pool.generated_total
        next_clock = self._iterate(clock)
        self._owed += (queued_output - queue.output_tokens) - (
            pool.generated_total - generated
        )
        return next_clock

    def outstanding_tokens(self) -> int:
        """Tokens owed by everything routed to this replica (O(1)).

        Queued ids owe their prefill (input tokens) and full generation;
        in-flight ids owe their remaining generation.  Exact counters (see
        "Outstanding work" above) equal the column reduction
        ``total_input(queued) + remaining_tokens(queued) +
        remaining_tokens(in flight)`` at every read; 0 before the first
        serve.
        """
        queue = self._queue
        return queue.input_tokens + queue.output_tokens + self._owed

    def service_rate(self) -> float:
        """Cost-model estimate of the replica's token throughput (tokens/s).

        Least-outstanding-work routing divides each replica's
        :meth:`outstanding_tokens` by this rate, so replicas -- including
        heterogeneous ones -- are compared in estimated drain *time*.
        """
        raise NotImplementedError

    def effective_service_rate(self) -> float:
        """:meth:`service_rate` corrected for the straggler slowdown.

        Routing and load shedding compare replicas through this, so a 4x
        straggler looks (and is) 4x slower.  At the default slowdown of
        1.0 the rate is returned untouched, bit for bit.
        """
        rate = self.service_rate()
        if self.slowdown == 1.0:
            return rate
        return rate / self.slowdown

    def clone(self, name: str | None = None) -> "OnlineServer":
        """A fresh, identically configured server (a fleet replica)."""
        raise NotImplementedError

    def resolve_records(
        self,
        records: RecordColumns,
        assignments: np.ndarray | None = None,
        index: int = 0,
    ) -> None:
        """Resolve the engine's deferred bookkeeping into the record
        columns of the ids this replica served -- one gather and one
        scatter per event kind.

        With ``assignments`` (the fleet's final id->replica map), each
        event kind is filtered to the ids whose *final* assignment is
        this replica: a crashed or preempting replica's bookkeeping holds
        stale events for ids that finished elsewhere, and without the
        filter a lower-indexed replica's stale stamps would overwrite a
        survivor's real ones.  Within one replica, the later event of a
        requeued id overwrites its earlier partial stamp
        (:func:`~repro.engine.pool.scatter_last`), which is the correct
        final state.
        """
        columns = {
            "admitted": records.admitted_s,
            "first_token": records.first_token_s,
            "finish": records.finish_s,
        }
        bookkeeping = self._engine.bookkeeping
        for event, ids, when in bookkeeping.resolve_events(self._timeline):
            if assignments is not None:
                mine = assignments[ids] == index
                ids, when = ids[mine], when[mine]
            if ids.size:
                scatter_last(columns[event], ids, when)

    # -- the single-replica serving entry point -----------------------------------

    def serve(
        self,
        trace: WorkloadTrace,
        scenario: str = "",
        offered_rate_qps: float = 0.0,
    ) -> OnlineResult:
        """Serve an arrival-stamped trace and collect per-request records.

        Loads the trace into a :class:`RequestPool` and hands it to
        :meth:`serve_pool`.
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
    ) -> OnlineResult:
        """Serve an arrival-stamped request pool directly.

        The single server is a 1-replica
        :class:`~repro.serving.fleet.Fleet`: the same loop and router, and
        an arrival that finds the queue at ``max_queue`` is rejected.  The
        trace-free entry point for large sweeps: a million-request pool
        built from arrays (:meth:`RequestPool.from_arrays`) is served
        without ever materializing per-request spec or record objects on
        the hot path.  The pool's generation progress is reset first, so
        the same pool can be served repeatedly (across configs or fleets);
        without the reset a second serve would see every request already
        ``done`` and silently complete nothing.
        """
        # Imported here: the fleet module builds on this one.
        from repro.serving.fleet import Fleet

        records, counts = Fleet([self], name=self.name)._run(pool)
        return OnlineResult.from_columns(
            system=self.name,
            scenario=scenario,
            offered_rate_qps=offered_rate_qps,
            columns=records,
            makespan_s=self._timeline.makespan_s,
            extra=self._extra(counts[0]),
        )

    def _extra(self, iterations: int) -> dict[str, float]:
        return {"iterations": float(iterations)}


# ---------------------------------------------------------------------------
# Driver 1: iteration-level continuous batching (ORCA / vLLM online)
# ---------------------------------------------------------------------------


class ContinuousBatchingOnlineServer(OnlineServer):
    """Online driver for the ORCA-family baselines.

    Replays the baseline's iteration-level policy against an arrival stream:
    each iteration decodes the running batch and prefills at most
    ``system.max_prefills_per_iteration`` newly admitted requests, subject to
    the batch cap and the system's KV cache (contiguous for ORCA, paged for
    vLLM).

    Args:
        system: The cost/KV model, an :class:`Orca` or :class:`Vllm` (any
            other system is a ``TypeError``: it has no such cycle).
        batch_size: Running-batch cap (typically from ``configure_for_bound``).
        max_queue: Admission-queue capacity.

    Every cycle is the offline replay's :meth:`Orca.cycle` over the head of
    the queue, released at the clock and without a plan, so it emits
    through :meth:`~repro.engine.execution.ExecutionEngine.mixed_decode_template`,
    priced from plain floats straight onto the timeline.
    """

    def __init__(
        self,
        system: Orca,
        batch_size: int,
        max_queue: int = 512,
        name: str | None = None,
    ) -> None:
        if not isinstance(system, Orca):
            raise TypeError(
                f"system must be an Orca or Vllm, not {type(system).__name__}"
            )
        require_count("batch_size", batch_size)
        super().__init__(name=name or f"{system.name}-online", max_queue=max_queue)
        self.system = system
        self.batch_size = batch_size

    def clone(self, name: str | None = None) -> "ContinuousBatchingOnlineServer":
        return ContinuousBatchingOnlineServer(
            system=self.system,
            batch_size=self.batch_size,
            max_queue=self.max_queue,
            name=name or self.name,
        )

    def service_rate(self) -> float:
        """Token throughput of a full decode batch at the workload's mean
        context, priced through the baseline's profiled stage times."""
        system = self.system
        context = (
            system.input_distribution.mean + system.output_distribution.mean / 2.0
        )
        step_s = sum(
            system.decode_times(system.placement.stages, self.batch_size, context)
        )
        if step_s <= 0:
            return float("inf")
        return self.batch_size / step_s

    def _reset(self, timeline: Timeline, pool: RequestPool) -> None:
        self._active = EMPTY_IDS
        self._cache = self.system._make_kv_cache()
        self._prev_last_task: TaskRef | None = None
        self._engine = self.system.make_engine(timeline, pool)

    def _crash(self) -> None:
        # The running batch and its KV state die with the replica; the
        # iteration chain is cut so the restarted replica plans afresh.
        self._active = EMPTY_IDS
        self._cache = self.system._make_kv_cache()
        self._prev_last_task = None

    def _release_preempted(self, rid: int) -> None:
        self.system._release(self._cache, self._pool, rid)

    def _busy(self) -> bool:
        return bool(self._active.size)

    def _iterate(self, clock: float) -> float:
        queue = self._queue
        pending = (
            queue.head_array(self.system.max_prefills_per_iteration)
            if queue else EMPTY_IDS
        )
        self._active, admitted, last = self.system.cycle(
            self._engine, self._cache, self.batch_size, self._active, pending,
            prev_last=self._prev_last_task, release_s=clock,
        )
        for _ in range(admitted):
            queue.popleft()
        self._prev_last_task = last
        return self._timeline.finish_time(last.task_id)

    def _extra(self, iterations: int) -> dict[str, float]:
        return {
            "iterations": float(iterations),
            "batch_size": float(self.batch_size),
            "peak_kv_gib": self._cache.peak_bytes / (1024 ** 3),
        }


# ---------------------------------------------------------------------------
# Driver 2: ExeGPT schedules online (RRA and WAA)
# ---------------------------------------------------------------------------


class ExeGPTOnlineServer(OnlineServer):
    """Enforces an ExeGPT schedule against an arrival stream.

    RRA runs in cycles: an encode phase admits arrived requests (dynamic
    workload adjustment, Section 5.2), then ``N_D`` pipelined decode
    iterations run over the standing pool.  WAA encodes on its dedicated
    stages concurrently with decoding (``N_D = 1``), handing batches to the
    decode pool through the KV-transfer link.  Admission is gated by the
    simulated clock: only requests that have actually arrived can join an
    encode phase, and an idle server fast-forwards to the next arrival.

    Args:
        simulator: The XSimulator holding profile and distributions.
        config: The schedule to enforce (typically ``XScheduler``'s best).
        max_queue: Admission-queue capacity.
        dynamic_adjustment: Enable the Section 5.2 admission adjuster.

    Each cycle is the engine's cycle body, shared with the offline
    :class:`~repro.core.runner.XRunner`: RRA's
    :meth:`~repro.engine.execution.ExecutionEngine.rra_cycle` (a committed
    encode plan, then the bulk ``decode_run``) and WAA's
    :meth:`~repro.engine.execution.ExecutionEngine.waa_cycle` (encode,
    KV transfer, merge and one ``decode_iteration`` in one plan, which
    this server commits per iteration).  The server keeps only what
    differs from the replay: admission from the arrived queue, release at
    the cycle's clock, and the next cycle's start time.
    """

    def __init__(
        self,
        simulator: XSimulator,
        config: ScheduleConfig,
        max_queue: int = 512,
        dynamic_adjustment: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(
            name=name or f"exegpt-{config.policy.value}-online", max_queue=max_queue
        )
        self.simulator = simulator
        self.config = config
        self.profile = simulator.profile
        self.model = simulator.model
        self.placement = simulator.build_placement(config)
        self.dynamic_adjustment = dynamic_adjustment
        self.decoder_only = not self.model.is_encoder_decoder
        self.is_waa = config.policy.is_waa
        # Layers whose KV cache a WAA batch hands to the decoder stages.
        self._kv_layers = self.model.num_decoder_layers if self.decoder_only else 1

    def clone(self, name: str | None = None) -> "ExeGPTOnlineServer":
        return ExeGPTOnlineServer(
            simulator=self.simulator,
            config=self.config,
            max_queue=self.max_queue,
            dynamic_adjustment=self.dynamic_adjustment,
            name=name or self.name,
        )

    def service_rate(self) -> float:
        """The simulator's steady-state token throughput of the schedule."""
        return self.simulator.estimate(self.config).throughput_tokens_per_s

    @property
    def in_flight(self) -> int:
        """Decode pool plus batches waiting in the KV handover (O(1))."""
        return int(self._active.size) + self._handover.pending_count

    def _in_flight_ids(self) -> np.ndarray:
        if not self._handover:
            return self._active
        return np.concatenate([self._active, self._handover.pending_ids()])

    def _reset(self, timeline: Timeline, pool: RequestPool) -> None:
        self._active = EMPTY_IDS
        self._adjuster = DynamicWorkloadAdjuster.for_schedule(
            self.simulator, self.config, self.dynamic_adjustment
        )
        self._decode_target = max(int(round(self._adjuster.target_decode_batch)), 1)
        self._freed_last_cycle = 0
        # Maps group index -> previous iteration's tail (a task of the
        # last committed plan; WAA chains each cycle's decode iteration
        # onto it).
        self._prev_iter_last: dict[int, object] = {}
        # WAA: batches encoded but not yet merged into the decode pool.
        self._handover = KVHandover()
        self._engine = ExecutionEngine(
            timeline,
            self.profile,
            self.placement,
            pool,
            decoder_only=self.decoder_only,
        )

    def _crash(self) -> None:
        # Decode pool, handover stash and the adjuster's admission memory
        # die with the replica; the timeline survives.
        self._active = EMPTY_IDS
        self._adjuster = DynamicWorkloadAdjuster.for_schedule(
            self.simulator, self.config, self.dynamic_adjustment
        )
        self._freed_last_cycle = 0
        self._prev_iter_last = {}
        self._handover = KVHandover()

    def _busy(self) -> bool:
        return bool(self._active.size) or bool(self._handover)

    def _admit_from_queue(self) -> np.ndarray:
        adjuster = self._adjuster
        head = self._queue.head_array(adjuster.max_admit)
        count = adjuster.admit_count(
            self._pool.input_lens(head), self._active.size, self._freed_last_cycle
        )
        admitted = head[:count]
        self._queue.pop_many(count)
        return admitted

    def _iterate(self, clock: float) -> float:
        if self.is_waa:
            return self._iterate_waa(clock)
        return self._iterate_rra(clock)

    # -- RRA: encode phase + N_D decode iterations per cycle ---------------------

    def _iterate_rra(self, clock: float) -> float:
        stages = self.placement.stages
        self._active, self._freed_last_cycle = self._engine.rra_cycle(
            max(len(stages), 1),
            self.config.decode_iterations,
            self._active,
            self._admit_from_queue(),
            release_s=clock,
        )
        # The next cycle's encode can begin once the first stage drains.
        return self._timeline.stage_free_at(stages[0].stage_id, default=clock)

    # -- WAA: concurrent encode + one pipelined decode iteration ------------------

    def _iterate_waa(self, clock: float) -> float:
        engine = self._engine
        plan = engine.plan()
        self._active, self._freed_last_cycle = engine.waa_cycle(
            plan,
            self.config.micro_batches,
            self._kv_layers,
            self._active,
            self._admit_from_queue() if self._queue else EMPTY_IDS,
            self._handover,
            self._prev_iter_last,
            release_s=clock,
        )
        engine.commit(plan)
        # Advance to the next time an admission decision can change: the
        # encoder freeing up or the decode iteration just built finishing.
        # Only strictly-future times count -- a stale encoder free-time from
        # an earlier batch must not freeze the clock (and with it arrival
        # ingestion) while the decode side is still draining the pool.
        placement = self.placement
        candidates = [
            self._timeline.stage_free_at(
                ("enc", placement.encode_stages[0].stage_id), default=-1.0
            ),
            self._timeline.stage_free_at(
                ("dec", placement.decode_stages[0].stage_id), default=-1.0
            ),
        ]
        future = [c for c in candidates if c > clock]
        return min(future) if future else clock

    def _extra(self, iterations: int) -> dict[str, float]:
        return {
            "iterations": float(iterations),
            "decode_batch_target": float(self._decode_target),
        }


# ---------------------------------------------------------------------------
# Rate sweeps: maximum sustainable QPS under an SLO
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatePoint:
    """One (system, scenario, rate) measurement of a sweep.

    Attributes:
        system / scenario: What was measured.
        rate_qps: Offered mean arrival rate.
        sustainable: Whether the SLO held (and nothing was rejected).
        result: The full online result.
    """

    system: str
    scenario: str
    rate_qps: float
    sustainable: bool
    result: OnlineResult


class OnlineEvaluator:
    """Sweeps offered request rates to find each system's capacity.

    For every (system, scenario, rate) triple the evaluator stamps the shared
    request trace with scenario arrivals at that rate, serves it online, and
    checks the SLO; the *maximum sustainable QPS* is the highest offered rate
    whose run completes every request within the SLO.

    Sweeps are fleet-aware: every measurement method accepts ``replicas``
    (deployment size) and ``routing`` (policy name or
    :class:`~repro.serving.fleet.RoutingPolicy`).  With ``replicas=1``
    (default) the system's single server serves the trace; with
    ``replicas=N`` an N-replica :class:`~repro.serving.fleet.Fleet` of
    cloned servers serves it over one shared pool, the offered rate is the
    *fleet-wide* rate, and the SLO is checked on the fleet-wide result
    (per-replica results stay available via :meth:`fleet`).  Fleets are
    cached per (system, replicas, policy) just like servers, so the
    schedule search still runs once per system.

    The SLO is an :class:`~repro.serving.sla.SLA` evaluated against
    end-to-end latency (queueing included); ``max_rejection_rate`` relaxes
    the no-drops requirement.

    One :class:`~repro.core.simulator.EstimateContext` backs the whole
    sweep.  The memoization itself lives on the simulator (``context`` is
    its lazily built, cached property); the evaluator forces and pins that
    context at construction and exposes it as :attr:`context`, so even if
    the engine's distributions are swapped mid-sweep the servers built here
    keep pricing against one consistent set of memoized placements,
    distribution statistics and RRA completion arrays.  The schedule search
    runs once per *system* -- when its server is first built, cached in
    ``_servers`` -- never per offered rate.

    Args:
        engine: The ExeGPT instance providing model, profile, distributions.
        trace: The request trace (lengths only; arrivals are stamped per
            sweep point).
        slo: The latency SLO.
        max_queue: Admission-queue capacity for every server.
        schedule_headroom: Fraction of the SLO bound given to the schedule
            search / batch configuration; the remainder absorbs queueing.
        max_rejection_rate: Tolerated fraction of dropped requests.
        seed: Seed for arrival sampling (one fixed stream per sweep point).
        servers / fleets: Optional externally owned server/fleet caches.
            Evaluators are cheap to construct but the schedule search
            behind :meth:`server` is not; callers that rebuild an
            evaluator per measurement from picklable specs -- the campaign
            workers in :mod:`repro.campaign.runner` -- pass shared dicts
            here so every evaluator of one process reuses the same
            searched servers and cloned fleets.  The caches are keyed by
            system / (system, replicas, policy) only, so share them
            exclusively between evaluators with identical engine, SLO,
            ``max_queue`` and ``schedule_headroom``.
    """

    def __init__(
        self,
        engine,
        trace: WorkloadTrace,
        slo: SLA,
        max_queue: int = 512,
        schedule_headroom: float = 0.7,
        max_rejection_rate: float = 0.0,
        seed: int = 0,
        servers: dict | None = None,
        fleets: dict | None = None,
    ) -> None:
        if not 0 < schedule_headroom <= 1:
            raise ValueError("schedule_headroom must be in (0, 1]")
        self.engine = engine
        self.trace = trace
        self.slo = slo
        self.max_queue = max_queue
        self.schedule_headroom = schedule_headroom
        self.max_rejection_rate = max_rejection_rate
        self.seed = seed
        self._servers: dict[str, OnlineServer] = (
            servers if servers is not None else {}
        )
        self._fleets: dict[tuple[str, int, str], object] = (
            fleets if fleets is not None else {}
        )
        # Force the simulator's lazily built memoized context now and pin it
        # for the evaluator's lifetime (see the class docstring).
        self.context = engine.simulator.context

    # -- server / fleet construction -----------------------------------------------

    def server(self, system: str) -> OnlineServer:
        """Build (and cache) the online server for a system name.

        Construction lives in
        :func:`repro.serving.evaluation.build_online_server`: ``"exegpt"``
        searches RRA/WAA schedules under the headroom-scaled SLO bound;
        ``"orca"`` / ``"vllm"`` configure the baseline's batch size for the
        same bound.
        """
        from repro.serving.evaluation import build_online_server

        key = system.lower()
        if key in self._servers:
            return self._servers[key]
        server = build_online_server(
            self.engine,
            key,
            self.slo.bound_s,
            max_queue=self.max_queue,
            schedule_headroom=self.schedule_headroom,
        )
        self._servers[key] = server
        return server

    def fleet(self, system: str, replicas: int, routing="jsq"):
        """Build (and cache) an N-replica fleet of a system's server.

        The fleet's replicas are clones of the cached single server, so the
        schedule search / batch configuration runs once per system no
        matter how many deployment sizes are swept.  Fleets are cached per
        (system, replicas, policy *name*) for string routings; a
        :class:`~repro.serving.fleet.RoutingPolicy` *instance* is the
        caller's own (possibly stateful or instrumented) object, so it
        always gets a fresh, uncached fleet built around exactly that
        instance.
        """
        from repro.serving.fleet import Fleet, RoutingPolicy, make_routing

        if isinstance(routing, RoutingPolicy):
            return Fleet.homogeneous(self.server(system), replicas, routing=routing)
        key = (system.lower(), replicas, make_routing(routing).name)
        if key in self._fleets:
            return self._fleets[key]
        fleet = Fleet.homogeneous(self.server(system), replicas, routing=routing)
        self._fleets[key] = fleet
        return fleet

    # -- sweeping --------------------------------------------------------------------

    def measure(
        self,
        system: str,
        process: ArrivalProcess,
        scenario: str = "",
        replicas: int = 1,
        routing="jsq",
    ) -> RatePoint:
        """Serve the trace under one arrival process and check the SLO.

        With ``replicas > 1`` the trace is served by an N-replica fleet;
        ``process.rate_qps`` is then the fleet-wide offered rate and the
        returned point's result is the fleet-wide :class:`OnlineResult`.
        """
        online_trace = attach_arrivals(self.trace, process, seed=self.seed)
        if replicas <= 1:
            result = self.server(system).serve(
                online_trace,
                scenario=scenario or process.name,
                offered_rate_qps=process.rate_qps,
            )
        else:
            result = self.fleet(system, replicas, routing).serve(
                online_trace,
                scenario=scenario or process.name,
                offered_rate_qps=process.rate_qps,
            ).fleet
        return RatePoint(
            system=result.system,
            scenario=result.scenario,
            rate_qps=process.rate_qps,
            sustainable=result.satisfies(self.slo, self.max_rejection_rate),
            result=result,
        )

    def sweep(
        self,
        system: str,
        scenario: str,
        rates: list[float] | tuple[float, ...],
        stop_after_failure: bool = True,
        replicas: int = 1,
        routing="jsq",
    ) -> list[RatePoint]:
        """Measure one system over increasing offered rates of a scenario.

        With ``stop_after_failure`` the sweep aborts once a rate misses the
        SLO (capacity is monotone in practice, so higher rates only waste
        simulation time).
        """
        points: list[RatePoint] = []
        for rate in sorted(rates):
            process = make_scenario(scenario, rate)
            point = self.measure(
                system, process, scenario=scenario,
                replicas=replicas, routing=routing,
            )
            points.append(point)
            if stop_after_failure and not point.sustainable:
                break
        return points

    def max_sustainable_qps(
        self,
        system: str,
        scenario: str,
        rates: list[float] | tuple[float, ...],
        replicas: int = 1,
        routing="jsq",
        refine_steps: int = 0,
    ) -> float:
        """Highest offered rate of ``rates`` the deployment sustains (0 if
        none).  ``replicas``/``routing`` select an N-replica fleet; rates
        are fleet-wide, so an N-replica sweep is typically handed a rate
        grid scaled by N.

        ``refine_steps`` adds a bisection stage after the coarse ladder:
        when the ladder brackets the capacity (a sustainable rate directly
        below an unsustainable one), each step serves the midpoint rate
        and halves the bracket, so a sweep resolves capacity to
        ``gap / 2**refine_steps`` with ``refine_steps`` extra serves
        instead of a finer ladder's full grid.  SLO semantics are exactly
        the ladder's (:meth:`measure` per point); at the default of 0 the
        result is the ladder-only reference, bit for bit.
        """
        best = 0.0
        failed = 0.0
        for point in self.sweep(
            system, scenario, rates, replicas=replicas, routing=routing
        ):
            if point.sustainable:
                best = max(best, point.rate_qps)
            else:
                failed = point.rate_qps
        if refine_steps > 0 and best > 0.0 and failed > best:
            lo, hi = best, failed
            for _ in range(refine_steps):
                mid = (lo + hi) / 2.0
                point = self.measure(
                    system, make_scenario(scenario, mid), scenario=scenario,
                    replicas=replicas, routing=routing,
                )
                if point.sustainable:
                    lo = mid
                else:
                    hi = mid
            best = lo
        return best

    def evaluate(
        self,
        systems: tuple[str, ...] = ("exegpt", "orca", "vllm"),
        scenarios: tuple[str, ...] = ("steady", "bursty", "diurnal"),
        rates: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0),
        replicas: int = 1,
        routing="jsq",
    ) -> dict[tuple[str, str], float]:
        """Max sustainable QPS for every (system, scenario) pair."""
        table: dict[tuple[str, str], float] = {}
        for system in systems:
            for scenario in scenarios:
                table[(system, scenario)] = self.max_sustainable_qps(
                    system, scenario, rates, replicas=replicas, routing=routing
                )
        return table
