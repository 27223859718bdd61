"""Columnar array-backed request pool.

Request lifecycle state used to live in per-request dataclasses that every
driver held in Python lists: each scheduling cycle re-scanned those lists
for ``done`` flags, summed context lengths request by request, and stamped
timestamps attribute by attribute.  Once pricing and iteration
construction were vectorized, exactly those per-object scans dominated
replay profiles.

:class:`RequestPool` is the structure-of-arrays replacement: static
columns (``request_id``, ``input_len``, ``output_len``, ``arrival_s``) and
generation progress (``generated`` and a ``done`` mask), all indexed by a
*stable* request id (the row index, assigned at admission and never reused
or moved).  It holds no timestamps: a request's times are resolved from the
engine's bookkeeping into the columns of the run's result.  Every hot
operation is one vectorized pass:

* **batch admission** -- :meth:`from_trace` loads a whole trace at once;
* **advance** -- ``generated[ids] += tokens`` with first-token/completion
  detection as mask reductions;
* **compaction** -- :meth:`compact` filters an id array through the done
  mask (no per-request ``done`` scans, ids keep their identity);
* **grouped sums** -- :meth:`average_context` / :meth:`average_input` /
  :meth:`context_token_sum` reduce whole micro-batches in one call;
* **counts** -- :attr:`alive_count` / :attr:`done_count` and
  :attr:`generated_total` are O(1), maintained incrementally by every
  operation that moves the ``generated`` column.

The per-object implementation it replaced -- a list of ``RequestState``
objects with the historical ``done`` scans -- lives on as the test oracle
``tests/reference/pool.py``:
the hypothesis parity suite (``tests/engine/test_pool.py``) drives both
through random schedules and asserts identical behaviour, and the golden
replay fixtures hold on both.

**Multi-owner discipline.**  Because ids are stable and every lifecycle
operation touches only the ids it is given, one pool can safely back many
*owners* at once -- e.g. a routing fleet (:mod:`repro.serving.fleet`) hands
each replica a disjoint replica-local id slice of one shared pool.  Owners
holding disjoint id arrays cannot observe each other's advances or
compactions (no shared alive list exists to scan), a completed id dropped
by one owner can never resurrect under another (the done mask is global and
monotone), and fleet-wide aggregates (queue depth, throughput, SLO
attainment) reduce over the shared columns -- O(1) counters or one gather
per id slice.  Outstanding work is kept per replica instead, as an exact
counter: a server reads :attr:`RequestPool.generated_total` before and
after each iteration, since only its own ids advance in between.  The
hypothesis suite pins this: interleaved schedules over disjoint slices of
one shared pool match N independent pools exactly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.workloads.trace import WorkloadTrace

#: Shared empty id array; drivers use it as the initial alive set.
EMPTY_IDS = np.empty(0, dtype=np.int64)


def scatter_last(column: np.ndarray, ids: np.ndarray, values) -> None:
    """``column[ids] = values`` where a repeated id keeps its *last* value.

    numpy does not define which value lands when a fancy assignment
    repeats an index.  After the plain scatter, one gather checks that
    every occurrence agrees with what landed -- true whenever no id repeats
    with different values, so the common case costs one extra gather --
    and only otherwise is each id re-stamped from its last occurrence.
    """
    column[ids] = values
    if np.ndim(values) == 0 or np.array_equal(column[ids], values):
        return
    _, from_end = np.unique(ids[::-1], return_index=True)
    last = ids.size - 1 - from_end
    column[ids[last]] = values[last]


class DecodeStep(NamedTuple):
    """Result of one micro-batch's fused decode step (see ``decode_step``).

    Attributes:
        batch: Members the step computes over (prices the stage tasks).
        avg_context: Mean attention-context length of those members,
            *before* the advance.
        context_tokens: Total context tokens (peak-KV accounting).
        first_ids: Members that produced their first token this step.
        completed_ids: Members that finished this step (order preserved).
    """

    batch: int
    avg_context: float
    context_tokens: int
    first_ids: np.ndarray
    completed_ids: np.ndarray


class DecodeRunSteps(NamedTuple):
    """Per-iteration summary of a bulk decode run (see ``decode_run``).

    Arrays are indexed by executed iteration ``i`` (0-based); the run
    executes ``len(batches)`` iterations -- the requested count, or, with
    early termination, fewer when the group drains first.  Values are
    exactly what the step-by-step loop would have produced.

    Attributes:
        batches: Members computed over at iteration ``i``.
        context_tokens: Their total attention-context tokens (pre-advance;
            with fixed slots, finished members count at their final
            context).
        first_ids: Members producing their first token (iteration 0 only,
            member order preserved).
        completed_ids: Every completed id, iteration by iteration (member
            order preserved within an iteration).
        completed_counts: Ids completing at each iteration, so iteration
            ``i``'s completers are the ``completed_counts[i]`` entries of
            ``completed_ids`` after the first ``completed_counts[:i].sum()``.
        completed_context: Total post-advance context tokens of the
            iteration's completers (the compaction workload).
    """

    batches: np.ndarray
    context_tokens: np.ndarray
    first_ids: np.ndarray
    completed_ids: np.ndarray
    completed_counts: np.ndarray
    completed_context: np.ndarray


class RequestPool:
    """Columnar store of request lifecycle state.

    Rows are append-only: a request's id (row index) is assigned at
    admission and stays valid forever -- compaction filters *id arrays*,
    never moves rows -- so ids can be handed across cycles, KV handover
    queues and bookkeeping without invalidation.

    Columns (all numpy arrays of length :attr:`size`):

    ``request_id``, ``input_len``, ``output_len``, ``arrival_s``
        Static per-request properties loaded at admission.
    ``generated``
        Tokens generated so far (int64).
    ``done``
        Boolean mask, ``generated >= output_len``; maintained by
        :meth:`advance` so compaction and counts never recompute it.
    """

    def __init__(self) -> None:
        self.request_id = EMPTY_IDS
        self.input_len = EMPTY_IDS
        self.output_len = EMPTY_IDS
        self.arrival_s = np.empty(0, dtype=float)
        self.generated = EMPTY_IDS
        self.done = np.empty(0, dtype=bool)
        self._done_count = 0
        self._generated_total = 0

    # -- construction / admission -------------------------------------------------------

    @classmethod
    def from_trace(cls, trace: WorkloadTrace) -> "RequestPool":
        """Load a whole trace in one batch admission (ids in trace order)."""
        pool = cls()
        pool.admit_specs(trace.requests)
        return pool

    @classmethod
    def from_arrays(
        cls,
        input_len: np.ndarray,
        output_len: np.ndarray,
        arrival_s: np.ndarray | None = None,
        request_id: np.ndarray | None = None,
    ) -> "RequestPool":
        """Batch admission straight from length/arrival columns.

        The million-request construction path: no per-request
        :class:`RequestSpec` objects are built.  ``request_id`` defaults
        to the row index (trace order), ``arrival_s`` to all-zero
        (already queued).  Validation matches :class:`RequestSpec`:
        lengths >= 1, arrivals finite and >= 0.
        """
        input_len = np.asarray(input_len, dtype=np.int64)
        output_len = np.asarray(output_len, dtype=np.int64)
        n = input_len.shape[0]
        if output_len.shape[0] != n:
            raise ValueError("input_len and output_len must have equal length")
        if n and (input_len.min() < 1 or output_len.min() < 1):
            raise ValueError("input_len and output_len must be >= 1")
        if arrival_s is None:
            arrival_s = np.zeros(n, dtype=float)
        else:
            arrival_s = np.asarray(arrival_s, dtype=float)
            if arrival_s.shape[0] != n:
                raise ValueError("arrival_s must match the length columns")
            # NaN fails both comparisons; +inf fails the second.
            if n and not (
                arrival_s.min() >= 0 and np.isfinite(arrival_s.max())
            ):
                raise ValueError("arrival_s must be finite and non-negative")
        if request_id is None:
            request_id = np.arange(n, dtype=np.int64)
        else:
            request_id = np.asarray(request_id, dtype=np.int64)
            if request_id.shape[0] != n:
                raise ValueError("request_id must match the length columns")
        pool = cls()
        pool.request_id = request_id.copy()
        pool.input_len = input_len.copy()
        pool.output_len = output_len.copy()
        pool.arrival_s = arrival_s.copy()
        pool.generated = np.zeros(n, dtype=np.int64)
        pool.done = np.zeros(n, dtype=bool)
        return pool

    def admit_specs(self, specs) -> np.ndarray:
        """Append a batch of :class:`RequestSpec`; returns the new ids."""
        specs = list(specs)
        if not specs:
            return EMPTY_IDS
        start = self.size
        n = len(specs)
        self.request_id = np.concatenate(
            [self.request_id, np.array([s.request_id for s in specs], dtype=np.int64)]
        )
        self.input_len = np.concatenate(
            [self.input_len, np.array([s.input_len for s in specs], dtype=np.int64)]
        )
        self.output_len = np.concatenate(
            [self.output_len, np.array([s.output_len for s in specs], dtype=np.int64)]
        )
        self.arrival_s = np.concatenate(
            [self.arrival_s, np.array([s.arrival_s for s in specs], dtype=float)]
        )
        self.generated = np.concatenate(
            [self.generated, np.zeros(n, dtype=np.int64)]
        )
        self.done = np.concatenate([self.done, np.zeros(n, dtype=bool)])
        return np.arange(start, start + n, dtype=np.int64)

    # -- sizes and counts (O(1)) ---------------------------------------------------------

    @property
    def size(self) -> int:
        """Total requests ever admitted to the pool."""
        return int(self.request_id.shape[0])

    def __len__(self) -> int:
        return self.size

    @property
    def done_count(self) -> int:
        """Requests that finished generation (O(1))."""
        return self._done_count

    @property
    def alive_count(self) -> int:
        """Requests still owing tokens (O(1))."""
        return self.size - self._done_count

    @property
    def generated_total(self) -> int:
        """Sum of the ``generated`` column (O(1)).

        A server brackets one engine iteration with two reads of it: the
        difference is exactly the tokens that iteration generated, which
        keeps its outstanding-work counter exact without a column
        reduction.
        """
        return self._generated_total

    # -- id sets ------------------------------------------------------------------------

    def ids(self) -> np.ndarray:
        """All ids, in admission (trace) order."""
        return np.arange(self.size, dtype=np.int64)

    def arrival_order(self) -> np.ndarray:
        """All ids in ``(arrival_s, request_id)`` lexicographic order.

        The serving loop's ingest order: one lexsort up front replaces any
        per-arrival queue of request objects.
        """
        return np.lexsort((self.request_id, self.arrival_s))

    def compact(self, ids: np.ndarray) -> np.ndarray:
        """Ids of ``ids`` that are still alive, order preserved.

        This is the mask-based replacement for the per-object
        ``[r for r in pool if not r.done]`` scans; ids keep their identity,
        finished ids simply drop out and can never re-enter (the done mask
        is monotone).
        """
        if ids.size == 0:
            return ids
        return ids[~self.done[ids]]

    #: Alias: filtering an id array for alive members IS the compaction.
    alive = compact

    def done_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean done flags of ``ids``."""
        return self.done[ids]

    def alive_mask(self, ids: np.ndarray) -> np.ndarray:
        """Boolean not-done flags of ``ids`` (one mask gather).

        The column reduction behind batched admission bookkeeping: a
        policy holding an id array asks in one call which of them are
        still in the system instead of testing ids one by one.
        """
        return ~self.done[ids]

    # -- vectorized lifecycle operations -------------------------------------------------

    def advance(
        self, ids: np.ndarray, tokens: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance every request of ``ids`` by ``tokens`` generated tokens.

        Returns ``(first_token_ids, completed_ids)`` -- the subsets (order
        preserved) that crossed the first-token and completion thresholds
        in this call.

        Raises:
            ValueError: if any request would exceed its output length.
        """
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        if ids.size == 0 or tokens == 0:
            return EMPTY_IDS, EMPTY_IDS
        new = self.generated[ids] + tokens
        output = self.output_len[ids]
        over = new > output
        if over.any():
            culprit = int(self.request_id[ids[over][0]])
            raise ValueError(
                f"request {culprit} would exceed its output length"
            )
        self.generated[ids] = new
        self._generated_total += tokens * int(ids.size)
        completed = ids[new == output]
        if completed.size:
            self.done[completed] = True
            self._done_count += int(completed.size)
        # First tokens: requests whose count was 0 before this call and >= 1
        # after.  (With per-iteration single-token advances this is exactly
        # ``new == 1``; the general form keeps multi-token advances honest.)
        first = ids[(new - tokens) == 0]
        return first, completed

    def decode_step(self, group: np.ndarray, decoder_only: bool) -> DecodeStep | None:
        """One early-terminating micro-batch decode step, in one gather pass.

        Combines what one decode iteration needs from its group -- alive
        filtering, batch size, average/total context length, the one-token
        advance with first-token/completion detection -- so the hot loop
        touches each column once instead of once per query.  Finished
        members leave the batch before the step.  Returns ``None`` when the
        group has no live members.
        """
        if group.size == 0:
            return None
        done = self.done[group]
        members = group[~done] if done.any() else group
        if members.size == 0:
            return None
        before = self.generated[members]
        if decoder_only:
            context_tokens = int((self.input_len[members] + before).sum())
        else:
            context_tokens = int(np.maximum(before, 1).sum())
        avg_context = context_tokens / members.size
        new = before + 1
        self.generated[members] = new
        self._generated_total += int(members.size)
        first = members[before == 0]
        completed = members[new == self.output_len[members]]
        if completed.size:
            self.done[completed] = True
            self._done_count += int(completed.size)
        return DecodeStep(
            int(members.size), avg_context, context_tokens, first, completed
        )

    def decode_run(
        self,
        group: np.ndarray,
        decoder_only: bool,
        iterations: int,
        early_termination: bool = True,
    ) -> DecodeRunSteps | None:
        """Bulk equivalent of ``iterations`` decode steps over ``group``.

        One vectorized pass replaces a per-iteration step loop: per-iteration
        batch sizes and context sums fall out of a remaining-tokens
        histogram (``bincount`` over ``output_len - generated`` clipped at
        the run length), completions are grouped by a single stable
        argsort, and the pool advances every member to its final state in
        one column assignment.

        With ``early_termination`` (ExeGPT) finished members leave the
        batch, so the run stops early once the group drains; it returns
        ``None`` when the group has no live members.  Without it
        (FasterTransformer/DSI) the slots are fixed: the run lasts exactly
        ``iterations``, and every member -- finished ones included, at
        their final context -- is computed over in every iteration, though
        only live members advance.  It returns ``None`` only for an empty
        group.

        Results and side effects are bit-identical to the step-by-step
        loop (the reference pool's implementation *is* that loop; the
        hypothesis parity suite pins the two).
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if group.size == 0:
            return None
        if early_termination:
            done = self.done[group]
            members = group[~done] if done.any() else group
            if members.size == 0:
                return None
        else:
            members = group
        gen0 = self.generated[members]
        outl = self.output_len[members]
        rem = outl - gen0
        t = int(min(iterations, int(rem.max()))) if early_termination else iterations
        # Histogram of remaining tokens, clipped at t+1: bin i+1 holds the
        # members completing at iteration i, bin t+1 the survivors (and bin
        # 0, with fixed slots, the members finished before the run).
        remc = np.minimum(rem, t + 1)
        counts = np.bincount(remc, minlength=t + 2)
        cum = np.cumsum(counts)
        n = members.size
        live = n - cum[:t]
        if decoder_only:
            base = self.input_len[members] + gen0
            ctx_done = self.input_len[members] + outl
        else:
            base = gen0
            ctx_done = outl
        wsum = np.bincount(remc, weights=base, minlength=t + 2)
        wcum = np.cumsum(wsum)
        # Sum over still-live members of (base + i); integer-valued float64
        # stays exact far below 2**53, so the int64 cast is lossless.
        still = base.sum() - wcum[:t]
        done_ctx = np.bincount(remc, weights=ctx_done, minlength=t + 2)
        if early_termination:
            batches = live
            context = still + live * np.arange(t, dtype=np.int64)
        else:
            # Finished members keep their slot at their final context.
            batches = np.full(t, n, dtype=np.int64)
            context = (
                still + live * np.arange(t, dtype=np.int64) + np.cumsum(done_ctx)[:t]
            )
        context_tokens = context.astype(np.int64)
        if not decoder_only:
            # Iteration 0 contexts clamp max(generated, 1); generated is
            # >= 1 from iteration 1 on.
            context_tokens[0] += int(np.count_nonzero(gen0 == 0))
        first_ids = members[gen0 == 0]
        # Completers sorted by completion iteration (stable: member order
        # kept within an iteration); survivors (bin t+1) sort last.
        order = np.argsort(remc, kind="stable")
        completed_ids = members[order[counts[0] : n - counts[t + 1]]]
        self.generated[members] = gen0 + np.minimum(rem, t)
        # Every member live at iteration i generates one token there.
        self._generated_total += int(live.sum())
        if completed_ids.size:
            self.done[completed_ids] = True
            self._done_count += int(completed_ids.size)
        return DecodeRunSteps(
            batches=batches,
            context_tokens=context_tokens,
            first_ids=first_ids,
            completed_ids=completed_ids,
            completed_counts=counts[1 : t + 1],
            completed_context=done_ctx[1 : t + 1].astype(np.int64),
        )

    def reset_progress(self) -> None:
        """Reset every request to the just-admitted state.

        Clears generation progress while keeping the static columns
        (lengths, arrivals, trace ids) intact.
        Serving entry points call this so one pool can be served repeatedly
        -- e.g. the same million-request pool through several fleets or
        cores -- without a stale ``done`` mask silently emptying the run.
        """
        self.generated[:] = 0
        self.done[:] = False
        self._done_count = 0
        self._generated_total = 0

    def requeue(self, ids: np.ndarray) -> None:
        """Rewind a batch of *unfinished* requests to the just-admitted state.

        The fault-injection primitive: when a replica crashes (or a decode
        is preempted back to the queue), its queued and in-flight ids are
        reclaimed through the shared pool -- generation progress resets in
        one vectorized column pass -- and re-routed as if freshly arrived.  Ids keep their
        identity (rows never move), so bookkeeping and routing state
        referencing them stay valid.

        Raises:
            ValueError: if any id is already done.  The done mask is
                monotone; a completed request can never be requeued, which
                is what makes resurrection across a crash impossible.
        """
        if ids.size == 0:
            return
        done = self.done[ids]
        if done.any():
            culprit = int(self.request_id[ids[done][0]])
            raise ValueError(
                f"request {culprit} already completed; cannot requeue"
            )
        self._generated_total -= int(self.generated[ids].sum())
        self.generated[ids] = 0

    # -- grouped reductions --------------------------------------------------------------

    def average_input(self, ids: np.ndarray) -> float:
        """Mean input length of a batch (0 for an empty batch)."""
        if ids.size == 0:
            return 0.0
        return self.input_len[ids].sum() / ids.size

    def total_input(self, ids: np.ndarray) -> int:
        """Sum of input lengths (the encoder workload of a batch)."""
        return int(self.input_len[ids].sum())

    def context_token_sum(self, ids: np.ndarray, decoder_only: bool) -> int:
        """Total attention-context tokens of the batch's next decode step."""
        if ids.size == 0:
            return 0
        if decoder_only:
            return int((self.input_len[ids] + self.generated[ids]).sum())
        return int(np.maximum(self.generated[ids], 1).sum())

    def average_context(self, ids: np.ndarray, decoder_only: bool) -> float:
        """Mean attention-context length of the next decode step."""
        if ids.size == 0:
            return 0.0
        if decoder_only:
            return (self.input_len[ids] + self.generated[ids]).sum() / ids.size
        return np.maximum(self.generated[ids], 1).sum() / ids.size

    def max_output_len(self, ids: np.ndarray) -> int:
        """Largest forced output length in the batch."""
        if ids.size == 0:
            return 0
        return int(self.output_len[ids].max())

    def remaining_tokens(self, ids: np.ndarray) -> int:
        """Total tokens the batch still owes (one gather-subtract-sum).

        The outstanding-work column reduction: finished members contribute
        zero, so an owner may pass its whole (uncompacted) id slice.  A
        server's O(1) ``outstanding_tokens`` counter must always equal it
        over the server's queued and in-flight ids.
        """
        if ids.size == 0:
            return 0
        return int(
            np.maximum(self.output_len[ids] - self.generated[ids], 0).sum()
        )

    def total_tokens(self, ids: np.ndarray) -> np.ndarray:
        """Per-request total (input + output) tokens of a batch (one gather).

        Batched routing's incremental-load column: the whole-request work
        an arrival adds to the replica that admits it.
        """
        if ids.size == 0:
            return EMPTY_IDS
        return self.input_len[ids] + self.output_len[ids]

    def done_count_of(self, ids: np.ndarray) -> int:
        """Finished requests among ``ids`` (one mask reduction)."""
        if ids.size == 0:
            return 0
        return int(np.count_nonzero(self.done[ids]))

    def alive_count_of(self, ids: np.ndarray) -> int:
        """Unfinished requests among ``ids`` (one mask reduction)."""
        return int(ids.size) - self.done_count_of(ids)

    def input_lens_range(self, start: int, stop: int) -> np.ndarray:
        """Input-length window of admission-ordered ids ``[start, stop)``.

        A zero-copy column slice -- the admission paths feed this to the
        dynamic workload adjuster without materializing pending lists.
        """
        return self.input_len[start:stop]

    def input_lens(self, ids: np.ndarray) -> np.ndarray:
        """Input lengths of an id batch (one gather)."""
        return self.input_len[ids]

    def output_lens(self, ids: np.ndarray) -> np.ndarray:
        """Output lengths of an id batch (one gather)."""
        return self.output_len[ids]

    def request_ids_of(self, ids: np.ndarray) -> np.ndarray:
        """Trace ids of an id batch (one gather)."""
        return self.request_id[ids]

    # -- scalar accessors ---------------------------------------------------------------

    def request_id_of(self, rid: int) -> int:
        """Trace id of one request."""
        return int(self.request_id[rid])

    def input_len_of(self, rid: int) -> int:
        """Prompt length of one request."""
        return int(self.input_len[rid])

    def output_len_of(self, rid: int) -> int:
        """Forced generation length of one request."""
        return int(self.output_len[rid])

    def arrival_of(self, rid: int) -> float:
        """Arrival time of one request."""
        return float(self.arrival_s[rid])
