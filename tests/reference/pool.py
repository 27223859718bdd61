"""Per-object request pool: the oracle of the columnar ``RequestPool``.

:class:`ListPool` is the list-of-``RequestState`` implementation the
columnar :class:`~repro.engine.pool.RequestPool` replaced, kept with its
historical per-object scans.  Two suites hold the production pool to it:

* the hypothesis parity suite (``tests/engine/test_pool.py``) drives both
  through random schedules and asserts identical behaviour, and
* the golden replay fixtures (``tests/core/test_runner_parity.py``) are
  replayed on both, by substituting ``ListPool`` for the ``RequestPool``
  name the drivers build their pool with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.pool import EMPTY_IDS, DecodeRunSteps, DecodeStep
from repro.workloads.trace import RequestSpec, WorkloadTrace


@dataclass
class RequestState:
    """Mutable generation state of one request: the per-object model.

    :class:`ListPool` is a list of these.

    Attributes:
        spec: The underlying trace request (input/output lengths).
        generated: Tokens generated so far.
    """

    spec: RequestSpec
    generated: int = 0

    @property
    def request_id(self) -> int:
        """Trace id of the request."""
        return self.spec.request_id

    @property
    def input_len(self) -> int:
        """Prompt length."""
        return self.spec.input_len

    @property
    def output_len(self) -> int:
        """Forced generation length."""
        return self.spec.output_len

    @property
    def remaining(self) -> int:
        """Tokens still to generate."""
        return max(self.spec.output_len - self.generated, 0)

    @property
    def done(self) -> bool:
        """Whether the request has generated all its tokens."""
        return self.generated >= self.spec.output_len

    def advance(self, tokens: int = 1) -> None:
        """Record ``tokens`` newly generated tokens.

        Raises:
            ValueError: if advancing past the forced output length.
        """
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        if self.generated + tokens > self.spec.output_len:
            raise ValueError(
                f"request {self.request_id} would exceed its output length"
            )
        self.generated += tokens

    def context_length(self, decoder_only: bool) -> int:
        """Current attention context length for the next decode step."""
        if decoder_only:
            return self.spec.input_len + self.generated
        return max(self.generated, 1)


class ListPool:
    """Reference pool backend: a list of per-request objects.

    Implements the exact :class:`~repro.engine.pool.RequestPool` interface
    over :class:`RequestState` dataclasses using the
    historical per-object idioms -- ``done`` list comprehensions, Python
    ``sum`` loops -- that the columnar pool replaces.
    """

    def __init__(self) -> None:
        self.states: list[RequestState] = []

    @classmethod
    def from_trace(cls, trace: WorkloadTrace) -> "ListPool":
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
    ) -> "ListPool":
        # The reference path boxes each row back into a RequestSpec, whose
        # validation the columnar fast path must reproduce.
        input_len = np.asarray(input_len, dtype=np.int64)
        output_len = np.asarray(output_len, dtype=np.int64)
        n = input_len.shape[0]
        if output_len.shape[0] != n:
            raise ValueError("input_len and output_len must have equal length")
        if arrival_s is None:
            arrival_s = np.zeros(n, dtype=float)
        else:
            arrival_s = np.asarray(arrival_s, dtype=float)
            if arrival_s.shape[0] != n:
                raise ValueError("arrival_s must match the length columns")
        if request_id is None:
            request_id = np.arange(n, dtype=np.int64)
        else:
            request_id = np.asarray(request_id, dtype=np.int64)
            if request_id.shape[0] != n:
                raise ValueError("request_id must match the length columns")
        pool = cls()
        pool.admit_specs(
            RequestSpec(
                request_id=int(rid),
                input_len=int(inp),
                output_len=int(out),
                arrival_s=float(arr),
            )
            for rid, inp, out, arr in zip(
                request_id, input_len, output_len, arrival_s
            )
        )
        return pool

    def admit_specs(self, specs) -> np.ndarray:
        start = len(self.states)
        self.states.extend(RequestState(spec=spec) for spec in specs)
        return np.arange(start, len(self.states), dtype=np.int64)

    # -- sizes and counts ----------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.states)

    def __len__(self) -> int:
        return len(self.states)

    @property
    def done_count(self) -> int:
        return sum(1 for s in self.states if s.done)

    @property
    def alive_count(self) -> int:
        return sum(1 for s in self.states if not s.done)

    # -- id sets ------------------------------------------------------------------------

    def ids(self) -> np.ndarray:
        return np.arange(len(self.states), dtype=np.int64)

    def arrival_order(self) -> np.ndarray:
        # The historical idiom: sort request objects by (arrival, id).
        ranked = sorted(
            range(len(self.states)),
            key=lambda rid: (
                self.states[rid].spec.arrival_s,
                self.states[rid].request_id,
            ),
        )
        return np.array(ranked, dtype=np.int64)

    def compact(self, ids: np.ndarray) -> np.ndarray:
        # The historical per-object scan: `[r for r in pool if not r.done]`.
        return np.array(
            [rid for rid in ids.tolist() if not self.states[rid].done],
            dtype=np.int64,
        )

    alive = compact

    def done_mask(self, ids: np.ndarray) -> np.ndarray:
        return np.array([self.states[rid].done for rid in ids.tolist()], dtype=bool)

    def alive_mask(self, ids: np.ndarray) -> np.ndarray:
        return np.array(
            [not self.states[rid].done for rid in ids.tolist()], dtype=bool
        )

    # -- lifecycle operations ------------------------------------------------------------

    def advance(
        self, ids: np.ndarray, tokens: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        if tokens < 0:
            raise ValueError("tokens must be non-negative")
        first: list[int] = []
        completed: list[int] = []
        if tokens == 0:
            return EMPTY_IDS, EMPTY_IDS
        for rid in ids.tolist():
            state = self.states[rid]
            before = state.generated
            state.advance(tokens)
            if before == 0:
                first.append(rid)
            if state.done:
                completed.append(rid)
        return (
            np.array(first, dtype=np.int64),
            np.array(completed, dtype=np.int64),
        )

    def decode_step(self, group: np.ndarray, decoder_only: bool) -> DecodeStep | None:
        return self._step(group, decoder_only, True)

    def _step(
        self, group: np.ndarray, decoder_only: bool, early_termination: bool
    ) -> DecodeStep | None:
        # The historical per-object decode loop, verbatim: filter done
        # (with early termination; fixed slots keep finished members),
        # Python-sum contexts, advance one by one.
        pairs = [(rid, self.states[rid]) for rid in group.tolist()]
        if early_termination:
            pairs = [(rid, state) for rid, state in pairs if not state.done]
        if not pairs:
            return None
        context_tokens = sum(
            state.context_length(decoder_only) for _, state in pairs
        )
        avg_context = context_tokens / len(pairs)
        first: list[int] = []
        completed: list[int] = []
        for rid, state in pairs:
            if state.done:
                continue
            state.advance()
            if state.generated == 1:
                first.append(rid)
            if state.done:
                completed.append(rid)
        return DecodeStep(
            len(pairs),
            avg_context,
            context_tokens,
            np.array(first, dtype=np.int64),
            np.array(completed, dtype=np.int64),
        )

    def decode_run(
        self,
        group: np.ndarray,
        decoder_only: bool,
        iterations: int,
        early_termination: bool = True,
    ) -> DecodeRunSteps | None:
        # The reference implementation IS the historical loop: one decode
        # step per iteration -- until the group drains with early
        # termination, all ``iterations`` with fixed slots -- collecting
        # the per-iteration summaries the columnar fast path computes in
        # one pass.
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        batches: list[int] = []
        context_tokens: list[int] = []
        completed: list[np.ndarray] = []
        counts: list[int] = []
        completed_context: list[int] = []
        first_ids = EMPTY_IDS
        for i in range(iterations):
            step = self._step(group, decoder_only, early_termination)
            if step is None:
                break
            batches.append(step.batch)
            context_tokens.append(step.context_tokens)
            if i == 0:
                first_ids = step.first_ids
            comp = step.completed_ids
            completed.append(comp)
            counts.append(int(comp.size))
            completed_context.append(
                self.context_token_sum(comp, decoder_only) if comp.size else 0
            )
        if not batches:
            return None
        return DecodeRunSteps(
            batches=np.array(batches, dtype=np.int64),
            context_tokens=np.array(context_tokens, dtype=np.int64),
            first_ids=first_ids,
            completed_ids=np.concatenate(completed),
            completed_counts=np.array(counts, dtype=np.int64),
            completed_context=np.array(completed_context, dtype=np.int64),
        )

    def reset_progress(self) -> None:
        for state in self.states:
            state.generated = 0

    def requeue(self, ids: np.ndarray) -> None:
        # Two passes, like the columnar path: validate every id first so a
        # mixed batch with a done member mutates nothing.
        for rid in ids.tolist():
            if self.states[rid].done:
                raise ValueError(
                    f"request {self.states[rid].request_id} already "
                    "completed; cannot requeue"
                )
        for rid in ids.tolist():
            self.states[rid].generated = 0

    # -- grouped reductions --------------------------------------------------------------

    def average_input(self, ids: np.ndarray) -> float:
        if ids.size == 0:
            return 0.0
        return sum(self.states[rid].input_len for rid in ids.tolist()) / ids.size

    def total_input(self, ids: np.ndarray) -> int:
        return sum(self.states[rid].input_len for rid in ids.tolist())

    def context_token_sum(self, ids: np.ndarray, decoder_only: bool) -> int:
        return sum(
            self.states[rid].context_length(decoder_only) for rid in ids.tolist()
        )

    def average_context(self, ids: np.ndarray, decoder_only: bool) -> float:
        if ids.size == 0:
            return 0.0
        return (
            sum(self.states[rid].context_length(decoder_only) for rid in ids.tolist())
            / ids.size
        )

    def max_output_len(self, ids: np.ndarray) -> int:
        if ids.size == 0:
            return 0
        return max(self.states[rid].output_len for rid in ids.tolist())

    def remaining_tokens(self, ids: np.ndarray) -> int:
        return sum(self.states[rid].remaining for rid in ids.tolist())

    def total_tokens(self, ids: np.ndarray) -> np.ndarray:
        return np.array(
            [
                self.states[rid].input_len + self.states[rid].output_len
                for rid in ids.tolist()
            ],
            dtype=np.int64,
        )

    def done_count_of(self, ids: np.ndarray) -> int:
        return sum(1 for rid in ids.tolist() if self.states[rid].done)

    def alive_count_of(self, ids: np.ndarray) -> int:
        return sum(1 for rid in ids.tolist() if not self.states[rid].done)

    def input_lens_range(self, start: int, stop: int) -> np.ndarray:
        return np.array(
            [s.input_len for s in self.states[start:stop]], dtype=np.int64
        )

    def input_lens(self, ids: np.ndarray) -> np.ndarray:
        return np.array(
            [self.states[rid].input_len for rid in ids.tolist()], dtype=np.int64
        )

    def output_lens(self, ids: np.ndarray) -> np.ndarray:
        return np.array(
            [self.states[rid].output_len for rid in ids.tolist()], dtype=np.int64
        )

    def request_ids_of(self, ids: np.ndarray) -> np.ndarray:
        return np.array(
            [self.states[rid].request_id for rid in ids.tolist()], dtype=np.int64
        )

    # -- scalar accessors ---------------------------------------------------------------

    def request_id_of(self, rid: int) -> int:
        return self.states[rid].request_id

    def input_len_of(self, rid: int) -> int:
        return self.states[rid].input_len

    def output_len_of(self, rid: int) -> int:
        return self.states[rid].output_len

    def arrival_of(self, rid: int) -> float:
        return self.states[rid].spec.arrival_s
