"""Parity suite for the columnar request pool.

:class:`~reference.pool.ListPool` (``tests/reference/pool.py``) -- a list
of per-request ``RequestState`` objects driven with the historical
per-object scans -- is the executable specification; these tests drive it
and the columnar :class:`~repro.engine.pool.RequestPool` through the same randomized
admission/advance/compaction schedules and assert identical behaviour at
every step:

* grouped reductions (average input/context, context-token sums) agree,
* advance returns the same first-token/completion id sets in the same
  order, and over-advancing raises on both backends,
* compaction filters the same ids in the same order, ids are *stable*
  across compaction (a surviving id keeps denoting the same request), and
  completed ids never resurrect,
* alive/done counts agree (the columnar ones are O(1) counters),
* the columns a run's result collection reads (done flags, output
  lengths, trace ids) agree.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.pool import ListPool
from repro.engine.pool import EMPTY_IDS, RequestPool
from repro.workloads.trace import RequestSpec

REQUESTS = st.lists(
    st.tuples(st.integers(1, 24), st.integers(1, 10)),
    min_size=1,
    max_size=32,
)


def _specs(lens):
    return [
        RequestSpec(100 + i, input_len, output_len, 0.0)
        for i, (input_len, output_len) in enumerate(lens)
    ]


def _both(lens):
    specs = _specs(lens)
    columnar = RequestPool()
    columnar.admit_specs(specs)
    reference = ListPool()
    reference.admit_specs(specs)
    return columnar, reference


class TestRandomScheduleParity:
    @given(
        lens=REQUESTS,
        seed=st.integers(0, 2 ** 32 - 1),
        decoder_only=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_admission_advance_compaction_match_reference(
        self, lens, seed, decoder_only
    ):
        columnar, reference = _both(lens)
        rng = np.random.default_rng(seed)
        active = columnar.ids()
        original_request_ids = {
            int(rid): columnar.request_id_of(int(rid)) for rid in active
        }
        ever_done: set[int] = set()

        for _ in range(64):
            assert columnar.alive_count == reference.alive_count
            assert columnar.done_count == reference.done_count
            if active.size == 0:
                break
            # A random micro-batch of the standing pool advances one token.
            mask = rng.random(active.size) < 0.7
            group = active[mask]
            group_alive_col = columnar.compact(group)
            group_alive_ref = reference.compact(group)
            assert np.array_equal(group_alive_col, group_alive_ref)

            # Grouped reductions agree before the advance mutates state.
            assert columnar.remaining_tokens(group) == reference.remaining_tokens(
                group
            )
            assert columnar.done_count_of(group) == reference.done_count_of(group)
            assert columnar.alive_count_of(group) == reference.alive_count_of(group)
            assert columnar.average_input(group_alive_col) == reference.average_input(
                group_alive_ref
            )
            assert columnar.average_context(
                group_alive_col, decoder_only
            ) == reference.average_context(group_alive_ref, decoder_only)
            assert columnar.context_token_sum(
                group_alive_col, decoder_only
            ) == reference.context_token_sum(group_alive_ref, decoder_only)
            assert columnar.max_output_len(group_alive_col) == reference.max_output_len(
                group_alive_ref
            )

            first_col, done_col = columnar.advance(group_alive_col)
            first_ref, done_ref = reference.advance(group_alive_ref)
            assert np.array_equal(first_col, first_ref)
            assert np.array_equal(done_col, done_ref)

            # No resurrection: completed ids stay completed forever.
            ever_done.update(done_col.tolist())
            active_col = columnar.compact(active)
            active_ref = reference.compact(active)
            assert np.array_equal(active_col, active_ref)
            assert not ever_done.intersection(active_col.tolist())
            active = active_col

            # Id stability: surviving ids keep denoting the same requests.
            for rid in active.tolist():
                assert columnar.request_id_of(rid) == original_request_ids[rid]
                assert reference.request_id_of(rid) == original_request_ids[rid]

        assert np.array_equal(columnar.generated, np.asarray(
            [s.generated for s in reference.states], dtype=np.int64
        ))
        assert np.array_equal(
            columnar.done, np.asarray([s.done for s in reference.states])
        )

    @given(lens=REQUESTS, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_collection_columns_match_reference(self, lens, seed):
        columnar, reference = _both(lens)
        rng = np.random.default_rng(seed)
        ids = columnar.ids()
        # Drive every request to completion in random batches.
        active = ids
        while active.size:
            mask = rng.random(active.size) < 0.8
            batch = columnar.compact(active[mask])
            columnar.advance(batch)
            reference.advance(batch)
            active = columnar.compact(active)
        shuffled = rng.permutation(ids)
        assert columnar.done_mask(shuffled).all() and reference.done_mask(shuffled).all()
        assert np.array_equal(
            columnar.output_lens(shuffled), reference.output_lens(shuffled)
        )
        assert np.array_equal(
            columnar.request_ids_of(shuffled), reference.request_ids_of(shuffled)
        )
        assert columnar.generated_total == int(columnar.output_lens(ids).sum())


class TestMultiOwnerSlices:
    """One shared pool behind disjoint replica-local id slices.

    The fleet invariant: N replicas holding disjoint id slices of ONE
    shared :class:`RequestPool` must behave exactly like N replicas each
    owning an independent pool.  Interleaved advance/compact schedules over
    the slices are compared against N independent :class:`ListPool`\\ s
    (the executable reference), asserting per-slice parity, id stability,
    no cross-replica resurrection, and that the shared pool's O(1)
    fleet-wide counts equal the sum of the independent pools'.
    """

    @given(
        lens=st.lists(
            st.tuples(st.integers(1, 24), st.integers(1, 10)),
            min_size=3,
            max_size=32,
        ),
        seed=st.integers(0, 2 ** 32 - 1),
        replicas=st.integers(2, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_disjoint_slices_match_independent_pools(self, lens, seed, replicas):
        specs = _specs(lens)
        shared = RequestPool()
        ids = shared.admit_specs(specs)
        # Round-robin partition into replica-local slices (the id handoff).
        slices = [ids[r::replicas] for r in range(replicas)]
        independent: list[ListPool] = []
        to_local: list[dict[int, int]] = []
        for sl in slices:
            pool = ListPool()
            pool.admit_specs([specs[g] for g in sl.tolist()])
            independent.append(pool)
            to_local.append({int(g): k for k, g in enumerate(sl.tolist())})

        def localize(r: int, globals_: np.ndarray) -> np.ndarray:
            return np.array(
                [to_local[r][int(g)] for g in globals_.tolist()], dtype=np.int64
            )

        rng = np.random.default_rng(seed)
        active = [shared.compact(sl) for sl in slices]
        ever_done: set[int] = set()
        for _ in range(64):
            if all(a.size == 0 for a in active):
                break
            r = int(rng.integers(replicas))
            acts = active[r]
            if acts.size == 0:
                continue
            mask = rng.random(acts.size) < 0.7
            group = acts[mask]
            local_group = localize(r, group)

            # Reductions over the slice agree with the independent pool.
            assert shared.remaining_tokens(group) == independent[
                r
            ].remaining_tokens(local_group)
            assert shared.done_count_of(acts) == independent[r].done_count_of(
                localize(r, acts)
            )
            assert shared.average_input(group) == independent[r].average_input(
                local_group
            )

            first_shared, done_shared = shared.advance(group)
            first_ref, done_ref = independent[r].advance(local_group)
            assert np.array_equal(localize(r, first_shared), first_ref)
            assert np.array_equal(localize(r, done_shared), done_ref)
            ever_done.update(done_shared.tolist())

            # Per-slice compaction matches the independent pool's.
            active[r] = shared.compact(acts)
            ref_active = independent[r].compact(localize(r, acts))
            assert np.array_equal(localize(r, active[r]), ref_active)

            # No cross-replica interference: every other slice's alive set
            # is untouched by this replica's advance/compaction, and no
            # completed id resurrects under ANY owner.
            for other in range(replicas):
                assert not ever_done.intersection(active[other].tolist())
                if other != r:
                    assert np.array_equal(
                        active[other], shared.compact(slices[other])
                    )

        # Fleet-wide O(1) counts reduce over the shared pool exactly as the
        # sum of the independent pools'.
        assert shared.alive_count == sum(p.alive_count for p in independent)
        assert shared.done_count == sum(p.done_count for p in independent)
        for r, sl in enumerate(slices):
            assert shared.remaining_tokens(sl) == independent[r].remaining_tokens(
                independent[r].ids()
            )

    @given(
        lens=st.lists(
            st.tuples(st.integers(1, 24), st.integers(1, 10)),
            min_size=3,
            max_size=32,
        ),
        seed=st.integers(0, 2 ** 32 - 1),
        replicas=st.integers(2, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_interleaved_crash_requeue_schedules(self, lens, seed, replicas):
        """Random crash/requeue events interleave with the advance schedule.

        A "crash" of replica ``r`` requeues its entire alive slice through
        the shared pool (and the independent reference pool).  The fleet
        invariants must survive arbitrarily interleaved crashes: ids stay
        stable, no completed id resurrects under any owner, alive/done
        counts are conserved (a requeue rewinds progress, never outcomes),
        and the slices stay in lockstep with the independent pools.
        """
        specs = _specs(lens)
        shared = RequestPool()
        ids = shared.admit_specs(specs)
        slices = [ids[r::replicas] for r in range(replicas)]
        independent: list[ListPool] = []
        to_local: list[dict[int, int]] = []
        for sl in slices:
            pool = ListPool()
            pool.admit_specs([specs[g] for g in sl.tolist()])
            independent.append(pool)
            to_local.append({int(g): k for k, g in enumerate(sl.tolist())})

        def localize(r: int, globals_: np.ndarray) -> np.ndarray:
            return np.array(
                [to_local[r][int(g)] for g in globals_.tolist()], dtype=np.int64
            )

        original_request_ids = {
            int(g): shared.request_id_of(int(g)) for g in ids.tolist()
        }
        rng = np.random.default_rng(seed)
        active = [shared.compact(sl) for sl in slices]
        ever_done: set[int] = set()
        for _ in range(64):
            if all(a.size == 0 for a in active):
                break
            r = int(rng.integers(replicas))
            acts = active[r]
            if acts.size == 0:
                continue

            if rng.random() < 0.25:
                # Crash: the whole alive slice rewinds on both backends.
                shared.requeue(acts)
                independent[r].requeue(localize(r, acts))
                assert np.all(shared.generated[acts] == 0)
                # Conservation: a requeue changes progress, never outcomes.
                assert shared.alive_count == sum(
                    p.alive_count for p in independent
                )
                assert shared.done_count == sum(
                    p.done_count for p in independent
                )
                for other in range(replicas):
                    assert not ever_done.intersection(
                        shared.compact(slices[other]).tolist()
                    )
                continue

            mask = rng.random(acts.size) < 0.7
            group = acts[mask]
            first_shared, done_shared = shared.advance(group)
            first_ref, done_ref = independent[r].advance(localize(r, group))
            assert np.array_equal(localize(r, first_shared), first_ref)
            assert np.array_equal(localize(r, done_shared), done_ref)
            ever_done.update(done_shared.tolist())

            active[r] = shared.compact(acts)
            assert np.array_equal(
                localize(r, active[r]),
                independent[r].compact(localize(r, acts)),
            )
            # Id stability across crashes: surviving ids keep denoting the
            # same requests, no matter how often they were requeued.
            for g in active[r].tolist():
                assert shared.request_id_of(g) == original_request_ids[g]

        # A completed id can never be requeued, under ANY owner's slice.
        done_ids = np.asarray(sorted(ever_done), dtype=np.int64)
        if done_ids.size:
            with pytest.raises(ValueError, match="cannot requeue"):
                shared.requeue(done_ids[:1])
        for r, sl in enumerate(slices):
            assert shared.remaining_tokens(sl) == independent[r].remaining_tokens(
                independent[r].ids()
            )


class TestRequeue:
    """``requeue`` -- the crash/preemption rewind -- in parity on both
    backends: vectorized column rewind (:class:`RequestPool`) against the
    per-object reference (:class:`ListPool`)."""

    @given(lens=REQUESTS, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_requeue_matches_reference(self, lens, seed):
        columnar, reference = _both(lens)
        rng = np.random.default_rng(seed)
        active = columnar.ids()
        for _ in range(32):
            if active.size == 0:
                break
            mask = rng.random(active.size) < 0.7
            batch = columnar.compact(active[mask])
            if batch.size:
                columnar.advance(batch)
                reference.advance(batch)
            # A random crash reclaims a subset of the still-alive ids.
            alive = columnar.compact(active)
            crashed = alive[rng.random(alive.size) < 0.3]
            columnar.requeue(crashed)
            reference.requeue(crashed)
            assert columnar.remaining_tokens(crashed) == reference.remaining_tokens(
                crashed
            )
            if crashed.size:
                assert np.all(columnar.generated[crashed] == 0)
            active = alive
        assert np.array_equal(columnar.generated, np.asarray(
            [s.generated for s in reference.states], dtype=np.int64
        ))
        assert np.array_equal(
            columnar.done, np.asarray([s.done for s in reference.states])
        )

    @pytest.mark.parametrize("columnar", [True, False])
    def test_requeue_done_id_raises_and_mutates_nothing(self, columnar):
        pool = RequestPool() if columnar else ListPool()
        ids = pool.admit_specs(
            [RequestSpec(0, 4, 2, 0.0), RequestSpec(1, 4, 3, 0.0)]
        )
        pool.advance(ids, 2)  # request 0 (output_len 2) completes
        with pytest.raises(ValueError, match="cannot requeue"):
            pool.requeue(ids)  # mixed batch with a done member
        # Atomicity: the failed mixed batch touched neither id.
        assert pool.remaining_tokens(ids[1:]) == 1
        with pytest.raises(ValueError, match="cannot requeue"):
            pool.requeue(ids[:1])
        # A live-only requeue rewinds generation to zero.
        pool.requeue(ids[1:])
        assert pool.remaining_tokens(ids[1:]) == 3

    @pytest.mark.parametrize("columnar", [True, False])
    def test_requeue_empty_is_a_noop(self, columnar):
        pool = RequestPool() if columnar else ListPool()
        pool.admit_specs([RequestSpec(0, 4, 2, 0.0)])
        pool.requeue(EMPTY_IDS)
        assert pool.alive_count == 1


class TestAdvanceGuards:
    @pytest.mark.parametrize("columnar", [True, False])
    def test_over_advance_raises(self, columnar):
        pool = RequestPool() if columnar else ListPool()
        ids = pool.admit_specs([RequestSpec(0, 4, 2, 0.0)])
        pool.advance(ids, 2)
        with pytest.raises(ValueError):
            pool.advance(ids)

    @pytest.mark.parametrize("columnar", [True, False])
    def test_negative_advance_rejected(self, columnar):
        pool = RequestPool() if columnar else ListPool()
        ids = pool.admit_specs([RequestSpec(0, 4, 2, 0.0)])
        with pytest.raises(ValueError):
            pool.advance(ids, -1)


class TestCountsAndIds:
    def test_counts_are_incremental(self):
        pool = RequestPool()
        ids = pool.admit_specs(
            [RequestSpec(i, 8, 1 + i % 3, 0.0) for i in range(9)]
        )
        assert pool.alive_count == 9
        assert pool.done_count == 0
        # Finish the output_len==1 third of the pool.
        pool.advance(ids)
        assert pool.done_count == 3
        assert pool.alive_count == 6
        assert pool.compact(ids).size == 6

    @given(
        lens=REQUESTS,
        seed=st.integers(0, 2 ** 32 - 1),
        decoder_only=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_generated_total_is_the_column_sum(self, lens, seed, decoder_only):
        """Every operation that moves ``generated`` keeps the O(1) total
        equal to the column sum: advance, decode_step, decode_run (with
        and without early termination), requeue and reset_progress."""
        pool = RequestPool()
        pool.admit_specs(_specs(lens))
        rng = np.random.default_rng(seed)
        for _ in range(24):
            alive = pool.compact(pool.ids())
            group = alive[rng.random(alive.size) < 0.6]
            op = int(rng.integers(6))
            if op == 0:
                pool.advance(group)
            elif op == 1:
                pool.decode_step(group, decoder_only)
            elif op == 2:
                # Fixed slots: finished members stay in the group.
                ids = pool.ids()
                pool.decode_run(
                    ids[rng.random(ids.size) < 0.6],
                    decoder_only,
                    int(rng.integers(1, 6)),
                    early_termination=False,
                )
            elif op == 3 and group.size:
                pool.decode_run(group, decoder_only, int(rng.integers(1, 6)))
            elif op == 4:
                pool.requeue(group)
            elif rng.random() < 0.2:
                pool.reset_progress()
            assert pool.generated_total == int(pool.generated.sum())

    def test_batch_admission_preserves_trace_order(self):
        specs = [RequestSpec(50 - i, 4 + i, 2, 0.0) for i in range(5)]
        pool = RequestPool()
        ids = pool.admit_specs(specs)
        assert ids.tolist() == [0, 1, 2, 3, 4]
        assert [pool.request_id_of(i) for i in range(5)] == [50, 49, 48, 47, 46]
        later = pool.admit_specs([RequestSpec(99, 3, 1, 2.5)])
        assert later.tolist() == [5]  # append-only: earlier ids untouched
        assert pool.input_len_of(0) == 4

    def test_from_trace_loads_the_trace_in_order(self):
        """Drivers build their pool with ``RequestPool.from_trace``."""
        from repro.core.distributions import SequenceDistribution
        from repro.workloads.trace import WorkloadTrace

        dist = SequenceDistribution.empirical([4, 5], name="d")
        trace = WorkloadTrace(
            "t",
            (
                RequestSpec(7, 4, 2, 0.0),
                RequestSpec(3, 5, 1, 0.5),
                RequestSpec(9, 4, 3, 1.5),
            ),
            dist,
            dist,
        )
        pool = RequestPool.from_trace(trace)
        reference = ListPool.from_trace(trace)
        assert type(pool) is RequestPool
        assert pool.size == reference.size == 3
        ids = pool.ids()
        assert ids.tolist() == [0, 1, 2]
        assert [pool.request_id_of(i) for i in ids] == [7, 3, 9]
        np.testing.assert_array_equal(pool.output_len, [2, 1, 3])
        np.testing.assert_array_equal(pool.arrival_s, [0.0, 0.5, 1.5])
        np.testing.assert_array_equal(
            pool.input_lens(ids), reference.input_lens(reference.ids())
        )
        np.testing.assert_array_equal(
            pool.arrival_order(), reference.arrival_order()
        )

    def test_empty_compact_and_reductions(self):
        pool = RequestPool()
        pool.admit_specs([RequestSpec(0, 4, 2, 0.0)])
        assert pool.compact(EMPTY_IDS).size == 0
        assert pool.average_input(EMPTY_IDS) == 0.0
        assert pool.average_context(EMPTY_IDS, True) == 0.0
        assert pool.max_output_len(EMPTY_IDS) == 0


class TestEventCoreReductionsParity:
    """ListPool parity for the reductions the event serving core added."""

    @given(
        lens=REQUESTS,
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_arrival_order_and_total_tokens_match_reference(self, lens, seed):
        rng = np.random.default_rng(seed)
        # Coarse arrival grid so exact ties are common: the order must
        # fall back to request id deterministically on both backends.
        arrivals = rng.choice([0.0, 0.25, 0.25, 0.5, 1.0], size=len(lens))
        specs = [
            RequestSpec(100 + i, input_len, output_len, float(arrival))
            for i, ((input_len, output_len), arrival) in enumerate(
                zip(lens, arrivals)
            )
        ]
        columnar = RequestPool()
        columnar.admit_specs(specs)
        reference = ListPool()
        reference.admit_specs(specs)

        np.testing.assert_array_equal(
            columnar.arrival_order(), reference.arrival_order()
        )
        ids = columnar.ids()
        subset = ids[rng.random(ids.size) < 0.5]
        np.testing.assert_array_equal(
            columnar.total_tokens(subset), reference.total_tokens(subset)
        )
        np.testing.assert_array_equal(
            columnar.total_tokens(EMPTY_IDS), reference.total_tokens(EMPTY_IDS)
        )

    @given(lens=REQUESTS, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_from_arrays_matches_spec_admission(self, lens, seed):
        rng = np.random.default_rng(seed)
        inputs = np.array([i for i, _ in lens], dtype=np.int64)
        outputs = np.array([o for _, o in lens], dtype=np.int64)
        arrivals = np.round(rng.random(len(lens)) * 4, 2)
        request_ids = np.arange(len(lens), dtype=np.int64) + 100

        from_arrays = RequestPool.from_arrays(
            inputs, outputs, arrivals, request_ids
        )
        specs = [
            RequestSpec(100 + i, int(inp), int(out), float(arr))
            for i, (inp, out, arr) in enumerate(zip(inputs, outputs, arrivals))
        ]
        from_specs = RequestPool()
        from_specs.admit_specs(specs)
        for column in (
            "request_id", "input_len", "output_len", "arrival_s",
            "generated", "done",
        ):
            np.testing.assert_array_equal(
                getattr(from_arrays, column), getattr(from_specs, column)
            )

        reference = ListPool.from_arrays(inputs, outputs, arrivals, request_ids)
        assert reference.size == from_arrays.size
        np.testing.assert_array_equal(
            reference.input_lens(reference.ids()),
            from_arrays.input_lens(from_arrays.ids()),
        )
        np.testing.assert_array_equal(
            reference.arrival_order(), from_arrays.arrival_order()
        )

    def test_from_arrays_defaults_and_validation(self):
        pool = RequestPool.from_arrays(
            np.array([3, 5], dtype=np.int64), np.array([2, 4], dtype=np.int64)
        )
        np.testing.assert_array_equal(pool.request_id, [0, 1])
        np.testing.assert_array_equal(pool.arrival_s, [0.0, 0.0])

        ones = np.ones(2, dtype=np.int64)
        with pytest.raises(ValueError):
            RequestPool.from_arrays(ones, np.ones(3, dtype=np.int64))
        with pytest.raises(ValueError):
            RequestPool.from_arrays(np.zeros(2, dtype=np.int64), ones)
        with pytest.raises(ValueError):
            RequestPool.from_arrays(ones, ones, np.array([-0.5, 0.0]))
        with pytest.raises(ValueError):
            RequestPool.from_arrays(ones, ones, np.zeros(3))
        with pytest.raises(ValueError):
            RequestPool.from_arrays(ones, ones, None, np.arange(3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_from_arrays_rejects_non_finite_arrivals(self, bad):
        # NaN passes a `min() < 0` check; a served NaN arrival used to
        # stall the loop's idle skip (`max(clock, nan)`) forever.
        ones = np.ones(2, dtype=np.int64)
        with pytest.raises(ValueError, match="finite"):
            RequestPool.from_arrays(ones, ones, np.array([0.0, bad]))

    def test_from_arrays_copies_inputs(self):
        inputs = np.array([3, 5], dtype=np.int64)
        outputs = np.array([2, 4], dtype=np.int64)
        arrivals = np.array([0.0, 1.0])
        pool = RequestPool.from_arrays(inputs, outputs, arrivals)
        inputs[0] = 99
        arrivals[0] = 99.0
        assert pool.input_len[0] == 3
        assert pool.arrival_s[0] == 0.0

    @given(lens=REQUESTS, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_reset_progress_matches_reference(self, lens, seed):
        """`reset_progress` returns a consumed pool to the just-admitted
        state on both backends (static columns intact, progress cleared)."""
        rng = np.random.default_rng(seed)
        specs = [
            RequestSpec(100 + i, input_len, output_len, 0.0)
            for i, (input_len, output_len) in enumerate(lens)
        ]
        pools = []
        for backend in (RequestPool, ListPool):
            pool = backend()
            ids = pool.admit_specs(specs)
            # Consume the pool partway: advance some to completion.
            subset = ids[rng.random(ids.size) < 0.7]
            for rid in subset.tolist():
                one = np.array([rid], dtype=np.int64)
                pool.advance(one, pool.output_len_of(rid))
            pool.reset_progress()
            pools.append(pool)

        columnar, reference = pools
        assert columnar.done_count == reference.done_count == 0
        assert columnar.alive_count == len(specs)
        ids = columnar.ids()
        np.testing.assert_array_equal(
            columnar.done_mask(ids), reference.done_mask(ids)
        )
        np.testing.assert_array_equal(columnar.compact(ids), ids)
        assert columnar.remaining_tokens(ids) == reference.remaining_tokens(ids)
        assert not columnar.generated.any() and columnar.generated_total == 0
        assert all(state.generated == 0 for state in reference.states)
        for rid in ids.tolist():
            assert columnar.input_len_of(rid) == reference.input_len_of(rid)


class TestDecodeRunParity:
    """Bulk ``decode_run`` against its step-by-step reference.

    ``RequestPool.decode_run`` vectorizes ``iterations`` decode steps --
    early-terminating, or over fixed slots -- into one histogram/argsort
    pass; ``ListPool.decode_run`` *is* the historical per-iteration loop.
    The RRA cycle and the FasterTransformer/DSI replays lean on the two
    being indistinguishable -- per-iteration summaries, side effects on
    the pool, everything.
    """

    @given(
        lens=REQUESTS,
        seed=st.integers(0, 2 ** 32 - 1),
        decoder_only=st.booleans(),
        iterations=st.integers(1, 16),
        early_termination=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_decode_run_matches_stepwise_reference(
        self, lens, seed, decoder_only, iterations, early_termination
    ):
        columnar, reference = _both(lens)
        rng = np.random.default_rng(seed)
        ids = columnar.ids()
        # Pre-advance a random subset so runs start mid-generation (some
        # members may already be done: early termination compacts them
        # away, fixed slots keep them at their final context).
        for rid in ids[rng.random(ids.size) < 0.5].tolist():
            steps = int(rng.integers(1, columnar.output_len_of(rid) + 1))
            one = np.array([rid], dtype=np.int64)
            columnar.advance(one, steps)
            reference.advance(one, steps)
        group = ids[rng.random(ids.size) < 0.8]

        run_col = columnar.decode_run(
            group, decoder_only, iterations, early_termination
        )
        run_ref = reference.decode_run(
            group, decoder_only, iterations, early_termination
        )

        if run_ref is None:
            assert run_col is None
        else:
            assert run_col is not None
            np.testing.assert_array_equal(run_col.batches, run_ref.batches)
            np.testing.assert_array_equal(
                run_col.context_tokens, run_ref.context_tokens
            )
            np.testing.assert_array_equal(run_col.first_ids, run_ref.first_ids)
            np.testing.assert_array_equal(
                run_col.completed_ids, run_ref.completed_ids
            )
            np.testing.assert_array_equal(
                run_col.completed_counts, run_ref.completed_counts
            )
            np.testing.assert_array_equal(
                run_col.completed_context, run_ref.completed_context
            )

        # The pools ended the run in the same state.
        np.testing.assert_array_equal(
            columnar.generated,
            np.asarray([s.generated for s in reference.states], dtype=np.int64),
        )
        np.testing.assert_array_equal(
            columnar.done, np.asarray([s.done for s in reference.states])
        )
        assert columnar.done_count == reference.done_count
        assert columnar.generated_total == int(columnar.generated.sum())

    @given(lens=REQUESTS, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_decode_run_equals_iterated_decode_steps(self, lens, seed):
        """One bulk run == the same pool stepped one iteration at a time."""
        rng = np.random.default_rng(seed)
        iterations = int(rng.integers(1, 12))
        bulk, stepped = _both(lens)
        # ListPool here plays the role of "same backend, stepped": drive a
        # second RequestPool through decode_step instead.
        stepped = RequestPool()
        stepped.admit_specs(_specs(lens))
        group = bulk.ids()

        run = bulk.decode_run(group, True, iterations)
        steps = []
        for _ in range(iterations):
            step = stepped.decode_step(group, True)
            if step is None:
                break
            steps.append(step)

        if run is None:
            assert not steps
            return
        assert len(steps) == len(run.batches)
        np.testing.assert_array_equal(
            run.batches, [s.batch for s in steps]
        )
        np.testing.assert_array_equal(
            run.context_tokens, [s.context_tokens for s in steps]
        )
        np.testing.assert_array_equal(
            run.first_ids, steps[0].first_ids
        )
        per_iteration = np.split(
            run.completed_ids, np.cumsum(run.completed_counts)[:-1]
        )
        for comp_run, step in zip(per_iteration, steps):
            np.testing.assert_array_equal(comp_run, step.completed_ids)
        np.testing.assert_array_equal(bulk.generated, stepped.generated)
        np.testing.assert_array_equal(bulk.done, stepped.done)

    @pytest.mark.parametrize("backend", [RequestPool, ListPool])
    def test_decode_run_guards(self, backend):
        pool = backend()
        pool.admit_specs(_specs([(4, 3)]))
        with pytest.raises(ValueError):
            pool.decode_run(pool.ids(), True, 0)
        assert pool.decode_run(EMPTY_IDS, True, 4) is None

    @pytest.mark.parametrize("backend", [RequestPool, ListPool])
    def test_request_ids_of_gathers_trace_ids(self, backend):
        pool = backend()
        ids = pool.admit_specs(_specs([(4, 3), (2, 5), (8, 1)]))
        np.testing.assert_array_equal(
            pool.request_ids_of(ids[::-1]), [102, 101, 100]
        )
        assert pool.request_ids_of(ids).dtype == np.int64
