"""Property tests for the unified iteration-graph execution engine.

The engine owns micro-batch splitting, per-stage task chaining, compaction
and pricing for every driver in the repo, so its invariants are load-bearing:

* micro-batch splits partition the pool (nothing lost, nothing duplicated),
* task dependency graphs are acyclic and chains traverse stages in pipeline
  order,
* early-termination compaction never resurrects finished requests, and
* the batched and scalar pricers agree bit for bit, and
  ``price_columns`` equals both on either side of its crossover, as does
  the one-item ``price_item``,
* pricing memoizes nothing: repeats, duplicates and alternating profiles
  price as a fresh call would, and
* the plan-free continuous-batching cycle ``mixed_decode_template`` emits
  what ``mixed_iteration`` plus ``commit`` emit, under ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.simulator import decode_stage_time, encode_stage_time
from repro.baselines.vllm import Vllm
from repro.core.config import ScheduleConfig, SchedulePolicy
from repro.core.profiler import XProfiler
from repro.engine.batching import split_ids
from repro.engine.execution import (
    KIND_DECODE,
    KIND_ENCODE,
    SMALL_PLAN_ITEMS,
    ExecutionEngine,
    PlanColumns,
    _event_columns,
    _price_positions_batched,
    _price_positions_scalar,
    price_columns,
    price_item,
)
from repro.engine.pool import RequestPool
from repro.engine.timeline import Timeline
from repro.hardware.cluster import a40_cluster
from repro.workloads.trace import RequestSpec


def make_request_pool(output_lens, input_len=32) -> RequestPool:
    pool = RequestPool()
    pool.admit_specs(
        RequestSpec(i, input_len, out, 0.0) for i, out in enumerate(output_lens)
    )
    return pool


@st.composite
def plan_columns(draw, min_items, max_items):
    """A columnar plan of random encode/decode work items."""
    items = draw(
        st.lists(
            st.tuples(
                st.sampled_from([KIND_ENCODE, KIND_DECODE]),
                st.integers(min_value=0, max_value=8),      # layers
                st.sampled_from([1, 2, 4]),                 # tp degree
                st.booleans(),                              # spans nodes
                st.floats(min_value=0.0, max_value=128.0),  # batch
                st.floats(min_value=1.0, max_value=512.0),  # length
            ),
            min_size=min_items,
            max_size=max_items,
        )
    )
    cols = PlanColumns(len(items))
    for item in items:
        cols.push(*item)
    return cols


# ---------------------------------------------------------------------------
# Micro-batch splitting partitions the pool
# ---------------------------------------------------------------------------


class TestMicroBatchPartition:
    @given(
        num_requests=st.integers(min_value=0, max_value=200),
        num_micro_batches=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_partitions_the_pool(self, num_requests, num_micro_batches):
        ids = make_request_pool([1] * num_requests).ids()
        groups = split_ids(ids, num_micro_batches)
        # Concatenation restores the pool exactly: order kept, no request
        # lost or duplicated, no empty groups emitted.
        flattened = [int(rid) for group in groups for rid in group]
        assert flattened == ids.tolist()
        assert len(set(flattened)) == ids.size
        assert all(group.size for group in groups)
        assert len(groups) <= num_micro_batches
        # Near-even: group sizes differ by at most one.
        if groups:
            sizes = [len(g) for g in groups]
            assert max(sizes) - min(sizes) <= 1


# ---------------------------------------------------------------------------
# Planned graphs: acyclic, stage-ordered chains
# ---------------------------------------------------------------------------


def _run_plan(simulator, output_lens, micro_batches, decode_iterations):
    """Build one encode phase + decode iterations and return the timeline."""
    config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=4)
    placement = simulator.build_placement(config)
    timeline = Timeline()
    pool = make_request_pool(output_lens)
    engine = ExecutionEngine(
        timeline, simulator.profile, placement, pool, decoder_only=True
    )
    plan = engine.plan()
    groups = split_ids(pool.ids(), micro_batches)
    encode_last = engine.encode_phase(plan, placement.stages, groups)
    prev_last: dict[int, object] = {}
    for iteration in range(decode_iterations):
        outcome = engine.decode_iteration(
            plan,
            placement.stages,
            groups,
            first_deps=encode_last if iteration == 0 else [],
            prev_last=prev_last,
        )
        if not outcome.any_alive:
            break
    engine.commit(plan)
    return timeline, placement, engine, pool


class TestGraphShape:
    @given(
        output_lens=st.lists(
            st.integers(min_value=1, max_value=12), min_size=1, max_size=24
        ),
        micro_batches=st.integers(min_value=1, max_value=6),
        decode_iterations=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=40, deadline=None)
    def test_dependencies_acyclic_and_chains_stage_ordered(
        self, tiny_simulator, output_lens, micro_batches, decode_iterations
    ):
        timeline, placement, _, _ = _run_plan(
            tiny_simulator, output_lens, micro_batches, decode_iterations
        )
        stage_order = {s.stage_id: i for i, s in enumerate(placement.stages)}
        tasks = timeline.tasks
        for task in tasks:
            # Acyclic by construction: every dependency points backwards.
            assert all(0 <= dep < task.task_id for dep in task.deps)
            # A single-dep task of the same phase either continues its chain
            # (the pipeline's next stage) or starts a new chain at stage 0
            # (its dep being the previous iteration's tail) -- never a
            # mid-pipeline jump.
            if len(task.deps) == 1:
                prev = tasks[task.deps[0]]
                if prev.tag == task.tag and task.tag in ("encode", "decode"):
                    order = stage_order[task.stage]
                    assert order in (stage_order[prev.stage] + 1, 0)
        # The timeline schedules without error (a cycle would deadlock).
        timeline.run()
        assert all(t.finish_s >= t.start_s >= 0 for t in tasks)

    @given(
        output_lens=st.lists(
            st.integers(min_value=1, max_value=10), min_size=1, max_size=20
        ),
        micro_batches=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_compaction_never_resurrects_finished_requests(
        self, tiny_simulator, output_lens, micro_batches
    ):
        timeline, _, engine, pool = _run_plan(
            tiny_simulator, output_lens, micro_batches, decode_iterations=64
        )
        # Every request generated exactly its output length: nothing kept
        # decoding after completion, nothing stopped short.
        assert np.array_equal(pool.generated, pool.output_len)
        # Each request completes exactly once in the bookkeeping.
        completed_ids = np.concatenate(
            [ids for ids, _ in engine.bookkeeping.completions]
        )
        assert sorted(completed_ids.tolist()) == pool.ids().tolist()
        # Compaction tasks always extend a decode chain, never precede one.
        tasks = timeline.tasks
        for task in tasks:
            if task.tag == "compaction":
                assert len(task.deps) == 1
                assert tasks[task.deps[0]].tag in ("decode", "compaction")


# ---------------------------------------------------------------------------
# Pricing parity: batched == scalar, bit for bit
# ---------------------------------------------------------------------------


class TestPricingParity:
    @given(
        batch=st.floats(min_value=0.0, max_value=128.0),
        length=st.floats(min_value=1.0, max_value=512.0),
        overhead=st.sampled_from([0.0, 0.001]),
    )
    @settings(max_examples=60, deadline=None)
    def test_price_work_matches_analytical_stage_times(
        self, tiny_simulator, batch, length, overhead
    ):
        """The engine's pricing is the analytical cost model, bit for bit.

        ``price_item`` and ``price_columns`` must never drift from the
        stage times of the scalar cost-model oracle
        (``tests/reference/simulator.py``) -- that shared formula is
        exactly what makes the simulator's estimates and the engine's
        replays one cost model.
        """
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=4)
        placement = tiny_simulator.build_placement(config)
        profile = tiny_simulator.profile
        work = []
        expected = []
        for stage in placement.stages:
            spans = placement.stage_spans_nodes(stage)
            work.append((KIND_ENCODE, stage.encoder_layers, stage.tp_degree, spans))
            base = encode_stage_time(profile, placement, stage, batch, length)
            expected.append(base + (overhead if base > 0 else 0.0))
            work.append((KIND_DECODE, stage.decoder_layers, stage.tp_degree, spans))
            base = decode_stage_time(profile, placement, stage, batch, length)
            expected.append(base + (overhead if base > 0 else 0.0))
        items = [
            price_item(profile, *item, batch, length, overhead) for item in work
        ]
        assert items == expected
        # As built the plan is small and takes the scalar pricer; copies
        # past SMALL_PLAN_ITEMS take the vectorized one.
        for copies in (1, -(-SMALL_PLAN_ITEMS // len(work))):
            cols = PlanColumns()
            for item in work * copies:
                cols.push(*item, batch, length)
            priced = price_columns(profile, cols, overhead)
            assert priced.tolist() == expected * copies

    @given(data=st.data(), overhead=st.sampled_from([0.0, 0.0015]))
    @settings(max_examples=80, deadline=None)
    def test_scalar_and_batched_pricers_bit_identical(
        self, tiny_profile, data, overhead
    ):
        """The two position pricers agree at every plan size, called
        directly (``price_columns`` would pick one of them by size)."""
        cols = data.draw(plan_columns(1, 64))
        n = cols.count
        every = np.arange(n)
        subset = np.array(
            sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))),
            dtype=np.int64,
        )
        for positions in (every, subset):
            scalar = np.zeros(n)
            batched = np.zeros(n)
            _price_positions_scalar(
                tiny_profile, cols, positions.tolist(), overhead, scalar
            )
            _price_positions_batched(
                tiny_profile, cols, positions, overhead, batched
            )
            assert scalar.tolist() == batched.tolist()

    @pytest.mark.parametrize("n", [SMALL_PLAN_ITEMS - 1, SMALL_PLAN_ITEMS])
    @given(data=st.data(), overhead=st.sampled_from([0.0, 0.0015]))
    @settings(max_examples=20, deadline=None)
    def test_price_columns_equals_both_pricers_at_crossover(
        self, tiny_profile, n, data, overhead
    ):
        cols = data.draw(plan_columns(n, n))
        priced = price_columns(tiny_profile, cols, overhead)
        scalar = np.zeros(n)
        batched = np.zeros(n)
        _price_positions_scalar(tiny_profile, cols, range(n), overhead, scalar)
        _price_positions_batched(
            tiny_profile, cols, np.arange(n), overhead, batched
        )
        assert priced.tolist() == scalar.tolist() == batched.tolist()

    @given(data=st.data(), overhead=st.sampled_from([0.0, 0.0015]))
    @settings(max_examples=60, deadline=None)
    def test_price_item_equals_both_pricers(self, tiny_profile, data, overhead):
        """``price_item`` on an item's plain scalars is the price either
        pricer gives it inside a plan: a plan under the crossover goes
        through the scalar pricer, one past it through the batched one."""
        cols = data.draw(either_side_of_crossover())
        n = cols.count
        items = [
            price_item(
                tiny_profile, int(cols.kind[i]), int(cols.layers[i]),
                int(cols.tp[i]), bool(cols.spans[i]), float(cols.batch[i]),
                float(cols.length[i]), overhead,
            )
            for i in range(n)
        ]
        scalar = np.zeros(n)
        batched = np.zeros(n)
        _price_positions_scalar(tiny_profile, cols, range(n), overhead, scalar)
        _price_positions_batched(
            tiny_profile, cols, np.arange(n), overhead, batched
        )
        assert all(type(price) is float for price in items)
        assert price_columns(tiny_profile, cols, overhead).tolist() == items
        assert scalar.tolist() == batched.tolist() == items

    def test_mixed_iteration_duration_sums_components(self, tiny_simulator):
        """A mixed iteration's stage duration is the ordered component sum."""
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=4)
        placement = tiny_simulator.build_placement(config)
        timeline = Timeline()
        pool = make_request_pool([4, 4, 3])
        engine = ExecutionEngine(
            timeline, tiny_simulator.profile, placement, pool,
            decoder_only=True, overhead_s=0.001,
        )
        alive = pool.ids()[:2]
        pool.advance(alive)  # mid-generation pool
        admitted = pool.ids()[2:]
        plan = engine.plan()
        outcome = engine.mixed_iteration(plan, placement.stages, alive, admitted)
        engine.commit(plan)
        task = timeline.tasks[0]
        stage = placement.stages[0]
        spans = placement.stage_spans_nodes(stage)
        expected = price_item(
            tiny_simulator.profile, KIND_DECODE, stage.decoder_layers,
            stage.tp_degree, spans, 2.0,
            # context advanced by mixed_iteration itself:
            pool.average_context(alive, True) - 1.0,
            0.001,
        ) + price_item(
            tiny_simulator.profile, KIND_ENCODE, stage.encoder_layers,
            stage.tp_degree, spans, 1.0,
            float(pool.input_len_of(int(admitted[0]))), 0.001,
        )
        assert task.duration_s == pytest.approx(expected, rel=1e-12)
        assert outcome.completed.size == 0


# ---------------------------------------------------------------------------
# Pricing is a pure function of profile, plan and overhead
# ---------------------------------------------------------------------------


def repeat_columns(cols: PlanColumns, times: int) -> PlanColumns:
    """``times`` back-to-back copies of ``cols`` in one buffer."""
    out = PlanColumns(max(cols.count * times, 1))
    for _ in range(times):
        for i in range(cols.count):
            out.push(
                int(cols.kind[i]), int(cols.layers[i]), int(cols.tp[i]),
                bool(cols.spans[i]), float(cols.batch[i]), float(cols.length[i]),
            )
    return out


def either_side_of_crossover():
    """Plans priced by the scalar pricer or by the batched one, half each."""
    return st.one_of(
        plan_columns(1, SMALL_PLAN_ITEMS - 1), plan_columns(SMALL_PLAN_ITEMS, 64)
    )


class TestPricingProperties:
    """``price_columns`` memoizes nothing between calls.

    A plan priced twice, the same items repeated within one plan, and one
    plan priced alternately through two profiles all come out as a fresh
    pricing would, on both sides of the scalar/batched crossover.
    """

    @pytest.fixture(scope="class")
    def other_profile(self, tiny_model):
        """Same model on a bigger cluster with a coarser grid."""
        return XProfiler(
            tiny_model,
            a40_cluster(8),
            max_batch=64,
            max_seq_len=256,
            batch_points=6,
            length_points=6,
        ).profile()

    @given(data=st.data(), overhead=st.sampled_from([0.0, 0.0015]))
    @settings(max_examples=40, deadline=None)
    def test_pricing_leaves_the_plan_untouched_and_replays(
        self, tiny_profile, data, overhead
    ):
        cols = data.draw(st.one_of(plan_columns(0, 0), either_side_of_crossover()))
        before = [getattr(cols, name).copy() for name in PlanColumns.__slots__[:-1]]
        first = price_columns(tiny_profile, cols, overhead)
        for name, column in zip(PlanColumns.__slots__[:-1], before):
            np.testing.assert_array_equal(getattr(cols, name), column)
        assert price_columns(tiny_profile, cols, overhead).tolist() == first.tolist()

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_duplicate_items_price_identically_within_one_plan(
        self, tiny_profile, data
    ):
        """Repeating a plan's items in place repeats their prices, also when
        the doubled plan crosses into the batched pricer."""
        cols = data.draw(plan_columns(1, 40))
        n = cols.count
        single = price_columns(tiny_profile, cols, 0.001)
        doubled = price_columns(tiny_profile, repeat_columns(cols, 2), 0.001)
        assert doubled[:n].tolist() == doubled[n:].tolist() == single.tolist()

    def test_profiles_under_test_disagree(self, tiny_profile, other_profile):
        """The two profiles price encode work differently, so the isolation
        test below can tell their prices apart."""
        cols = PlanColumns()
        for tp in (1, 2, 4):
            cols.push(KIND_ENCODE, 8, tp, False, 16.0, 128.0)
        assert (
            price_columns(tiny_profile, cols) != price_columns(other_profile, cols)
        ).all()

    @given(data=st.data(), overhead=st.sampled_from([0.0, 0.0015]))
    @settings(max_examples=30, deadline=None)
    def test_profiles_price_independently(
        self, tiny_profile, other_profile, data, overhead
    ):
        """Alternating two profiles over one plan leaks no price across them."""
        cols = data.draw(either_side_of_crossover())
        n = cols.count
        expected = []
        for profile in (tiny_profile, other_profile):
            out = np.zeros(n)
            _price_positions_scalar(profile, cols, range(n), overhead, out)
            expected.append(out.tolist())
        for _ in range(2):
            assert price_columns(tiny_profile, cols, overhead).tolist() == expected[0]
            assert price_columns(other_profile, cols, overhead).tolist() == expected[1]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_overhead_is_added_once_to_every_positive_item(
        self, tiny_profile, data
    ):
        cols = data.draw(either_side_of_crossover())
        plain = price_columns(tiny_profile, cols, 0.0).tolist()
        taxed = price_columns(tiny_profile, cols, 0.002).tolist()
        assert taxed == [p + 0.002 if p > 0 else 0.0 for p in plain]

    def test_empty_items_price_to_zero(self, tiny_profile):
        """Items without layers or batch cost nothing, overhead included."""
        for n in (2, SMALL_PLAN_ITEMS - 1, SMALL_PLAN_ITEMS, 64):
            cols = PlanColumns()
            for i in range(n):
                kind = KIND_ENCODE if i % 2 else KIND_DECODE
                layers = 0 if i % 3 == 0 else 4
                batch = 0.0 if i % 3 == 1 else 16.0
                cols.push(kind, layers, 2, False, batch, 64.0)
            priced = price_columns(tiny_profile, cols, 0.002).tolist()
            assert [p > 0 for p in priced] == [i % 3 == 2 for i in range(n)]
            assert all(p == 0.0 for i, p in enumerate(priced) if i % 3 != 2)


# ---------------------------------------------------------------------------
# The continuous-batching cycle template equals plan + commit
# ---------------------------------------------------------------------------


class TestMixedTemplateParity:
    """``mixed_decode_template`` against ``mixed_iteration`` plus ``commit``
    on a twin engine: same pool, same cycles, every emitted field under
    ``==``."""

    @staticmethod
    def twin(profile, placement, decoder_only, output_lens, input_lens):
        pool = RequestPool()
        pool.admit_specs(
            RequestSpec(i, inp, out, 0.0)
            for i, (inp, out) in enumerate(zip(input_lens, output_lens))
        )
        return ExecutionEngine(
            Timeline(), profile, placement, pool,
            decoder_only=decoder_only, overhead_s=0.0015,
        )

    @staticmethod
    def emitted(engine):
        timeline = engine.timeline
        tasks = [
            (t.stage, t.duration_s, t.deps, t.tag, t.earliest_start_s)
            for t in timeline.tasks
        ]
        book = engine.bookkeeping
        events = [
            tuple(column.tolist() for column in _event_columns(entries))
            for entries in (book.encode_starts, book.first_tokens, book.completions)
        ]
        return tasks, events

    @pytest.mark.parametrize(
        "deployment", ["baseline", "rra", "encoder-decoder"]
    )
    def test_cycles_match_plan_and_commit(
        self, request, tiny_profile, short_input_dist, short_output_dist,
        deployment,
    ):
        if deployment == "rra":
            simulator = request.getfixturevalue("tiny_simulator")
            profile = simulator.profile
            placement = simulator.build_placement(
                ScheduleConfig(SchedulePolicy.RRA, encode_batch=4)
            )
        else:
            profile = request.getfixturevalue(
                "tiny_encdec_profile" if deployment == "encoder-decoder"
                else "tiny_profile"
            )
            placement = Vllm(
                profile=profile,
                input_distribution=short_input_dist,
                output_distribution=short_output_dist,
            ).placement
        decoder_only = not profile.model.is_encoder_decoder
        output_lens = [3, 1, 4, 2, 5, 2]
        input_lens = [40, 17, 96, 33, 8, 61]
        # (admitted ids, release time) per cycle; the running batch is the
        # compacted alive set of the cycles before.  Cycle 0 admits into an
        # empty batch, cycle 1 decodes and admits, cycle 2 only decodes,
        # cycle 3 admits three at once.
        cycles = [([0, 1], 0.5), ([2], 0.0), ([], 1.25), ([3, 4, 5], 2.0)]
        cycles += [([], 0.0)] * 6
        engines = [
            self.twin(profile, placement, decoder_only, output_lens, input_lens)
            for _ in range(2)
        ]
        template, planned = engines
        stages = placement.stages
        kinds = set()
        alive = [np.empty(0, dtype=np.int64)] * 2
        prev = [None, None]
        for admitted, release in cycles:
            ids = np.asarray(admitted, dtype=np.int64)
            if not alive[0].size and not ids.size:
                break
            kinds.add((alive[0].size > 0, ids.size > 0))
            out_t = template.mixed_decode_template(
                stages, alive[0], prev_last=prev[0], release_s=release,
                admitted=ids,
            )
            plan = planned.plan()
            out_p = planned.mixed_iteration(
                plan, stages, alive[1], ids, prev_last=prev[1], release_s=release
            )
            planned.commit(plan)
            assert out_t.last.task_id == out_p.last.task_id
            assert out_t.completed.tolist() == out_p.completed.tolist()
            prev = [out_t.last, out_p.last]
            alive = [
                engine.pool.compact(np.concatenate([a, ids]))
                for engine, a in zip(engines, alive)
            ]
        assert {(False, True), (True, True), (True, False)} <= kinds
        assert (len(stages) > 1) == (deployment == "rra")
        assert self.emitted(template) == self.emitted(planned)
        finishes = [
            engine.timeline.finish_times(np.arange(engine.timeline.num_tasks))
            for engine in engines
        ]
        assert finishes[0].tolist() == finishes[1].tolist()
