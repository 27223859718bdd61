"""Tests for the pipelined-execution timeline, including property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.timeline import Timeline


class TestBasicScheduling:
    def test_single_task(self):
        tl = Timeline()
        t = tl.add_task("s0", 2.0)
        assert tl.finish_time(t) == pytest.approx(2.0)
        assert tl.makespan_s == pytest.approx(2.0)

    def test_stage_serializes_tasks(self):
        tl = Timeline()
        a = tl.add_task("s0", 1.0)
        b = tl.add_task("s0", 2.0)
        assert tl.start_time(b) == pytest.approx(tl.finish_time(a))

    def test_independent_stages_overlap(self):
        tl = Timeline()
        tl.add_task("s0", 3.0)
        tl.add_task("s1", 3.0)
        assert tl.makespan_s == pytest.approx(3.0)

    def test_dependency_delays_start(self):
        tl = Timeline()
        a = tl.add_task("s0", 2.0)
        b = tl.add_task("s1", 1.0, deps=(a,))
        assert tl.start_time(b) == pytest.approx(2.0)

    def test_forward_dependency_rejected(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.add_task("s0", 1.0, deps=(5,))

    def test_negative_duration_rejected(self):
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.add_task("s0", -1.0)

    def test_cannot_add_after_run(self):
        tl = Timeline()
        tl.add_task("s0", 1.0)
        tl.run()
        with pytest.raises(RuntimeError):
            tl.add_task("s0", 1.0)

    def test_empty_timeline(self):
        assert Timeline().makespan_s == 0.0


class TestPipelineBehaviour:
    def test_two_stage_pipeline_with_two_micro_batches(self):
        """Classic pipeline: fill + steady state = sum + (m-1)*bottleneck."""
        tl = Timeline()
        last = {}
        for mb in range(2):
            prev = None
            for stage in range(2):
                deps = (prev,) if prev is not None else ()
                prev = tl.add_task(f"s{stage}", 1.0, deps)
            last[mb] = prev
        assert tl.makespan_s == pytest.approx(3.0)

    def test_autoregressive_dependency_creates_bubble(self):
        """One batch on a 3-stage pipeline: iteration k+1 waits for k."""
        tl = Timeline()
        prev_iter_last = None
        for _ in range(2):
            prev = prev_iter_last
            for stage in range(3):
                deps = (prev,) if prev is not None else ()
                prev = tl.add_task(f"s{stage}", 1.0, deps)
            prev_iter_last = prev
        assert tl.makespan_s == pytest.approx(6.0)

    def test_utilization_sums_busy_time(self):
        tl = Timeline()
        tl.add_task("s0", 1.0)
        tl.add_task("s1", 4.0)
        util = tl.stage_utilization()
        assert util["s1"] == pytest.approx(1.0)
        assert util["s0"] == pytest.approx(0.25)
        busy = tl.stage_busy_time()
        assert busy["s0"] == pytest.approx(1.0)

    def test_durations_of_a_tag_in_task_order(self):
        tl = Timeline(time_scale=2.0)
        tl.add_task("s0", 1.0, tag="encode")
        tl.add_task("s1", 0.5, tag="decode")
        tl.add_task("s0", 3.0, tag="encode")
        # Bulk rows: a decode, a compaction, a decode.
        tl.add_tasks(
            [0] * 9, [0.25] * 8 + [0.75], [-1] * 9,
            [tl.tag_code("decode"), tl.tag_code("compaction")] * 4
            + [tl.tag_code("decode")],
        )
        assert tl.durations("encode").tolist() == [2.0, 6.0]
        assert tl.durations("decode").tolist() == [1.0] + [0.5] * 4 + [1.5]
        assert tl.durations("compaction").tolist() == [0.5] * 4
        assert tl.durations("kv-transfer").size == 0
        # A copy: the timeline's column is untouched.
        tl.durations("encode")[:] = 0.0
        assert tl.durations("encode").tolist() == [2.0, 6.0]


class TestReleaseTimes:
    def test_earliest_start_delays_task(self):
        tl = Timeline()
        t = tl.add_task("s0", 1.0, earliest_start_s=5.0)
        assert tl.start_time(t) == pytest.approx(5.0)
        assert tl.finish_time(t) == pytest.approx(6.0)

    def test_earliest_start_noop_when_stage_busy(self):
        tl = Timeline()
        tl.add_task("s0", 10.0)
        t = tl.add_task("s0", 1.0, earliest_start_s=5.0)
        assert tl.start_time(t) == pytest.approx(10.0)

    def test_earliest_start_combines_with_deps(self):
        tl = Timeline()
        a = tl.add_task("s0", 2.0)
        b = tl.add_task("s1", 1.0, deps=(a,), earliest_start_s=7.0)
        assert tl.start_time(b) == pytest.approx(7.0)

    def test_negative_release_rejected(self):
        with pytest.raises(ValueError):
            Timeline().add_task("s0", 1.0, earliest_start_s=-0.1)


NON_FINITE = [float("nan"), float("inf")]


class TestNonFiniteInputs:
    """Durations and release times are finite and >= 0, and the time scale
    is finite and > 0; anything else is a ``ValueError`` naming it."""

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf"])
    def test_add_task_rejects_a_non_finite_duration(self, bad):
        with pytest.raises(ValueError, match="duration_s"):
            Timeline().add_task("s0", bad)

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf"])
    def test_add_task_rejects_a_non_finite_release(self, bad):
        with pytest.raises(ValueError, match="earliest_start_s"):
            Timeline().add_task("s0", 1.0, earliest_start_s=bad)

    @pytest.mark.parametrize("rows", [3, 12], ids=["row-by-row", "bulk"])
    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf"])
    def test_add_tasks_rejects_a_non_finite_duration(self, rows, bad):
        tl = Timeline()
        code, tag = tl.stage_code("s0"), tl.tag_code("")
        durations = [1.0] * rows
        durations[rows // 2] = bad
        with pytest.raises(ValueError, match="duration_s"):
            tl.add_tasks([code] * rows, durations, [-1] * rows, [tag] * rows)
        assert tl.num_tasks == 0

    @pytest.mark.parametrize("rows", [3, 12], ids=["row-by-row", "bulk"])
    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf"])
    def test_add_tasks_rejects_a_non_finite_release(self, rows, bad):
        tl = Timeline()
        code, tag = tl.stage_code("s0"), tl.tag_code("")
        releases = [0.0] * rows
        releases[-1] = bad
        with pytest.raises(ValueError, match="earliest_start_s"):
            tl.add_tasks(
                [code] * rows, [1.0] * rows, [-1] * rows, [tag] * rows, releases
            )
        with pytest.raises(ValueError, match="earliest_start_s"):
            tl.add_tasks([code] * rows, [1.0] * rows, [-1] * rows, [tag] * rows, bad)
        assert tl.num_tasks == 0

    def test_a_nan_task_cannot_drop_out_of_the_makespan(self):
        """Nine 1 s tasks and a NaN one on one stage made a makespan of
        9.0; the NaN row is refused before any row is stored."""
        tl = Timeline()
        code, tag = tl.stage_code("s0"), tl.tag_code("")
        durations = [1.0] * 9 + [float("nan")]
        with pytest.raises(ValueError, match="duration_s"):
            tl.add_tasks([code] * 10, durations, [-1] * 10, [tag] * 10)
        tl.add_tasks([code] * 9, durations[:9], [-1] * 9, [tag] * 9)
        assert tl.makespan_s == 9.0

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf"])
    def test_time_scale_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="time_scale"):
            Timeline(time_scale=bad)


class TestIncrementalScheduling:
    def test_queries_do_not_finalize(self):
        """An online driver can query times and keep adding tasks."""
        tl = Timeline()
        a = tl.add_task("s0", 2.0)
        assert tl.finish_time(a) == pytest.approx(2.0)
        b = tl.add_task("s0", 1.0)  # still allowed after the query
        assert tl.finish_time(b) == pytest.approx(3.0)

    def test_incremental_matches_batch(self):
        """Interleaving schedule_pending with adds changes nothing."""
        batch = Timeline()
        online = Timeline()
        plan = [("s0", 1.0, ()), ("s1", 2.0, (0,)), ("s0", 3.0, (1,)), ("s1", 1.5, ())]
        for stage, duration, deps in plan:
            batch.add_task(stage, duration, deps)
        for stage, duration, deps in plan:
            online.add_task(stage, duration, deps)
            online.schedule_pending()
        batch.run()
        for expected, actual in zip(batch.tasks, online.tasks):
            assert actual.start_s == pytest.approx(expected.start_s)
            assert actual.finish_s == pytest.approx(expected.finish_s)

    def test_stage_free_at(self):
        tl = Timeline()
        tl.add_task("s0", 2.0)
        tl.add_task("s0", 3.0)
        assert tl.stage_free_at("s0") == pytest.approx(5.0)
        assert tl.stage_free_at("unused", default=1.25) == 1.25

    def test_run_still_finalizes(self):
        tl = Timeline()
        tl.add_task("s0", 1.0)
        tl.run()
        with pytest.raises(RuntimeError):
            tl.add_task("s0", 1.0)


class TestTimelineProperties:
    @given(
        durations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),  # stage
                st.floats(min_value=0.0, max_value=5.0),  # duration
                st.integers(min_value=0, max_value=4),  # dep offset
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_no_stage_overlap_and_deps_respected(self, durations):
        tl = Timeline()
        ids = []
        for stage, duration, dep_offset in durations:
            deps = ()
            if ids and dep_offset > 0:
                deps = (ids[max(len(ids) - dep_offset, 0)],)
            ids.append(tl.add_task(f"s{stage}", duration, deps))
        tl.run()
        tasks = tl.tasks
        # Dependencies respected.
        for task in tasks:
            for dep in task.deps:
                assert task.start_s >= tasks[dep].finish_s - 1e-9
        # No two tasks on the same stage overlap.
        by_stage: dict[object, list] = {}
        for task in tasks:
            by_stage.setdefault(task.stage, []).append(task)
        for stage_tasks in by_stage.values():
            ordered = sorted(stage_tasks, key=lambda t: t.start_s)
            for earlier, later in zip(ordered, ordered[1:]):
                assert later.start_s >= earlier.finish_s - 1e-9
        # Makespan is the max finish time.
        assert tl.makespan_s == pytest.approx(max(t.finish_s for t in tasks))
