"""Integration tests for the online arrival-driven serving simulator."""

import numpy as np
import pytest

from repro.baselines.deepspeed import DeepSpeedInference
from repro.baselines.faster_transformer import FasterTransformer
from repro.baselines.orca import Orca
from repro.baselines.vllm import Vllm
from repro.core.config import ScheduleConfig, SchedulePolicy
from repro.serving.online import (
    ContinuousBatchingOnlineServer,
    ExeGPTOnlineServer,
    OnlineEvaluator,
    OnlineResult,
)
from repro.serving.sla import SLA, SLAKind
from repro.workloads.arrivals import PoissonProcess, attach_arrivals
from repro.workloads.synthetic import generate_trace_from_distributions


@pytest.fixture(scope="module")
def base_trace(short_input_dist, short_output_dist):
    return generate_trace_from_distributions(
        short_input_dist, short_output_dist, num_requests=64, seed=9, name="online"
    )


def make_orca_server(profile, in_dist, out_dist, batch_size=16, max_queue=512):
    system = Orca(
        profile=profile, input_distribution=in_dist, output_distribution=out_dist
    )
    return ContinuousBatchingOnlineServer(
        system=system, batch_size=batch_size, max_queue=max_queue
    )


class TestConservation:
    @pytest.mark.parametrize("rate", [2.0, 50.0, 2000.0])
    def test_offered_equals_completed_plus_rejected(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace, rate
    ):
        server = make_orca_server(
            tiny_profile, short_input_dist, short_output_dist, max_queue=8
        )
        online = attach_arrivals(base_trace, PoissonProcess(rate), seed=3)
        result = server.serve(online, scenario="steady", offered_rate_qps=rate)
        assert result.offered == len(base_trace)
        assert result.completed + result.rejected == result.offered
        # Every non-rejected request finished with ordered timestamps.
        for record in result.records:
            if record.rejected:
                assert not record.completed
                assert record.admitted_s < 0
            else:
                assert record.completed
                assert record.arrival_s <= record.admitted_s + 1e-9
                assert record.admitted_s <= record.first_token_s + 1e-9
                assert record.first_token_s <= record.finish_s + 1e-9

    def test_exegpt_rra_conserves(self, tiny_simulator, base_trace):
        config = ScheduleConfig(
            policy=SchedulePolicy.RRA, encode_batch=8, decode_iterations=4
        )
        server = ExeGPTOnlineServer(tiny_simulator, config)
        online = attach_arrivals(base_trace, PoissonProcess(20.0), seed=5)
        result = server.serve(online)
        assert result.completed + result.rejected == result.offered
        assert result.completed == result.offered  # ample queue: no drops

    def test_exegpt_waa_conserves(self, tiny_simulator, base_trace):
        config = ScheduleConfig(
            policy=SchedulePolicy.WAA_C, encode_batch=8, micro_batches=2
        )
        server = ExeGPTOnlineServer(tiny_simulator, config)
        online = attach_arrivals(base_trace, PoissonProcess(20.0), seed=5)
        result = server.serve(online)
        assert result.completed + result.rejected == result.offered
        assert result.completed == result.offered

    def test_waa_ingests_mid_run_arrivals(self, tiny_simulator):
        """A straggler arriving while WAA decodes is admitted promptly.

        Regression test: the WAA clock must keep advancing through
        decode-only iterations, or arrivals sit unseen until the whole
        standing pool drains.
        """
        from repro.workloads.trace import RequestSpec, WorkloadTrace

        in_dist = tiny_simulator.input_distribution
        out_dist = tiny_simulator.output_distribution
        config = ScheduleConfig(
            policy=SchedulePolicy.WAA_C, encode_batch=8, micro_batches=2
        )
        head = [RequestSpec(i, 48, 40, 0.0) for i in range(16)]
        head_run = ExeGPTOnlineServer(tiny_simulator, config).serve(
            WorkloadTrace("head", head, in_dist, out_dist)
        )
        mid = head_run.makespan_s / 2
        trace = WorkloadTrace(
            "late", head + [RequestSpec(16, 48, 8, mid)], in_dist, out_dist
        )
        result = ExeGPTOnlineServer(tiny_simulator, config).serve(trace)
        late = result.records[16]
        assert result.completed == 17
        assert late.admitted_s >= late.arrival_s - 1e-9
        # Admitted while the pool is still draining, not after it empties.
        assert late.admitted_s < 0.75 * head_run.makespan_s


class TestLatencySemantics:
    def test_sparse_arrivals_have_no_queueing(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace
    ):
        """At a trickle rate each request is served alone on arrival."""
        server = make_orca_server(tiny_profile, short_input_dist, short_output_dist)
        online = attach_arrivals(base_trace, PoissonProcess(0.05), seed=2)
        result = server.serve(online)
        assert result.completed == result.offered
        assert result.queue_delay_percentile(99) == pytest.approx(0.0, abs=1e-6)
        # Makespan extends past the last arrival (requests arrive over time).
        assert result.makespan_s > max(r.arrival_s for r in result.records)

    def test_ttft_precedes_latency(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace
    ):
        server = make_orca_server(tiny_profile, short_input_dist, short_output_dist)
        online = attach_arrivals(base_trace, PoissonProcess(20.0), seed=2)
        result = server.serve(online)
        assert 0 < result.ttft_percentile(99) <= result.latency_percentile(99)

    def test_overload_inflates_latency(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace
    ):
        """E2E latency at heavy load dominates the uncontended latency."""
        server = make_orca_server(
            tiny_profile, short_input_dist, short_output_dist, batch_size=4
        )
        calm = server.serve(attach_arrivals(base_trace, PoissonProcess(0.05), seed=2))
        busy = server.serve(attach_arrivals(base_trace, PoissonProcess(500.0), seed=2))
        assert busy.mean_latency_s > calm.mean_latency_s


class TestSLAIntegration:
    def test_monotone_sla_degradation(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace
    ):
        """SLO attainment never improves as the offered rate rises."""
        slo = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=0.5, percentile=99.0)
        server = make_orca_server(
            tiny_profile, short_input_dist, short_output_dist,
            batch_size=8, max_queue=8,
        )
        attainments = []
        for rate in (5.0, 50.0, 500.0, 5000.0):
            online = attach_arrivals(base_trace, PoissonProcess(rate), seed=3)
            attainments.append(server.serve(online).attainment(slo))
        assert attainments[0] == pytest.approx(1.0)
        for lower, higher in zip(attainments, attainments[1:]):
            assert higher <= lower + 0.05
        assert attainments[-1] < attainments[0]

    def test_satisfies_holds_exactly_at_the_p99(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace
    ):
        """The SLA reads the result's own latency column: a bound at the
        p99 holds and the next float below it fails."""
        server = make_orca_server(tiny_profile, short_input_dist, short_output_dist)
        online = attach_arrivals(base_trace, PoissonProcess(5.0), seed=3)
        result = server.serve(online)
        p99 = result.latency_percentile(99.0)
        assert result.satisfies(SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=p99))
        below = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=np.nextafter(p99, 0))
        assert not result.satisfies(below)

    def test_rejections_break_sustainability(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace
    ):
        server = make_orca_server(
            tiny_profile, short_input_dist, short_output_dist,
            batch_size=2, max_queue=2,
        )
        online = attach_arrivals(base_trace, PoissonProcess(5000.0), seed=3)
        result = server.serve(online)
        assert result.rejected > 0
        generous = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=1000.0)
        assert not result.satisfies(generous)
        assert result.satisfies(generous, max_rejection_rate=1.0)
        assert result.attainment(generous) < 1.0


class TestAggregateCaching:
    """OnlineResult aggregates are computed once, not per property access.

    Regression test for the O(n)-per-call aggregation: rate sweeps touch
    ``completed``/``rejected``/percentiles many times per run, so the
    summary must come from one cached pass over the records rather than a
    fresh scan on every access.
    """

    def _result(self):
        from repro.serving.online import RecordSequence

        i = np.arange(30)
        rejected = i % 3 == 0
        records = RecordSequence(
            i, np.full(30, 8), np.full(30, 4), 0.1 * i,
            0.1 * i + 0.05, 0.1 * i + 0.2, np.where(rejected, -1.0, 0.1 * i + 1.0),
            rejected, np.zeros(30, dtype=bool), np.zeros(30, dtype=np.int64),
        )
        return OnlineResult(
            system="t", scenario="s", offered_rate_qps=1.0,
            records=records, makespan_s=10.0,
        )

    def test_summary_matches_naive_recomputation(self):
        result = self._result()
        assert result.completed == sum(1 for r in result.records if r.completed)
        assert result.rejected == sum(1 for r in result.records if r.rejected)
        naive = sorted(
            r.latency_s for r in result.records if r.completed and r.latency_s >= 0
        )
        assert result.latency_percentile(100.0) == pytest.approx(naive[-1])
        assert result.mean_latency_s == pytest.approx(sum(naive) / len(naive))

    def test_aggregates_scan_records_once(self):
        result = self._result()
        before = result.completed
        assert "_completed_mask" in result.__dict__  # summary pass ran and cached
        # Writing a record column after the first access must not change the
        # aggregates: they come from the cached mask, not a re-scan.
        result.records.columns()["finish"][1] = -1.0
        assert result.completed == before


class TestQueueBoundSemantics:
    """`max_queue` is the replica-local admission-queue capacity, enforced
    at handoff: `enqueue` refuses exactly at capacity, a refused arrival is
    rejected permanently, and rejection accounting is the single place
    requests can drop -- the semantics the fleet boundary relies on."""

    def test_enqueue_refuses_exactly_at_capacity(
        self, tiny_profile, short_input_dist, short_output_dist
    ):
        from repro.engine.pool import RequestPool
        from repro.engine.timeline import Timeline
        from repro.workloads.trace import RequestSpec, WorkloadTrace

        server = make_orca_server(
            tiny_profile, short_input_dist, short_output_dist, max_queue=2
        )
        trace = WorkloadTrace(
            "t",
            [RequestSpec(i, 8, 2, 0.0) for i in range(4)],
            short_input_dist,
            short_output_dist,
        )
        server.reset(Timeline(), RequestPool.from_trace(trace))
        assert server.queue_depth == 0
        assert server.enqueue(0)
        assert server.enqueue(1)
        assert server.queue_depth == 2
        # At capacity: refused, no side effects, never retried by contract.
        assert not server.enqueue(2)
        assert server.queue_depth == 2

    def test_rejected_arrivals_never_served(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace
    ):
        server = make_orca_server(
            tiny_profile, short_input_dist, short_output_dist,
            batch_size=4, max_queue=4,
        )
        online = attach_arrivals(base_trace, PoissonProcess(5000.0), seed=3)
        result = server.serve(online)
        assert result.rejected > 0
        assert result.completed + result.rejected == result.offered
        for record in result.records:
            if record.rejected:
                assert record.admitted_s < 0
                assert record.first_token_s < 0
                assert not record.completed

    def test_max_queue_validated(self):
        from repro.serving.online import OnlineServer

        with pytest.raises(ValueError):
            OnlineServer(name="bad", max_queue=0)

    def test_max_queue_is_a_count(
        self, tiny_profile, short_input_dist, short_output_dist
    ):
        # 2.5 used to fail with a numpy TypeError inside the queue ring.
        with pytest.raises(ValueError, match="max_queue"):
            make_orca_server(
                tiny_profile, short_input_dist, short_output_dist, max_queue=2.5
            )

    @pytest.mark.parametrize("bad", [2.5, float("nan")], ids=["fraction", "nan"])
    def test_batch_size_is_a_count(
        self, tiny_profile, short_input_dist, short_output_dist, bad
    ):
        # 2.5 used to run a batch of 3, and NaN to fail at serve time with
        # "KV cache too small".
        with pytest.raises(ValueError, match="batch_size"):
            make_orca_server(
                tiny_profile, short_input_dist, short_output_dist, batch_size=bad
            )

    @pytest.mark.parametrize(
        "system_cls", [FasterTransformer, DeepSpeedInference], ids=["ft", "dsi"]
    )
    def test_system_must_batch_continuously(
        self, tiny_profile, short_input_dist, short_output_dist, system_cls
    ):
        # FasterTransformer used to construct and then fail its first serve
        # with an AttributeError (no ``_make_kv_cache``); DSI inherits it.
        system = system_cls(
            profile=tiny_profile,
            input_distribution=short_input_dist,
            output_distribution=short_output_dist,
        )
        with pytest.raises(TypeError, match="system"):
            ContinuousBatchingOnlineServer(system=system, batch_size=8)

    def test_numpy_integer_counts_accepted(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace
    ):
        server = make_orca_server(
            tiny_profile, short_input_dist, short_output_dist,
            batch_size=np.int64(8), max_queue=np.int32(64),
        )
        online = attach_arrivals(base_trace, PoissonProcess(50.0), seed=2)
        result = server.serve(online)
        assert result.completed + result.rejected == len(base_trace)

    def test_huge_bound_allocates_constant_memory(
        self, tiny_profile, short_input_dist, short_output_dist
    ):
        """The queue bound is a limit, not an allocation: a replica with a
        2**40-id bound (8 TiB if preallocated) costs kilobytes."""
        import tracemalloc

        from repro.engine.pool import RequestPool
        from repro.engine.timeline import Timeline
        from repro.workloads.trace import RequestSpec, WorkloadTrace

        trace = WorkloadTrace(
            "t", [RequestSpec(i, 8, 2, 0.0) for i in range(4)],
            short_input_dist, short_output_dist,
        )
        pool = RequestPool.from_trace(trace)
        tracemalloc.start()
        try:
            server = make_orca_server(
                tiny_profile, short_input_dist, short_output_dist,
                max_queue=1 << 40,
            )
            server.reset(Timeline(), pool)
            for rid in range(4):
                assert server.enqueue(rid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert server.queued_ids() == [0, 1, 2, 3]

    def test_fifo_order_survives_growth_from_a_wrapped_ring(self):
        from repro.serving.online import IdQueue

        queue = IdQueue(1 << 20)
        reference: list[int] = []
        next_id = 0
        # Fill to the initial ring size, pop part of the head so the tail
        # wraps around, then grow past the ring through both append paths.
        for _ in range(64):
            queue.append(next_id)
            reference.append(next_id)
            next_id += 1
        queue.pop_many(40)
        del reference[:40]
        for _ in range(45):  # wraps at once, fills the ring, grows at the 41st
            queue.append(next_id)
            reference.append(next_id)
            next_id += 1
        assert queue.as_array().tolist() == reference
        queue.pop_many(60)
        del reference[:60]
        for _ in range(120):  # wraps the grown ring, then grows again
            queue.append(next_id)
            reference.append(next_id)
            next_id += 1
        assert queue.as_array().tolist() == reference
        batch = np.arange(next_id, next_id + 500)
        queue.extend(batch)
        reference.extend(batch.tolist())
        next_id += 500
        assert queue.as_array().tolist() == reference
        assert queue.head_array(7).tolist() == reference[:7]
        assert [queue.popleft() for _ in range(5)] == reference[:5]
        del reference[:5]
        queue.remove(reference[3])
        del reference[3]
        assert queue.as_array().tolist() == reference
        assert len(queue) == len(reference)

    def test_ring_never_grows_past_its_bound(self):
        from repro.serving.online import IdQueue

        queue = IdQueue(100)
        queue.extend(np.arange(70))
        queue.extend(np.arange(70, 100))
        assert queue._buf.size == 100
        assert queue.as_array().tolist() == list(range(100))


class TestPagedCacheDriver:
    def test_vllm_driver_uses_paged_cache(
        self, tiny_profile, short_input_dist, short_output_dist, base_trace
    ):
        system = Vllm(
            profile=tiny_profile,
            input_distribution=short_input_dist,
            output_distribution=short_output_dist,
        )
        server = ContinuousBatchingOnlineServer(system=system, batch_size=8)
        online = attach_arrivals(base_trace, PoissonProcess(50.0), seed=1)
        result = server.serve(online)
        assert result.completed == result.offered
        assert result.extra["peak_kv_gib"] > 0


class TestOnlineEvaluator:
    @pytest.fixture(scope="class")
    def evaluator(self, tiny_engine, base_trace):
        slo = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=2.0, percentile=99.0)
        return OnlineEvaluator(tiny_engine, base_trace, slo, max_queue=16, seed=3)

    def test_servers_are_cached(self, evaluator):
        assert evaluator.server("orca") is evaluator.server("orca")

    def test_unknown_system_rejected(self, evaluator):
        with pytest.raises(KeyError):
            evaluator.server("triton")

    def test_sweep_stops_after_failure(self, evaluator):
        points = evaluator.sweep(
            "orca", "steady", rates=(1.0, 10.0, 1e5, 1e6), stop_after_failure=True
        )
        # Once a rate fails, higher rates are not simulated.
        failed = [p for p in points if not p.sustainable]
        assert len(failed) <= 1
        if failed:
            assert points[-1] is failed[0]

    def test_max_sustainable_qps_brackets_capacity(self, evaluator):
        rates = (1.0, 1e6)
        qps = evaluator.max_sustainable_qps("orca", "steady", rates)
        assert qps == 1.0  # sustainable at a trickle, not at a million QPS

    def test_exegpt_schedule_found(self, evaluator):
        server = evaluator.server("exegpt")
        point = evaluator.measure("exegpt", PoissonProcess(2.0), scenario="steady")
        assert point.sustainable
        assert point.result.system == server.name

    def test_evaluate_builds_capacity_table(self, evaluator):
        table = evaluator.evaluate(
            systems=("exegpt", "orca"), scenarios=("steady",), rates=(1.0, 2.0)
        )
        assert set(table) == {("exegpt", "steady"), ("orca", "steady")}
        for qps in table.values():
            assert qps in (0.0, 1.0, 2.0)

    def test_estimate_context_shared_across_sweep(self, evaluator, tiny_engine):
        """One EstimateContext backs the whole sweep.

        The memoization lives on the simulator; the evaluator forces and
        pins that context at construction, and rate sweeps and server
        builds must keep hitting the same memo (placements included) --
        nothing may rebuild the context or re-search per offered rate.
        """
        context_before = evaluator.context
        assert context_before is tiny_engine.simulator.context
        server = evaluator.server("exegpt")
        # The server's placement is the context's memoized one, not a rebuild.
        assert server.placement is context_before.placement_for(server.config)
        evaluator.sweep("exegpt", "steady", rates=(0.5, 1.0))
        assert evaluator.context is context_before
        assert tiny_engine.simulator.context is context_before
        # Sweeping again reuses the cached server (one schedule search per
        # system for the evaluator's lifetime).
        assert evaluator.server("exegpt") is server
