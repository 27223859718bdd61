"""Per-replica fleet results read the fleet columns.

``Fleet.serve_pool`` returns one :class:`OnlineResult` per replica whose
records are a :class:`ReplicaRecords`: the fleet-wide record columns read
through the serve's assignments, each column gathered on its first read.
They must equal the eager gather ``fleet.records[flatnonzero(assignments
== i)]`` record for record and in every aggregate, gather only what a
caller reads, and keep a warm serve from retaining a copy of the fleet's
records.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.baselines.orca import Orca
from repro.core.config import (
    ScheduleConfig,
    SchedulePolicy,
    TensorParallelConfig,
)
from repro.engine.pool import RequestPool
from repro.serving.faults import FaultSchedule, LoadSheddingPolicy
from repro.serving.fleet import Fleet
from repro.serving.online import (
    ContinuousBatchingOnlineServer,
    ExeGPTOnlineServer,
    OnlineResult,
    ReplicaRecords,
)
from repro.serving.sla import SLA, SLAKind
from repro.workloads.arrivals import PoissonProcess


def _rra(simulator, max_queue=64):
    config = ScheduleConfig(
        policy=SchedulePolicy.RRA, encode_batch=8, decode_iterations=4
    )
    return ExeGPTOnlineServer(simulator, config, max_queue=max_queue)


def _pool(in_dist, out_dist, requests, rate, seed):
    rng = np.random.default_rng(seed)
    return RequestPool.from_arrays(
        in_dist.sample(requests, rng),
        out_dist.sample(requests, rng),
        PoissonProcess(rate).arrival_times(requests, rng),
    )


@pytest.fixture(params=["plain-jsq", "flapping-shedding"])
def served(request, tiny_profile, short_input_dist, short_output_dist,
           tiny_simulator):
    """A served fleet's result: a plain 3-replica JSQ fleet, or a flapping,
    load-shedding one over ORCA replicas small enough to shed and reject."""
    pool = _pool(short_input_dist, short_output_dist, 400, 300.0, seed=5)
    if request.param == "plain-jsq":
        fleet = Fleet.homogeneous(_rra(tiny_simulator), 3, routing="jsq")
    else:
        server = ContinuousBatchingOnlineServer(
            system=Orca(
                profile=tiny_profile,
                input_distribution=short_input_dist,
                output_distribution=short_output_dist,
            ),
            batch_size=4,
            max_queue=6,
        )
        span = pool.arrival_of(len(pool) - 1)
        fleet = Fleet.homogeneous(
            server, 3, routing="jsq",
            faults=FaultSchedule.flap(
                3, mtbf_s=span / 3.0, mttr_s=span / 10.0, horizon_s=span,
                seed=2,
            ),
            admission=LoadSheddingPolicy(max_wait_s=0.05),
        )
    result = fleet.serve_pool(pool)
    if request.param == "flapping-shedding":
        assert int(result.crashes.sum()) > 0
        assert result.shed > 0 and result.rejected > 0
    return result


def _eager(result, i):
    """Replica ``i``'s result over the eager gather of its records."""
    replica = result.replicas[i]
    return OnlineResult(
        system=replica.system,
        scenario=replica.scenario,
        offered_rate_qps=replica.offered_rate_qps,
        records=result.fleet.records[np.flatnonzero(result.assignments == i)],
        makespan_s=replica.makespan_s,
        extra=replica.extra,
    )


class TestReplicaRecords:
    def test_records_equal_the_eager_gather(self, served):
        assert sum(len(r.records) for r in served.replicas) == int(
            np.count_nonzero(served.assignments >= 0)
        )
        for i, replica in enumerate(served.replicas):
            records = replica.records
            assert isinstance(records, ReplicaRecords)
            eager = _eager(served, i).records
            assert len(records) == len(eager) > 0
            assert records == eager
            assert records == tuple(eager)
            assert tuple(eager) == records
            assert list(records) == list(eager)
            assert records[0] == eager[0]
            assert records[-1] == eager[-1]
            assert records[1:4] == eager[1:4]
            picked = np.array([2, 0], dtype=np.int64)
            assert records[picked] == eager[picked]
            columns, expected = records.columns(), eager.columns()
            assert list(columns) == list(expected)
            for name, column in expected.items():
                np.testing.assert_array_equal(columns[name], column)
                assert columns[name].dtype == column.dtype

    def test_aggregates_equal_the_eager_gather(self, served):
        sla = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=0.5)
        for i, replica in enumerate(served.replicas):
            eager = _eager(served, i)
            assert replica.offered == eager.offered
            assert replica.completed == eager.completed
            assert replica.rejected == eager.rejected
            assert replica.shed == eager.shed
            assert replica.preempted == eager.preempted
            assert replica.conserved == eager.conserved
            for q in (50, 90, 99):
                assert replica.latency_percentile(q) == eager.latency_percentile(q)
                assert replica.ttft_percentile(q) == eager.ttft_percentile(q)
                assert replica.queue_delay_percentile(q) == (
                    eager.queue_delay_percentile(q)
                )
            assert replica.mean_latency_s == eager.mean_latency_s
            assert replica.attainment(sla) == eager.attainment(sla)
            assert replica.achieved_qps == eager.achieved_qps

    def test_satisfies_holds_exactly_at_the_p99(self, served):
        """The fleet's and each replica's SLA reads that result's own
        latency column: a bound at its p99 holds and the next float below
        it fails (drops are allowed, so only the latency decides)."""
        for result in (served.fleet, *served.replicas):
            p99 = result.latency_percentile(99.0)
            at = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=p99)
            below = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=np.nextafter(p99, 0))
            assert result.satisfies(at, max_rejection_rate=1.0)
            assert not result.satisfies(below, max_rejection_rate=1.0)

    def test_a_column_is_gathered_on_its_first_read(self, served):
        records = served.replicas[0].records
        assert records._rows is None
        assert all(column is None for column in records._arrays)
        served.replicas[0].completed
        # Counting completions gathers the finish column alone.
        finish = records._arrays[6]
        assert [column is not None for column in records._arrays] == (
            [False] * 6 + [True] + [False] * 3
        )
        served.replicas[0].completed
        assert records._arrays[6] is finish
        assert not np.shares_memory(finish, served.fleet.records.columns()["finish"])
        # Attainment reads the latency column: arrival and finish alone.
        served.replicas[0].attainment(SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=1.0))
        assert [column is not None for column in records._arrays] == (
            [False] * 3 + [True] + [False] * 2 + [True] + [False] * 3
        )


class TestRetainedMemory:
    def test_a_warm_serve_retains_no_copy_of_the_records(
        self, short_input_dist, short_output_dist, tiny_simulator
    ):
        """A warm serve of 20k requests on 4 replicas at 90% load retains
        at most 170 B per request, the pool left out.  Measured: 137 B,
        against 204 B when every replica's result gathered its own copy
        of the ten record columns (66 B per request)."""
        config = ScheduleConfig(
            policy=SchedulePolicy.RRA,
            encode_batch=512,
            decode_iterations=64,
            tensor_parallel=TensorParallelConfig(degree=4, num_gpus=4),
        )
        rate = 0.9 * 4 * tiny_simulator.estimate(config).throughput_seq_per_s
        requests = 20_000
        pool = _pool(short_input_dist, short_output_dist, requests, rate, seed=1)
        fleet = Fleet.homogeneous(
            ExeGPTOnlineServer(tiny_simulator, config, max_queue=4096), 4
        )
        fleet.serve_pool(pool)
        gc.collect()
        tracemalloc.start()
        try:
            result = fleet.serve_pool(pool)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.completed == requests
        assert retained / requests <= 170.0
