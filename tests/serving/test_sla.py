"""Tests for SLA definitions."""

import numpy as np
import pytest

from repro.engine.metrics import RunResult
from repro.serving.online import OnlineResult, RecordSequence
from repro.serving.sla import SLA, SLAKind


def _result(latencies, lengths=()) -> RunResult:
    return RunResult(
        system="x",
        makespan_s=10.0,
        num_requests=len(latencies),
        total_generated_tokens=10,
        latencies_s=latencies,
        output_lengths=lengths,
    )


class TestSLA:
    def test_percentile_sla_satisfied(self):
        sla = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=5.0)
        assert sla.satisfied(_result([1.0] * 99 + [4.9]))
        assert not sla.satisfied(_result([1.0] * 50 + [6.0] * 50))

    def test_reference_length_sla_ignores_longer_requests(self):
        sla = SLA(kind=SLAKind.REFERENCE_LENGTH, bound_s=5.0, reference_length=64)
        assert sla.satisfied(_result([1.0, 4.0, 6.0], [64, 10, 65]))
        assert not sla.satisfied(_result([1.0, 4.0, 6.0], [64, 10, 64]))

    def test_violation_sign(self):
        sla = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=2.0)
        assert sla.violation(_result([1.0] * 100)) < 0
        assert sla.violation(_result([3.0] * 100)) > 0

    def test_required_margin(self):
        sla = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=2.0)
        assert sla.required_margin(_result([1.0] * 10)) == 0.0
        margin = sla.required_margin(_result([4.0] * 10))
        assert margin == pytest.approx(0.5)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=0.0)
        with pytest.raises(ValueError):
            SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=1.0, percentile=0.0)
        with pytest.raises(ValueError, match="reference_length"):
            SLA(kind=SLAKind.REFERENCE_LENGTH, bound_s=1.0)
        with pytest.raises(ValueError, match="reference_length"):
            SLA(kind=SLAKind.REFERENCE_LENGTH, bound_s=1.0, reference_length=0)
        with pytest.raises(ValueError, match="sla-c"):
            SLA(kind="sla-c", bound_s=1.0)

    def test_kind_by_value(self):
        sla = SLA(kind="sla-a", bound_s=5.0)
        assert sla.kind is SLAKind.QUERY_PERCENTILE
        assert sla.satisfied(_result([1.0] * 99 + [4.9]))


class TestReferenceLengthParity:
    def test_offline_and_online_results_agree(self):
        """One SLA-(b) measure: a RunResult (warm-up rows dropped) and an
        OnlineResult (completed rows) over the same latency and length
        columns give the same value at every target, the p99 when no
        request is short enough."""
        rng = np.random.default_rng(7)
        n = 200
        arrival = rng.uniform(0.0, 50.0, n)
        finish = arrival + rng.exponential(2.0, n)
        lengths = rng.integers(5, 60, n)
        completed = rng.random(n) < 0.8
        online = OnlineResult(
            system="x", scenario="s", offered_rate_qps=1.0, makespan_s=60.0,
            records=RecordSequence(
                np.arange(n), np.full(n, 8), lengths, arrival, arrival, arrival,
                np.where(completed, finish, -1.0), ~completed,
                np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64),
            ),
        )
        latencies = (finish - arrival)[completed]
        # Three warm-up requests, short and slow, that must not count.
        offline = RunResult(
            system="x", makespan_s=60.0, num_requests=latencies.size + 3,
            total_generated_tokens=0, warmup_requests=3,
            latencies_s=np.concatenate([[99.0] * 3, latencies]),
            output_lengths=np.concatenate([[1] * 3, lengths[completed]]),
        )
        for target in (4, 5, 20, 59, 1000):
            expected = online.reference_length_latency(target)
            assert offline.reference_length_latency(target) == expected
            sla = SLA(
                kind=SLAKind.REFERENCE_LENGTH, bound_s=1.0, reference_length=target
            )
            assert sla.observed_latency(offline) == sla.observed_latency(online)
        assert online.reference_length_latency(4) == np.percentile(latencies, 99)
        assert online.reference_length_latency(1000) == latencies.max()
