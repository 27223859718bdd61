"""Tests for run-result metrics."""

import numpy as np
import pytest

from repro.engine.metrics import RunResult, collect_pool_result
from repro.engine.pool import RequestPool


def _completed(latencies, output_lens=None) -> RequestPool:
    """A pool of finished requests: encode starts at 1.0, prompts of 16."""
    latencies = np.asarray(latencies, dtype=float)
    n = latencies.size
    output = np.full(n, 8) if output_lens is None else np.asarray(output_lens)
    pool = RequestPool.from_arrays(np.full(n, 16), output)
    ids = pool.ids()
    for length in np.unique(output):
        pool.advance(ids[output == length], int(length))
    pool.stamp_encode_start(ids, 1.0)
    pool.stamp_finish(ids, 1.0 + latencies)
    return pool


def collect(pool: RequestPool, **kwargs) -> RunResult:
    return collect_pool_result("test", pool, pool.ids(), **kwargs)


class TestCollectResult:
    def test_throughput_and_latency(self):
        result = collect(_completed([2.0 + i for i in range(10)]), makespan_s=20.0)
        assert result.throughput_seq_per_s == pytest.approx(0.5)
        assert result.throughput_tokens_per_s == pytest.approx(80 / 20.0)
        assert result.mean_latency_s == pytest.approx(6.5)
        assert result.max_latency_s == pytest.approx(11.0)
        assert result.latencies_s.dtype == result.completion_times_s.dtype == float
        assert result.output_lengths.dtype == np.int64

    def test_unfinished_request_rejected(self):
        pool = RequestPool.from_arrays(np.array([4]), np.array([4]))
        with pytest.raises(ValueError):
            collect(pool, makespan_s=1.0)

    def test_percentiles(self):
        result = collect(_completed([float(i) for i in range(100)]), makespan_s=100.0)
        assert result.latency_percentile(50) == pytest.approx(49.5, abs=1.0)
        assert result.p99_latency_s >= result.latency_percentile(90)
        with pytest.raises(ValueError):
            result.latency_percentile(101)

    def test_skip_warmup_excludes_leading_requests(self):
        pool = _completed([100.0] * 5 + [1.0] * 20)
        result = collect(pool, makespan_s=10.0, warmup_requests=5)
        assert result.latency_percentile(99, skip_warmup=True) == pytest.approx(1.0)
        assert result.latency_percentile(99) > 50.0

    def test_reference_length_latency_filters_long_outputs(self):
        pool = _completed([2.0] * 10 + [50.0] * 2, output_lens=[8] * 10 + [100] * 2)
        result = collect(pool, makespan_s=10.0)
        assert result.reference_length_latency(16) == pytest.approx(2.0)
        assert result.max_latency_s == pytest.approx(50.0)
        unrecorded = RunResult(
            system="x", makespan_s=1.0, num_requests=2,
            total_generated_tokens=0, latencies_s=(1.0, 2.0),
        )
        with pytest.raises(ValueError, match="output_lengths"):
            unrecorded.reference_length_latency(16)

    def test_steady_state_throughput_fallback_for_small_traces(self):
        result = collect(_completed([1.0] * 5), makespan_s=5.0)
        assert result.steady_state_throughput() == pytest.approx(result.throughput_seq_per_s)

    def test_stage_time_stats(self):
        result = collect(
            _completed([1.0]),
            makespan_s=1.0,
            stage_times={"decode": [1.0, 1.1, 0.9, 1.0]},
        )
        stats = result.stage_time_stats("decode")
        assert stats["mean"] == pytest.approx(1.0)
        assert stats["p99_range_pct"] > 0
        assert result.stage_time_stats("encode")["mean"] == 0.0

    def test_empty_result_is_safe(self):
        result = RunResult(
            system="x", makespan_s=0.0, num_requests=0,
            total_generated_tokens=0, latencies_s=(),
        )
        assert result.throughput_seq_per_s == 0.0
        assert result.p99_latency_s == 0.0
        assert result.mean_latency_s == 0.0
