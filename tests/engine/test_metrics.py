"""Tests for run-result metrics."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.engine.execution import Bookkeeping
from repro.engine.metrics import RunResult, collect_result
from repro.engine.pool import RequestPool
from repro.engine.timeline import Timeline


def _completed(latencies, output_lens=None, makespan_s=0.0, decode_times=()):
    """An engine whose pool finished every request: request ``i`` runs as
    one task of ``latencies[i]`` released at 1.0, on a stage of its own.

    A ``makespan_s`` task on another stage stretches the makespan, and
    ``decode_times`` are decode-tagged tasks on a third.
    """
    latencies = np.asarray(latencies, dtype=float)
    n = latencies.size
    output = np.full(n, 8) if output_lens is None else np.asarray(output_lens)
    pool = RequestPool.from_arrays(np.full(n, 16), output)
    ids = pool.ids()
    for length in np.unique(output):
        pool.advance(ids[output == length], int(length))
    timeline = Timeline()
    bookkeeping = Bookkeeping()
    for rid, latency in enumerate(latencies.tolist()):
        task = timeline.add_task(("request", rid), latency, earliest_start_s=1.0)
        bookkeeping.encode_starts.append((ids[rid:rid + 1], task))
        bookkeeping.completions.append((ids[rid:rid + 1], task))
    if makespan_s:
        timeline.add_task("tail", makespan_s)
    for duration in decode_times:
        timeline.add_task("decoder", duration, tag="decode")
    return SimpleNamespace(timeline=timeline, pool=pool, bookkeeping=bookkeeping)


def collect(engine, **kwargs) -> RunResult:
    return collect_result("test", engine, **kwargs)


class TestCollectResult:
    def test_throughput_and_latency(self):
        result = collect(_completed([2.0 + i for i in range(10)], makespan_s=20.0))
        assert result.makespan_s == 20.0
        assert result.completion_times_s.tolist() == [3.0 + i for i in range(10)]
        assert result.throughput_seq_per_s == pytest.approx(0.5)
        assert result.throughput_tokens_per_s == pytest.approx(80 / 20.0)
        assert result.mean_latency_s == pytest.approx(6.5)
        assert result.max_latency_s == pytest.approx(11.0)
        assert result.latencies_s.dtype == result.completion_times_s.dtype == float
        assert result.output_lengths.dtype == np.int64

    def test_unfinished_request_rejected(self):
        pool = RequestPool.from_arrays(np.array([4]), np.array([4]))
        engine = SimpleNamespace(
            timeline=Timeline(), pool=pool, bookkeeping=Bookkeeping()
        )
        with pytest.raises(ValueError, match="did not complete"):
            collect(engine)

    def test_request_without_encode_start_rejected(self):
        engine = _completed([1.0, 2.0])
        engine.bookkeeping.encode_starts.pop()
        with pytest.raises(ValueError, match="invalid latency"):
            collect(engine)

    def test_an_id_recorded_twice_keeps_its_later_events(self):
        # A request requeued and served again: the later encode start and
        # finish are its times.
        engine = _completed([1.0, 2.0])
        again = engine.timeline.add_task("rerun", 4.0, earliest_start_s=5.0)
        first = np.array([0], dtype=np.int64)
        engine.bookkeeping.encode_starts.append((first, again))
        engine.bookkeeping.completions.append((first, again))
        result = collect(engine)
        assert result.latencies_s.tolist() == [4.0, 2.0]
        assert result.completion_times_s.tolist() == [9.0, 3.0]

    def test_percentiles(self):
        result = collect(_completed([float(i) for i in range(100)]))
        assert result.latency_percentile(50) == pytest.approx(49.5, abs=1.0)
        assert result.p99_latency_s >= result.latency_percentile(90)
        with pytest.raises(ValueError):
            result.latency_percentile(101)

    def test_skip_warmup_excludes_leading_requests(self):
        pool = _completed([100.0] * 5 + [1.0] * 20)
        result = collect(pool, warmup_requests=5)
        assert result.latency_percentile(99, skip_warmup=True) == pytest.approx(1.0)
        assert result.latency_percentile(99) > 50.0

    def test_reference_length_latency_filters_long_outputs(self):
        pool = _completed([2.0] * 10 + [50.0] * 2, output_lens=[8] * 10 + [100] * 2)
        result = collect(pool)
        assert result.reference_length_latency(16) == pytest.approx(2.0)
        assert result.max_latency_s == pytest.approx(50.0)
        unrecorded = RunResult(
            system="x", makespan_s=1.0, num_requests=2,
            total_generated_tokens=0, latencies_s=(1.0, 2.0),
        )
        with pytest.raises(ValueError, match="output_lengths"):
            unrecorded.reference_length_latency(16)

    def test_steady_state_throughput_fallback_for_small_traces(self):
        result = collect(_completed([1.0] * 5))
        assert result.steady_state_throughput() == pytest.approx(result.throughput_seq_per_s)

    def test_stage_time_stats(self):
        result = collect(_completed([1.0], decode_times=[1.0, 1.1, 0.9, 1.0]))
        assert result.stage_times["decode"].tolist() == [1.0, 1.1, 0.9, 1.0]
        assert result.stage_times["encode"].size == 0
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
