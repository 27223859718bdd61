"""Tests for XRunner: enforcing RRA and WAA schedules on the engine."""

import pytest

from repro.core.config import ScheduleConfig, SchedulePolicy, TensorParallelConfig
from repro.core.dynamic import DynamicWorkloadAdjuster
from repro.core.runner import XRunner
from repro.engine.execution import max_replay_cycles
from repro.workloads.synthetic import generate_trace_from_distributions
from repro.workloads.trace import RequestSpec, WorkloadTrace


@pytest.fixture(scope="module")
def tiny_trace(short_input_dist, short_output_dist):
    return generate_trace_from_distributions(
        short_input_dist, short_output_dist, num_requests=96, seed=11
    )


def _run(simulator, config, trace, dynamic=True):
    return XRunner(simulator, config, dynamic_adjustment=dynamic).run(trace)


class TestRRARunner:
    def test_all_requests_complete_with_correct_tokens(self, tiny_simulator, tiny_trace):
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=8)
        result = _run(tiny_simulator, config, tiny_trace)
        assert result.num_requests == len(tiny_trace)
        assert result.total_generated_tokens == tiny_trace.total_output_tokens
        assert result.makespan_s > 0
        assert all(lat > 0 for lat in result.latencies_s)

    def test_stage_times_recorded(self, tiny_simulator, tiny_trace):
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=8)
        result = _run(tiny_simulator, config, tiny_trace)
        assert len(result.stage_times["encode"]) > 0
        assert len(result.stage_times["decode"]) > 0
        assert result.peak_memory_gib

    def test_more_frequent_encoding_increases_measured_throughput(
        self, tiny_simulator, tiny_trace
    ):
        frequent = _run(
            tiny_simulator,
            ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=2),
            tiny_trace,
        )
        infrequent = _run(
            tiny_simulator,
            ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=32),
            tiny_trace,
        )
        assert frequent.throughput_seq_per_s > infrequent.throughput_seq_per_s * 0.95

    def test_tensor_parallel_schedule_runs(self, tiny_simulator, tiny_trace):
        config = ScheduleConfig(
            SchedulePolicy.RRA,
            encode_batch=8,
            decode_iterations=8,
            tensor_parallel=TensorParallelConfig(degree=2, num_gpus=4),
        )
        result = _run(tiny_simulator, config, tiny_trace)
        assert result.num_requests == len(tiny_trace)

    def test_empty_trace_rejected(self, tiny_simulator, short_input_dist, short_output_dist):
        from repro.workloads.trace import WorkloadTrace

        empty = WorkloadTrace(
            name="empty", requests=(), input_distribution=short_input_dist,
            output_distribution=short_output_dist,
        )
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=4)
        with pytest.raises(ValueError):
            _run(tiny_simulator, config, empty)


class TestWAARunner:
    def test_all_requests_complete(self, tiny_simulator, tiny_trace):
        config = ScheduleConfig(SchedulePolicy.WAA_C, encode_batch=2, micro_batches=2)
        result = _run(tiny_simulator, config, tiny_trace)
        assert result.num_requests == len(tiny_trace)
        assert result.total_generated_tokens == tiny_trace.total_output_tokens
        assert result.system == "exegpt-waa-c"

    def test_waa_m_variant_runs(self, tiny_simulator, tiny_trace):
        config = ScheduleConfig(SchedulePolicy.WAA_M, encode_batch=2, micro_batches=1)
        result = _run(tiny_simulator, config, tiny_trace)
        assert result.system == "exegpt-waa-m"
        assert result.num_requests == len(tiny_trace)

    def test_encoder_decoder_model(self, tiny_encdec_simulator, tiny_trace):
        config = ScheduleConfig(SchedulePolicy.WAA_C, encode_batch=2, micro_batches=1)
        result = _run(tiny_encdec_simulator, config, tiny_trace)
        assert result.num_requests == len(tiny_trace)


class TestConvergenceGuard:
    """A replay stops at requests + output tokens cycles
    (``max_replay_cycles``): every cycle that makes progress admits a
    request or generates a token, so a longer loop has stalled."""

    @pytest.mark.parametrize(
        "config",
        [
            ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=8),
            ScheduleConfig(SchedulePolicy.WAA_C, encode_batch=2, micro_batches=2),
        ],
        ids=["rra", "waa"],
    )
    def test_a_stalled_replay_stops_at_the_trace_bound(
        self, tiny_simulator, tiny_trace, config, monkeypatch
    ):
        calls = []

        def admit_nothing(self, input_lens, pool_size, freed_slots):
            calls.append(pool_size)
            return 0

        monkeypatch.setattr(DynamicWorkloadAdjuster, "admit_count", admit_nothing)
        with pytest.raises(RuntimeError, match="did not converge"):
            _run(tiny_simulator, config, tiny_trace)
        assert len(calls) <= max_replay_cycles(tiny_trace) + 1

    @pytest.mark.slow
    def test_a_long_replay_is_not_cut_short(self, tiny_simulator):
        # One request of 100,500 tokens at N_D 1 takes 100,501 RRA cycles,
        # past the fixed 100,000-cycle cap this guard replaced (about 9 s
        # on a 2-vCPU host).
        trace = WorkloadTrace(
            "long",
            (RequestSpec(0, 16, 100_500, 0.0),),
            tiny_simulator.input_distribution,
            tiny_simulator.output_distribution,
        )
        config = ScheduleConfig(
            SchedulePolicy.RRA,
            encode_batch=1,
            decode_iterations=1,
            tensor_parallel=TensorParallelConfig(degree=4, num_gpus=4),
        )
        result = _run(tiny_simulator, config, trace)
        assert result.total_generated_tokens == 100_500
        # One decode task per cycle on the one stage, plus the encode.
        assert result.extra["num_tasks"] == 100_502


class TestSimulatorRunnerAgreement:
    def test_estimate_and_measurement_within_factor_two(self, tiny_simulator, tiny_trace):
        """The simulator drives scheduling decisions, so it must track the
        engine's measured throughput within a reasonable factor."""
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=8)
        estimate = tiny_simulator.estimate(config)
        result = _run(tiny_simulator, config, tiny_trace)
        measured = result.steady_state_throughput()
        assert measured > 0
        ratio = estimate.throughput_seq_per_s / measured
        assert 0.4 < ratio < 2.5

    def test_dynamic_adjustment_does_not_break_completion(self, tiny_simulator, tiny_trace):
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=8)
        with_adj = _run(tiny_simulator, config, tiny_trace, dynamic=True)
        without = _run(tiny_simulator, config, tiny_trace, dynamic=False)
        assert with_adj.num_requests == without.num_requests == len(tiny_trace)
