"""Tests for the ORCA and vLLM iteration-level baselines."""

import numpy as np
import pytest

from repro.baselines.faster_transformer import FasterTransformer
from repro.baselines.orca import Orca
from repro.baselines.vllm import Vllm
from repro.serving.online import ContinuousBatchingOnlineServer
from repro.workloads.synthetic import generate_trace_from_distributions


@pytest.fixture(scope="module")
def orca(tiny_profile, short_input_dist, short_output_dist) -> Orca:
    return Orca(
        profile=tiny_profile,
        input_distribution=short_input_dist,
        output_distribution=short_output_dist,
    )


@pytest.fixture(scope="module")
def vllm(tiny_profile, short_input_dist, short_output_dist) -> Vllm:
    return Vllm(
        profile=tiny_profile,
        input_distribution=short_input_dist,
        output_distribution=short_output_dist,
    )


@pytest.fixture(scope="module")
def trace(short_input_dist, short_output_dist):
    return generate_trace_from_distributions(
        short_input_dist, short_output_dist, num_requests=48, seed=4
    )


class TestOrca:
    def test_all_requests_complete(self, orca, trace):
        result = orca.run(trace, batch_size=8)
        assert result.num_requests == len(trace)
        assert result.total_generated_tokens == trace.total_output_tokens
        assert result.system == "orca"
        assert result.extra["iterations"] >= len(trace)

    def test_batch_size_one_still_completes(self, orca, trace):
        result = orca.run(trace, batch_size=1)
        assert result.num_requests == len(trace)
        # At batch 1 every cycle either admits into the empty batch or
        # decodes the one running request: the replay takes exactly
        # requests + output tokens cycles, the bound its guard allows.
        assert result.extra["iterations"] == len(trace) + trace.total_output_tokens

    def test_worst_case_latency_monotone(self, orca):
        assert orca.worst_case_latency(32) > orca.worst_case_latency(2)

    def test_invalid_batch_rejected(self, orca, trace):
        with pytest.raises(ValueError):
            orca.run(trace, batch_size=0)

    def test_fractional_batch_rejected_by_run(self, orca, trace):
        with pytest.raises(ValueError, match="batch_size"):
            orca.run(trace, batch_size=2.5)

    def test_nan_batch_rejected_by_run(self, orca, trace):
        with pytest.raises(ValueError, match="batch_size"):
            orca.run(trace, batch_size=float("nan"))

    def test_fractional_batch_rejected_by_worst_case_latency(self, orca):
        with pytest.raises(ValueError, match="batch_size"):
            orca.worst_case_latency(2.5)


class TestVllm:
    def test_all_requests_complete(self, vllm, trace):
        result = vllm.run(trace, batch_size=8)
        assert result.num_requests == len(trace)
        assert result.system == "vllm"

    def test_paged_cache_admits_larger_batches_than_reservation(self, orca, vllm):
        """PagedAttention's point: expected-usage allocation admits more
        concurrent requests than max-length reservations."""
        assert vllm.memory_limited_batch() > orca.memory_limited_batch()

    def test_reserved_tokens_are_block_aligned(self, vllm):
        assert vllm.reserved_tokens_per_request() % vllm.block_tokens == 0


def one_byte_cache(system_cls, profile, input_dist, output_dist):
    """A ``system_cls`` whose KV cache cannot hold a single request."""

    class OneByteCache(system_cls):
        def kv_capacity(self) -> float:
            return 1.0

    return OneByteCache(
        profile=profile, input_distribution=input_dist, output_distribution=output_dist
    )


class TestCannotAdmit:
    """A cache too small for one request fails with one error, naming the
    system, offline and online alike."""

    @pytest.mark.parametrize("system_cls", [Orca, Vllm])
    def test_offline_replay_raises(
        self, tiny_profile, short_input_dist, short_output_dist, trace, system_cls
    ):
        system = one_byte_cache(
            system_cls, tiny_profile, short_input_dist, short_output_dist
        )
        with pytest.raises(
            RuntimeError, match=rf"^{system.name} cannot admit any request"
        ):
            system.run(trace, batch_size=8)

    @pytest.mark.parametrize("system_cls", [Orca, Vllm])
    def test_online_serve_raises(
        self, tiny_profile, short_input_dist, short_output_dist, trace, system_cls
    ):
        system = one_byte_cache(
            system_cls, tiny_profile, short_input_dist, short_output_dist
        )
        server = ContinuousBatchingOnlineServer(system=system, batch_size=8)
        with pytest.raises(
            RuntimeError, match=rf"^{system.name} cannot admit any request"
        ):
            server.serve(trace)


class TestConstructorValidation:
    """Bad knobs fail at construction with a ValueError naming them, not at
    the first serve."""

    @pytest.mark.parametrize("system_cls", [Orca, Vllm])
    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -0.001], ids=["nan", "inf", "negative"]
    )
    def test_iteration_overhead_must_be_finite_and_non_negative(
        self, tiny_profile, short_input_dist, short_output_dist, system_cls, bad
    ):
        # A NaN overhead used to serve 50 requests to ``completed`` 0 and a
        # makespan of 0.0 without an error.
        with pytest.raises(ValueError, match="iteration_overhead_s"):
            system_cls(
                profile=tiny_profile,
                input_distribution=short_input_dist,
                output_distribution=short_output_dist,
                iteration_overhead_s=bad,
            )

    @pytest.mark.parametrize("bad", [0, 2.5], ids=["zero", "fraction"])
    def test_max_prefills_per_iteration_is_a_count(
        self, tiny_profile, short_input_dist, short_output_dist, bad
    ):
        with pytest.raises(ValueError, match="max_prefills_per_iteration"):
            Orca(
                profile=tiny_profile,
                input_distribution=short_input_dist,
                output_distribution=short_output_dist,
                max_prefills_per_iteration=bad,
            )

    @pytest.mark.parametrize("bad", [0, 2.5], ids=["zero", "fraction"])
    def test_block_tokens_is_a_count(
        self, tiny_profile, short_input_dist, short_output_dist, bad
    ):
        with pytest.raises(ValueError, match="block_tokens"):
            Vllm(
                profile=tiny_profile,
                input_distribution=short_input_dist,
                output_distribution=short_output_dist,
                block_tokens=bad,
            )

    def test_numpy_integer_counts_accepted(
        self, tiny_profile, short_input_dist, short_output_dist
    ):
        system = Vllm(
            profile=tiny_profile,
            input_distribution=short_input_dist,
            output_distribution=short_output_dist,
            max_prefills_per_iteration=np.int64(2),
            block_tokens=np.int32(8),
        )
        assert system.reserved_tokens_per_request() % 8 == 0


class TestRelativePerformance:
    def test_ft_beats_iteration_level_systems(
        self, tiny_profile, short_input_dist, short_output_dist, orca, vllm, trace
    ):
        """Figure 7: FT outperforms ORCA/vLLM on the same workload because of
        their executor overhead and mixed prefill iterations."""
        ft = FasterTransformer(
            profile=tiny_profile,
            input_distribution=short_input_dist,
            output_distribution=short_output_dist,
        )
        batch = 16
        ft_tput = ft.run(trace, batch).throughput_seq_per_s
        orca_tput = orca.run(trace, batch).throughput_seq_per_s
        vllm_tput = vllm.run(trace, batch).throughput_seq_per_s
        assert ft_tput > orca_tput
        assert ft_tput > vllm_tput
