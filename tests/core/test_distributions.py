"""Tests for sequence distributions and the Section 6 completion math."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ScheduleConfig, SchedulePolicy
from repro.core.distributions import (
    SequenceDistribution,
    average_context_length,
    completion_probability,
    surviving_fraction,
)
from repro.core.simulator import XSimulator
from reference import distributions as reference


def _simulator(profile, output_dist) -> XSimulator:
    """A simulator whose estimator reads ``output_dist``: its
    ``derived_decode_batch`` and ``context.rra_decode`` are the Section 6
    steady-state math the estimates run."""
    return XSimulator(profile, SequenceDistribution.constant(8), output_dist)


def _rra(encode_batch: int, num_decode_iterations: int) -> ScheduleConfig:
    return ScheduleConfig(
        SchedulePolicy.RRA,
        encode_batch=encode_batch,
        decode_iterations=num_decode_iterations,
    )


@st.composite
def _distributions(draw):
    """Random supports and weights over lengths 1..300."""
    lengths = sorted(
        draw(st.sets(st.integers(min_value=1, max_value=300), min_size=1, max_size=40))
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=len(lengths),
            max_size=len(lengths),
        )
    )
    if sum(weights) <= 0:
        weights[0] = 1.0
    return SequenceDistribution(np.array(lengths), np.array(weights))


class TestSequenceDistribution:
    def test_truncated_normal_statistics(self):
        dist = SequenceDistribution.truncated_normal(mean=64, std=16, max_len=128)
        assert abs(dist.mean - 64) < 4
        assert 10 < dist.std < 20
        assert dist.min_len >= 1
        assert dist.max_len == 128

    def test_probabilities_sum_to_one(self):
        dist = SequenceDistribution.truncated_normal(32, 13, 80)
        assert dist.probabilities.sum() == pytest.approx(1.0)

    def test_constant_distribution(self):
        dist = SequenceDistribution.constant(10)
        assert dist.mean == 10
        assert dist.std == 0
        assert dist.percentile(99) == 10
        assert dist.pmf(10) == 1.0 and dist.pmf(9) == 0.0

    def test_empirical_matches_samples(self):
        samples = [4, 4, 8, 8, 8, 16]
        dist = SequenceDistribution.empirical(samples)
        assert dist.mean == pytest.approx(np.mean(samples))
        assert dist.pmf(8) == pytest.approx(0.5)

    def test_skew_normal_moments_and_direction(self):
        base = SequenceDistribution.truncated_normal(128, 40, 400)
        pos = SequenceDistribution.skew_normal(128, 40, 0.41, 400)
        neg = SequenceDistribution.skew_normal(128, 40, -0.41, 400)
        assert abs(pos.mean - 128) < 8 and abs(neg.mean - 128) < 8
        assert abs(pos.std - 40) < 8
        # Positive skew pushes the far tail out relative to negative skew.
        assert pos.percentile(99) > neg.percentile(99)
        del base

    def test_skew_zero_equals_truncated_normal(self):
        a = SequenceDistribution.skew_normal(64, 16, 0.0, 128)
        b = SequenceDistribution.truncated_normal(64, 16, 128)
        assert np.allclose(a.probabilities, b.probabilities)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            SequenceDistribution.truncated_normal(10, 0, 20)
        with pytest.raises(ValueError):
            SequenceDistribution.truncated_normal(10, 5, 0)
        with pytest.raises(ValueError):
            SequenceDistribution.skew_normal(10, 5, 1.5, 20)
        with pytest.raises(ValueError):
            SequenceDistribution.empirical([])
        with pytest.raises(ValueError):
            SequenceDistribution(lengths=np.array([1, 2]), probabilities=np.array([0.5]))

    def test_percentile_monotone(self):
        dist = SequenceDistribution.truncated_normal(64, 30, 200)
        assert dist.percentile(50) <= dist.percentile(90) <= dist.percentile(99)

    def test_sampling_reproducible_and_in_support(self):
        dist = SequenceDistribution.truncated_normal(64, 16, 128)
        rng = np.random.default_rng(0)
        samples = dist.sample(1000, rng)
        assert samples.min() >= 1 and samples.max() <= 128
        assert abs(samples.mean() - dist.mean) < 3

    def test_scaled_mean_and_std(self):
        dist = SequenceDistribution.truncated_normal(100, 20, 300)
        bigger = dist.scaled_mean(1.3)
        assert bigger.mean > dist.mean * 1.2
        wider = dist.scaled_std(1.5)
        assert wider.std > dist.std * 1.2


class TestStatisticCaching:
    """mean/std/max_len/percentile are cached (the scheduler's hot loop
    reads them on every estimate); caching must not change any value."""

    def test_cached_properties_are_stable(self):
        dist = SequenceDistribution.truncated_normal(64, 16, 128)
        expected_mean = float(np.dot(dist.lengths, dist.probabilities))
        assert dist.mean == expected_mean
        assert dist.mean == expected_mean  # second read hits the cache
        assert dist.std == dist.std
        assert dist.max_len == 128 and dist.max_len == 128

    def test_mean_cached_in_instance_dict(self):
        dist = SequenceDistribution.truncated_normal(64, 16, 128)
        assert "mean" not in dist.__dict__
        first = dist.mean
        assert dist.__dict__["mean"] == first

    def test_percentile_memo_returns_identical_values(self):
        dist = SequenceDistribution.truncated_normal(64, 30, 256)
        uncached = {q: dist_fresh.percentile(q) for q, dist_fresh in
                    ((q, SequenceDistribution.truncated_normal(64, 30, 256))
                     for q in (0, 25, 50, 90, 99, 100))}
        for q, value in uncached.items():
            assert dist.percentile(q) == value
            assert dist.percentile(q) == value  # memoized second read
        with pytest.raises(ValueError):
            dist.percentile(101)

    def test_instances_do_not_share_caches(self):
        a = SequenceDistribution.constant(10)
        b = SequenceDistribution.constant(20)
        assert a.percentile(50) == 10
        assert b.percentile(50) == 20
        assert a.mean == 10 and b.mean == 20


class TestCompletionProbability:
    def test_all_outputs_within_nd_complete_in_one_phase(self):
        dist = SequenceDistribution.constant(8)
        p_u = completion_probability(dist, num_decode_iterations=16)
        assert p_u.sum() == pytest.approx(1.0)
        assert p_u[7] == pytest.approx(1.0)

    def test_long_outputs_split_across_phases(self):
        dist = SequenceDistribution.constant(20)
        p_u = completion_probability(dist, num_decode_iterations=10)
        # ceil(20/10) = 2 phases; completes at iteration 10 of one of them.
        assert p_u.sum() == pytest.approx(0.5)
        assert p_u[9] == pytest.approx(0.5)

    def test_fraction_decreases_with_nd(self, tiny_profile):
        dist = SequenceDistribution.truncated_normal(32, 13, 80)
        context = _simulator(tiny_profile, dist).context
        fractions = [context.rra_decode(nd)[0] for nd in (4, 8, 16, 32, 64)]
        assert all(a <= b + 1e-9 for a, b in zip(fractions, fractions[1:]))

    def test_decode_batch_at_least_encode_batch(self, tiny_profile):
        dist = SequenceDistribution.truncated_normal(32, 13, 80)
        b_d = _simulator(tiny_profile, dist).derived_decode_batch(_rra(16, 8))
        assert b_d >= 16

    def test_decode_batch_steady_state_consistency(self, tiny_profile):
        """B_D * completion fraction must give back B_E."""
        dist = SequenceDistribution.truncated_normal(128, 68, 320)
        simulator = _simulator(tiny_profile, dist)
        for n_d in (4, 16, 64):
            b_d = simulator.derived_decode_batch(_rra(32, n_d))
            fraction, _ = simulator.context.rra_decode(n_d)
            assert b_d * fraction == pytest.approx(32)

    def test_per_iteration_batches_decay_monotonically(self, tiny_profile):
        dist = SequenceDistribution.truncated_normal(32, 13, 80)
        _, alive = _simulator(tiny_profile, dist).context.rra_decode(16)
        batches = 100 * alive
        assert batches[0] == pytest.approx(100)
        assert all(a >= b - 1e-9 for a, b in zip(batches, batches[1:]))
        assert np.all(batches >= 0)

    def test_invalid_nd_rejected(self):
        dist = SequenceDistribution.constant(4)
        with pytest.raises(ValueError):
            completion_probability(dist, 0)

    @given(dist=_distributions(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_length_loop_exactly(self, tiny_profile, dist, data):
        n_d = data.draw(st.integers(min_value=1, max_value=dist.max_len + 3))
        p_u = completion_probability(dist, n_d)
        want = reference.completion_probability(dist, n_d)
        assert p_u.tolist() == want.tolist()
        alive = surviving_fraction(p_u)
        assert alive.tolist() == reference.surviving_fraction(want).tolist()
        _, estimated = _simulator(tiny_profile, dist).context.rra_decode(n_d)
        assert (3.0 * estimated).tolist() == (
            3.0 * reference.surviving_fraction(want)
        ).tolist()

    def test_matches_loop_on_paper_distributions(self):
        dist = SequenceDistribution.truncated_normal(128, 68, 320)
        for n_d in range(1, dist.max_len + 4):
            want = reference.completion_probability(dist, n_d)
            assert completion_probability(dist, n_d).tolist() == want.tolist()
            assert surviving_fraction(want).tolist() == (
                reference.surviving_fraction(want).tolist()
            )

    @given(
        mean=st.integers(min_value=8, max_value=200),
        nd=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=40, deadline=None)
    def test_completion_fraction_bounded(self, tiny_profile, mean, nd):
        dist = SequenceDistribution.truncated_normal(mean, mean / 3, 2 * mean + 10)
        fraction, _ = _simulator(tiny_profile, dist).context.rra_decode(nd)
        assert 0 < fraction <= 1.0 + 1e-9


class TestAverageContext:
    def test_decoder_only_includes_input(self):
        inp = SequenceDistribution.constant(100)
        out = SequenceDistribution.constant(20)
        ctx_dec = average_context_length(inp, out, decoder_only=True)
        ctx_encdec = average_context_length(inp, out, decoder_only=False)
        assert ctx_dec == pytest.approx(ctx_encdec + 100)

    def test_length_biased_generated_context(self):
        inp = SequenceDistribution.constant(1)
        out = SequenceDistribution.constant(40)
        # For a constant output of 40, the average cached generation is ~20.
        ctx = average_context_length(inp, out, decoder_only=False)
        assert ctx == pytest.approx(20.0)
