"""Parity tests of the estimator against the scalar cost-model oracle.

``XSimulator.estimate_batch`` must equal the scalar oracle of
``tests/reference/simulator.py`` (imported here as ``scalar_estimate``)
point by point under ``==`` on every field -- throughput, latency, cycle
time, decode batch, feasibility and the per-stage memory breakdown --
across policies, partial-TP settings and sequence-length distributions,
whatever else is in the call, whether the points come as configurations
or as coordinate columns.  That contract is what lets the scheduler price
any mix of subspaces in one call without changing a single search
decision.

The hypothesis suites' example counts follow the loaded profile
(``tests/conftest.py``): the counts below are the default profile's.
"""

from __future__ import annotations

import dataclasses
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference.simulator import estimate as scalar_estimate
from repro.core.analytical import StageMemorySequence
from repro.core.config import ScheduleConfig, SchedulePolicy, TensorParallelConfig
from repro.core.distributions import SequenceDistribution
from repro.core.profiler import XProfiler
from repro.core.simulator import (
    _AXIS_TABLE_LIMIT,
    ConfigColumns,
    ConfigGroup,
    EstimateContext,
    ScheduleEstimate,
    XSimulator,
)
from repro.hardware.cluster import a40_cluster
from repro.models.spec import Architecture, ModelSpec

# Every ScheduleEstimate field but the lazy per-stage memory breakdown,
# which is compared as a tuple below.
_FIELDS = tuple(
    field.name
    for field in dataclasses.fields(ScheduleEstimate)
    if field.name != "stage_memory"
)


def _examples(count: int) -> int:
    """``count`` examples under the default profile, scaled with the loaded one."""
    return max(count * settings().max_examples // 100, 1)


def assert_estimates_match(scalar, batched) -> None:
    """Batched estimate must equal the scalar oracle on every field."""
    assert batched is not None
    for field in _FIELDS:
        assert getattr(batched, field) == getattr(scalar, field), field
    # Dataclass equality: every StageMemory field bit-identical.
    assert tuple(batched.stage_memory) == tuple(scalar.stage_memory)
    assert batched == scalar


def _rra_configs(max_encode_batch: int = 24, max_nd: int = 24) -> list[ScheduleConfig]:
    return [
        ScheduleConfig(
            SchedulePolicy.RRA, encode_batch=be, decode_iterations=nd
        )
        for be in (1, 2, 5, 11, max_encode_batch)
        for nd in (1, 2, 7, max_nd)
    ]


def _waa_configs(max_encode_batch: int = 24) -> list[ScheduleConfig]:
    return [
        ScheduleConfig(policy, encode_batch=be, micro_batches=bm)
        for policy in (SchedulePolicy.WAA_C, SchedulePolicy.WAA_M)
        for be in (1, 3, 9, max_encode_batch)
        for bm in (1, 2, 3)
    ]


class TestBatchParity:
    def test_rra_grid(self, tiny_simulator):
        configs = _rra_configs()
        batched = tiny_simulator.estimate_batch(configs)
        for config, b in zip(configs, batched):
            assert_estimates_match(scalar_estimate(tiny_simulator, config), b)

    def test_waa_grid(self, tiny_simulator):
        configs = _waa_configs()
        batched = tiny_simulator.estimate_batch(configs)
        for config, b in zip(configs, batched):
            assert_estimates_match(scalar_estimate(tiny_simulator, config), b)

    def test_mixed_policies_preserve_order(self, tiny_simulator):
        configs = _rra_configs() + _waa_configs()
        configs = configs[::2] + configs[1::2]  # interleave policies
        batched = tiny_simulator.estimate_batch(configs)
        for config, b in zip(configs, batched):
            assert b.config == config
            assert_estimates_match(scalar_estimate(tiny_simulator, config), b)

    def test_partial_tensor_parallel(self, tiny_simulator):
        tp_options = [
            TensorParallelConfig(degree=2, num_gpus=2),
            TensorParallelConfig(degree=2, num_gpus=4),
            TensorParallelConfig(degree=4, num_gpus=4),
        ]
        configs = []
        for tp in tp_options:
            configs.append(
                ScheduleConfig(
                    SchedulePolicy.RRA,
                    encode_batch=6,
                    decode_iterations=9,
                    tensor_parallel=tp,
                )
            )
            if tp.stages_for(4) >= 2:
                configs.append(
                    ScheduleConfig(
                        SchedulePolicy.WAA_C, encode_batch=6, tensor_parallel=tp
                    )
                )
        batched = tiny_simulator.estimate_batch(configs, strict=False)
        for config, b in zip(configs, batched):
            assert_estimates_match(scalar_estimate(tiny_simulator, config), b)

    def test_decode_batch_override(self, tiny_simulator):
        configs = [
            ScheduleConfig(
                SchedulePolicy.RRA,
                encode_batch=4,
                decode_iterations=8,
                decode_batch_override=override,
            )
            for override in (1, 16, 200)
        ]
        batched = tiny_simulator.estimate_batch(configs)
        for config, b in zip(configs, batched):
            assert_estimates_match(scalar_estimate(tiny_simulator, config), b)

    def test_explicit_target_length(self, tiny_simulator):
        configs = _rra_configs()[:6]
        batched = tiny_simulator.estimate_batch(configs, target_length=17)
        for config, b in zip(configs, batched):
            assert_estimates_match(
                scalar_estimate(tiny_simulator, config, target_length=17), b
            )

    def test_encoder_decoder_model(self, tiny_encdec_simulator):
        configs = _rra_configs()[:8] + _waa_configs()[:8]
        batched = tiny_encdec_simulator.estimate_batch(configs)
        for config, b in zip(configs, batched):
            assert_estimates_match(scalar_estimate(tiny_encdec_simulator, config), b)

    def test_infeasible_points_flagged_identically(self, tiny_simulator):
        configs = [
            ScheduleConfig(
                SchedulePolicy.RRA,
                encode_batch=4,
                decode_iterations=4,
                decode_batch_override=10 ** 7,
            ),
            ScheduleConfig(SchedulePolicy.RRA, encode_batch=4, decode_iterations=4),
        ]
        batched = tiny_simulator.estimate_batch(configs)
        assert batched[0].memory_feasible is False
        assert batched[1].memory_feasible is True
        for config, b in zip(configs, batched):
            assert_estimates_match(scalar_estimate(tiny_simulator, config), b)

    @pytest.mark.parametrize("policy", list(SchedulePolicy))
    def test_estimate_is_the_one_point_batch(self, tiny_simulator, policy):
        second = (
            {"decode_iterations": 6}
            if policy is SchedulePolicy.RRA
            else {"micro_batches": 2}
        )
        config = ScheduleConfig(policy, encode_batch=5, **second)
        (batched,) = tiny_simulator.estimate_batch([config], target_length=13)
        estimate = tiny_simulator.estimate(config, target_length=13)
        assert estimate == batched
        assert_estimates_match(
            scalar_estimate(tiny_simulator, config, target_length=13), estimate
        )

    def test_strict_mode_raises_like_scalar(self, tiny_simulator):
        # WAA on a fully tensor-parallel cluster has a single pipeline stage,
        # which no WAA split can serve.
        bad = ScheduleConfig(
            SchedulePolicy.WAA_C,
            encode_batch=2,
            tensor_parallel=TensorParallelConfig(degree=4, num_gpus=4),
        )
        with pytest.raises(ValueError):
            scalar_estimate(tiny_simulator, bad)
        with pytest.raises(ValueError):
            tiny_simulator.estimate(bad)
        with pytest.raises(ValueError):
            tiny_simulator.estimate_batch([bad], strict=True)
        assert tiny_simulator.estimate_batch([bad], strict=False) == [None]


@pytest.fixture(scope="module")
def deep_simulator(short_input_dist, short_output_dist) -> XSimulator:
    """A 16-stage pipeline: deep enough that a pairwise stage sum of one
    point would differ from the scalar stage-by-stage sum."""
    model = ModelSpec(
        name="Tiny-GPT-16",
        architecture=Architecture.DECODER_ONLY,
        num_layers=16,
        hidden_size=512,
        num_heads=8,
        vocab_size=8192,
    )
    profile = XProfiler(
        model,
        a40_cluster(16),
        max_batch=128,
        max_seq_len=512,
        batch_points=10,
        length_points=10,
    ).profile()
    return XSimulator(profile, short_input_dist, short_output_dist)


_TP_OPTIONS = {
    4: (
        TensorParallelConfig(),
        TensorParallelConfig(degree=2, num_gpus=2),
        TensorParallelConfig(degree=2, num_gpus=4),
        TensorParallelConfig(degree=4, num_gpus=4),
    ),
    16: (
        TensorParallelConfig(),
        TensorParallelConfig(degree=2, num_gpus=2),
        TensorParallelConfig(degree=2, num_gpus=8),
        TensorParallelConfig(degree=4, num_gpus=8),
        TensorParallelConfig(degree=8, num_gpus=16),
    ),
}


@st.composite
def _configs(draw, num_gpus: int) -> list[ScheduleConfig]:
    """Mixed policies and TP groups, ``N_D`` from 1 to 64."""
    configs = []
    for _ in range(draw(st.integers(min_value=1, max_value=12))):
        policy = draw(st.sampled_from(list(SchedulePolicy)))
        tp = draw(st.sampled_from(_TP_OPTIONS[num_gpus]))
        encode_batch = draw(st.integers(min_value=1, max_value=128))
        if policy is SchedulePolicy.RRA:
            second = {"decode_iterations": draw(st.integers(min_value=1, max_value=64))}
        else:
            second = {"micro_batches": draw(st.integers(min_value=1, max_value=8))}
        configs.append(
            ScheduleConfig(
                policy, encode_batch=encode_batch, tensor_parallel=tp, **second
            )
        )
    return configs


def _columns(
    configs: list[ScheduleConfig],
) -> tuple[ConfigColumns, list[ScheduleConfig]]:
    """``configs`` as one coordinate call, and the configuration of each of
    its points.

    Each (policy, TP) group's axes are its distinct values in descending
    order, and the group's points are its configurations, then the same
    again in reverse, so every coordinate repeats.
    """
    members: dict[tuple, list[ScheduleConfig]] = {}
    for config in configs:
        members.setdefault((config.policy, config.tensor_parallel), []).append(config)
    groups, points = [], []
    for (policy, tensor_parallel), group in members.items():
        group = group + group[::-1]
        seconds = [
            c.decode_iterations if policy is SchedulePolicy.RRA else c.micro_batches
            for c in group
        ]
        encode_axis = sorted({c.encode_batch for c in group}, reverse=True)
        second_axis = sorted(set(seconds), reverse=True)
        groups.append(
            ConfigGroup(
                policy,
                tensor_parallel,
                np.array(encode_axis, dtype=np.int64),
                np.array(second_axis, dtype=np.int64),
                np.array([encode_axis.index(c.encode_batch) for c in group]),
                np.array([second_axis.index(value) for value in seconds]),
            )
        )
        points += group
    return ConfigColumns(groups), points


def _scalar_or_none(simulator: XSimulator, config: ScheduleConfig):
    try:
        return scalar_estimate(simulator, config)
    except (ValueError, KeyError):
        return None


def _assert_all_match(scalar: list, batched: list) -> None:
    assert len(batched) == len(scalar)
    for s, b in zip(scalar, batched):
        if s is None:
            assert b is None
        else:
            assert_estimates_match(s, b)


class TestBatchIndependence:
    """An estimate is a function of its configuration alone."""

    @given(data=st.data(), deep=st.booleans())
    @settings(max_examples=_examples(40), deadline=None)
    def test_estimate_ignores_the_rest_of_the_call(
        self, tiny_simulator, deep_simulator, data, deep
    ):
        simulator = deep_simulator if deep else tiny_simulator
        num_gpus = simulator.cluster.num_gpus
        a = data.draw(_configs(num_gpus), label="A")
        b = data.draw(_configs(num_gpus), label="B")
        scalar = [_scalar_or_none(simulator, config) for config in a]
        together = simulator.estimate_batch(a + b, strict=False)[: len(a)]
        alone = simulator.estimate_batch(a, strict=False)
        _assert_all_match(scalar, together)
        _assert_all_match(scalar, alone)
        # The same points as coordinates: unsorted axes, repeated points.
        columns, points = _columns(a)
        priced = simulator.estimate_batch(columns, strict=False)
        assert len(priced) == len(columns) == len(points) == 2 * len(a)
        expected = {config: (s, l) for config, s, l in zip(a, scalar, alone)}
        for k, config in enumerate(points):
            boxed = priced.estimate(k, config)
            s, listed = expected[config]
            if s is None:
                assert boxed is None and listed is None
                assert not priced.feasible[k]
                continue
            assert_estimates_match(s, boxed)
            assert_estimates_match(listed, boxed)
            assert priced.latency_s[k] == s.latency_s
            assert priced.throughput_seq_per_s[k] == s.throughput_seq_per_s
            assert priced.feasible[k] == s.feasible

    def test_deep_pipeline_singletons(self, deep_simulator):
        configs = [
            ScheduleConfig(SchedulePolicy.RRA, encode_batch=be, decode_iterations=nd)
            for be in (1, 7, 64)
            for nd in (1, 9, 40)
        ] + [
            ScheduleConfig(policy, encode_batch=be, micro_batches=bm)
            for policy in (SchedulePolicy.WAA_C, SchedulePolicy.WAA_M)
            for be in (1, 7, 64)
            for bm in (1, 4)
        ]
        assert len(deep_simulator.build_placement(configs[0]).decode_stages) >= 8
        for config in configs:
            (batched,) = deep_simulator.estimate_batch([config])
            assert_estimates_match(scalar_estimate(deep_simulator, config), batched)

    def test_chunked_passes_equal_one_pass(self, tiny_simulator, monkeypatch):
        import repro.core.simulator as simulator_module

        configs = _rra_configs() + _waa_configs()
        configs += [
            dataclasses.replace(config, tensor_parallel=tp)
            for config in _rra_configs()[::3]
            for tp in _TP_OPTIONS[4][1:3]
        ]
        whole = tiny_simulator.estimate_batch(configs)
        monkeypatch.setattr(simulator_module, "_BATCH_CHUNK", 7)
        _assert_all_match(whole, tiny_simulator.estimate_batch(configs))


class TestAxisTables:
    """The RRA tables are sized by the call's axes, not by its values."""

    def test_large_coordinates_price_without_large_tables(
        self, tiny_profile, short_input_dist, short_output_dist
    ):
        config = ScheduleConfig(
            SchedulePolicy.RRA, encode_batch=10**6, decode_iterations=4096
        )

        def traced(price):
            # A fresh simulator, so the memoized tables count too.
            simulator = XSimulator(tiny_profile, short_input_dist, short_output_dist)
            tracemalloc.start()
            try:
                result = price(simulator)
                return result, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        scalar, scalar_peak = traced(lambda sim: scalar_estimate(sim, config))
        (batched,), batched_peak = traced(lambda sim: sim.estimate_batch([config]))
        assert_estimates_match(scalar, batched)
        # One 4,096-entry row, not a 4,096 x 4,096 table (134 MB), and one
        # B_E entry, not a 10**6-entry one (8 MB).
        assert batched_peak < 4 * scalar_peak, (batched_peak, scalar_peak)

    def test_list_calls_keep_the_table_memo_bounded(
        self, tiny_profile, short_input_dist, short_output_dist
    ):
        simulator = XSimulator(tiny_profile, short_input_dist, short_output_dist)
        context = simulator.context
        for n in range(1, 2 * _AXIS_TABLE_LIMIT):
            config = ScheduleConfig(
                SchedulePolicy.RRA, encode_batch=n, decode_iterations=n
            )
            (batched,) = simulator.estimate_batch([config])
            assert batched == scalar_estimate(simulator, config)
            assert len(context._rra_encode_tables) <= _AXIS_TABLE_LIMIT
            assert len(context._rra_decode_tables) <= _AXIS_TABLE_LIMIT


class TestFaultIsolation:
    """A group that cannot be priced fails alone."""

    @staticmethod
    def _mixed_configs() -> tuple[list[ScheduleConfig], set[int]]:
        tp3 = TensorParallelConfig(degree=3, num_gpus=3)
        configs, bad = [], set()
        for i, config in enumerate(_rra_configs()[::2]):
            configs.append(config)
            if i % 2:
                bad.add(len(configs))
                configs.append(dataclasses.replace(config, tensor_parallel=tp3))
        configs += _waa_configs()[::4]
        return configs, bad

    def test_only_the_failing_group_is_none(self, tiny_simulator):
        configs, bad = self._mixed_configs()
        assert bad and len(bad) < len(configs)
        results = tiny_simulator.estimate_batch(configs, strict=False)
        for i, (config, result) in enumerate(zip(configs, results)):
            if i in bad:
                assert result is None
            else:
                assert_estimates_match(scalar_estimate(tiny_simulator, config), result)

    def test_strict_mode_raises(self, tiny_simulator):
        configs, _ = self._mixed_configs()
        with pytest.raises(KeyError):
            tiny_simulator.estimate_batch(configs, strict=True)

    def test_a_failing_point_fails_alone(
        self, tiny_profile, short_input_dist, short_output_dist, monkeypatch
    ):
        """A point that cannot be priced fails its whole group's pass; the
        group's other points are then priced one at a time, each on axes
        of its own values, and only the failing point stays unpriced."""
        configs = [
            ScheduleConfig(SchedulePolicy.RRA, encode_batch=be, decode_iterations=nd)
            for be in (2, 5)
            for nd in (3, 7, 9)
        ]
        reference = XSimulator(tiny_profile, short_input_dist, short_output_dist)
        expected = [scalar_estimate(reference, config) for config in configs]
        rra_decode = EstimateContext.rra_decode

        def failing_at_seven(context, num_decode_iterations):
            if num_decode_iterations == 7:
                raise ValueError("N_D 7 cannot be priced")
            return rra_decode(context, num_decode_iterations)

        monkeypatch.setattr(EstimateContext, "rra_decode", failing_at_seven)
        simulator = XSimulator(tiny_profile, short_input_dist, short_output_dist)
        listed = simulator.estimate_batch(configs, strict=False)
        columns, points = _columns(configs)
        priced = simulator.estimate_batch(columns, strict=False)
        for config, want, got in zip(configs, expected, listed):
            if config.decode_iterations == 7:
                assert got is None
            else:
                assert_estimates_match(want, got)
        for k, config in enumerate(points):
            boxed = priced.estimate(k, config)
            if config.decode_iterations == 7:
                assert boxed is None
                assert priced.latency_s[k] == np.inf and not priced.feasible[k]
            else:
                assert_estimates_match(expected[configs.index(config)], boxed)
        with pytest.raises(ValueError, match="N_D 7"):
            simulator.estimate_batch(configs)


class TestBatchParityHypothesis:
    @given(
        encode_batch=st.integers(min_value=1, max_value=48),
        second=st.integers(min_value=1, max_value=32),
        policy=st.sampled_from(
            [SchedulePolicy.RRA, SchedulePolicy.WAA_C, SchedulePolicy.WAA_M]
        ),
        tp_degree=st.sampled_from([1, 2]),
    )
    @settings(max_examples=_examples(40), deadline=None)
    def test_random_configs(
        self, tiny_simulator, encode_batch, second, policy, tp_degree
    ):
        tp = (
            TensorParallelConfig()
            if tp_degree == 1
            else TensorParallelConfig(degree=2, num_gpus=2)
        )
        if policy is SchedulePolicy.RRA:
            config = ScheduleConfig(
                policy,
                encode_batch=encode_batch,
                decode_iterations=second,
                tensor_parallel=tp,
            )
        else:
            config = ScheduleConfig(
                policy,
                encode_batch=encode_batch,
                micro_batches=min(second, 4),
                tensor_parallel=tp,
            )
        (batched,) = tiny_simulator.estimate_batch([config])
        assert_estimates_match(scalar_estimate(tiny_simulator, config), batched)

    @given(
        mean_in=st.floats(min_value=4, max_value=80),
        mean_out=st.floats(min_value=4, max_value=60),
        std=st.floats(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2 ** 16),
    )
    @settings(max_examples=_examples(15), deadline=None)
    def test_random_distributions(self, tiny_profile, mean_in, mean_out, std, seed):
        input_dist = SequenceDistribution.truncated_normal(mean_in, std, max_len=128)
        output_dist = SequenceDistribution.truncated_normal(mean_out, std, max_len=96)
        simulator = XSimulator(tiny_profile, input_dist, output_dist)
        rng = np.random.default_rng(seed)
        configs = []
        for _ in range(6):
            if rng.integers(2) == 0:
                configs.append(
                    ScheduleConfig(
                        SchedulePolicy.RRA,
                        encode_batch=int(rng.integers(1, 33)),
                        decode_iterations=int(rng.integers(1, 25)),
                    )
                )
            else:
                waa = [SchedulePolicy.WAA_C, SchedulePolicy.WAA_M]
                configs.append(
                    ScheduleConfig(
                        waa[int(rng.integers(2))],
                        encode_batch=int(rng.integers(1, 33)),
                        micro_batches=int(rng.integers(1, 4)),
                    )
                )
        batched = simulator.estimate_batch(configs)
        for config, b in zip(configs, batched):
            assert_estimates_match(scalar_estimate(simulator, config), b)


class TestLazyStageMemory:
    """Batched estimates carry a lazy sequence that acts as the oracle's
    tuple."""

    def _pairs(self, simulator):
        configs = _rra_configs()[::5] + _waa_configs()[::5]
        return [
            (scalar_estimate(simulator, config), batched)
            for config, batched in zip(configs, simulator.estimate_batch(configs))
        ]

    @staticmethod
    def _eager(estimate):
        """The same estimate holding a real tuple."""
        return dataclasses.replace(estimate, stage_memory=tuple(estimate.stage_memory))

    def test_equality_both_ways_before_first_read(self, tiny_simulator):
        for scalar, batched in self._pairs(tiny_simulator):
            assert isinstance(batched.stage_memory, StageMemorySequence)
            assert batched.stage_memory == scalar.stage_memory
        for scalar, batched in self._pairs(tiny_simulator):
            assert scalar.stage_memory == batched.stage_memory
            assert not scalar.stage_memory != batched.stage_memory
        for _, batched in self._pairs(tiny_simulator):
            eager = self._eager(batched)
            assert batched == eager and eager == batched

    def test_reads_like_the_tuple(self, tiny_encdec_simulator):
        for scalar, batched in self._pairs(tiny_encdec_simulator):
            lazy, items = batched.stage_memory, scalar.stage_memory
            assert type(items) is tuple
            assert len(lazy) == len(items)
            assert lazy[0] == items[0] and lazy[-1] == items[-1]
            assert lazy[1:] == items[1:]
            assert list(lazy) == list(items)
            assert items[0] in lazy
            assert lazy != list(items)  # as a tuple is never a list
            assert repr(lazy) == repr(items)

    def test_hash_matches_the_tuple(self, tiny_simulator):
        for scalar, batched in self._pairs(tiny_simulator):
            assert hash(batched.stage_memory) == hash(scalar.stage_memory)
            assert hash(batched) == hash(self._eager(batched))

    def test_pickles_as_the_tuple(self, tiny_simulator):
        for _, batched in self._pairs(tiny_simulator):
            restored = pickle.loads(pickle.dumps(batched))
            assert type(restored.stage_memory) is tuple
            assert restored == batched and hash(restored) == hash(batched)
            assert restored == self._eager(batched)
