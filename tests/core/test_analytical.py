"""Tests for the analytical stage-time and pipeline-period algebra.

The one-point helpers live in the scalar cost-model oracle
(``tests/reference/simulator.py``); the estimator's column helpers in
:mod:`repro.core.analytical` must equal them under ``==``.
"""

import pytest

from reference.simulator import (
    StageTimes,
    decode_stage_times,
    encode_stage_times,
    estimate_placement_memory,
    pipelined_batch_completion,
    pipelined_iteration_period,
    placement_fits_memory,
    token_latency,
)
from repro.core.allocation import allocate_rra, allocate_waa
from repro.core.config import SchedulePolicy, TensorParallelConfig


class TestStageTimes:
    def test_bottleneck_and_traversal(self):
        times = StageTimes((1.0, 3.0, 2.0))
        assert times.bottleneck == 3.0
        assert times.traversal == 6.0
        assert times.num_stages == 3

    def test_empty(self):
        times = StageTimes(())
        assert times.bottleneck == 0.0 and times.traversal == 0.0


class TestPipelineAlgebra:
    def test_saturated_pipeline_period_is_bottleneck_bound(self):
        times = StageTimes((1.0, 1.0, 1.0))
        assert pipelined_iteration_period(times, micro_batches=4) == pytest.approx(4.0)

    def test_unsaturated_pipeline_period_is_traversal_bound(self):
        times = StageTimes((1.0, 1.0, 1.0))
        assert pipelined_iteration_period(times, micro_batches=1) == pytest.approx(3.0)

    def test_batch_completion_fill_plus_steady(self):
        times = StageTimes((1.0, 2.0, 1.0))
        assert pipelined_batch_completion(times, micro_batches=3) == pytest.approx(8.0)

    def test_token_latency_is_traversal(self):
        times = StageTimes((0.5, 0.5))
        assert token_latency(times) == pytest.approx(1.0)

    def test_invalid_micro_batches(self):
        with pytest.raises(ValueError):
            pipelined_iteration_period(StageTimes((1.0,)), 0)
        with pytest.raises(ValueError):
            pipelined_batch_completion(StageTimes((1.0,)), 0)


class TestStageTimeEstimation:
    def test_rra_stage_times_cover_all_stages(self, tiny_profile, tiny_model, tiny_cluster):
        placement = allocate_rra(tiny_model, tiny_cluster)
        enc = encode_stage_times(tiny_profile, placement, batch=8, avg_input_len=48)
        dec = decode_stage_times(tiny_profile, placement, batch=8, avg_context_len=64)
        assert enc.num_stages == len(placement.encode_stages)
        assert dec.num_stages == len(placement.decode_stages)
        assert all(t > 0 for t in enc.times)
        assert all(t > 0 for t in dec.times)

    def test_encode_much_heavier_than_decode(self, tiny_profile, tiny_model, tiny_cluster):
        placement = allocate_rra(tiny_model, tiny_cluster)
        enc = encode_stage_times(tiny_profile, placement, 64, 256)
        dec = decode_stage_times(tiny_profile, placement, 64, 256)
        assert enc.traversal > 5 * dec.traversal

    def test_tensor_parallel_stage_has_sync_overhead(self, tiny_model):
        # On an NVLink cluster, TP=4 shortens the compute-heavy prefill
        # traversal relative to a 4-deep pipeline, but by less than 4x
        # because of the all-reduce synchronisation it adds.  (On the PCIe
        # A40 cluster the all-reduce cost can exceed the savings, which is
        # why partial TP is a schedule decision rather than a default.)
        from repro.core.profiler import XProfiler
        from repro.hardware.cluster import a100_cluster

        cluster = a100_cluster(4)
        profile = XProfiler(
            tiny_model, cluster, max_batch=128, max_seq_len=512,
            batch_points=8, length_points=8,
        ).profile()
        tp_placement = allocate_rra(
            tiny_model, cluster, TensorParallelConfig(degree=4, num_gpus=4)
        )
        plain = allocate_rra(tiny_model, cluster)
        tp_total = encode_stage_times(profile, tp_placement, 64, 256).traversal
        plain_total = encode_stage_times(profile, plain, 64, 256).traversal
        assert tp_total < plain_total
        assert tp_total > plain_total / 4


class TestMemoryEstimation:
    def test_small_batches_fit(self, tiny_model, tiny_cluster):
        placement = allocate_rra(tiny_model, tiny_cluster)
        memory = estimate_placement_memory(placement, 4, 16, 48, 64)
        assert placement_fits_memory(memory)
        assert all(m.weights_gib > 0 for m in memory)

    def test_huge_batches_do_not_fit(self, tiny_model, tiny_cluster):
        placement = allocate_rra(tiny_model, tiny_cluster)
        memory = estimate_placement_memory(placement, 4, 10 ** 7, 512, 4096)
        assert not placement_fits_memory(memory)

    def test_waa_decode_stages_hold_kv_cache(self, tiny_model, tiny_cluster):
        placement = allocate_waa(tiny_model, tiny_cluster, 1.0, 1.0, SchedulePolicy.WAA_C)
        memory = estimate_placement_memory(placement, 4, 64, 48, 64)
        by_role = {m.role: m for m in memory}
        assert by_role["decode"].kv_cache_gib > by_role["encode"].kv_cache_gib


class TestBatchedAlgebra:
    """The vectorized stage-time/memory helpers must match the oracle's."""

    def test_stage_times_batch_matches_scalar(self, tiny_profile, tiny_model, tiny_cluster):
        import numpy as np
        from repro.core.analytical import (
            decode_stage_times_batches,
            encode_stage_times_batches,
        )

        placements = [
            allocate_rra(tiny_model, tiny_cluster),
            allocate_rra(
                tiny_model, tiny_cluster, TensorParallelConfig(degree=2, num_gpus=4)
            ),
            allocate_waa(tiny_model, tiny_cluster, 1.0, 2.0, SchedulePolicy.WAA_C),
        ]
        # Placements sharing a signature are priced over concatenated
        # batches; each must still match its own scalar times.
        batches = [
            np.array([0.0, 0.25, 1.0, 6.5, 64.0]),
            np.array([3.0, 0.5]),
            np.array([128.0, 2.0, 0.0, 17.25]),
        ]
        encs = encode_stage_times_batches(tiny_profile, placements, batches, 48.0)
        decs = decode_stage_times_batches(tiny_profile, placements, batches, 64.0)
        for placement, points, enc, dec in zip(placements, batches, encs, decs):
            for p, batch in enumerate(points):
                enc_scalar = encode_stage_times(tiny_profile, placement, batch, 48.0)
                dec_scalar = decode_stage_times(tiny_profile, placement, batch, 64.0)
                assert tuple(enc.times[:, p]) == enc_scalar.times
                assert tuple(dec.times[:, p]) == dec_scalar.times
                assert enc.bottleneck[p] == enc_scalar.bottleneck
                assert dec.traversal[p] == dec_scalar.traversal

    def test_pipeline_algebra_batch_matches_scalar(self):
        import numpy as np
        from repro.core.analytical import (
            StageTimesBatch,
            pipelined_batch_completion_batch,
            pipelined_iteration_period_batch,
        )

        times = StageTimesBatch(np.array([[1.0, 0.5], [3.0, 0.5], [2.0, 4.0]]))
        for p, column in enumerate(((1.0, 3.0, 2.0), (0.5, 0.5, 4.0))):
            scalar = StageTimes(column)
            for m in (1, 2, 5):
                assert pipelined_iteration_period_batch(times, m)[p] == (
                    pipelined_iteration_period(scalar, m)
                )
                assert pipelined_batch_completion_batch(times, m)[p] == (
                    pipelined_batch_completion(scalar, m)
                )
        per_point_micro = np.array([2, 3])
        period = pipelined_iteration_period_batch(times, per_point_micro)
        assert period[0] == pipelined_iteration_period(StageTimes((1.0, 3.0, 2.0)), 2)
        assert period[1] == pipelined_iteration_period(StageTimes((0.5, 0.5, 4.0)), 3)
        with pytest.raises(ValueError):
            pipelined_iteration_period_batch(times, 0)

    def test_memory_batch_matches_scalar(
        self, tiny_model, tiny_encdec_model, tiny_cluster
    ):
        import numpy as np
        from repro.core.analytical import estimate_memory_columns

        encode = np.array([1.0, 4.0, 64.0, 4.0])
        decode = np.array([8.0, 64.0, 1024.0, 1e7])
        partial_tp = TensorParallelConfig(degree=2, num_gpus=2)
        for model in (tiny_model, tiny_encdec_model):
            for placement in (
                allocate_rra(model, tiny_cluster, partial_tp),
                allocate_waa(model, tiny_cluster, 1.0, 1.0, SchedulePolicy.WAA_M),
            ):
                batch = estimate_memory_columns(placement, encode, decode, 48.0, 64.0)
                for p in range(len(encode)):
                    scalar = estimate_placement_memory(
                        placement, encode[p], decode[p], 48.0, 64.0
                    )
                    assert bool(batch.fits[p]) == placement_fits_memory(scalar)
                    # Dataclass equality: every field bit-identical.
                    assert batch.stage_memory(p) == tuple(scalar)
                    assert batch.at(p) == tuple(scalar)
