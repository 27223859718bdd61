"""Tests for the branch-and-bound scheduler (Algorithm 1)."""

import pytest

from repro.core.config import LatencyConstraint, SchedulePolicy, TensorParallelConfig
from repro.core.simulator import ConfigColumns
from reference.scheduler import two_call_branch_and_bound
from reference.simulator import estimate as scalar_estimate
from repro.core.scheduler import (
    PerfPoint,
    SearchSpace,
    XScheduler,
    _Corners,
    _Evaluator,
    branch_and_bound,
    exhaustive_search,
    random_search,
)


@pytest.fixture(scope="module")
def scheduler(tiny_simulator) -> XScheduler:
    return XScheduler(tiny_simulator, max_encode_batch=24, max_decode_iterations=24)


def _rra_space(scheduler) -> SearchSpace:
    return [
        s
        for s in scheduler.search_spaces(policies=(SchedulePolicy.RRA,))
        if s.tensor_parallel.degree == 1
    ][0]


class TestSearchSpace:
    def test_rra_space_orientation(self, scheduler):
        space = _rra_space(scheduler)
        # Larger second index -> smaller N_D (more frequent encoding).
        assert space.second_values[0] > space.second_values[-1]
        assert space.second_values[-1] == 1
        config = space.config_at(4, len(space.second_values) - 1)
        assert config.decode_iterations == 1
        assert config.encode_batch == 4

    def test_waa_space_skipped_when_single_stage(self, tiny_simulator):
        scheduler = XScheduler(tiny_simulator, max_encode_batch=8)
        full_tp = TensorParallelConfig(degree=4, num_gpus=4)
        spaces = scheduler.search_spaces(
            policies=(SchedulePolicy.WAA_C,), tensor_parallel_options=[full_tp]
        )
        assert spaces == []

    def test_num_points(self, scheduler):
        space = _rra_space(scheduler)
        (lo, hi), _ = space.bounds
        assert space.num_points == (hi - lo + 1) * len(space.second_values)

    def test_tp_options_include_plain_and_grouped(self, scheduler):
        options = scheduler.tensor_parallel_options()
        degrees = {o.degree for o in options}
        assert 1 in degrees
        assert any(d > 1 for d in degrees)


class TestBranchAndBound:
    def test_unbounded_constraint_returns_top_corner_region(self, tiny_simulator, scheduler):
        space = _rra_space(scheduler)
        constraint = LatencyConstraint(bound_s=float("inf"))
        evaluator = _Evaluator(tiny_simulator, space, constraint)
        best = branch_and_bound(evaluator, constraint)
        assert best is not None
        # With no bound the best schedule uses a large encoder batch.
        assert best.config.encode_batch >= scheduler.max_encode_batch // 2

    def test_respects_latency_bound(self, tiny_simulator, scheduler):
        space = _rra_space(scheduler)
        unbounded = _Evaluator(tiny_simulator, space, LatencyConstraint(float("inf")))
        loose = branch_and_bound(unbounded, LatencyConstraint(float("inf")))
        bound = loose.latency_s * 0.5
        constraint = LatencyConstraint(bound_s=bound)
        evaluator = _Evaluator(tiny_simulator, space, constraint)
        best = branch_and_bound(evaluator, constraint)
        assert best is not None
        assert best.latency_s <= bound * 1.001

    def test_matches_exhaustive_within_tolerance(self, tiny_simulator):
        scheduler = XScheduler(tiny_simulator, max_encode_batch=12, max_decode_iterations=12)
        space = [
            s
            for s in scheduler.search_spaces(policies=(SchedulePolicy.RRA,))
            if s.tensor_parallel.degree == 1
        ][0]
        constraint = LatencyConstraint(bound_s=2.0)
        bnb_eval = _Evaluator(tiny_simulator, space, constraint)
        bnb = branch_and_bound(bnb_eval, constraint)
        exh_eval = _Evaluator(tiny_simulator, space, constraint)
        exhaustive = exhaustive_search(exh_eval, constraint)
        if exhaustive is None:
            assert bnb is None
        else:
            assert bnb is not None
            assert bnb.throughput_seq_per_s >= 0.9 * exhaustive.throughput_seq_per_s
            # And it must do so with far fewer evaluations.
            assert bnb_eval.evaluations < exh_eval.evaluations

    def test_random_search_finds_something(self, tiny_simulator, scheduler):
        space = _rra_space(scheduler)
        constraint = LatencyConstraint(bound_s=float("inf"))
        evaluator = _Evaluator(tiny_simulator, space, constraint)
        best = random_search(evaluator, constraint, num_samples=20)
        assert best is not None


def _scalar_point(simulator, space, constraint, key) -> PerfPoint:
    """The scalar oracle of one cached point."""
    try:
        estimate = scalar_estimate(
            simulator, space.config_at(*key),
            target_length=constraint.target_length,
        )
    except (ValueError, KeyError):
        return PerfPoint(float("inf"), 0.0, False)
    if not estimate.feasible:
        return PerfPoint(float("inf"), 0.0, False)
    return PerfPoint(estimate.latency_s, estimate.throughput_seq_per_s, True)


def _assert_cache_matches_scalar(simulator, evaluator) -> None:
    assert evaluator.cache
    for key, point in evaluator.cache.items():
        assert point == _scalar_point(
            simulator, evaluator.space, evaluator.constraint, key
        ), key
    if evaluator.best is not None:
        assert evaluator.best == scalar_estimate(
            simulator, evaluator.best.config,
            target_length=evaluator.constraint.target_length,
        )


class _CallCounter:
    """Counts ``estimate_batch`` calls on one simulator."""

    def __init__(self, monkeypatch, simulator) -> None:
        self.calls = 0
        original = simulator.estimate_batch

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(simulator, "estimate_batch", counted)


class TestBatchedEvaluator:
    """Every evaluated point equals its scalar oracle estimate under ``==``."""

    @pytest.mark.parametrize("bound_s", [0.05, 2.0, float("inf")])
    def test_exhaustive_points_equal_scalar_estimates(
        self, tiny_simulator, scheduler, bound_s
    ):
        constraint = LatencyConstraint(bound_s=bound_s)
        for space in scheduler.search_spaces():
            evaluator = _Evaluator(tiny_simulator, space, constraint)
            exhaustive_search(evaluator, constraint)
            assert evaluator.evaluations == space.num_points
            _assert_cache_matches_scalar(tiny_simulator, evaluator)

    @pytest.mark.parametrize("bound_s", [0.05, 0.5, 2.0, float("inf")])
    def test_branch_and_bound_points_equal_scalar_estimates(
        self, tiny_encdec_simulator, bound_s
    ):
        scheduler = XScheduler(
            tiny_encdec_simulator, max_encode_batch=24, max_decode_iterations=24
        )
        constraint = LatencyConstraint(bound_s=bound_s)
        for space in scheduler.search_spaces():
            evaluator = _Evaluator(tiny_encdec_simulator, space, constraint)
            branch_and_bound(evaluator, constraint)
            _assert_cache_matches_scalar(tiny_encdec_simulator, evaluator)

    def test_perf_batch_deduplicates_and_caches(self, tiny_simulator, scheduler):
        space = _rra_space(scheduler)
        constraint = LatencyConstraint(bound_s=float("inf"))
        evaluator = _Evaluator(tiny_simulator, space, constraint)
        coords = [(1, 0), (2, 0), (1, 0), (2, 1)]
        points = evaluator.perf_batch(coords)
        assert len(points) == 4
        assert points[0] is points[2]
        assert evaluator.evaluations == 3
        again = evaluator.perf_batch(coords)
        assert evaluator.evaluations == 3
        assert again[1] is points[1]

    def test_spare_points_are_not_evaluations(self, tiny_simulator, scheduler):
        space = _rra_space(scheduler)
        constraint = LatencyConstraint(bound_s=float("inf"))
        evaluator = _Evaluator(tiny_simulator, space, constraint)
        keys = [(3, 1), (4, 2)]
        evaluator.hold(
            keys, tiny_simulator.estimate_batch(ConfigColumns([space.group(keys)]))
        )
        assert evaluator.evaluations == 0 and evaluator.best is None
        assert evaluator.unpriced(keys + [(5, 3)]) == [(5, 3)]
        (point,) = evaluator.perf_batch([(4, 2)])
        assert evaluator.evaluations == 1 and list(evaluator.spare) == [(3, 1)]
        assert evaluator.best.config == space.config_at(4, 2)
        assert point == _scalar_point(tiny_simulator, space, constraint, (4, 2))


class TestLockstep:
    """Speculation and lockstep change what is priced, never what is found."""

    @pytest.mark.parametrize("bound_s", [0.05, 0.5, 2.0, float("inf")])
    def test_speculation_matches_two_calls_per_round(
        self, tiny_simulator, scheduler, bound_s
    ):
        constraint = LatencyConstraint(bound_s=bound_s)
        for space in scheduler.search_spaces():
            evaluator = _Evaluator(tiny_simulator, space, constraint)
            reference = _Evaluator(tiny_simulator, space, constraint)
            best = branch_and_bound(evaluator, constraint)
            expected = two_call_branch_and_bound(reference, constraint)
            assert list(evaluator.cache.items()) == list(reference.cache.items())
            assert best == expected

    def test_blocks_that_tie_on_their_key_pop_as_in_the_dataclass_heap(
        self, tiny_simulator, monkeypatch
    ):
        # B_E up to 2**15 makes most corners memory-infeasible; their upper
        # bound is inf, so many queued blocks share the key -inf.
        scheduler = XScheduler(
            tiny_simulator, max_encode_batch=2**15, max_decode_iterations=8
        )
        space = _rra_space(scheduler)
        constraint = LatencyConstraint(bound_s=float("inf"))
        ties = []

        def tie(block, other):
            ties.append(block)
            return False

        # A block is compared only when two heap entries tie on their key.
        monkeypatch.setattr(_Corners, "__lt__", tie)
        evaluator = _Evaluator(tiny_simulator, space, constraint)
        reference = _Evaluator(tiny_simulator, space, constraint)
        best = branch_and_bound(evaluator, constraint)
        expected = two_call_branch_and_bound(reference, constraint)
        assert ties
        assert any(not point.feasible for point in evaluator.cache.values())
        assert list(evaluator.cache.items()) == list(reference.cache.items())
        assert best == expected

    @pytest.mark.parametrize("bound_s", [0.05, 0.5, 2.0, float("inf")])
    def test_schedule_equals_subspaces_searched_alone(
        self, tiny_simulator, scheduler, bound_s
    ):
        constraint = LatencyConstraint(bound_s=bound_s)
        result = scheduler.schedule(constraint)
        evaluations, best = 0, None
        for space in scheduler.search_spaces():
            evaluator = _Evaluator(tiny_simulator, space, constraint)
            candidate = branch_and_bound(evaluator, constraint)
            evaluations += evaluator.evaluations
            if candidate is not None and (
                best is None
                or candidate.throughput_seq_per_s > best.throughput_seq_per_s
            ):
                best = candidate
        assert result.evaluations == evaluations
        assert result.best == best

    @pytest.mark.parametrize("method", ["exhaustive", "random"])
    def test_one_call_methods_equal_subspaces_searched_alone(
        self, tiny_simulator, method
    ):
        scheduler = XScheduler(
            tiny_simulator, max_encode_batch=12, max_decode_iterations=12
        )
        constraint = LatencyConstraint(bound_s=0.5)
        result = scheduler.schedule(constraint, method=method)
        search = exhaustive_search if method == "exhaustive" else random_search
        evaluators = [
            _Evaluator(tiny_simulator, space, constraint)
            for space in scheduler.search_spaces()
        ]
        found = [search(evaluator, constraint) for evaluator in evaluators]
        assert result.evaluations == sum(e.evaluations for e in evaluators)
        found = [f for f in found if f is not None]
        assert result.best == max(
            found, key=lambda e: e.throughput_seq_per_s, default=None
        )

    def test_lockstep_takes_as_many_calls_as_the_deepest_subspace(
        self, tiny_simulator, scheduler, monkeypatch
    ):
        constraint = LatencyConstraint(bound_s=0.5)
        counter = _CallCounter(monkeypatch, tiny_simulator)
        alone = []
        for space in scheduler.search_spaces():
            before = counter.calls
            branch_and_bound(_Evaluator(tiny_simulator, space, constraint), constraint)
            alone.append(counter.calls - before)
        counter.calls = 0
        scheduler.schedule(constraint)
        assert len(alone) > 1
        assert counter.calls == max(alone) < sum(alone)


class TestXScheduler:
    def test_schedule_returns_feasible_result(self, scheduler):
        result = scheduler.schedule(LatencyConstraint(bound_s=float("inf")))
        assert result.found
        assert result.evaluations > 0
        assert result.space_size > result.evaluations
        assert result.best.feasible

    def test_throughput_increases_with_relaxed_bound(self, scheduler):
        tight_bound = scheduler.schedule(LatencyConstraint(float("inf"))).best.latency_s * 0.3
        tight = scheduler.schedule(LatencyConstraint(bound_s=max(tight_bound, 0.05)))
        relaxed = scheduler.schedule(LatencyConstraint(bound_s=float("inf")))
        if tight.found:
            assert relaxed.best.throughput_seq_per_s >= tight.best.throughput_seq_per_s * 0.99

    def test_impossible_bound_returns_not_found(self, scheduler):
        result = scheduler.schedule(LatencyConstraint(bound_s=1e-6))
        assert not result.found
        assert result.best is None

    def test_unknown_method_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.schedule(LatencyConstraint(bound_s=1.0), method="simulated-annealing")

    def test_unknown_method_rejected_without_subspaces(self, scheduler):
        with pytest.raises(ValueError, match="simulated-annealing"):
            scheduler.schedule(
                LatencyConstraint(bound_s=1.0),
                policies=(),
                method="simulated-annealing",
            )

    @pytest.mark.parametrize(
        "argument",
        ["max_encode_batch", "max_decode_iterations", "max_micro_batches"],
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_search_range_rejected_at_construction(
        self, tiny_simulator, argument, value
    ):
        with pytest.raises(ValueError, match=argument):
            XScheduler(tiny_simulator, **{argument: value})

    @pytest.mark.parametrize(
        "argument",
        ["max_encode_batch", "max_decode_iterations", "max_micro_batches"],
    )
    def test_non_integral_search_range_rejected_at_construction(
        self, tiny_simulator, argument
    ):
        with pytest.raises(ValueError, match=argument):
            XScheduler(tiny_simulator, **{argument: 7.5})

    def test_policy_restriction(self, scheduler):
        result = scheduler.schedule(
            LatencyConstraint(bound_s=float("inf")), policies=(SchedulePolicy.RRA,)
        )
        assert result.best.config.policy is SchedulePolicy.RRA
