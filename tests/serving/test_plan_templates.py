"""Parity tests for the serving hot-loop fast paths.

The online servers skip plan construction in the steady state -- the
plan-free templates ``mixed_decode_template`` and ``decode_run`` -- which
must be *invisible* in the results: every record a server produces must be
bit-identical to the plan-per-cycle oracle servers of
``tests/reference/serving.py``.  These tests pin that contract for every
server family that has such an oracle (continuous batching over Orca and
vLLM, ExeGPT RRA).  The continuous-batching twin runs production's own
cycle body, ``Orca.cycle``, handed a plan, so it holds only the two
emitters to each other; admission, KV release and compaction are the
shared body's, and golden serves pin them
(``golden/continuous_batching_online.json``: two stages, encoder-decoder,
several prefills per cycle, a roomy and a rejecting queue).  ExeGPT WAA's
production cycle already plans each iteration, so it has no plan-loop
twin: its online serves are pinned to a golden file instead
(``golden/waa_online.json``), as the offline replays are pinned to
``tests/core/golden/``.  Also covered: every continuous-batching cycle,
admitting or not, takes the template, a ``clone`` replica serves like its
original, and the bisection refinement of
``OnlineEvaluator.max_sustainable_qps`` matches its ladder-only reference.

Regenerating both golden files (only when an *intentional* semantic
change lands)::

    PYTHONPATH=src:tests python tests/serving/test_plan_templates.py --regenerate
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from reference.serving import PlanLoopContinuousBatchingServer, PlanLoopExeGPTServer
from repro.baselines.orca import Orca
from repro.baselines.vllm import Vllm
from repro.core.config import ScheduleConfig, SchedulePolicy
from repro.core.distributions import SequenceDistribution
from repro.core.profiler import XProfiler
from repro.core.simulator import XSimulator
from repro.engine.execution import ExecutionEngine
from repro.hardware.cluster import a40_cluster
from repro.models.spec import Architecture, ModelSpec
from repro.serving.online import (
    ContinuousBatchingOnlineServer,
    ExeGPTOnlineServer,
    OnlineEvaluator,
    OnlineRequestRecord,
)
from repro.serving.sla import SLA, SLAKind
from repro.workloads.arrivals import PoissonProcess, attach_arrivals
from repro.workloads.synthetic import generate_trace_from_distributions


GOLDEN_WAA = Path(__file__).parent / "golden" / "waa_online.json"
WAA_CONFIG = ScheduleConfig(
    policy=SchedulePolicy.WAA_C, encode_batch=8, micro_batches=2
)
WAA_RATES = (10.0, 120.0)

GOLDEN_CONTINUOUS = (
    Path(__file__).parent / "golden" / "continuous_batching_online.json"
)
#: Pinned continuous-batching serves: name -> (deployment, system,
#: prefills per cycle, rate).  Each is served at every queue bound of
#: ``CONTINUOUS_QUEUES``; at 8 the two fast ones reject arrivals.
CONTINUOUS_SERVES = {
    "orca-two-stage-3-prefills-200.0": ("two-stage", Orca, 3, 200.0),
    "vllm-encoder-decoder-2-prefills-20.0": ("encoder-decoder", Vllm, 2, 20.0),
    "vllm-one-stage-1-prefill-400.0": ("one-stage", Vllm, 1, 400.0),
}
CONTINUOUS_QUEUES = (64, 8)
#: The conftest (or module) fixture holding each deployment's profile.
PROFILE_FIXTURES = {
    "one-stage": "tiny_profile",
    "two-stage": "two_stage_profile",
    "encoder-decoder": "tiny_encdec_profile",
}


def make_parity_trace(input_dist, output_dist):
    return generate_trace_from_distributions(
        input_dist, output_dist, num_requests=96, seed=17, name="templates"
    )


@pytest.fixture(scope="module")
def parity_trace(short_input_dist, short_output_dist):
    return make_parity_trace(short_input_dist, short_output_dist)


def assert_identical(result, reference):
    assert reference.completed > 0
    assert result.records == reference.records
    assert result.completed == reference.completed
    assert result.rejected == reference.rejected
    assert result.makespan_s == reference.makespan_s


@pytest.fixture(scope="module")
def two_stage_profile(tiny_model):
    """The tiny decoder-only model on two 8-GPU nodes: the baselines'
    TP-within-node placement has two pipeline stages there."""
    return XProfiler(
        tiny_model,
        a40_cluster(16),
        max_batch=128,
        max_seq_len=512,
        batch_points=10,
        length_points=10,
    ).profile()


def continuous_batching_cases():
    """(deployment, system, prefills per cycle, rate) parity cases.

    A one-stage, one-prefill case keeps its ``<rate>-<system>`` id; the
    others name their placement and prefill count too.
    """
    for deployment in ("one-stage", "two-stage", "encoder-decoder"):
        for system_cls, prefills in ((Orca, 1), (Vllm, 1), (Orca, 3), (Vllm, 2)):
            for rate in (20.0, 200.0, 400.0):
                case_id = f"{rate}-{system_cls.__name__}"
                if prefills > 1:
                    case_id += f"-{prefills}-prefills"
                if deployment != "one-stage":
                    case_id += f"-{deployment}"
                yield pytest.param(
                    deployment, system_cls, prefills, rate, id=case_id
                )


class TestContinuousBatchingTemplateParity:
    @pytest.mark.parametrize(
        "deployment, system_cls, prefills, rate", continuous_batching_cases()
    )
    def test_matches_plan_loop_oracle(
        self, request, short_input_dist, short_output_dist, parity_trace,
        deployment, system_cls, prefills, rate,
    ):
        profile = request.getfixturevalue(PROFILE_FIXTURES[deployment])
        online = attach_arrivals(parity_trace, PoissonProcess(rate), seed=11)
        results = []
        for server_cls in (ContinuousBatchingOnlineServer,
                           PlanLoopContinuousBatchingServer):
            system = system_cls(
                profile=profile,
                input_distribution=short_input_dist,
                output_distribution=short_output_dist,
                max_prefills_per_iteration=prefills,
            )
            server = server_cls(system=system, batch_size=16, max_queue=64)
            results.append(
                server.serve(online, scenario="steady", offered_rate_qps=rate)
            )
        stages = len(system.placement.stages)
        assert stages == (2 if deployment == "two-stage" else 1)
        assert_identical(*results)

    @pytest.mark.parametrize("max_queue", CONTINUOUS_QUEUES)
    @pytest.mark.parametrize("case", list(CONTINUOUS_SERVES))
    def test_matches_golden_serve(
        self, request, short_input_dist, short_output_dist, parity_trace,
        case, max_queue,
    ):
        """Continuous-batching serves reproduce their pinned records
        exactly: two stages, encoder-decoder prefills and several prefills
        per cycle, with and without rejections."""
        deployment = CONTINUOUS_SERVES[case][0]
        profile = request.getfixturevalue(PROFILE_FIXTURES[deployment])
        expected = json.loads(GOLDEN_CONTINUOUS.read_text())[
            continuous_key(case, max_queue)
        ]
        actual = continuous_serve_to_jsonable(
            profile, short_input_dist, short_output_dist, parity_trace, case,
            max_queue,
        )
        assert actual == expected

    def test_every_online_cycle_takes_the_template(
        self, monkeypatch, tiny_profile, short_input_dist, short_output_dist,
        parity_trace,
    ):
        admitted_per_cycle: list[int] = []
        template = ExecutionEngine.mixed_decode_template

        def spy_template(engine, stages, alive, **kwargs):
            admitted_per_cycle.append(int(kwargs["admitted"].size))
            return template(engine, stages, alive, **kwargs)

        def no_plan(*args, **kwargs):
            raise AssertionError("an online cycle built a mixed_iteration plan")

        monkeypatch.setattr(ExecutionEngine, "mixed_decode_template", spy_template)
        monkeypatch.setattr(ExecutionEngine, "mixed_iteration", no_plan)
        system = Orca(
            profile=tiny_profile,
            input_distribution=short_input_dist,
            output_distribution=short_output_dist,
        )
        server = ContinuousBatchingOnlineServer(system=system, batch_size=16)
        online = attach_arrivals(parity_trace, PoissonProcess(50.0), seed=11)
        result = server.serve(online)
        assert result.completed == len(parity_trace)
        # One template call per cycle, admitting or not, and both kinds of
        # cycle occur.
        assert len(admitted_per_cycle) == result.extra["iterations"]
        admitting = sum(n > 0 for n in admitted_per_cycle)
        assert 0 < admitting < len(admitted_per_cycle)
        assert sum(admitted_per_cycle) == len(parity_trace)

    def test_clone_serves_bit_identically(
        self, tiny_profile, short_input_dist, short_output_dist, parity_trace
    ):
        """A fleet replica built by ``clone`` is configured and serves
        exactly like the server it was cloned from."""
        system = Vllm(
            profile=tiny_profile,
            input_distribution=short_input_dist,
            output_distribution=short_output_dist,
        )
        server = ContinuousBatchingOnlineServer(
            system=system, batch_size=12, max_queue=48, name="original"
        )
        clone = server.clone("copy")
        assert clone.name == "copy"
        assert server.clone().name == "original"
        assert clone.system is system
        assert (clone.batch_size, clone.max_queue) == (12, 48)
        online = attach_arrivals(parity_trace, PoissonProcess(200.0), seed=11)
        assert_identical(
            clone.serve(online, scenario="steady", offered_rate_qps=200.0),
            server.serve(online, scenario="steady", offered_rate_qps=200.0),
        )


class TestExeGPTTemplateParity:
    @pytest.mark.parametrize(
        "config",
        [
            ScheduleConfig(
                policy=SchedulePolicy.RRA, encode_batch=8, decode_iterations=4
            ),
            ScheduleConfig(
                policy=SchedulePolicy.RRA, encode_batch=16, decode_iterations=12
            ),
        ],
        ids=["rra-short", "rra-long"],
    )
    @pytest.mark.parametrize("rate", [10.0, 120.0])
    def test_matches_plan_loop_oracle(
        self, tiny_simulator, parity_trace, config, rate
    ):
        online = attach_arrivals(parity_trace, PoissonProcess(rate), seed=13)
        results = [
            server_cls(tiny_simulator, config).serve(
                online, scenario="steady", offered_rate_qps=rate
            )
            for server_cls in (ExeGPTOnlineServer, PlanLoopExeGPTServer)
        ]
        assert_identical(*results)

    @pytest.mark.parametrize("rate", WAA_RATES)
    def test_waa_matches_golden_serve(self, tiny_simulator, parity_trace, rate):
        """Online WAA-C serves reproduce their pinned records exactly."""
        expected = json.loads(GOLDEN_WAA.read_text())[repr(rate)]
        assert waa_serve_to_jsonable(tiny_simulator, parity_trace, rate) == expected

    def test_clone_serves_bit_identically(self, tiny_simulator, parity_trace):
        """A fleet replica built by ``clone`` is configured and serves
        exactly like the server it was cloned from."""
        config = ScheduleConfig(
            policy=SchedulePolicy.RRA, encode_batch=8, decode_iterations=4
        )
        server = ExeGPTOnlineServer(
            tiny_simulator, config, max_queue=48, dynamic_adjustment=False,
            name="original",
        )
        clone = server.clone("copy")
        assert clone.name == "copy"
        assert server.clone().name == "original"
        assert clone.simulator is tiny_simulator
        assert clone.config == config
        assert (clone.max_queue, clone.dynamic_adjustment) == (48, False)
        online = attach_arrivals(parity_trace, PoissonProcess(120.0), seed=13)
        assert_identical(
            clone.serve(online, scenario="steady", offered_rate_qps=120.0),
            server.serve(online, scenario="steady", offered_rate_qps=120.0),
        )


def serve_to_jsonable(server, trace, rate: float, seed: int) -> dict:
    """Exact JSON form of one serve of ``trace`` at Poisson ``rate``: every
    record field as a column, the counts, the makespan and the driver's
    extras (JSON round-trips ``float`` through ``repr``, so ``==`` is
    bit-level)."""
    online = attach_arrivals(trace, PoissonProcess(rate), seed=seed)
    result = server.serve(online, scenario="steady", offered_rate_qps=rate)
    assert result.completed > 0
    return {
        "records": {
            field.name: [getattr(record, field.name) for record in result.records]
            for field in dataclasses.fields(OnlineRequestRecord)
        },
        "completed": result.completed,
        "rejected": result.rejected,
        "makespan_s": result.makespan_s,
        "extra": dict(result.extra),
    }


def waa_serve_to_jsonable(simulator, trace, rate: float) -> dict:
    """One online WAA-C serve of ``WAA_CONFIG``, in JSON form."""
    return serve_to_jsonable(
        ExeGPTOnlineServer(simulator, WAA_CONFIG), trace, rate, seed=13
    )


def continuous_key(case: str, max_queue: int) -> str:
    return f"{case}-queue-{max_queue}"


def continuous_serve_to_jsonable(
    profile, input_dist, output_dist, trace, case: str, max_queue: int
) -> dict:
    """One continuous-batching serve of ``CONTINUOUS_SERVES[case]`` on
    ``profile`` (batch 16), in JSON form."""
    _, system_cls, prefills, rate = CONTINUOUS_SERVES[case]
    system = system_cls(
        profile=profile,
        input_distribution=input_dist,
        output_distribution=output_dist,
        max_prefills_per_iteration=prefills,
    )
    server = ContinuousBatchingOnlineServer(
        system=system, batch_size=16, max_queue=max_queue
    )
    return serve_to_jsonable(server, trace, rate, seed=11)


def regenerate_goldens() -> None:
    """Rewrite ``GOLDEN_WAA`` and ``GOLDEN_CONTINUOUS`` from the current
    code.

    Builds the conftest's world (the tiny decoder-only and
    encoder-decoder models on four A40s, this module's two-node profile,
    the short length distributions) and this module's parity trace.
    """
    def tiny(name, architecture):
        return ModelSpec(
            name=name,
            architecture=architecture,
            num_layers=8,
            hidden_size=512,
            num_heads=8,
            vocab_size=8192,
        )

    def profile(model, gpus):
        return XProfiler(
            model, a40_cluster(gpus), max_batch=128, max_seq_len=512,
            batch_points=10, length_points=10,
        ).profile()

    decoder_only = tiny("Tiny-GPT", Architecture.DECODER_ONLY)
    profiles = {
        "one-stage": profile(decoder_only, 4),
        "two-stage": profile(decoder_only, 16),
        "encoder-decoder": profile(
            tiny("Tiny-T5", Architecture.ENCODER_DECODER), 4
        ),
    }
    input_dist = SequenceDistribution.truncated_normal(
        mean=48, std=16, max_len=96, name="in"
    )
    output_dist = SequenceDistribution.truncated_normal(
        mean=16, std=6, max_len=40, name="out"
    )
    simulator = XSimulator(profiles["one-stage"], input_dist, output_dist)
    trace = make_parity_trace(input_dist, output_dist)
    payloads = {
        GOLDEN_WAA: {
            repr(rate): waa_serve_to_jsonable(simulator, trace, rate)
            for rate in WAA_RATES
        },
        GOLDEN_CONTINUOUS: {
            continuous_key(case, max_queue): continuous_serve_to_jsonable(
                profiles[deployment], input_dist, output_dist, trace, case,
                max_queue,
            )
            for case, (deployment, *_) in CONTINUOUS_SERVES.items()
            for max_queue in CONTINUOUS_QUEUES
        },
    }
    for path, payload in payloads.items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path}")


class TestBisectionRefinement:
    @pytest.fixture(scope="class")
    def evaluator(self, tiny_engine, short_input_dist, short_output_dist):
        trace = generate_trace_from_distributions(
            short_input_dist, short_output_dist, num_requests=48, seed=21,
            name="bisect",
        )
        slo = SLA(kind=SLAKind.QUERY_PERCENTILE, bound_s=2.0, percentile=99.0)
        return OnlineEvaluator(tiny_engine, trace, slo, max_queue=16, seed=3)

    def test_refine_zero_is_the_ladder_reference(self, evaluator):
        rates = (1.0, 1e6)
        ladder = evaluator.max_sustainable_qps("orca", "steady", rates)
        explicit = evaluator.max_sustainable_qps(
            "orca", "steady", rates, refine_steps=0
        )
        assert ladder == explicit == 1.0

    def test_refinement_tightens_the_bracket(self, evaluator):
        rates = (1.0, 1e6)
        coarse = evaluator.max_sustainable_qps("orca", "steady", rates)
        refined = evaluator.max_sustainable_qps(
            "orca", "steady", rates, refine_steps=4
        )
        # Refinement only ever moves the estimate up, inside the bracket,
        # and each step halves it: after 4 steps at least a 16x tighter
        # bound than the raw ladder gap.
        assert coarse <= refined < 1e6
        assert refined >= coarse
        gap = 1e6 - coarse
        assert refined <= coarse + gap  # stays inside the bracket
        # The refined rate itself must be sustainable under the SLO.
        from repro.serving.online import make_scenario

        point = evaluator.measure(
            "orca", make_scenario("steady", refined), scenario="steady"
        )
        assert point.sustainable

    def test_no_bracket_means_no_refinement(self, evaluator):
        # All rates sustainable: nothing to bisect, ladder result returned.
        sustainable_only = evaluator.max_sustainable_qps(
            "orca", "steady", (0.5, 1.0), refine_steps=3
        )
        assert sustainable_only == 1.0
        # No rate sustainable: capacity is 0 and refinement stays silent.
        hopeless = evaluator.max_sustainable_qps(
            "orca", "steady", (1e6,), refine_steps=3
        )
        assert hopeless == 0.0


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate_goldens()
    else:
        print(__doc__)
