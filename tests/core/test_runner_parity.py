"""Golden-fixture parity tests: replays must stay bit-identical.

The execution-engine refactor (PR 3) moved iteration construction out of
``XRunner`` and the baselines into :mod:`repro.engine.execution`.  These
tests pin the replay outputs to JSON fixtures generated from the
pre-refactor seed path, so any drift in task construction order, stage
durations or timestamp bookkeeping shows up as an exact-value mismatch --
not a tolerance failure.  Cases added later (``rra_encdec``, ``dsi``,
``ft_encdec``) were generated from the code before the change they guard:
the RRA and FasterTransformer/DSI decode moving onto the bulk
``decode_run``.

JSON serializes floats through ``repr``, which round-trips ``float``
exactly, so ``==`` comparisons below really are bit-level.

Regenerating the fixtures (only when an *intentional* semantic change
lands)::

    PYTHONPATH=src:tests python tests/core/test_runner_parity.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from reference.pool import ListPool
from repro.baselines.deepspeed import DeepSpeedInference
from repro.baselines.faster_transformer import FasterTransformer
from repro.baselines.orca import Orca
from repro.baselines.vllm import Vllm
from repro.core.config import ScheduleConfig, SchedulePolicy
from repro.core.distributions import SequenceDistribution
from repro.core.profiler import XProfiler
from repro.core.runner import XRunner
from repro.core.simulator import XSimulator
from repro.engine.metrics import RunResult
from repro.engine.pool import RequestPool
from repro.hardware.cluster import a40_cluster
from repro.models.spec import Architecture, ModelSpec
from repro.workloads.synthetic import generate_trace_from_distributions

GOLDEN_DIR = Path(__file__).parent / "golden"


def _build_world():
    """The deterministic tiny setup every golden case replays against."""
    model = ModelSpec(
        name="Tiny-GPT",
        architecture=Architecture.DECODER_ONLY,
        num_layers=8,
        hidden_size=512,
        num_heads=8,
        vocab_size=8192,
    )
    encdec = ModelSpec(
        name="Tiny-T5",
        architecture=Architecture.ENCODER_DECODER,
        num_layers=8,
        hidden_size=512,
        num_heads=8,
        vocab_size=8192,
    )
    cluster = a40_cluster(4)
    input_dist = SequenceDistribution.truncated_normal(
        mean=48, std=16, max_len=96, name="in"
    )
    output_dist = SequenceDistribution.truncated_normal(
        mean=16, std=6, max_len=40, name="out"
    )
    profile = XProfiler(
        model, cluster, max_batch=128, max_seq_len=512,
        batch_points=10, length_points=10,
    ).profile()
    encdec_profile = XProfiler(
        encdec, cluster, max_batch=128, max_seq_len=512,
        batch_points=10, length_points=10,
    ).profile()
    simulator = XSimulator(profile, input_dist, output_dist)
    encdec_simulator = XSimulator(encdec_profile, input_dist, output_dist)
    trace = generate_trace_from_distributions(
        input_dist, output_dist, num_requests=96, seed=11
    )
    return simulator, encdec_simulator, trace


def _fresh_trace(trace):
    """Traces are immutable specs, but regenerate per case for isolation."""
    return trace


def _golden_cases():
    """name -> callable producing a RunResult (built lazily, run fresh)."""
    simulator, encdec_simulator, trace = _build_world()

    def rra():
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=8)
        return XRunner(simulator, config).run(trace)

    def rra_static():
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=8)
        return XRunner(simulator, config, dynamic_adjustment=False).run(trace)

    def rra_tp():
        from repro.core.config import TensorParallelConfig

        config = ScheduleConfig(
            SchedulePolicy.RRA,
            encode_batch=8,
            decode_iterations=4,
            tensor_parallel=TensorParallelConfig(degree=2, num_gpus=4),
        )
        return XRunner(simulator, config).run(trace)

    def rra_encdec():
        # Encoder-decoder peak KV: RRA stages count it through decode
        # contexts only, not the encode batch's prompt tokens.
        config = ScheduleConfig(SchedulePolicy.RRA, encode_batch=4, decode_iterations=3)
        return XRunner(encdec_simulator, config).run(trace)

    def waa_c():
        config = ScheduleConfig(SchedulePolicy.WAA_C, encode_batch=2, micro_batches=2)
        return XRunner(simulator, config).run(trace)

    def waa_m():
        config = ScheduleConfig(SchedulePolicy.WAA_M, encode_batch=2, micro_batches=1)
        return XRunner(simulator, config).run(trace)

    def waa_encdec():
        config = ScheduleConfig(SchedulePolicy.WAA_C, encode_batch=2, micro_batches=1)
        return XRunner(encdec_simulator, config).run(trace)

    def orca():
        system = Orca(
            profile=simulator.profile,
            input_distribution=simulator.input_distribution,
            output_distribution=simulator.output_distribution,
        )
        return system.run(trace, batch_size=16)

    def vllm():
        system = Vllm(
            profile=simulator.profile,
            input_distribution=simulator.input_distribution,
            output_distribution=simulator.output_distribution,
        )
        return system.run(trace, batch_size=8)

    def ft():
        system = FasterTransformer(
            profile=simulator.profile,
            input_distribution=simulator.input_distribution,
            output_distribution=simulator.output_distribution,
        )
        return system.run(trace, batch_size=16)

    def dsi():
        # DSI prices every stage execution with its iteration overhead.
        system = DeepSpeedInference(
            profile=simulator.profile,
            input_distribution=simulator.input_distribution,
            output_distribution=simulator.output_distribution,
        )
        return system.run(trace, batch_size=16)

    def ft_encdec():
        # Encoder-decoder decode prices its context as max(generated, 1).
        system = FasterTransformer(
            profile=encdec_simulator.profile,
            input_distribution=encdec_simulator.input_distribution,
            output_distribution=encdec_simulator.output_distribution,
        )
        return system.run(trace, batch_size=16)

    return {
        "rra": rra,
        "rra_static": rra_static,
        "rra_tp": rra_tp,
        "rra_encdec": rra_encdec,
        "waa_c": waa_c,
        "waa_m": waa_m,
        "waa_encdec": waa_encdec,
        "orca": orca,
        "vllm": vllm,
        "ft": ft,
        "dsi": dsi,
        "ft_encdec": ft_encdec,
    }


def result_to_jsonable(result: RunResult) -> dict:
    """Exact JSON form of a RunResult (object keys stringified via repr)."""
    return {
        "system": result.system,
        "makespan_s": result.makespan_s,
        "num_requests": result.num_requests,
        "total_generated_tokens": result.total_generated_tokens,
        "latencies_s": list(result.latencies_s),
        "completion_times_s": list(result.completion_times_s),
        "output_lengths": list(result.output_lengths),
        "warmup_requests": result.warmup_requests,
        "stage_utilization": {
            repr(k): v for k, v in result.stage_utilization.items()
        },
        "stage_times": {k: list(v) for k, v in result.stage_times.items()},
        "peak_memory_gib": {
            repr(k): v for k, v in result.peak_memory_gib.items()
        },
        "extra": dict(result.extra),
    }


def regenerate() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, run in _golden_cases().items():
        payload = result_to_jsonable(run())
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {path}")


@pytest.fixture(scope="module")
def golden_cases():
    return _golden_cases()


# Modules whose drivers build their request pool through the module-level
# ``RequestPool`` name (Vllm and DSI inherit their ``run`` from these).
POOL_DRIVER_MODULES = (
    "repro.core.runner",
    "repro.baselines.orca",
    "repro.baselines.faster_transformer",
)


@pytest.mark.parametrize(
    "backend", [RequestPool, ListPool], ids=["columnar", "list"]
)
@pytest.mark.parametrize(
    "name",
    ["rra", "rra_static", "rra_tp", "rra_encdec", "waa_c", "waa_m", "waa_encdec",
     "orca", "vllm", "ft", "dsi", "ft_encdec"],
)
def test_replay_matches_golden_fixture(golden_cases, name, backend, monkeypatch):
    """Every replay path reproduces its pre-refactor output exactly.

    Both request-pool backends are held to the same fixtures: the columnar
    pool (production) and the per-object list oracle of
    ``tests/reference/pool.py``, swapped in for the drivers' pool class.
    """
    for module in POOL_DRIVER_MODULES:
        monkeypatch.setattr(f"{module}.RequestPool", backend)
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"golden fixture {path} missing; regenerate with "
        "`PYTHONPATH=src:tests python tests/core/test_runner_parity.py --regenerate`"
    )
    expected = json.loads(path.read_text())
    actual = result_to_jsonable(golden_cases[name]())
    assert actual.keys() == expected.keys()
    for key in expected:
        assert actual[key] == expected[key], f"{name}: field {key!r} diverged"


if __name__ == "__main__":
    if "--regenerate" in sys.argv:
        regenerate()
    else:
        print(__doc__)
