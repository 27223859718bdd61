"""Cross-layer parity: online drivers vs the offline runner.

Both sides construct iterations through the shared
:class:`~repro.engine.execution.ExecutionEngine`, so for the *same
iteration inputs* -- identical admission batches, pool membership and
per-request lengths -- the online drivers must produce exactly the stage
durations the offline runner produces.  These tests arrange a workload
where the two admission policies provably coincide (uniform request
lengths at the distribution mean, everything arrived at t=0, trace smaller
than the standing decode-batch target, so both admit the whole trace in
cycle 0) and compare the emitted task graphs value-for-value.
"""

from __future__ import annotations

import pytest

from repro.baselines.orca import Orca
from repro.core.config import ScheduleConfig, SchedulePolicy
from repro.core.runner import XRunner
from repro.serving.online import ContinuousBatchingOnlineServer, ExeGPTOnlineServer
from repro.workloads.trace import RequestSpec, WorkloadTrace


def _uniform_trace(simulator, n=12, input_len=48, output_len=16):
    specs = [RequestSpec(i, input_len, output_len, 0.0) for i in range(n)]
    return WorkloadTrace(
        name="uniform",
        requests=tuple(specs),
        input_distribution=simulator.input_distribution,
        output_distribution=simulator.output_distribution,
    )


def _task_signature(timeline):
    """(stage, tag, duration) sequence of a timeline's task graph."""
    return [(t.stage, t.tag, t.duration_s) for t in timeline.tasks]


@pytest.mark.parametrize(
    "config",
    [
        ScheduleConfig(SchedulePolicy.RRA, encode_batch=8, decode_iterations=4),
        ScheduleConfig(SchedulePolicy.WAA_C, encode_batch=8, micro_batches=2),
    ],
    ids=["rra", "waa"],
)
def test_online_driver_matches_offline_runner_durations(tiny_simulator, config):
    trace = _uniform_trace(tiny_simulator)

    runner = XRunner(tiny_simulator, config)
    offline_result = runner.run(trace)

    server = ExeGPTOnlineServer(tiny_simulator, config)
    online_result = server.serve(trace)
    assert online_result.completed == len(trace)

    # Identical iteration inputs must yield the identical task graph --
    # same stages, same tags, same durations, task for task.
    assert _task_signature(server._timeline) == _task_signature(
        runner.last_timeline
    )

    # With every arrival at t=0 the release times never bind, so even the
    # scheduled timelines coincide.
    assert online_result.makespan_s == offline_result.makespan_s
    online_finishes = sorted(r.finish_s for r in online_result.records)
    offline_finishes = sorted(offline_result.completion_times_s)
    assert online_finishes == offline_finishes


def test_continuous_batching_online_matches_offline_orca(
    tiny_profile, short_input_dist, short_output_dist, tiny_simulator
):
    """The ORCA online driver replays the offline policy task for task.

    With all arrivals at t=0 and an ample queue, the online admission
    (prefill-per-iteration, KV reservations) sees exactly the offline
    admission's state, so the two iteration streams -- and their batched
    stage durations -- must be identical.
    """
    trace = _uniform_trace(tiny_simulator)

    offline_system = Orca(
        profile=tiny_profile,
        input_distribution=short_input_dist,
        output_distribution=short_output_dist,
    )
    offline = offline_system.run(trace, batch_size=8)

    online_system = Orca(
        profile=tiny_profile,
        input_distribution=short_input_dist,
        output_distribution=short_output_dist,
    )
    server = ContinuousBatchingOnlineServer(system=online_system, batch_size=8)
    online = server.serve(trace)

    assert online.completed == len(trace)
    # Both timelines tag the iterations' stage tasks by phase identically
    # (same tags, same order, same durations).
    for phase in ("encode", "decode"):
        assert (
            server._timeline.durations(phase).tolist()
            == offline.stage_times[phase].tolist()
        )
