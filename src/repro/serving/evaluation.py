"""Scenario evaluation harness: run ExeGPT and the baselines side by side.

This is the machinery behind the paper's figures: given a model, a task (or
a trace) and a latency bound, configure every system for the bound, execute
the same trace on each, and report throughput and latency.  The experiment
modules under :mod:`repro.experiments` assemble these comparisons into the
exact rows/series of each figure and table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import BaselineSystem
from repro.baselines.deepspeed import DeepSpeedInference
from repro.baselines.faster_transformer import FasterTransformer
from repro.baselines.orca import Orca
from repro.baselines.vllm import Vllm
from repro.core.config import LatencyConstraint, SchedulePolicy
from repro.core.exegpt import ExeGPT
from repro.engine.metrics import RunResult
from repro.workloads.trace import WorkloadTrace


@dataclass(frozen=True)
class SystemMeasurement:
    """One system's measured performance under one latency bound.

    Attributes:
        system: System name.
        bound_label: Label of the latency bound ("10%", "Inf", ...).
        bound_s: The bound in seconds.
        throughput_seq_per_s: Measured throughput.
        p99_latency_s: Measured 99th-percentile latency.
        max_latency_s: Measured worst-case latency.
        satisfied: Whether the run met the bound.
        config_description: Human-readable schedule / batch configuration.
    """

    system: str
    bound_label: str
    bound_s: float
    throughput_seq_per_s: float
    p99_latency_s: float
    max_latency_s: float
    satisfied: bool
    config_description: str = ""


def measure_baseline(
    system: BaselineSystem,
    trace: WorkloadTrace,
    constraint: LatencyConstraint,
    max_batch: int = 256,
) -> SystemMeasurement:
    """Configure a baseline for a bound and measure it on a trace."""
    if constraint.is_unbounded:
        batch = system.configure_for_bound(float("1e12"), max_batch=max_batch)
    else:
        batch = system.configure_for_bound(constraint.bound_s, max_batch=max_batch)
    result = system.run(trace, batch)
    return _measurement(system.name, constraint, result, f"batch={batch}")


def measure_exegpt(
    engine: ExeGPT,
    trace: WorkloadTrace,
    constraint: LatencyConstraint,
    policies: tuple[SchedulePolicy, ...] = (
        SchedulePolicy.RRA,
        SchedulePolicy.WAA_C,
        SchedulePolicy.WAA_M,
    ),
) -> SystemMeasurement:
    """Schedule and run ExeGPT for a bound; returns "NS" when infeasible.

    The paper marks scenarios where WAA cannot satisfy the bound as "NS"
    (not satisfiable); here an infeasible search yields zero throughput and
    ``satisfied=False``.
    """
    search = engine.schedule(constraint, policies=policies)
    if search.best is None:
        return SystemMeasurement(
            system="exegpt",
            bound_label=constraint.label or f"{constraint.bound_s:.3g}s",
            bound_s=constraint.bound_s,
            throughput_seq_per_s=0.0,
            p99_latency_s=float("inf"),
            max_latency_s=float("inf"),
            satisfied=False,
            config_description="NS",
        )
    config = search.best.config
    result = engine.run(trace, config)
    return _measurement(
        f"exegpt-{config.policy.value}", constraint, result, config.describe()
    )


def _measurement(
    system: str, constraint: LatencyConstraint, result: RunResult, description: str
) -> SystemMeasurement:
    """One offline run against a bound: warm latencies, steady-state
    throughput, and the bound met when the SLA-(b) measure (the p99
    without a target length) is within it, up to a 10% tolerance."""
    p99 = result.latency_percentile(99.0, skip_warmup=True)
    reference = (
        result.reference_length_latency(constraint.target_length)
        if constraint.target_length
        else p99
    )
    return SystemMeasurement(
        system=system,
        bound_label=constraint.label or f"{constraint.bound_s:.3g}s",
        bound_s=constraint.bound_s,
        throughput_seq_per_s=result.steady_state_throughput(),
        p99_latency_s=p99,
        max_latency_s=result.max_latency_s,
        satisfied=constraint.satisfied_by(reference, tolerance=0.1 * constraint.bound_s),
        config_description=description,
    )


def build_online_server(
    engine: ExeGPT,
    system: str,
    slo_bound_s: float,
    max_queue: int = 512,
    schedule_headroom: float = 0.7,
):
    """Configure one system's online server for an end-to-end SLO bound.

    The single construction path behind :class:`~repro.serving.online.
    OnlineEvaluator` and fleet builders: ``"exegpt"`` searches RRA/WAA
    schedules under the headroom-scaled bound (retrying at the full bound
    when the scaled one is infeasible), ``"orca"`` / ``"vllm"`` pick the
    baseline's largest batch size whose worst case meets the scaled bound.
    ``schedule_headroom`` is the fraction of the SLO given to the schedule
    search / batch configuration; the remainder absorbs queueing.
    """
    from repro.serving.online import (
        ContinuousBatchingOnlineServer,
        ExeGPTOnlineServer,
        OnlineServer,
    )

    if not 0 < schedule_headroom <= 1:
        raise ValueError("schedule_headroom must be in (0, 1]")
    key = system.lower()
    bound = slo_bound_s * schedule_headroom
    target_length = max(int(engine.output_distribution.percentile(99)), 1)
    if key == "exegpt":
        constraint = LatencyConstraint(bound_s=bound, target_length=target_length)
        search = engine.schedule(constraint)
        if search.best is None:
            search = engine.schedule(
                LatencyConstraint(bound_s=slo_bound_s, target_length=target_length)
            )
        if search.best is None:
            raise ValueError(
                f"no ExeGPT schedule satisfies the SLO bound {slo_bound_s:g}s"
            )
        server: OnlineServer = ExeGPTOnlineServer(
            simulator=engine.simulator,
            config=search.best.config,
            max_queue=max_queue,
        )
    elif key in ("orca", "vllm"):
        (baseline,) = default_baselines(engine, (key,))
        batch = baseline.configure_for_bound(bound)
        server = ContinuousBatchingOnlineServer(
            system=baseline,
            batch_size=batch,
            max_queue=max_queue,
        )
    else:
        raise KeyError(
            f"unknown online system {system!r}; known: exegpt, orca, vllm"
        )
    return server


def default_baselines(
    engine: ExeGPT, systems: tuple[str, ...] = ("ft",)
) -> list[BaselineSystem]:
    """Instantiate baseline systems sharing ExeGPT's profile and workload."""
    profile = engine.profile
    available = {
        "ft": FasterTransformer,
        "dsi": DeepSpeedInference,
        "orca": Orca,
        "vllm": Vllm,
    }
    baselines: list[BaselineSystem] = []
    for name in systems:
        key = name.lower()
        if key not in available:
            known = ", ".join(sorted(available))
            raise KeyError(f"unknown baseline {name!r}; known baselines: {known}")
        baselines.append(
            available[key](
                profile=profile,
                input_distribution=engine.input_distribution,
                output_distribution=engine.output_distribution,
            )
        )
    return baselines


@dataclass
class ScenarioEvaluation:
    """Evaluate one (model, workload) scenario across systems and bounds.

    Attributes:
        engine: The ExeGPT instance for the scenario.
        trace: The trace replayed by every system.
        baselines: Baseline systems to compare against.
    """

    engine: ExeGPT
    trace: WorkloadTrace
    baselines: list[BaselineSystem] = field(default_factory=list)

    def evaluate(
        self,
        constraints: list[LatencyConstraint],
        policies: tuple[SchedulePolicy, ...] = (
            SchedulePolicy.RRA,
            SchedulePolicy.WAA_C,
            SchedulePolicy.WAA_M,
        ),
        include_exegpt: bool = True,
    ) -> list[SystemMeasurement]:
        """Measure every system under every latency bound."""
        measurements: list[SystemMeasurement] = []
        for constraint in constraints:
            if include_exegpt:
                measurements.append(
                    measure_exegpt(self.engine, self.trace, constraint, policies)
                )
            for baseline in self.baselines:
                measurements.append(
                    measure_baseline(baseline, self.trace, constraint)
                )
        return measurements


def speedup_over(
    measurements: list[SystemMeasurement], reference_system: str = "ft"
) -> dict[str, float]:
    """Per-bound throughput speedup of ExeGPT over a reference system."""
    by_bound: dict[str, dict[str, float]] = {}
    for m in measurements:
        by_bound.setdefault(m.bound_label, {})[m.system] = m.throughput_seq_per_s
    speedups: dict[str, float] = {}
    for bound, systems in by_bound.items():
        exe = max(
            (v for k, v in systems.items() if k.startswith("exegpt")), default=0.0
        )
        ref = systems.get(reference_system, 0.0)
        if ref > 0:
            speedups[bound] = exe / ref
    return speedups
