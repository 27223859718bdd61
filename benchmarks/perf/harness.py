"""Perf harness: the series the ``perfbench/`` benchmark lacks.

``perfbench/`` (its workloads are declared in ``BENCHMARK.json``) measures
serving fleets and the per-query schedule search end to end and layer by
layer.  This harness times what none of its workloads runs, one series
each, listed in :data:`SERIES`:

* ``estimate`` -- per-point cost of the batched estimator against the
  scalar cost-model oracle (``tests/reference/simulator.py``), which it
  must equal exactly;
* ``search`` -- the paper's search-cost comparison (Section 7.7):
  branch-and-bound against the exhaustive grid of GPT-3 39B on 8 A40
  GPUs (65,536 points);
* ``replay`` and ``replay_pool`` -- offline ``XRunner`` replays of a
  pipeline-parallel RRA schedule and of a paper-scale one whose standing
  decode pool holds hundreds of requests;
* ``sweep_1m`` -- a million-request, 16-replica ExeGPT fleet serve, and
  the bytes per request that serve allocates;
* ``fleet_capacity`` -- the highest rate one replica and a 4-replica JSQ
  fleet sustain under a p99 SLO;
* ``campaign_fanout`` -- a 27-cell campaign serially, fanned out,
  resumed after losing a third of its traces, and warm-loaded;
* ``pricing_crossover`` -- the scalar/batched plan-pricing crossover
  behind :data:`repro.engine.execution.SMALL_PLAN_ITEMS`.

Each series is a function of a :class:`Clock` that returns a flat dict.
A wall time ``<field>`` is the raw measurement and ``<field>_scaled`` the
same time at perfbench's reference host speed (its ``HostGauge``), so
records taken under different host load compare; a ``speedup`` is a ratio
of scaled times.  The crossover's times stay raw: its two pricers run back
to back at each plan size.

``python benchmarks/perf/harness.py`` -- and the perf tests with
``BENCH_RECORD=1`` -- also run every perfbench workload at seed 0 with
``--trace 0`` and ``--trace 1``, append one record to
``BENCH_search.json`` (older records stay as history) and render the
latest record into README.md's Performance section.
"""

from __future__ import annotations

import functools
import gc
import importlib.util
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core.config import (
    LatencyConstraint,
    ScheduleConfig,
    SchedulePolicy,
    TensorParallelConfig,
)
from repro.core.exegpt import ExeGPT
from repro.workloads.tasks import get_task
from repro.workloads.synthetic import generate_task_trace

ROOT = Path(__file__).resolve().parents[2]
BENCH_PATH = ROOT / "BENCH_search.json"
README_PATH = ROOT / "README.md"
README_BEGIN = "<!-- begin: rendered by benchmarks/perf/harness.py -->"
README_END = "<!-- end: rendered by benchmarks/perf/harness.py -->"

# The estimate series times the scalar cost-model oracle of tests/reference/.
_TESTS_DIR = str(ROOT / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.insert(0, _TESTS_DIR)

# The paper-scale search space: GPT-3 39B on 8 A40 GPUs, B_E in 1..128 --
# 65,536 candidate points across all (policy, TP) subspaces.
SEARCH_MODEL = "GPT3-39B"
SEARCH_GPUS = 8
SEARCH_TASK = "S"
SEARCH_BOUND_S = 20.0
SEARCH_MAX_ENCODE_BATCH = 128

# The replays run pipeline-parallel RRA schedules (4 stages on the 4-GPU
# OPT-13B deployment), so each cycle carries stages x micro-batches work
# items.  B_E at the search space's maximum (128) gives the pool replay a
# standing decode pool of several hundred requests.
REPLAY_CONFIG = ScheduleConfig(
    policy=SchedulePolicy.RRA, encode_batch=16, decode_iterations=8
)
POOL_REPLAY_CONFIG = ScheduleConfig(
    policy=SchedulePolicy.RRA, encode_batch=128, decode_iterations=8
)


@functools.cache
def _perfbench():
    """``perfbench/run.py``, loaded by path: ``perfbench`` is not a
    package, and ``run.py`` imports its sibling ``tracer``."""
    directory = ROOT / "perfbench"
    if str(directory) not in sys.path:
        sys.path.insert(0, str(directory))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", directory / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Clock:
    """Times ops the way perfbench does: host-gauge readings around each
    op scale its wall time to the reference host speed."""

    def __init__(self) -> None:
        self.gauge = _perfbench().HostGauge()

    def time(self, fn, *args, **kwargs):
        """Run ``fn`` once; returns ``(raw_s, scaled_s, result)``."""
        _perfbench().fresh_gc()
        mark = self.gauge.sample()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        raw = time.perf_counter() - start
        self.gauge.sample()
        return raw, self.gauge.scaled(raw, mark), result


def build_search_engine() -> ExeGPT:
    """The engine whose search space the search numbers refer to."""
    return ExeGPT.for_task(
        SEARCH_MODEL,
        SEARCH_TASK,
        num_gpus=SEARCH_GPUS,
        max_encode_batch=SEARCH_MAX_ENCODE_BATCH,
    )


def bench_estimate(clock: Clock, points_per_space: int = 12) -> dict:
    """The scalar oracle against the batched estimator over a uniform
    sample of every search subspace."""
    from reference.simulator import estimate as scalar_estimate

    engine = build_search_engine()
    simulator = engine.simulator
    rng = np.random.default_rng(0)
    configs = []
    for space in engine.scheduler().search_spaces():
        (x1_lo, x1_hi), (x2_lo, x2_hi) = space.bounds
        for _ in range(points_per_space):
            configs.append(space.config_at(
                int(rng.integers(x1_lo, x1_hi + 1)),
                int(rng.integers(x2_lo, x2_hi + 1)),
            ))
    target = simulator.output_distribution.percentile(99)
    scalar_s, scalar_scaled, scalar = clock.time(
        lambda: [scalar_estimate(simulator, c, target_length=target)
                 for c in configs]
    )
    batch_s, batch_scaled, batched = clock.time(
        simulator.estimate_batch, configs, target_length=target
    )
    worst = 0.0
    for s, b in zip(scalar, batched):
        assert b is not None and b.memory_feasible == s.memory_feasible
        for attr in ("throughput_seq_per_s", "latency_s", "cycle_time_s"):
            sv, bv = getattr(s, attr), getattr(b, attr)
            worst = max(worst, abs(sv - bv) / max(abs(sv), 1e-12))
    n = len(configs)
    return {
        "points": n,
        "scalar_ms_per_point": scalar_s / n * 1e3,
        "scalar_ms_per_point_scaled": scalar_scaled / n * 1e3,
        "batch_us_per_point": batch_s / n * 1e6,
        "batch_us_per_point_scaled": batch_scaled / n * 1e6,
        "speedup": scalar_scaled / batch_scaled,
        "worst_rel_err": worst,
    }


def bench_search(clock: Clock) -> dict:
    """Branch-and-bound, then the exhaustive grid, on a fresh engine."""
    scheduler = build_search_engine().scheduler()
    constraint = LatencyConstraint(
        bound_s=SEARCH_BOUND_S, target_length=get_task(SEARCH_TASK).output_p99
    )
    simulator = scheduler.simulator
    priced: list[int] = []
    estimate_batch = simulator.estimate_batch

    def counted(configs, *args, **kwargs):
        priced.append(len(configs))
        return estimate_batch(configs, *args, **kwargs)

    simulator.estimate_batch = counted
    try:
        bnb_s, bnb_scaled, bnb = clock.time(scheduler.schedule, constraint)
    finally:
        del simulator.estimate_batch
    grid_s, grid_scaled, grid = clock.time(
        scheduler.schedule, constraint, method="exhaustive"
    )
    return {
        "space_points": grid.space_size,
        "bnb_batched_s": bnb_s,
        "bnb_batched_s_scaled": bnb_scaled,
        "bnb_evaluations": bnb.evaluations,
        "bnb_estimate_calls": len(priced),
        "bnb_points": sum(priced),
        "exhaustive_batched_s": grid_s,
        "exhaustive_batched_s_scaled": grid_scaled,
        "best_throughput_matches": (
            bnb.best is not None
            and grid.best is not None
            and abs(bnb.best.throughput_seq_per_s - grid.best.throughput_seq_per_s)
            <= 1e-9 * grid.best.throughput_seq_per_s
        ),
    }


def _replay(
    clock: Clock,
    simulator,
    config: ScheduleConfig,
    num_requests: int,
    repetitions: int,
) -> dict:
    """Best-of-``repetitions`` XRunner replays of an OPT-13B task S trace."""
    from repro.core.runner import XRunner

    trace = generate_task_trace(get_task("S"), num_requests=num_requests, seed=0)
    # Warm the one-time costs (profile sweep, EstimateContext, placement
    # memo) outside the timed runs; then take the best of several, since
    # runs of tens of milliseconds are at the mercy of scheduler noise.
    XRunner(simulator, config).run(trace)
    runs = [
        clock.time(lambda: XRunner(simulator, config).run(trace))
        for _ in range(repetitions)
    ]
    return {
        "policy": config.policy.value,
        "requests": num_requests,
        "completed": runs[-1][2].num_requests,
        "us_per_request": 1e6 * min(r[0] for r in runs) / num_requests,
        "us_per_request_scaled": 1e6 * min(r[1] for r in runs) / num_requests,
    }


def bench_replay(clock: Clock) -> dict:
    """Replays of the 4-stage RRA schedule (``B_E`` 16, ``N_D`` 8)."""
    engine = ExeGPT.for_task("OPT-13B", "S", max_encode_batch=32)
    return _replay(clock, engine.simulator, REPLAY_CONFIG, 512, repetitions=3)


def bench_replay_pool(clock: Clock) -> dict:
    """Replays of the paper-scale RRA schedule (``B_E`` 128)."""
    from repro.core.dynamic import DynamicWorkloadAdjuster

    simulator = ExeGPT.for_task("OPT-13B", "S", max_encode_batch=128).simulator
    result = _replay(clock, simulator, POOL_REPLAY_CONFIG, 2048, repetitions=5)
    adjuster = DynamicWorkloadAdjuster.for_schedule(simulator, POOL_REPLAY_CONFIG)
    result["decode_pool_target"] = int(round(adjuster.target_decode_batch))
    return result


def bench_sweep_1m(
    clock: Clock, requests: int = 1_000_000, replicas: int = 16
) -> dict:
    """A million-request JSQ fleet serve, timed, then served again under
    ``tracemalloc`` for the bytes per request a warm serve allocates."""
    from repro.engine.pool import RequestPool
    from repro.serving.fleet import Fleet
    from repro.serving.online import ExeGPTOnlineServer
    from repro.workloads.arrivals import PoissonProcess
    from repro.workloads.synthetic import sample_correlated_lengths

    engine = ExeGPT.for_task("OPT-13B", "S", max_encode_batch=128)
    inputs, outputs = sample_correlated_lengths(
        engine.input_distribution,
        engine.output_distribution,
        requests,
        0.0,
        np.random.default_rng(7),
    )
    # A TP-maximized single-stage RRA schedule: a handful of engine tasks
    # per cycle, and a large encode batch and decode run amortize the fixed
    # per-cycle cost over thousands of requests, so the wall time measures
    # the serving loop and pool management.
    config = ScheduleConfig(
        policy=SchedulePolicy.RRA,
        encode_batch=2048,
        decode_iterations=128,
        tensor_parallel=TensorParallelConfig(degree=4, num_gpus=4),
    )
    # Just under the fleet's aggregate capacity: queues stay populated
    # without tripping the 4096-deep rejection bound.
    rate = 0.95 * engine.simulator.estimate(config).throughput_seq_per_s * replicas
    pool = RequestPool.from_arrays(
        inputs, outputs, PoissonProcess(rate).arrival_times(requests, seed=3)
    )
    fleet = Fleet.homogeneous(
        ExeGPTOnlineServer(engine.simulator, config, max_queue=4096),
        replicas,
        routing="jsq",
    )
    raw, scaled, result = clock.time(fleet.serve_pool, pool)
    fields = {
        "requests": requests,
        "replicas": replicas,
        "routing": "jsq",
        "rate_qps": rate,
        "sweep_s": raw,
        "sweep_s_scaled": scaled,
        "completed": result.completed,
        "rejected": result.rejected,
        "makespan_s": result.makespan_s,
    }
    del result
    # The pool exists before tracing starts, so it is left out; the peak
    # includes the result the serve returns.
    gc.collect()
    tracemalloc.start()
    try:
        fleet.serve_pool(pool)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    fields["serve_bytes_per_request"] = peak / requests
    return fields


def bench_fleet_capacity(
    clock: Clock,
    num_requests: int = 192,
    replicas: int = 4,
    rates: tuple[float, ...] = (4.0, 8.0, 16.0, 32.0, 64.0),
    slo_bound_s: float = 10.0,
) -> dict:
    """The highest rate of a fleet-wide ladder that one replica and a
    ``replicas``-wide JSQ fleet of it serve within a p99 SLO (simulated
    rates; nothing is timed)."""
    from repro.serving.fleet import Fleet
    from repro.serving.online import ExeGPTOnlineServer
    from repro.workloads.arrivals import PoissonProcess, attach_arrivals

    engine = ExeGPT.for_task("OPT-13B", "S", max_encode_batch=32)
    trace = generate_task_trace(get_task("S"), num_requests=num_requests, seed=0)
    server = ExeGPTOnlineServer(engine.simulator, REPLAY_CONFIG)
    fleet = Fleet.homogeneous(server, replicas, routing="jsq")

    def sustained(result) -> bool:
        return (
            result.completed == result.offered
            and result.latency_percentile(99) <= slo_bound_s
        )

    single_qps = fleet_qps = 0.0
    for rate in rates:
        online = attach_arrivals(trace, PoissonProcess(rate), seed=1)
        if sustained(server.serve(online)):
            single_qps = max(single_qps, rate)
        if sustained(fleet.serve(online).fleet):
            fleet_qps = max(fleet_qps, rate)
    return {
        "replicas": replicas,
        "routing": "jsq",
        "rates": list(rates),
        "slo_bound_s": slo_bound_s,
        "single_qps": single_qps,
        "fleet_qps": fleet_qps,
        "capacity_scaling": fleet_qps / single_qps if single_qps > 0 else float("inf"),
    }


def bench_campaign_fanout(clock: Clock, workers: int = 4) -> dict:
    """A 27-cell campaign serially and fanned out into fresh stores, then
    a resume after deleting a third of the traces, then a warm run."""
    import tempfile

    from repro.campaign.runner import CampaignRunner, execute_cell
    from repro.campaign.spec import CampaignSpec, canonical_json
    from repro.campaign.store import TraceStore

    spec = CampaignSpec.online_grid(
        "bench-fanout",
        models=("OPT-13B",),
        tasks=("S",),
        systems=("exegpt",),
        scenarios=("steady", "bursty", "diurnal"),
        replicas=(1, 2, 4),
        routings=("round-robin", "jsq", "least-outstanding-work"),
        slo_p99_s=15.0,
        per_replica_rates=(2.0, 4.0),
        num_requests=96,
        max_encode_batch=16,
        max_queue=256,
    )
    # Warm the per-process caches (engine profile sweep, schedule search)
    # in the parent: forked workers inherit them, so neither timed run is
    # charged for one-time costs the other skipped.
    execute_cell(spec.cells[0])

    def docs(result) -> dict[str, str]:
        return {
            cell.content_hash(): canonical_json(result.trace_of(cell))
            for cell in spec
        }

    with tempfile.TemporaryDirectory() as tmp:
        serial_s, serial_scaled, serial = clock.time(
            CampaignRunner(store=TraceStore(Path(tmp) / "ser")).run, spec
        )
        store = TraceStore(Path(tmp) / "par")
        parallel_s, parallel_scaled, parallel = clock.time(
            CampaignRunner(store=store, workers=workers).run, spec
        )
        victims = spec.hashes()[::3]
        for cell_hash in victims:
            store.delete(cell_hash)
        runner = CampaignRunner(store=store, workers=workers)
        resume_s, resume_scaled, resumed = clock.time(runner.run, spec)
        warm_s, warm_scaled, warm = clock.time(runner.run, spec)
        reference = docs(serial)
        bit_identical = all(
            docs(run) == reference for run in (parallel, resumed, warm)
        )

    return {
        "cells": len(spec),
        "workers": workers,
        "serial_s": serial_s,
        "serial_s_scaled": serial_scaled,
        "parallel_s": parallel_s,
        "parallel_s_scaled": parallel_scaled,
        "speedup": serial_scaled / parallel_scaled,
        "bit_identical": bit_identical,
        "resume_deleted": len(victims),
        "resume_executed": len(resumed.executed),
        "resume_loaded": len(resumed.loaded),
        "resume_only_missing": (
            sorted(resumed.executed) == sorted(victims) and warm.executed == ()
        ),
        "resume_s": resume_s,
        "resume_s_scaled": resume_scaled,
        "warm_load_s": warm_s,
        "warm_load_s_scaled": warm_scaled,
    }


def bench_pricing_crossover(clock: Clock, reps: int = 2000) -> dict:
    """The scalar and the batched position pricer timed over mixed
    encode/decode plans of 1 to 64 items (raw times: the two run back to
    back at each size)."""
    from repro.engine.execution import (
        KIND_DECODE,
        KIND_ENCODE,
        SMALL_PLAN_ITEMS,
        PlanColumns,
        _price_positions_batched,
        _price_positions_scalar,
    )

    profile = ExeGPT.for_task("OPT-13B", "S", max_encode_batch=128).simulator.profile
    rng = np.random.default_rng(0)
    sizes = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    scalar_us: list[float] = []
    batched_us: list[float] = []
    for n in sizes:
        cols = PlanColumns(n)
        for i in range(n):
            cols.push(
                KIND_DECODE if i % 2 else KIND_ENCODE,
                40, 4, False,
                float(rng.integers(1, 64)),
                float(rng.integers(8, 512)),
            )
        # Each timed call does what ``price_columns`` does around the
        # pricer it picks: allocate the output, build the positions.
        start = time.perf_counter()
        for _ in range(reps):
            _price_positions_scalar(profile, cols, range(n), 0.0, np.zeros(n))
        scalar_us.append((time.perf_counter() - start) / reps * 1e6)
        start = time.perf_counter()
        for _ in range(reps):
            _price_positions_batched(profile, cols, np.arange(n), 0.0, np.zeros(n))
        batched_us.append((time.perf_counter() - start) / reps * 1e6)
    return {
        "sizes": sizes,
        "scalar_us": scalar_us,
        "batched_us": batched_us,
        "measured_crossover": next(
            (n for n, s, b in zip(sizes, scalar_us, batched_us) if b <= s),
            sizes[-1],
        ),
        "configured_small_plan_items": SMALL_PLAN_ITEMS,
    }


SERIES = {
    "estimate": bench_estimate,
    "search": bench_search,
    "replay": bench_replay,
    "replay_pool": bench_replay_pool,
    "sweep_1m": bench_sweep_1m,
    "fleet_capacity": bench_fleet_capacity,
    "campaign_fanout": bench_campaign_fanout,
    "pricing_crossover": bench_pricing_crossover,
}


def run_series() -> dict[str, dict]:
    """Every series in registry order, each printed as it completes."""
    clock = Clock()
    results = {}
    for name, bench in SERIES.items():
        results[name] = bench(clock)
        print(f"{name}: {json.dumps(results[name])}", flush=True)
    return results


# Linux carries a process's peak RSS into the children it forks, through
# their exec, so a run started from this process would report this
# process's peak (314 MB after the sweep) as its ``peak_rss_mb``.  Each
# run is started by a small launcher process instead.
_LAUNCH = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"


def run_perfbench() -> dict[str, dict]:
    """Each ``BENCHMARK.json`` workload at seed 0, once with ``--trace 0``
    and once with ``--trace 1``, each in its own process: the last line
    of every run's output (one JSON object)."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: dict[str, dict] = {}
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, "-c", _LAUNCH,
                 sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", name, "--seed", "0",
                 "--seconds", str(bench["run_seconds"]), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                line = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                raise RuntimeError(
                    f"perfbench {name} --trace {trace} exited {proc.returncode} "
                    f"without a result line:\n{proc.stderr[-2000:]}"
                ) from None
            runs.setdefault(name, {})[f"trace_{trace}"] = line
            print(f"perfbench {name} --trace {trace}: correct={line['correct']}",
                  flush=True)
    return runs


def _git_dirty() -> bool | None:
    """Whether tracked files differ from HEAD (``None`` when git fails).

    A record measured on an uncommitted tree names HEAD -- the parent of
    the change it measures -- as its commit; this flag says so.
    """
    try:
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, cwd=ROOT, timeout=10, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(status.strip())


def write_record(series: dict[str, dict]) -> dict:
    """Run the perfbench workloads, append one record to
    ``BENCH_search.json`` and render it into README.md."""
    facts = _perfbench().host_facts()
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_sha": facts.pop("git"),
        "dirty": _git_dirty(),
        "host": facts,
        **series,
        "perfbench": run_perfbench(),
    }
    doc = json.loads(BENCH_PATH.read_text())
    doc["trajectory"].append(record)
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    write_readme(record)
    return record


def latest_record() -> dict:
    """The last record of the committed trajectory."""
    return json.loads(BENCH_PATH.read_text())["trajectory"][-1]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return f"{value:,}"
    if isinstance(value, float):
        return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"
    if isinstance(value, list):
        return " / ".join(_fmt(v) for v in value)
    return str(value)


def render(record: dict) -> str:
    """The README block of a record: the perfbench end-to-end table, the
    top five self times per workload, and every harness series."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    runs = record["perfbench"]
    host = record["host"]
    dirty = " plus uncommitted changes" if record["dirty"] else ""
    lines = [
        f"Record of {record['timestamp']}: commit `{record['git_sha'][:8]}`"
        f"{dirty}, {host['nproc']} CPUs, Python {host['python']}, "
        f"numpy {host['numpy']}.",
        "",
        f"End to end (`perfbench/run.py --seed 0 --seconds "
        f"{bench['run_seconds']} --trace 0`, scaled to the reference host "
        "speed):",
        "",
        "| workload | correct | failed / attempted | "
        + " | ".join(metrics) + " |",
        "|---" * (len(metrics) + 3) + "|",
    ]
    for name in names:
        line = runs[name]["trace_0"]
        values = [
            f"{_fmt(line['metrics'][m]['value'])} {line['metrics'][m]['unit']}"
            for m in metrics
        ]
        lines.append(
            f"| `{name}` | {_fmt(line['correct'])} | "
            f"{line['failed']:,} / {line['attempted']:,} | "
            + " | ".join(values) + " |"
        )
    lines += [
        "",
        "Top five self times per op (`--trace 1`; an op is one serve, or "
        "one pass of the 60 queries for `schedule_search`):",
        "",
        "| workload | 1st | 2nd | 3rd | 4th | 5th |",
        "|---|---|---|---|---|---|",
    ]
    for name in names:
        measured = runs[name]["trace_1"]["metrics"]
        top = sorted(
            ((m["value"], key) for key, m in measured.items()
             if key.endswith("self_s") and m["value"] > 0),
            reverse=True,
        )[:5]
        cells = [
            f"`{key.removesuffix('self_s').rstrip('._')}` {value:.3g} s"
            for value, key in top
        ] + ["—"] * (5 - len(top))
        lines.append(f"| `{name}` | " + " | ".join(cells) + " |")
    lines += ["", "Harness series (`<field>_scaled`: at the reference host speed):", ""]
    for name in SERIES:
        fields = ", ".join(f"{k} {_fmt(v)}" for k, v in record[name].items())
        lines.append(f"- `{name}`: {fields}")
    return "\n".join(lines)


def readme_block() -> str:
    """The text between the README markers."""
    text = README_PATH.read_text()
    start = text.index(README_BEGIN) + len(README_BEGIN)
    return text[start:text.index(README_END)].strip("\n")


def write_readme(record: dict) -> None:
    """Replace the README block with the render of ``record``."""
    text = README_PATH.read_text()
    head = text[: text.index(README_BEGIN) + len(README_BEGIN)]
    tail = text[text.index(README_END):]
    README_PATH.write_text(f"{head}\n{render(record)}\n{tail}")


def main() -> None:
    """Run every series and the perfbench workloads, append the record to
    ``BENCH_search.json`` and render it into README.md."""
    write_record(run_series())
    print(f"appended a record to {BENCH_PATH} and rendered it into {README_PATH}")


if __name__ == "__main__":
    main()
