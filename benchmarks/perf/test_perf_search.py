"""Perf-regression tests: the harness series, and the committed record.

One module-scoped run of every series in ``harness.SERIES`` produces the
measurements.  The parity and bit-identity checks run everywhere, and so
do the machine-independent bars on the series that record absolute wall
times (every request completes, within a generous wall bound) and the
memory bar of the million-request sweep.  Each same-run wall-clock ratio
(a speedup of a batched or fanned-out path over its reference) is its own
test marked ``ratio``: ratios are machine-independent but still timing
bars, which a shared host can push below any fixed bar for a run, so they
run only when ``-m perf`` is selected, as in the nightly perf job (see
``conftest.py``).  With ``BENCH_RECORD=1`` in the environment (set by that
job) the fixture also runs the perfbench workloads, appends the record to
``BENCH_search.json`` and re-renders README.md, so plain test runs never
touch the committed files.

The record tests read the latest committed record: it must hold every
series' fields, both perfbench runs of every workload, and be what the
README shows.
"""

from __future__ import annotations

import json
import os

import pytest

from harness import (
    ROOT,
    SERIES,
    latest_record,
    readme_block,
    render,
    run_series,
    write_record,
)


@pytest.fixture(scope="module")
def bench_record():
    series = run_series()
    if os.environ.get("BENCH_RECORD") == "1":
        write_record(series)
    return series


def test_estimate_batch_parity(bench_record):
    # Batched estimates equal the scalar oracle's exactly, whatever else is
    # in the call.
    assert bench_record["estimate"]["worst_rel_err"] == 0


@pytest.mark.ratio
def test_estimate_batch_speedup(bench_record):
    # Batched estimation amortizes per-point Python overhead; a vectorized
    # path that degenerated to per-point work would run at ~1x.  The bar
    # was 10x until the scalar reference started sharing the plain-float
    # grid lookups and cached placement views with the batched path: the
    # scalar path sped up ~4x (1.6 -> 0.35 ms per point) and the batched
    # one ~2x, so the ratio fell from 8-17x to 6-10x on a 2-vCPU host
    # while both paths got faster.  4x keeps margin below that.
    assert bench_record["estimate"]["speedup"] >= 4.0


def test_exhaustive_search_finds_optimum(bench_record):
    search = bench_record["search"]
    assert search["space_points"] >= 65536
    assert search["best_throughput_matches"]


@pytest.mark.ratio
def test_exhaustive_search_speedup(bench_record):
    # Acceptance bar: the 65,536-point exhaustive grid must be >= 10x faster
    # than evaluating it through the scalar reference path, extrapolated
    # from the scalar oracle's per-point cost.
    search = bench_record["search"]
    scalar_equiv_s = (
        bench_record["estimate"]["scalar_ms_per_point_scaled"] * 1e-3
        * search["space_points"]
    )
    assert scalar_equiv_s / search["exhaustive_batched_s_scaled"] >= 10.0


@pytest.mark.ratio
def test_branch_and_bound_speedup(bench_record):
    search = bench_record["search"]
    # Branch-and-bound must stay well ahead of grid-evaluating the space.
    assert search["bnb_batched_s_scaled"] < search["exhaustive_batched_s_scaled"] * 2.0


def _replay_wall_s(replay: dict) -> float:
    return replay["us_per_request"] * replay["requests"] * 1e-6


def test_replay_recorded(bench_record):
    replay = bench_record["replay"]
    assert replay["completed"] == replay["requests"]
    # A 512-request replay is tens of milliseconds of work.
    assert 0 < _replay_wall_s(replay) < 60.0


def test_pool_replay_recorded(bench_record):
    pool = bench_record["replay_pool"]
    # The paper-scale RRA replay keeps a decode pool of several hundred.
    assert pool["decode_pool_target"] >= 128
    assert pool["completed"] == pool["requests"]
    assert 0 < _replay_wall_s(pool) < 60.0


def test_sweep_1m(bench_record):
    sweep = bench_record["sweep_1m"]
    # A million-request 16-replica sweep finishes in seconds (sub-minute is
    # the machine-independent regression bar) with every request accounted
    # for.
    assert sweep["requests"] >= 1_000_000
    assert sweep["replicas"] >= 16
    assert sweep["completed"] + sweep["rejected"] == sweep["requests"]
    assert sweep["sweep_s"] < 60.0


def test_sweep_1m_memory(bench_record):
    # A warm serve allocates about 115 B per request at its peak (the
    # pool left out): the fleet result's record columns and assignments.
    # A per-replica copy of the record columns would add 66 B.
    assert bench_record["sweep_1m"]["serve_bytes_per_request"] <= 130.0


def test_fleet_capacity_scaling(bench_record):
    fleet = bench_record["fleet_capacity"]
    # A 4-replica JSQ fleet must sustain a strictly higher fleet-wide rate
    # than one replica of the same server under the same SLO.
    assert fleet["replicas"] >= 4
    assert fleet["single_qps"] > 0
    assert fleet["fleet_qps"] > fleet["single_qps"]


def test_campaign_fanout_parity_and_resume(bench_record):
    campaign = bench_record["campaign_fanout"]
    # The campaign layer's correctness bars are machine-independent: the
    # serial, fanned-out, resumed and warm-loaded runs of the 27-cell grid
    # must hold canonically identical trace documents, and the resume (a
    # third of the trace files deleted) must execute exactly the missing
    # cells -- the final warm run being pure loads.
    assert campaign["cells"] >= 27
    assert campaign["bit_identical"]
    assert campaign["resume_deleted"] == campaign["resume_executed"]
    assert campaign["resume_loaded"] == campaign["cells"] - campaign["resume_deleted"]
    assert campaign["resume_only_missing"]


@pytest.mark.ratio
def test_campaign_fanout_speedup(bench_record):
    if len(os.sched_getaffinity(0)) < 4:
        pytest.skip(
            "campaign fan-out speedup needs >= 4 usable CPUs; "
            f"this machine exposes {len(os.sched_getaffinity(0))}"
        )
    campaign = bench_record["campaign_fanout"]
    # Acceptance bar: 4-worker fan-out of the 27-cell campaign is >= 3x
    # faster than the serial run (the cells are independent simulations;
    # anything below 3x on 4 CPUs means pickling or cache rebuilds are
    # eating the parallelism).
    assert campaign["workers"] >= 4
    assert campaign["speedup"] >= 3.0


@pytest.mark.ratio
def test_pricing_crossover_bracket(bench_record):
    pricing = bench_record["pricing_crossover"]
    # The crossover micro-bench must actually bracket the shipped constant:
    # tiny plans stay scalar, large plans go batched, and the measured
    # crossover lands within the swept sizes.
    assert pricing["scalar_us"][0] < pricing["batched_us"][0]
    assert pricing["batched_us"][-1] < pricing["scalar_us"][-1]
    assert pricing["measured_crossover"] in pricing["sizes"]


def test_latest_record_holds_every_series(bench_record):
    # The committed record was taken with the current series: each holds
    # exactly the fields a fresh run returns.
    record = latest_record()
    for name in SERIES:
        assert set(record[name]) == set(bench_record[name]), name
    assert record["git_sha"] == "unknown" or len(record["git_sha"]) == 40


def test_latest_record_holds_every_perfbench_run():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = latest_record()["perfbench"]
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for workload in bench["workloads"]:
        untraced = runs[workload["name"]]["trace_0"]
        traced = runs[workload["name"]]["trace_1"]
        assert untraced["correct"] is True and traced["correct"] is True
        assert untraced["failed"] == 0 and traced["failed"] == 0
        assert end_to_end <= set(untraced["metrics"]), workload["name"]
        assert per_layer <= set(traced["metrics"]), workload["name"]


def test_readme_shows_latest_record():
    # README.md's Performance block is the harness's render of the latest
    # record; `python benchmarks/perf/harness.py` writes both.
    assert readme_block() == render(latest_record())
