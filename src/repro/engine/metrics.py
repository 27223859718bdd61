"""Execution metrics: per-request latencies and aggregate throughput.

These are the quantities the paper's figures report: throughput in completed
sequences per second (Figures 6-8, 10; Table 6), latency percentiles against
the bound (Figure 11), per-stage execution-time variance (Table 7), and
per-GPU memory use (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RunResult:
    """Measured outcome of executing a trace under some schedule.

    Attributes:
        system: Name of the executing system ("exegpt-rra", "ft", ...).
        makespan_s: Wall-clock time from start to last completion.
        num_requests: Requests completed.
        total_generated_tokens: Tokens generated across all requests.
        latencies_s: Per-request end-to-end latencies (encode start to last
            token), in trace-request order.
        completion_times_s: Per-request completion timestamps, in the same
            order; used for steady-state throughput windows.
        warmup_requests: Number of leading requests admitted during the
            initial pool fill; latency statistics can exclude them.
        stage_utilization: Busy fraction per pipeline stage.
        stage_times: Raw per-execution stage durations, keyed by phase
            ("encode"/"decode"), for the Table 7 variance analysis.
        peak_memory_gib: Peak per-stage memory use in GiB (stage id -> GiB),
            when the driver tracks it.
        extra: Free-form additional measurements.
    """

    system: str
    makespan_s: float
    num_requests: int
    total_generated_tokens: int
    latencies_s: tuple[float, ...]
    completion_times_s: tuple[float, ...] = ()
    output_lengths: tuple[int, ...] = ()
    warmup_requests: int = 0
    stage_utilization: dict[object, float] = field(default_factory=dict)
    stage_times: dict[str, tuple[float, ...]] = field(default_factory=dict)
    peak_memory_gib: dict[object, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    # -- throughput ---------------------------------------------------------------

    @property
    def throughput_seq_per_s(self) -> float:
        """Completed sequences per second."""
        if self.makespan_s <= 0:
            return 0.0
        return self.num_requests / self.makespan_s

    @property
    def throughput_tokens_per_s(self) -> float:
        """Generated tokens per second."""
        if self.makespan_s <= 0:
            return 0.0
        return self.total_generated_tokens / self.makespan_s

    def steady_state_throughput(self, trim: float = 0.1) -> float:
        """Sequences per second over the central completion window.

        Finite traces spend a sizeable fraction of their makespan filling and
        draining the standing decode batch; trimming the first and last
        ``trim`` fraction of completions measures the steady-state rate the
        paper's long-running experiments observe.  Falls back to the overall
        throughput for very small traces.
        """
        if not 0 <= trim < 0.5:
            raise ValueError("trim must be in [0, 0.5)")
        times = np.sort(np.asarray(self.completion_times_s, dtype=float))
        if times.size < 10 or trim == 0:
            return self.throughput_seq_per_s
        lo = int(times.size * trim)
        hi = int(times.size * (1.0 - trim)) - 1
        if hi <= lo or times[hi] <= times[lo]:
            return self.throughput_seq_per_s
        window = times[hi] - times[lo]
        if window < 0.2 * self.makespan_s:
            # Completions are bunched (the whole trace fit into one standing
            # batch); the trimmed window is not representative, fall back to
            # the overall rate.
            return self.throughput_seq_per_s
        return (hi - lo) / window

    # -- latency ---------------------------------------------------------------------

    def latency_percentile(self, q: float, skip_warmup: bool = False) -> float:
        """Latency at percentile ``q`` (in [0, 100]).

        With ``skip_warmup`` the leading ``warmup_requests`` requests (the
        initial pool fill, whose encode phases are atypically large) are
        excluded, mirroring steady-state measurement.
        """
        if not self.latencies_s:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        values = np.asarray(self.latencies_s)
        if skip_warmup and 0 < self.warmup_requests < len(values):
            values = values[self.warmup_requests:]
        return float(np.percentile(values, q))

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile request latency."""
        return self.latency_percentile(99.0)

    @property
    def mean_latency_s(self) -> float:
        """Mean request latency."""
        if not self.latencies_s:
            return 0.0
        return float(np.mean(self.latencies_s))

    @property
    def max_latency_s(self) -> float:
        """Worst-case request latency."""
        if not self.latencies_s:
            return 0.0
        return float(np.max(self.latencies_s))

    def reference_length_latency(self, target_length: int) -> float:
        """Worst latency among requests of at most ``target_length`` tokens.

        This is the SLA-(b) measurement of the paper: the latency bound
        applies to generating a sequence of a pre-specified (99th-percentile)
        length, so only requests up to that length are held against it.
        Warm-up requests are excluded.  Falls back to the skip-warmup p99
        when per-request lengths were not recorded.
        """
        if target_length < 1:
            raise ValueError("target_length must be >= 1")
        if not self.output_lengths or len(self.output_lengths) != len(self.latencies_s):
            return self.latency_percentile(99.0, skip_warmup=True)
        latencies = np.asarray(self.latencies_s)
        lengths = np.asarray(self.output_lengths)
        start = self.warmup_requests if 0 < self.warmup_requests < len(latencies) else 0
        latencies = latencies[start:]
        lengths = lengths[start:]
        mask = lengths <= target_length
        if not np.any(mask):
            return self.latency_percentile(99.0, skip_warmup=True)
        return float(np.max(latencies[mask]))

    # -- stage-time variance (Table 7) ------------------------------------------------

    def stage_time_stats(self, phase: str) -> dict[str, float]:
        """Mean and 99th-percentile half-range of a phase's stage times.

        Returns a dict with ``mean``, ``p99_range`` (half-width of the
        central 99% interval) and ``p99_range_pct`` (the same as a percentage
        of the mean), matching the format of Table 7.
        """
        times = np.asarray(self.stage_times.get(phase, ()), dtype=float)
        if times.size == 0:
            return {"mean": 0.0, "p99_range": 0.0, "p99_range_pct": 0.0}
        mean = float(times.mean())
        lo, hi = np.percentile(times, [0.5, 99.5])
        half_range = float((hi - lo) / 2.0)
        pct = 100.0 * half_range / mean if mean > 0 else 0.0
        return {"mean": mean, "p99_range": half_range, "p99_range_pct": pct}


def collect_pool_result(
    system: str,
    pool,
    ids,
    makespan_s: float,
    stage_utilization: dict[object, float] | None = None,
    stage_times: dict[str, list[float]] | None = None,
    peak_memory_gib: dict[object, float] | None = None,
    extra: dict[str, float] | None = None,
    warmup_requests: int = 0,
) -> RunResult:
    """Assemble a :class:`RunResult` from a request pool's columns.

    Latencies, completion times and output lengths come out of the pool
    in one vectorized pass (``pool.completion_arrays``).

    Raises:
        ValueError: if any request is unfinished or missing timestamps.
    """
    latencies, completions, lengths, tokens = pool.completion_arrays(ids)
    return RunResult(
        system=system,
        makespan_s=makespan_s,
        num_requests=int(ids.size),
        total_generated_tokens=tokens,
        latencies_s=tuple(latencies.tolist()),
        completion_times_s=tuple(completions.tolist()),
        output_lengths=tuple(lengths.tolist()),
        warmup_requests=max(int(warmup_requests), 0),
        stage_utilization=dict(stage_utilization or {}),
        stage_times={k: tuple(v) for k, v in (stage_times or {}).items()},
        peak_memory_gib=dict(peak_memory_gib or {}),
        extra=dict(extra or {}),
    )
