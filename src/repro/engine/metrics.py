"""Execution metrics: per-request latencies and aggregate throughput.

These are the quantities the paper's figures report: throughput in completed
sequences per second (Figures 6-8, 10; Table 6), latency percentiles against
the bound (Figure 11), per-stage execution-time variance (Table 7), and
per-GPU memory use (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.pool import scatter_last


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
        output_lengths: Per-request output lengths, in the same order; the
            SLA-(b) measure reads them.
        warmup_requests: Number of leading requests admitted during the
            initial pool fill; latency statistics can exclude them.
        stage_utilization: Busy fraction per pipeline stage.
        stage_times: Stage durations keyed by phase ("encode"/"decode"):
            the durations of the timeline's tasks with that tag, in task
            order, for the Table 7 variance analysis.
        peak_memory_gib: Peak per-stage memory use in GiB (stage id -> GiB),
            when the driver tracks it.
        extra: Free-form additional measurements.
    """

    system: str
    makespan_s: float
    num_requests: int
    total_generated_tokens: int
    latencies_s: np.ndarray
    completion_times_s: np.ndarray = ()
    output_lengths: np.ndarray = ()
    warmup_requests: int = 0
    stage_utilization: dict[object, float] = field(default_factory=dict)
    stage_times: dict[str, np.ndarray] = field(default_factory=dict)
    peak_memory_gib: dict[object, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The per-request columns are arrays (no copy when they already are).
        for name, dtype in (
            ("latencies_s", float),
            ("completion_times_s", float),
            ("output_lengths", np.int64),
        ):
            column = np.asarray(getattr(self, name), dtype=dtype)
            object.__setattr__(self, name, column)

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
        times = np.sort(self.completion_times_s)
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
        if len(self.latencies_s) == 0:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        values = self.latencies_s
        if skip_warmup:
            values = self._after_warmup(values)
        return float(np.percentile(values, q))

    @property
    def p99_latency_s(self) -> float:
        """99th-percentile request latency."""
        return self.latency_percentile(99.0)

    @property
    def mean_latency_s(self) -> float:
        """Mean request latency."""
        if len(self.latencies_s) == 0:
            return 0.0
        return float(np.mean(self.latencies_s))

    @property
    def max_latency_s(self) -> float:
        """Worst-case request latency."""
        if len(self.latencies_s) == 0:
            return 0.0
        return float(np.max(self.latencies_s))

    def reference_length_latency(self, target_length: int) -> float:
        """The SLA-(b) measure (:func:`reference_length_latency`) over the
        requests after the warm-up."""
        return reference_length_latency(
            self._after_warmup(self.latencies_s),
            self._after_warmup(self.output_lengths),
            target_length,
        )

    def _after_warmup(self, column: np.ndarray) -> np.ndarray:
        """``column`` without the leading ``warmup_requests`` rows (all of
        it when the warm-up is empty or covers every request)."""
        if 0 < self.warmup_requests < len(column):
            return column[self.warmup_requests:]
        return column

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


def collect_result(
    system: str,
    engine,
    peak_memory_gib: dict[object, float] | None = None,
    extra: dict[str, float] | None = None,
    warmup_requests: int = 0,
) -> RunResult:
    """The :class:`RunResult` of an offline replay: every request of the
    engine's pool, in pool order.

    Runs the engine's timeline and reads the rest from it: makespan, stage
    utilization, the ``"encode"`` and ``"decode"`` stage times
    (:meth:`~repro.engine.timeline.Timeline.durations`), and each request's
    encode start and finish, scattered into fresh columns from the same
    ``(event, ids, times)`` triples of
    :meth:`~repro.engine.execution.Bookkeeping.resolve_events` that the
    online server resolves into its records.

    Raises:
        ValueError: if any request is unfinished or missing timestamps.
    """
    timeline = engine.timeline
    pool = engine.pool
    timeline.run()
    start = np.full(pool.size, -1.0)
    finish = np.full(pool.size, -1.0)
    columns = {"admitted": start, "finish": finish}
    for event, ids, when in engine.bookkeeping.resolve_events(timeline):
        if event in columns and ids.size:
            scatter_last(columns[event], ids, when)
    ids = pool.ids()
    bad = ~pool.done_mask(ids) | (finish < 0)
    if np.any(bad):
        culprit = pool.request_id_of(int(ids[bad][0]))
        raise ValueError(
            f"request {culprit} did not complete; cannot collect metrics"
        )
    latencies = finish - start
    invalid = (start < 0) | np.isnan(latencies)
    if np.any(invalid):
        culprit = pool.request_id_of(int(ids[invalid][0]))
        raise ValueError(f"request {culprit} has invalid latency")
    # Every request is done, so it generated exactly its output length.
    lengths = pool.output_lens(ids)
    return RunResult(
        system=system,
        makespan_s=timeline.makespan_s,
        num_requests=int(ids.size),
        total_generated_tokens=int(lengths.sum()),
        latencies_s=latencies,
        completion_times_s=finish,
        output_lengths=lengths,
        warmup_requests=max(int(warmup_requests), 0),
        stage_utilization=timeline.stage_utilization(),
        stage_times={
            phase: timeline.durations(phase) for phase in ("encode", "decode")
        },
        peak_memory_gib=dict(peak_memory_gib or {}),
        extra=dict(extra or {}),
    )


def reference_length_latency(
    latencies_s: np.ndarray, output_lengths: np.ndarray, target_length: int
) -> float:
    """The paper's SLA-(b) measure (Section 7.6) over one latency column.

    The bound is set for generating a sequence of a pre-specified length,
    so the measure is the worst latency among requests of at most
    ``target_length`` output tokens; the column's p99 when no request is
    that short, and 0 for an empty column.  ``output_lengths`` holds the
    same requests' output lengths, row for row.
    """
    if target_length < 1:
        raise ValueError("target_length must be >= 1")
    if len(output_lengths) != len(latencies_s):
        raise ValueError("output_lengths must have one row per latency")
    if len(latencies_s) == 0:
        return 0.0
    short = output_lengths <= target_length
    if not short.any():
        return float(np.percentile(latencies_s, 99.0))
    return float(latencies_s[short].max())
