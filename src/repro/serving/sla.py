"""Service-level agreements for inference latency (Section 7.6).

The paper introduces two SLA styles because no provider publishes explicit
latency SLAs:

* **SLA-(a)** -- 99% of all queries must complete within the bound.
* **SLA-(b)** -- a query generating a pre-specified length (typically the
  99th-percentile output length) must complete within the bound.

Both are evaluated against a result's own latency column: an offline
:class:`~repro.engine.metrics.RunResult` or an online
:class:`~repro.serving.online.OnlineResult`, whose latencies are end to end
(arrival to completion).  SLA-(b) is
:func:`~repro.engine.metrics.reference_length_latency` on either.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from repro.core.config import require_count

if TYPE_CHECKING:
    from repro.engine.metrics import RunResult
    from repro.serving.online import OnlineResult


class SLAKind(str, Enum):
    """Which latency statistic the SLA constrains."""

    QUERY_PERCENTILE = "sla-a"
    REFERENCE_LENGTH = "sla-b"


@dataclass(frozen=True)
class SLA:
    """A latency service-level agreement.

    Attributes:
        kind: SLA-(a) (percentile of all queries) or SLA-(b) (latency of a
            reference-length query).
        bound_s: The latency bound in seconds.
        percentile: Percentile used by SLA-(a).
        reference_length: Output length of SLA-(b)'s reference query
            (required for SLA-(b), an integer >= 1): only requests of at
            most this many output tokens are held against the bound.
    """

    kind: SLAKind
    bound_s: float
    percentile: float = 99.0
    reference_length: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", SLAKind(self.kind))
        if self.bound_s <= 0:
            raise ValueError("bound_s must be positive")
        if not 0 < self.percentile <= 100:
            raise ValueError("percentile must be in (0, 100]")
        if self.kind is SLAKind.REFERENCE_LENGTH:
            require_count("reference_length", self.reference_length)

    def satisfied(self, result: RunResult | OnlineResult) -> bool:
        """Whether a measured run satisfies the SLA."""
        return self.violation(result) <= 0.0

    def violation(self, result: RunResult | OnlineResult) -> float:
        """Seconds by which the run misses the SLA (<= 0 means satisfied)."""
        return self.observed_latency(result) - self.bound_s

    def observed_latency(self, result: RunResult | OnlineResult) -> float:
        """The latency statistic the SLA is evaluated against."""
        if self.kind is SLAKind.QUERY_PERCENTILE:
            return result.latency_percentile(self.percentile)
        return result.reference_length_latency(self.reference_length)

    def required_margin(self, result: RunResult | OnlineResult) -> float:
        """Fraction by which the bound must tighten for the run to comply.

        Used in Section 7.6 to report, e.g., "a 13% tighter latency
        constraint is required when the average length grows by 15%".
        """
        observed = self.observed_latency(result)
        if observed <= self.bound_s:
            return 0.0
        return (observed - self.bound_s) / observed
