"""Sequence-length distributions and completion-probability math.

Two things live here:

1. :class:`SequenceDistribution` -- the probability distribution of input or
   output sequence lengths.  The paper found a truncated normal (truncated
   below zero) to best match public NLP datasets, and additionally uses skew
   normal variants for the sensitivity study of Section 7.6 and empirical
   distributions for the real-dataset experiments of Section 7.5.

2. The probabilistic analysis of Section 6: given the output-length
   distribution ``P_D(S)`` and the encoding frequency ``N_D`` of RRA
   scheduling, compute ``P_D(U)`` -- the probability that a query finishes
   decoding at the ``U``-th iteration after the most recent encoding phase --
   and the fraction of a decode batch still alive at each iteration.  The
   simulator's :class:`~repro.core.simulator.EstimateContext` derives the
   steady-state decoder batch ``B_D = B_E / sum_U P_D(U)`` from them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats


def _normalise(probabilities: np.ndarray) -> np.ndarray:
    total = float(probabilities.sum())
    if total <= 0:
        raise ValueError("distribution has no probability mass")
    return probabilities / total


@dataclass(frozen=True)
class SequenceDistribution:
    """Discrete distribution over positive integer sequence lengths.

    Instances are immutable and carry the full probability mass function on
    ``1..max_len``, so every statistic the scheduler needs (mean, percentile,
    completion probabilities) is an exact sum rather than a Monte-Carlo
    estimate.

    Attributes:
        lengths: Sorted array of support points (positive integers).
        probabilities: Probability of each support point; sums to one.
        name: Optional label, e.g. ``"summarization-output"``.
    """

    lengths: np.ndarray
    probabilities: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        lengths = np.asarray(self.lengths, dtype=np.int64)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        if lengths.ndim != 1 or probs.ndim != 1:
            raise ValueError("lengths and probabilities must be 1-D")
        if lengths.shape != probs.shape:
            raise ValueError("lengths and probabilities must have equal length")
        if lengths.size == 0:
            raise ValueError("distribution must have at least one support point")
        if np.any(lengths <= 0):
            raise ValueError("sequence lengths must be positive")
        if np.any(np.diff(lengths) <= 0):
            raise ValueError("lengths must be strictly increasing")
        if np.any(probs < 0):
            raise ValueError("probabilities must be non-negative")
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "probabilities", _normalise(probs))
        # Memo for percentile() lookups; the instance is immutable, so every
        # statistic can be computed once (the scheduler's hot loop queries
        # mean/percentile on every estimate otherwise).
        object.__setattr__(self, "_percentile_memo", {})
        object.__setattr__(self, "_cdf", None)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def truncated_normal(
        cls,
        mean: float,
        std: float,
        max_len: int,
        min_len: int = 1,
        name: str = "",
    ) -> "SequenceDistribution":
        """Normal distribution truncated to ``[min_len, max_len]`` and discretised.

        This is the distribution family the paper uses for the synthetic
        workloads (Section 7.1).
        """
        if std <= 0:
            raise ValueError("std must be positive")
        if max_len < min_len or min_len < 1:
            raise ValueError("need 1 <= min_len <= max_len")
        lengths = np.arange(min_len, max_len + 1)
        density = stats.norm.pdf(lengths, loc=mean, scale=std)
        if density.sum() <= 0:
            # Mean far outside the window; fall back to the nearest endpoint.
            density = np.zeros_like(density)
            density[np.argmin(np.abs(lengths - mean))] = 1.0
        return cls(lengths=lengths, probabilities=density, name=name)

    @classmethod
    def skew_normal(
        cls,
        mean: float,
        std: float,
        skewness: float,
        max_len: int,
        min_len: int = 1,
        name: str = "",
    ) -> "SequenceDistribution":
        """Skew-normal distribution with the requested mean/std/skewness.

        Used by the Section 7.6 sensitivity study, which varies the skewness
        in (-1, 1) while keeping mean and standard deviation fixed.  The
        shape parameter ``alpha`` is recovered from the target skewness and
        the location/scale are adjusted so the first two moments match.
        """
        if std <= 0:
            raise ValueError("std must be positive")
        if not -1.0 < skewness < 1.0:
            raise ValueError("skewness of a skew normal is limited to (-1, 1)")
        if abs(skewness) < 1e-12:
            return cls.truncated_normal(mean, std, max_len, min_len, name)
        # Solve for delta from |skewness| using the standard skew-normal moment
        # formula, then recover alpha = delta / sqrt(1 - delta^2).
        abs_skew = abs(skewness)
        num = (2.0 * abs_skew / (4.0 - math.pi)) ** (1.0 / 3.0)
        delta = math.copysign(
            num / math.sqrt(2.0 / math.pi * (1.0 + num ** 2)), skewness
        )
        delta = max(min(delta, 0.999), -0.999)
        alpha = delta / math.sqrt(1.0 - delta ** 2)
        # Match mean and std: X = loc + scale * Z, Z ~ SkewNormal(alpha).
        z_mean = math.sqrt(2.0 / math.pi) * delta
        z_std = math.sqrt(1.0 - z_mean ** 2)
        scale = std / z_std
        loc = mean - scale * z_mean
        lengths = np.arange(min_len, max_len + 1)
        density = stats.skewnorm.pdf(lengths, a=alpha, loc=loc, scale=scale)
        if density.sum() <= 0:
            density = np.zeros_like(density, dtype=float)
            density[np.argmin(np.abs(lengths - mean))] = 1.0
        return cls(lengths=lengths, probabilities=density, name=name)

    @classmethod
    def empirical(
        cls, samples: np.ndarray | list[int], name: str = ""
    ) -> "SequenceDistribution":
        """Empirical distribution from observed sequence lengths.

        This is how a deployment would feed observed service statistics into
        the scheduler, and how the real-dataset experiments (Section 7.5)
        estimate the distribution from 10% of the dataset.
        """
        arr = np.asarray(samples, dtype=np.int64)
        if arr.size == 0:
            raise ValueError("samples must be non-empty")
        arr = np.clip(arr, 1, None)
        values, counts = np.unique(arr, return_counts=True)
        return cls(lengths=values, probabilities=counts.astype(float), name=name)

    @classmethod
    def constant(cls, length: int, name: str = "") -> "SequenceDistribution":
        """Point mass at a single length (useful in tests)."""
        if length < 1:
            raise ValueError("length must be >= 1")
        return cls(
            lengths=np.array([length]), probabilities=np.array([1.0]), name=name
        )

    # -- statistics ------------------------------------------------------------
    #
    # All statistics are cached: instances are immutable, and the scheduler's
    # hot loop reads mean/std/percentile on every single estimate.

    @functools.cached_property
    def mean(self) -> float:
        """Expected sequence length."""
        return float(np.dot(self.lengths, self.probabilities))

    @functools.cached_property
    def std(self) -> float:
        """Standard deviation of the sequence length."""
        mean = self.mean
        var = float(np.dot((self.lengths - mean) ** 2, self.probabilities))
        return math.sqrt(max(var, 0.0))

    @functools.cached_property
    def max_len(self) -> int:
        """Largest length in the support."""
        return int(self.lengths[-1])

    @functools.cached_property
    def min_len(self) -> int:
        """Smallest length in the support."""
        return int(self.lengths[0])

    def percentile(self, q: float) -> int:
        """Smallest length whose CDF reaches ``q`` (``q`` in [0, 100])."""
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        memo = self._percentile_memo
        if q in memo:
            return memo[q]
        if self._cdf is None:
            object.__setattr__(self, "_cdf", np.cumsum(self.probabilities))
        idx = int(np.searchsorted(self._cdf, q / 100.0, side="left"))
        idx = min(idx, len(self.lengths) - 1)
        value = int(self.lengths[idx])
        memo[q] = value
        return value

    def pmf(self, length: int) -> float:
        """Probability of exactly ``length``."""
        idx = np.searchsorted(self.lengths, length)
        if idx < len(self.lengths) and self.lengths[idx] == length:
            return float(self.probabilities[idx])
        return 0.0

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` lengths i.i.d. from the distribution."""
        if size < 0:
            raise ValueError("size must be non-negative")
        return rng.choice(self.lengths, size=size, p=self.probabilities)

    def scaled_mean(self, factor: float, name: str = "") -> "SequenceDistribution":
        """A copy with the mean scaled by ``factor`` (std preserved).

        Mirrors the Section 7.6 experiment that shifts the average output
        length while keeping the other moments fixed.
        """
        if factor <= 0:
            raise ValueError("factor must be positive")
        new_mean = self.mean * factor
        max_len = max(int(round(self.max_len * max(factor, 1.0))), self.max_len)
        return SequenceDistribution.truncated_normal(
            new_mean, self.std, max_len, name=name or f"{self.name}*mu{factor:g}"
        )

    def scaled_std(self, factor: float, name: str = "") -> "SequenceDistribution":
        """A copy with the standard deviation scaled by ``factor``."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return SequenceDistribution.truncated_normal(
            self.mean,
            max(self.std * factor, 1e-6),
            self.max_len,
            name=name or f"{self.name}*sigma{factor:g}",
        )


# --- Section 6: completion probability for RRA scheduling ---------------------


def completion_probability(
    output_dist: SequenceDistribution, num_decode_iterations: int
) -> np.ndarray:
    """``P_D(U)`` for ``U = 1..N_D`` under RRA scheduling.

    ``P_D(U | S)`` is 1 at ``U = S`` when ``S <= N_D`` (the query finishes in
    the first decoding phase after its encoding), and ``1 / ceil(S / N_D)``
    at ``U = 1 + ((S - 1) mod N_D)`` when ``S > N_D`` (the query finishes in
    one specific iteration of one of its ``ceil(S / N_D)`` decoding phases,
    each phase being equally likely to be "the one" observed at steady state).

    Returns:
        Array of length ``num_decode_iterations`` where entry ``U-1`` is
        ``P_D(U) = sum_S P_D(U | S) P_D(S)``.  The entries sum to the
        expected fraction of an in-flight batch that completes per decoding
        phase, which is at most one and strictly less than one whenever some
        outputs are longer than ``N_D``.
    """
    if num_decode_iterations < 1:
        raise ValueError("num_decode_iterations must be >= 1")
    n_d = num_decode_iterations
    lengths = output_dist.lengths
    probs = output_dist.probabilities
    short = lengths <= n_d
    iteration = np.where(short, lengths, 1 + (lengths - 1) % n_d)
    share = np.where(short, probs, probs / np.ceil(lengths / n_d))
    # np.add.at is unbuffered and adds in support order, so every entry is
    # the same left-to-right sum a per-length loop would build.
    p_u = np.zeros(n_d, dtype=np.float64)
    np.add.at(p_u, iteration - 1, share)
    return p_u


def surviving_fraction(p_u: np.ndarray) -> np.ndarray:
    """Fraction of a decode batch still alive at each iteration of a phase.

    Entry ``U-1`` is ``1 - sum_{V < U} P_D(V)``, subtracted in order and
    clamped at zero: queries that complete at iteration ``V`` are
    early-terminated and no longer occupy a batch slot afterwards.
    ``p_u`` is :func:`completion_probability`'s array.
    """
    steps = np.empty(p_u.size, dtype=np.float64)
    steps[:1] = 1.0
    steps[1:] = p_u[:-1]
    # A sequential subtraction: once the running value is not positive it
    # only falls, so clamping the whole run equals clamping each step.
    return np.maximum(np.subtract.accumulate(steps), 0.0)


def average_context_length(
    input_dist: SequenceDistribution,
    output_dist: SequenceDistribution,
    decoder_only: bool,
) -> float:
    """Average attention context per decode step at steady state.

    A request that eventually generates ``S`` tokens spends ``S`` steps in
    the decoder, and at a uniformly random observation step has generated
    about ``S / 2`` tokens; weighting by residence time (length-biased
    sampling) gives ``E[S^2] / (2 E[S])`` generated tokens on average.  For
    decoder-only models the cached input tokens (length-biased as well) are
    part of the context too.
    """
    out_mean = output_dist.mean
    out_sq = float(np.dot(output_dist.lengths.astype(float) ** 2, output_dist.probabilities))
    generated = out_sq / (2.0 * out_mean) if out_mean > 0 else 0.0
    if not decoder_only:
        return generated
    # Inputs of requests currently decoding are length-biased by output length
    # only if correlated; the paper assumes independence, so use the plain mean.
    return generated + input_dist.mean
