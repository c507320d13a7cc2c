"""Monte-Carlo variation analysis.

The paper motivates thermal tuning by the MRRs' sensitivity to
fabrication and environmental variation; the Monte-Carlo engine
quantifies that: it draws perturbation samples (ring trim residuals,
responsivity mismatch, reference-ladder errors), rebuilds a system per
sample via a user factory and aggregates a metric into yield numbers.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


@dataclass(frozen=True)
class SummaryStatistics:
    """Aggregate view of a Monte-Carlo metric."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float
    percentile_5: float
    percentile_95: float

    @classmethod
    def from_samples(cls, samples) -> "SummaryStatistics":
        values = np.asarray(samples, dtype=float)
        if values.size == 0:
            raise ConfigurationError("cannot summarize zero samples")
        return cls(
            count=int(values.size),
            mean=float(values.mean()),
            std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
            minimum=float(values.min()),
            maximum=float(values.max()),
            percentile_5=float(np.percentile(values, 5)),
            percentile_95=float(np.percentile(values, 95)),
        )


class MonteCarlo:
    """Seeded Monte-Carlo runner."""

    def __init__(self, seed: int = 12345) -> None:
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def normal(self, sigma: float, size=None, rng: np.random.Generator | None = None):
        """Zero-mean normal perturbation samples.

        ``rng`` draws from an explicit generator instead of this
        runner's evolving stream, so a call site can be replayed
        bit-for-bit regardless of draws made before it.
        """
        if sigma < 0.0:
            raise ConfigurationError(f"sigma must be non-negative, got {sigma}")
        source = self._rng if rng is None else rng
        return source.normal(0.0, sigma, size=size)

    def run(
        self,
        build_and_measure: Callable[[np.random.Generator], float],
        trials: int,
        seed: int | None = None,
    ) -> list[float]:
        """Run ``trials`` independent builds; returns the metric samples.

        ``build_and_measure`` receives a per-trial child generator so
        each trial's randomness is independent yet reproducible.  By
        default the children spawn from this runner's evolving stream
        (two same-seed runners replay identically call for call);
        ``seed`` instead derives them from a fresh generator, pinning
        *this* call's draws bit-for-bit no matter what ran before it —
        the same explicit-``--seed`` convention the serve benches
        use.
        """
        if trials < 1:
            raise ConfigurationError(f"need at least one trial, got {trials}")
        source = self._rng if seed is None else np.random.default_rng(seed)
        children = source.spawn(trials)
        return [float(build_and_measure(child)) for child in children]

    def yield_fraction(
        self,
        samples,
        passes: Callable[[float], bool],
    ) -> float:
        """Fraction of samples satisfying the pass predicate."""
        samples = list(samples)
        if not samples:
            raise ConfigurationError("cannot compute yield of zero samples")
        passed = sum(1 for sample in samples if passes(sample))
        return passed / len(samples)

    def confidence_interval_95(self, yield_fraction: float, trials: int) -> tuple[float, float]:
        """Normal-approximation 95% CI for a yield estimate."""
        if not 0.0 <= yield_fraction <= 1.0:
            raise ConfigurationError("yield must be in [0, 1]")
        if trials < 1:
            raise ConfigurationError("need at least one trial")
        half = 1.96 * math.sqrt(max(yield_fraction * (1.0 - yield_fraction), 0.0) / trials)
        return (max(0.0, yield_fraction - half), min(1.0, yield_fraction + half))
