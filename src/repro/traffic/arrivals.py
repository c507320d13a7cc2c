"""Composable arrival processes: when do requests reach the front door?

An :class:`ArrivalProcess` turns a request count into a sorted vector
of absolute arrival times on the modelled clock — the open-loop half
of the traffic engine (the *workload* half decides what each arrival
submits; see :mod:`repro.traffic.workload`).  All randomness flows
through the caller-supplied :class:`numpy.random.Generator`, so a
seeded engine replays the same arrival tape bit for bit:

* :class:`Poisson` — memoryless arrivals at a constant mean rate (the
  M in M/D/c); inter-arrival gaps are i.i.d. exponentials.
* :class:`Diurnal` — a sinusoidally-modulated Poisson process (peak /
  trough over a configurable period), sampled by Lewis-Shedler
  thinning against the peak rate.
* :class:`Bursty` — a 2-state Markov-modulated Poisson process
  (MMPP-2): exponential sojourns alternate between a quiet rate and a
  burst rate, the classic on/off model of flash-crowd traffic.
* :class:`Replay` — deterministic fixed-period arrivals (rate with no
  variance), the control arm for A/B-ing policies against the
  stochastic processes.

``scaled(factor)`` returns the same process with every rate multiplied
by ``factor`` — the knob the capacity search turns (see
:mod:`repro.traffic.capacity`).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


def _validated_rate(rate: float, name: str = "rate") -> float:
    if not isinstance(rate, (int, float)) or isinstance(rate, bool):
        raise ConfigurationError(f"{name} must be a number, got {rate!r}")
    if rate <= 0.0 or not np.isfinite(rate):
        raise ConfigurationError(
            f"{name} must be a positive finite rate [req/s], got {rate}"
        )
    return float(rate)


class ArrivalProcess:
    """Base class: a distribution over sorted absolute arrival times.

    Subclasses implement :meth:`times` (drawing from the supplied
    generator only) and :meth:`scaled`; :attr:`mean_rate` is the
    long-run offered load [req/s] the capacity search reports.
    """

    #: Long-run mean offered rate [req/s].
    mean_rate: float = 0.0

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """``n`` sorted absolute arrival times [s], starting after 0."""
        raise NotImplementedError

    def scaled(self, factor: float) -> "ArrivalProcess":
        """The same process with every rate multiplied by ``factor``."""
        raise NotImplementedError

    @staticmethod
    def _validated_count(n: int) -> int:
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise ConfigurationError(
                f"arrival count must be an integer >= 0, got {n!r}"
            )
        return int(n)

    def describe(self) -> str:
        return f"{type(self).__name__.lower()} @ {self.mean_rate:g} req/s"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class Poisson(ArrivalProcess):
    """Memoryless arrivals at a constant mean ``rate`` [req/s]."""

    def __init__(self, rate: float) -> None:
        self.rate = _validated_rate(rate)
        self.mean_rate = self.rate

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._validated_count(n)
        return np.cumsum(rng.exponential(1.0 / self.rate, n))

    def scaled(self, factor: float) -> "Poisson":
        return Poisson(self.rate * _validated_rate(factor, "scale factor"))


class Diurnal(ArrivalProcess):
    """A sinusoidally-modulated Poisson process.

    The instantaneous rate swings between ``trough`` and ``peak`` over
    one ``period`` (default 86400 s — a modelled day, though serving
    benches compress it to milliseconds), starting at the trough:
    ``rate(t) = trough + (peak - trough) * (1 - cos(2 pi t/period))/2``.
    Sampled by thinning a rate-``peak`` Poisson stream, so the output
    is exact (not a piecewise-constant approximation).
    """

    def __init__(
        self, trough: float, peak: float, period: float = 86400.0
    ) -> None:
        self.trough = _validated_rate(trough, "trough rate")
        self.peak = _validated_rate(peak, "peak rate")
        if self.peak < self.trough:
            raise ConfigurationError(
                f"peak rate {peak} must be >= trough rate {trough}"
            )
        self.period = _validated_rate(period, "period")
        self.mean_rate = (self.trough + self.peak) / 2.0

    def _rate_at(self, t: np.ndarray) -> np.ndarray:
        swing = (self.peak - self.trough) / 2.0
        return self.trough + swing * (
            1.0 - np.cos(2.0 * np.pi * t / self.period)
        )

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._validated_count(n)
        accepted: list[np.ndarray] = []
        total = 0
        t = 0.0
        # Lewis-Shedler thinning in vectorized chunks: candidates at
        # the peak rate, kept with probability rate(t)/peak.
        chunk = max(2 * n, 64)
        while total < n:
            gaps = rng.exponential(1.0 / self.peak, chunk)
            candidates = t + np.cumsum(gaps)
            keep = candidates[
                rng.uniform(size=chunk) * self.peak
                <= self._rate_at(candidates)
            ]
            accepted.append(keep)
            total += keep.size
            t = float(candidates[-1])
        return np.concatenate(accepted)[:n]

    def scaled(self, factor: float) -> "Diurnal":
        factor = _validated_rate(factor, "scale factor")
        return Diurnal(
            self.trough * factor, self.peak * factor, period=self.period
        )

    def describe(self) -> str:
        return (
            f"diurnal {self.trough:g}-{self.peak:g} req/s "
            f"over {self.period:g} s"
        )


class Bursty(ArrivalProcess):
    """A 2-state Markov-modulated Poisson process (MMPP-2).

    The source alternates between a ``quiet`` and a ``burst`` Poisson
    rate; sojourn times in each state are exponential with means
    ``quiet_dwell`` / ``burst_dwell`` [s].  The long-run mean rate is
    the dwell-weighted average of the two state rates.
    """

    def __init__(
        self,
        quiet: float,
        burst: float,
        quiet_dwell: float,
        burst_dwell: float,
    ) -> None:
        self.quiet = _validated_rate(quiet, "quiet rate")
        self.burst = _validated_rate(burst, "burst rate")
        self.quiet_dwell = _validated_rate(quiet_dwell, "quiet dwell")
        self.burst_dwell = _validated_rate(burst_dwell, "burst dwell")
        total_dwell = self.quiet_dwell + self.burst_dwell
        self.mean_rate = (
            self.quiet * self.quiet_dwell + self.burst * self.burst_dwell
        ) / total_dwell

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._validated_count(n)
        segments: list[np.ndarray] = []
        total = 0
        t = 0.0
        in_burst = False
        while total < n:
            if in_burst:
                rate, dwell = self.burst, self.burst_dwell
            else:
                rate, dwell = self.quiet, self.quiet_dwell
            sojourn = float(rng.exponential(dwell))
            # Draw enough candidate gaps to cover the sojourn, keep the
            # arrivals that land inside it, advance to the state flip.
            expect = max(int(rate * sojourn * 2) + 8, 8)
            candidates = t + np.cumsum(rng.exponential(1.0 / rate, expect))
            while candidates.size and candidates[-1] < t + sojourn:
                candidates = np.concatenate(
                    [
                        candidates,
                        candidates[-1]
                        + np.cumsum(rng.exponential(1.0 / rate, expect)),
                    ]
                )
            inside = candidates[candidates < t + sojourn]
            segments.append(inside)
            total += inside.size
            t += sojourn
            in_burst = not in_burst
        return np.concatenate(segments)[:n]

    def scaled(self, factor: float) -> "Bursty":
        factor = _validated_rate(factor, "scale factor")
        return Bursty(
            self.quiet * factor,
            self.burst * factor,
            self.quiet_dwell,
            self.burst_dwell,
        )

    def describe(self) -> str:
        return (
            f"bursty {self.quiet:g}/{self.burst:g} req/s "
            f"(dwell {self.quiet_dwell:g}/{self.burst_dwell:g} s)"
        )


class Replay(ArrivalProcess):
    """Deterministic fixed-period arrivals at ``rate`` [req/s].

    Zero-variance control arm: request ``k`` arrives at ``(k+1)/rate``
    exactly, regardless of the generator (the D in M/D/c).  Pair it
    with :meth:`WorkloadMix.zipf <repro.traffic.workload.WorkloadMix.zipf>`
    to replay the :func:`~repro.traffic.synthetic_trace` Zipf trace on a
    fixed clock grid.
    """

    def __init__(self, rate: float) -> None:
        self.rate = _validated_rate(rate)
        self.mean_rate = self.rate

    def times(self, n: int, rng: np.random.Generator) -> np.ndarray:
        n = self._validated_count(n)
        return np.arange(1, n + 1, dtype=float) / self.rate

    def scaled(self, factor: float) -> "Replay":
        return Replay(self.rate * _validated_rate(factor, "scale factor"))
