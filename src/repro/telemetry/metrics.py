"""Counters, gauges and log-binned latency histograms.

The serving ledgers (:class:`~repro.api.futures.RunReport`) report
totals; a :class:`MetricsRegistry` adds the *distributional* view —
most importantly :class:`Histogram`, a fixed log-spaced-bin latency
histogram with p50/p95/p99/p999 quantile queries that stays O(bins)
no matter how many requests it absorbs, and merges across cores
bin-for-bin (the fleet quantile story of
:class:`~repro.api.ClusterReport`).

Modelled latencies span ~ns (one ADC sample period) to ~s (long drift
benches), so the default bin layout covers 1 ns .. 1000 s at 16 bins
per decade — a <= ~7.5 % relative quantile error, constant memory.
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError

#: The quantile points every summary reports, in order.
QUANTILE_POINTS = (0.5, 0.95, 0.99, 0.999)

#: Summary-dict keys of :data:`QUANTILE_POINTS`, in the same order.
QUANTILE_KEYS = ("p50", "p95", "p99", "p999")


def quantiles_from_samples(samples: Sequence[float] | np.ndarray) -> dict | None:
    """Exact quantile summary of a sample list (one flush window).

    Returns the same dict shape as :meth:`Histogram.summary` —
    ``{"count", "mean", "max", "p50", "p95", "p99", "p999"}`` — or
    None for an empty window, so callers never divide by zero.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return None
    points = np.quantile(samples, QUANTILE_POINTS)
    summary = {
        "count": int(samples.size),
        "mean": float(samples.mean()),
        "max": float(samples.max()),
    }
    summary.update(
        (key, float(value)) for key, value in zip(QUANTILE_KEYS, points)
    )
    return summary


class WindowQuantiles(Mapping):
    """Exact quantile summaries of named sample columns, each computed
    by :func:`quantiles_from_samples` on its first read.

    A flush window's ``{"queue_wait": summary, "end_to_end": summary}``
    (:meth:`repro.telemetry.Telemetry.drain_window`): it compares equal
    to the eager dict and exports like it, but a window nothing reads
    never sorts its samples.
    """

    __slots__ = ("_samples", "_summaries")

    def __init__(self, samples: dict[str, np.ndarray]) -> None:
        self._samples = samples
        self._summaries: dict[str, dict | None] = {}

    def __getitem__(self, key: str) -> dict | None:
        summaries = self._summaries
        if key not in summaries:
            summaries[key] = quantiles_from_samples(self._samples[key])
        return summaries[key]

    def __contains__(self, key: object) -> bool:
        return key in self._samples

    def __iter__(self) -> Iterator[str]:
        return iter(self._samples)

    def __len__(self) -> int:
        return len(self._samples)

    def __repr__(self) -> str:
        return repr(dict(self))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter '{self.name}' only increases, got {amount}"
            )
        self.value += amount

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value (queue depth, active cores, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value:g}>"


class Histogram:
    """Fixed log-spaced-bin histogram with quantile queries.

    Bins are geometric between ``lo`` and ``hi`` (``per_decade`` bins
    per factor of ten) plus underflow/overflow buckets; exact count,
    sum, min and max ride alongside, so ``mean``/``max`` are exact and
    quantiles are bin-interpolated (geometric within the landing bin)
    and clamped to the observed range.  Two histograms with the same
    layout merge by adding bin counts — the per-core → fleet rollup.
    """

    __slots__ = ("name", "lo", "hi", "per_decade", "_edges", "_edge_list",
                 "_counts", "count", "total", "min", "max")

    def __init__(
        self,
        name: str,
        lo: float = 1e-9,
        hi: float = 1e3,
        per_decade: int = 16,
    ) -> None:
        if not (0.0 < lo < hi):
            raise ConfigurationError(
                f"histogram needs 0 < lo < hi, got lo={lo}, hi={hi}"
            )
        if per_decade < 1:
            raise ConfigurationError(
                f"need >= 1 bin per decade, got {per_decade}"
            )
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        self.per_decade = int(per_decade)
        decades = math.log10(self.hi / self.lo)
        bins = max(1, int(round(decades * self.per_decade)))
        self._edges = np.geomspace(self.lo, self.hi, bins + 1)
        # Read-only: the copies :meth:`merged` makes share them.
        self._edges.flags.writeable = False
        #: The same edges as floats, for the scalar :meth:`observe`.
        self._edge_list = self._edges.tolist()
        # bins + underflow (index 0) + overflow (index -1)
        self._counts = np.zeros(bins + 2, dtype=np.int64)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    @property
    def layout(self) -> tuple:
        """The bin layout key two histograms must share to merge."""
        return (self.lo, self.hi, self.per_decade)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def observe(self, value: float) -> None:
        """Absorb one observation without building an array: the same
        bin (``bisect_right`` is ``searchsorted(side="right")``) and the
        same running totals as ``observe_many((value,))``.  A value
        outside [0, inf) (negative, infinite or NaN) takes that array
        path, so its error stays in one place."""
        value = float(value)
        if not 0.0 <= value < math.inf:
            self.observe_many((value,))
            return
        self._counts[bisect.bisect_right(self._edge_list, value)] += 1
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    def observe_many(self, values: Sequence[float] | np.ndarray) -> None:
        """Absorb a batch of observations in one vectorized pass.  The
        batch must be finite and non-negative: the check is a negated
        in-range test of its min and max (which the running totals reuse),
        so a NaN, false under every comparison, fails it and leaves the
        histogram unchanged."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        low, high = float(values.min()), float(values.max())
        if not (0.0 <= low and high < math.inf):
            raise ConfigurationError(
                f"histogram '{self.name}' takes finite non-negative values, "
                f"got range [{low:g}, {high:g}]"
            )
        # searchsorted over the edges: 0 = underflow, len(edges) = overflow.
        self._counts += np.bincount(
            np.searchsorted(self._edges, values, side="right"),
            minlength=self._counts.size,
        )
        self.count += int(values.size)
        self.total += float(values.sum())
        self.min = min(self.min, low)
        self.max = max(self.max, high)

    def quantile(self, q: float) -> float:
        """The value at quantile ``q`` (0..1), geometric-interpolated
        within the landing bin and clamped to the observed min/max.
        An empty histogram reports 0.0."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        # The bounds are exact (min/max ride alongside the bins) — and
        # rank arithmetic gets them wrong when every observation sits
        # in one overflow bucket, so short-circuit before it.
        if q == 0.0:
            return self.min
        if q == 1.0:
            return self.max
        return self._quantile(q, np.cumsum(self._counts))

    def _quantile(self, q: float, cumulative: np.ndarray) -> float:
        """:meth:`quantile` of a non-empty histogram at ``0 < q < 1``,
        given the running sum of its bin counts."""
        rank = q * self.count
        index = int(np.searchsorted(cumulative, rank, side="left"))
        index = min(index, self._counts.size - 1)
        if index == 0:                      # underflow bucket
            return self.min
        if index == self._counts.size - 1:  # overflow bucket
            return self.max
        low, high = self._edges[index - 1], self._edges[index]
        in_bin = self._counts[index]
        before = cumulative[index] - in_bin
        fraction = (rank - before) / in_bin if in_bin else 0.0
        value = low * (high / low) ** min(max(fraction, 0.0), 1.0)
        return float(min(max(value, self.min), self.max))

    def summary(self) -> dict | None:
        """The standard quantile summary dict (see
        :func:`quantiles_from_samples`); None when nothing was
        observed."""
        if self.count == 0:
            return None
        cumulative = np.cumsum(self._counts)
        summary = {"count": self.count, "mean": self.mean, "max": self.max}
        summary.update(
            (key, self._quantile(point, cumulative))
            for key, point in zip(QUANTILE_KEYS, QUANTILE_POINTS)
        )
        return summary

    def merge(self, other: "Histogram") -> None:
        """Add another histogram's observations into this one (bin
        layouts must match)."""
        if self.layout != other.layout:
            raise ConfigurationError(
                f"cannot merge histogram layouts {self.layout} and "
                f"{other.layout}"
            )
        self._counts += other._counts
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @classmethod
    def merged(
        cls, histograms: Iterable[Histogram | None], name: str | None = None
    ) -> Histogram | None:
        """One histogram absorbing a sequence of same-layout histograms
        — the per-core → fleet quantile rollup.  It starts as a copy of
        the first member (sharing its read-only edges, copying its
        counts) and merges the rest.  An empty sequence merges to None
        (the empty-fleet guard), as does a sequence whose members are
        all None."""
        histograms = [hist for hist in histograms if hist is not None]
        if not histograms:
            return None
        first = histograms[0]
        out = cls.__new__(cls)
        for slot in cls.__slots__:
            setattr(out, slot, getattr(first, slot))
        out._counts = first._counts.copy()
        if name is not None:
            out.name = name
        for hist in histograms[1:]:
            out.merge(hist)
        return out

    def to_dict(self) -> dict:
        """Bin edges + counts + the summary, JSON-ready."""
        return {
            "name": self.name,
            "layout": {"lo": self.lo, "hi": self.hi,
                       "per_decade": self.per_decade},
            "summary": self.summary(),
            "edges": self._edges.tolist(),
            "counts": self._counts.tolist(),
        }

    def __repr__(self) -> str:
        return (
            f"<Histogram {self.name}: {self.count} observations, "
            f"p50 {self.quantile(0.5):.3g}>"
        )


class MetricsRegistry:
    """Named counters/gauges/histograms behind get-or-create lookups.

    One registry per core timeline (a cluster gives each core its own,
    plus a fleet registry for routed/shed counters); every family is
    get-or-create so instrumentation sites never coordinate
    construction.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(self, name: str, **layout: float) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(name, **layout)
        return metric

    @property
    def names(self) -> list[str]:
        return sorted(
            [*self._counters, *self._gauges, *self._histograms]
        )

    @property
    def counters(self) -> tuple[Counter, ...]:
        """Every counter, name-sorted (the exporters' iteration order)."""
        return tuple(
            metric for _, metric in sorted(self._counters.items())
        )

    @property
    def gauges(self) -> tuple[Gauge, ...]:
        """Every gauge, name-sorted."""
        return tuple(metric for _, metric in sorted(self._gauges.items()))

    @property
    def histograms(self) -> tuple[Histogram, ...]:
        """Every histogram, name-sorted."""
        return tuple(
            metric for _, metric in sorted(self._histograms.items())
        )

    def to_dict(self) -> dict:
        """Every metric's current state, JSON-ready (histograms export
        their summaries, not the raw bins)."""
        return {
            "counters": {
                name: metric.value
                for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: metric.summary()
                for name, metric in sorted(self._histograms.items())
            },
        }

    def __repr__(self) -> str:
        return (
            f"<MetricsRegistry {len(self._counters)} counters, "
            f"{len(self._gauges)} gauges, "
            f"{len(self._histograms)} histograms>"
        )
