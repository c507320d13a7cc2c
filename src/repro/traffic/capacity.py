"""Capacity search: the highest sustained offered load meeting an SLO.

:func:`find_capacity` binary-searches the offered-load axis of an
arrival process (via :meth:`ArrivalProcess.scaled
<repro.traffic.arrivals.ArrivalProcess.scaled>`): starting from the
base rate it doubles until the :class:`~repro.traffic.slo.SLO` first
fails (or halves until it first passes), then bisects the bracket to
``resolution``.  Every trial replays the *same* seeded workload
through a **fresh** target from ``target_factory`` — capacity at rate
r must not inherit backlog or cache state from the rate-2r trial —
and the returned record keeps the full trial history, so a capacity
curve is auditable point by point.

This is the measurement behind the capacity curves of
``benchmarks/serve_bench.py traffic`` in ``BENCH_traffic.json``
(sustained req/s vs core count and routing policy).
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import ConfigurationError
from .arrivals import ArrivalProcess
from .engine import TrafficEngine
from .slo import SLO
from .workload import WorkloadMix


def find_capacity(
    target_factory: Callable[[], object],
    workload: WorkloadMix,
    arrivals: ArrivalProcess,
    slo: SLO,
    requests: int = 2000,
    seed: int = 2025,
    resolution: float = 0.05,
    max_doublings: int = 16,
) -> dict:
    """The highest sustained offered rate [req/s] meeting ``slo``.

    ``target_factory`` builds one fresh session/cluster per trial
    (constructed with ``clock=ModelClock()`` and metrics — see
    :class:`~repro.traffic.engine.TrafficEngine`).  Returns a dict
    with ``capacity_per_s`` (the highest passing rate; 0.0 when even
    the lowest probed rate fails), ``sustained`` (that rate's full run
    summary, None when nothing passed), and ``trials`` (every probe's
    offered rate, p99, miss rate and verdict, in probe order).
    """
    if not isinstance(slo, SLO):
        raise ConfigurationError(
            f"capacity search needs a repro.traffic.SLO, "
            f"got {type(slo).__name__}"
        )
    if not 0.0 < resolution < 1.0:
        raise ConfigurationError(
            f"resolution must be a fraction in (0, 1), got {resolution}"
        )
    if max_doublings < 1:
        raise ConfigurationError(
            f"max_doublings must be >= 1, got {max_doublings}"
        )

    trials: list[dict] = []

    def trial(factor: float) -> dict:
        engine = TrafficEngine(
            target_factory(),
            workload,
            arrivals.scaled(factor),
            slo=slo,
            seed=seed,
        )
        summary = engine.run(requests)
        trials.append(
            {
                "factor": factor,
                "offered_rate_per_s": summary["offered_rate_per_s"],
                "p99_e2e_s": summary["p99_e2e_s"],
                "miss_rate": summary["miss_rate"],
                "slo_met": summary["slo_met"],
            }
        )
        return summary

    # Phase 1 — bracket the knee: double while passing / halve while
    # failing, bounded by max_doublings in either direction.
    factor = 1.0
    summary = trial(factor)
    best_factor = 0.0
    best_summary: dict | None = None
    if summary["slo_met"]:
        best_factor, best_summary = factor, summary
        for _ in range(max_doublings):
            candidate = factor * 2.0
            summary = trial(candidate)
            if not summary["slo_met"]:
                low, high = factor, candidate
                break
            factor = candidate
            best_factor, best_summary = factor, summary
        else:
            # Never failed: the target absorbs everything we offered.
            return {
                "capacity_per_s": best_factor * arrivals.mean_rate,
                "saturated": False,
                "sustained": best_summary,
                "trials": trials,
            }
    else:
        for _ in range(max_doublings):
            candidate = factor / 2.0
            summary = trial(candidate)
            if summary["slo_met"]:
                low, high = candidate, factor
                best_factor, best_summary = candidate, summary
                break
            factor = candidate
        else:
            # Even the lowest probed rate violates the SLO.
            return {
                "capacity_per_s": 0.0,
                "saturated": True,
                "sustained": None,
                "trials": trials,
            }

    # Phase 2 — bisect [low passes, high fails] down to resolution.
    while (high - low) / high > resolution:
        mid = (low + high) / 2.0
        summary = trial(mid)
        if summary["slo_met"]:
            low = mid
            best_factor, best_summary = mid, summary
        else:
            high = mid

    return {
        "capacity_per_s": best_factor * arrivals.mean_rate,
        "saturated": True,
        "sustained": best_summary,
        "trials": trials,
    }
