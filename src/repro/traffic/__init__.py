"""Modelled-time traffic simulation: deadlines, SLOs and capacity.

``repro.traffic`` closes the serving story's last gap: the replay
benches measure throughput under a canned trace, but a deployment
promise is a *capacity under an SLO* — "this fleet sustains N req/s
at p99 <= X with a miss budget of Y".  This package measures exactly
that, entirely on the modelled clock (a million-request day of
traffic simulates in seconds, bit-for-bit reproducibly):

* :mod:`~repro.traffic.arrivals` — composable arrival processes
  (:class:`Poisson`, :class:`Diurnal`, :class:`Bursty` MMPP-2,
  deterministic :class:`Replay`), all seeded;
* :mod:`~repro.traffic.workload` — multi-tenant mixes
  (:class:`Tenant`, :class:`WorkloadMix`, and :meth:`WorkloadMix.zipf`,
  the open-loop twin of the closed :func:`synthetic_trace` replay
  stream) with per-tenant deadlines, priorities and
  :class:`TokenBucket` rate limits;
* :mod:`~repro.traffic.slo` — the :class:`SLO` contract (p99 bound +
  deadline-miss budget) and its deadline-aware
  :class:`~repro.api.FlushPolicy`;
* :mod:`~repro.traffic.engine` — :class:`TrafficEngine`, the
  discrete-event driver injecting the arrival clock into a real
  :class:`~repro.api.PhotonicSession` / cluster and firing
  flush-policy triggers at their exact modelled due-times;
* :mod:`~repro.traffic.capacity` — :func:`find_capacity`, the binary
  search for the highest sustained offered load meeting the SLO
  (behind ``benchmarks/serve_bench.py traffic``).

Per-request ``deadline=`` semantics (typed
:class:`~repro.errors.DeadlineExceededError` sheds, the
``deadline_misses`` ledger on every report) live in :mod:`repro.api`;
this package is the load generator and the measurement harness.
"""

from .arrivals import ArrivalProcess, Bursty, Diurnal, Poisson, Replay
from .capacity import find_capacity
from .engine import TrafficEngine
from .slo import SLO
from .workload import Tenant, TokenBucket, WorkloadMix, synthetic_trace

__all__ = [
    "SLO",
    "ArrivalProcess",
    "Bursty",
    "Diurnal",
    "Poisson",
    "Replay",
    "Tenant",
    "TokenBucket",
    "TrafficEngine",
    "WorkloadMix",
    "find_capacity",
    "synthetic_trace",
]
