"""Drift injection, probe-based monitoring and online recalibration.

The serving stack compiles weight programs once and caches them; this
package closes the loop that keeps those programs honest as the analog
hardware ages:

* :mod:`repro.health.drift` — parameterized :class:`DriftModel`
  processes (thermal MRR detuning, laser power decay, TIA gain drift,
  comparator-offset aging) composed into the live :class:`DriftState`
  of one core, evolving with modelled wall-clock and inference count,
  and :func:`drift_suite`, one of each process at a chosen severity;
* :mod:`repro.health.monitor` — :class:`HealthMonitor` replays frozen
  probe vectors against compile-time golden codes and reports the walk
  as a typed :class:`HealthReport`; :class:`HealthPolicy` automates
  the cadence and the recalibration trigger.

Sessions opt in with ``PhotonicSession(drift=[...], health_policy=...)``;
clusters drain a drifting core from rotation, recalibrate it and
restore it while the rest of the fleet absorbs the traffic.
"""

from .drift import (
    DRIFT_STAGES,
    ComparatorOffsetAging,
    DriftModel,
    DriftState,
    LaserPowerDecay,
    Perturbation,
    ThermalDetuning,
    TiaGainDrift,
    drift_suite,
)
from .monitor import HealthMonitor, HealthPolicy, HealthReport

__all__ = [
    "DRIFT_STAGES",
    "ComparatorOffsetAging",
    "DriftModel",
    "DriftState",
    "HealthMonitor",
    "HealthPolicy",
    "HealthReport",
    "LaserPowerDecay",
    "Perturbation",
    "ThermalDetuning",
    "TiaGainDrift",
    "drift_suite",
]
