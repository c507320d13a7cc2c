"""The modelled clock every telemetry timestamp reads.

The serving stack accounts *modelled* time — ADC sample periods, pSRAM
weight-streaming, ladder re-bisection — not host wall-clock.  The drift
subsystem already ages cores on that modelled timeline
(:class:`repro.health.DriftState`); :class:`ModelClock` is the same
idea promoted to a first-class timestamp source so traces and latency
histograms line up with the energy/latency ledgers exactly.

A clock belongs to one core's timeline: cores of a cluster digitize
concurrently, so each core advances its own clock and the fleet
makespan is the maximum across clocks — mirroring
:meth:`repro.api.ClusterReport.fleet_latency`.
"""

from __future__ import annotations

import math

from ..errors import ConfigurationError


class ModelClock:
    """A monotonically advancing modelled-time counter [s].

    ``advance`` is called by the serving path with the modelled
    duration of whatever just happened (a batch of ADC conversions, a
    weight-program compile, an idle arrival gap); ``now`` is the
    current modelled timestamp, starting at 0.0.  Starts and advances
    must be finite and non-negative: a NaN or inf would poison every
    later timestamp.
    """

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        if not (0.0 <= start < math.inf):
            raise ConfigurationError(f"clock must start finite and >= 0, got {start}")
        #: Current modelled time [s] since the clock was created.
        self.now = float(start)

    def advance(self, seconds: float) -> float:
        """Move modelled time forward; returns the new ``now``."""
        if not (0.0 <= seconds < math.inf):
            raise ConfigurationError(
                f"modelled time only advances by finite steps, got {seconds}"
            )
        self.now += seconds
        return self.now

    def __repr__(self) -> str:
        return f"<ModelClock t={self.now:.3g} s>"
