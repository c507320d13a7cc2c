"""Elastic fleets: autoscaling, heterogeneous cores, and persisted
compiled-program state.

Compile is the dominant cold-start cost of this serving stack
(~15 ms/program, far higher for CNN engines), so growing a fleet is
only viable if a new core warm-starts from persisted state.  This
subsystem provides the three cooperating layers:

* :class:`ProgramStore` — content-addressed serialization of compiled
  weight programs (dense response matrices, exact bisected ADC
  ladders, tile layouts, drift-compensation snapshots and their
  ``calibration_epoch``) plus per-core calibration records, one
  checksummed file per program (a JSON header line, then the raw
  arrays), keyed by a blake2b of weights/shape/ADC precision/
  technology.  The serving caches write freshly compiled programs
  through and read misses back, so a fresh
  :class:`~repro.api.PhotonicSession` — or another process — restores
  programs bit-for-bit without recompiling.
* :class:`Autoscaler` — a pure scaling policy attached via
  ``PhotonicCluster(autoscaler=)``: it watches pending-queue depth,
  shed rate, and deadline-miss rate on a flush-count watermark and
  votes grow/hold/shrink between ``min_cores``/``max_cores`` with
  hysteresis and a cooldown on the modelled clock.  The cluster acts
  on the vote with ``add_core`` (warm-started from the store) and the
  drain machinery (parking a core for safe scale-down).
* :class:`CoreSpec` — per-slot capabilities (grid size, ADC
  precision) for heterogeneous fleets; the cluster's capability-aware
  router places each program shape on the cheapest capable core.
"""

from .autoscaler import Autoscaler, CoreSpec, FleetSnapshot
from .store import STORE_FORMAT, ProgramStore, core_fingerprint

__all__ = [
    "Autoscaler",
    "CoreSpec",
    "FleetSnapshot",
    "ProgramStore",
    "core_fingerprint",
    "STORE_FORMAT",
]
