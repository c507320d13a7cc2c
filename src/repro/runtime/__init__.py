"""Batched, tiled, cached inference runtime over the device simulator.

The device layer (:mod:`repro.core`) walks one vector at a time through
Python loops — faithful, but not a serving engine.  This package turns
it into one, in three layers:

* :mod:`~repro.runtime.engine` — :class:`CompiledCore`: a weight
  program snapshotted into dense response matrices and exact ADC code
  ladders, evaluating whole batches as numpy matmuls + searchsorted
  binning, code-for-code equal to the device loop.
* :mod:`~repro.runtime.tiling` — :class:`TiledMatmul`: the one dense
  weight program, compiled on a given core: arbitrary (out, in)
  weight shapes sharded across a grid of physical tiles (one tile for
  an in-grid program) with digital partial-sum accumulation,
  ragged-edge padding and per-tile TIA range calibration.
* :mod:`~repro.runtime.scheduler` — :class:`BatchScheduler` +
  :class:`WeightProgramCache`: the one flush executor behind
  :class:`repro.api.PhotonicSession`, with one request entry point
  (``submit``).  In-grid, tiled and conv requests coalesce per (weight
  program, gain) and run as batched matmuls on the scheduler's one
  modelled service clock (``BatchScheduler.clock``, the session's
  timeline whether or not telemetry is attached); an LRU of compiled
  programs lets repeated weights skip the 20 GHz pSRAM re-streaming, with
  load energy charged per set weight bit and analog time/energy from
  :class:`~repro.core.performance.PerformanceModel`.
"""

from .engine import BatchResult, CompiledCore, weight_key
from .scheduler import BatchScheduler, SchedulerStats, WeightProgramCache
from .tiling import DifferentialProgram, TiledMatmul

__all__ = [
    "BatchResult",
    "BatchScheduler",
    "CompiledCore",
    "DifferentialProgram",
    "SchedulerStats",
    "TiledMatmul",
    "weight_key",
    "WeightProgramCache",
]
