"""repro — reproduction of the DAC'25 mixed-signal photonic SRAM tensor
core with 1-hot electro-optic ADC (Kaiser et al., arXiv:2506.22705).

The package rebuilds the paper's full stack in Python:

* :mod:`repro.photonics` — silicon-photonics device substrate (rings,
  couplers, junctions, photodiodes, lasers, WDM, circuit evaluation).
* :mod:`repro.electronics` — drivers, TIAs, amplifiers, the ceiling
  ROM decoder, ADC metrics and power/energy ledgers.
* :mod:`repro.sim` — waveforms, mixed-signal transient engine, sweeps
  and Monte-Carlo variation analysis.
* :mod:`repro.core` — the contributions: pSRAM bitcell/array, WDM
  vector compute core, 1-hot eoADC, tensor core, performance model.
* :mod:`repro.baselines` — flash/TI ADC and electrical-IMC baselines,
  plus the published macros of Table I.
* :mod:`repro.ml` — neural-network inference through the tensor core.
* :mod:`repro.runtime` — batched/tiled/cached inference serving on top
  of the device models (compiled fast path, sharding, batching queue,
  weight-program cache).
* :mod:`repro.api` — the one front door: :class:`PhotonicSession`,
  declarative :class:`Model` graphs, futures-based auto-flush serving
  with pluggable :class:`FlushPolicy` and unified :class:`RunReport`;
  :class:`PhotonicCluster` scales it out over N core slots with routed
  schedulers (:class:`RoutingPolicy`), per-request QoS and replicated
  model endpoints rolled up in a :class:`ClusterReport`.
* :mod:`repro.elastic` — elastic fleets: content-addressed
  :class:`ProgramStore` persistence of compiled programs and
  calibration records for bit-for-bit warm starts, the
  :class:`Autoscaler` policy growing/parking cluster cores on pending
  depth, sheds and deadline misses, and per-slot :class:`CoreSpec`
  capabilities for heterogeneous fleets behind the cluster's
  capability-aware router (consistent-hash :class:`HashRing` affinity).
* :mod:`repro.health` — the calibration loop: :class:`DriftModel`
  processes aging a live core (:class:`DriftState`), probe-based
  :class:`HealthMonitor` checks against compile-time golden codes, and
  online recalibration driven by a :class:`HealthPolicy` (sessions
  re-trim in place; clusters drain the core, re-trim, restore).
* :mod:`repro.telemetry` — observability: modelled-clock Chrome
  tracing (:class:`TraceRecorder`), counters/gauges/latency-quantile
  histograms (:class:`MetricsRegistry`), the one sanctioned host-clock
  read and the shared report export mixin.
* :mod:`repro.obs` — active observability on top of the telemetry
  streams: sliding-window :class:`AlertRule` evaluation on the
  modelled clock (multi-window SLO burn rates, latency-shift /
  cache-collapse / shed-spike / probe-error detectors), the
  :class:`FlightRecorder` ring dumping self-contained incident
  bundles, Prometheus text exposition and the single-file HTML
  dashboard behind ``repro obs``.
* :mod:`repro.traffic` — modelled-time traffic simulation: seeded
  arrival processes (:class:`Poisson`, :class:`Diurnal`,
  :class:`Bursty`, :class:`Replay`), multi-tenant
  :class:`WorkloadMix` with :class:`TokenBucket` rate limits,
  per-request deadlines measured against an :class:`SLO`, the
  open-loop :class:`TrafficEngine`, the :func:`find_capacity` search
  and the closed :func:`synthetic_trace` replay stream.
* :mod:`repro.analysis` — linearity fits and bench reporting.

Quickstart::

    import numpy as np
    from repro import Model, Dense, PhotonicSession

    session = PhotonicSession(grid=(4, 8))
    rng = np.random.default_rng(0)
    future = session.submit(rng.integers(0, 8, (4, 8)), rng.uniform(0, 1, 8))
    print(future.result(), future.codes)    # result() auto-flushes
"""

from .api import (
    AvgPool,
    ClusterReport,
    Conv2d,
    Dense,
    DeployedModel,
    Flatten,
    FlushPolicy,
    Future,
    HashRing,
    Model,
    PhotonicCluster,
    PhotonicSession,
    ReLU,
    ReplicatedModel,
    RoutingPolicy,
    RunReport,
)
from .config import Technology, default_technology
from .core import (
    EoAdc,
    PerformanceModel,
    PhotonicTensorCore,
    PsramArray,
    PsramBitcell,
    ShiftAddEoAdc,
    TimeInterleavedEoAdc,
    VectorComputeCore,
)
from .elastic import Autoscaler, CoreSpec, FleetSnapshot, ProgramStore
from .errors import (
    ClusterSaturatedError,
    DeadlineExceededError,
    PendingFlushError,
    ReproError,
)
from .health import (
    ComparatorOffsetAging,
    DriftModel,
    DriftState,
    HealthMonitor,
    HealthPolicy,
    HealthReport,
    LaserPowerDecay,
    Perturbation,
    ThermalDetuning,
    TiaGainDrift,
)
from .runtime import (
    BatchScheduler,
    CompiledCore,
    TiledMatmul,
    WeightProgramCache,
)
from .telemetry import (
    Histogram,
    MetricsRegistry,
    ModelClock,
    Telemetry,
    TraceRecorder,
)
from .traffic import (
    SLO,
    Bursty,
    Diurnal,
    Poisson,
    Replay,
    Tenant,
    TokenBucket,
    TrafficEngine,
    WorkloadMix,
    find_capacity,
)

__version__ = "1.1.0"

__all__ = [
    "Autoscaler",
    "AvgPool",
    "BatchScheduler",
    "Bursty",
    "ClusterReport",
    "ClusterSaturatedError",
    "ComparatorOffsetAging",
    "CompiledCore",
    "Conv2d",
    "CoreSpec",
    "DeadlineExceededError",
    "default_technology",
    "Dense",
    "DeployedModel",
    "Diurnal",
    "DriftModel",
    "DriftState",
    "EoAdc",
    "Flatten",
    "FleetSnapshot",
    "FlushPolicy",
    "Future",
    "HashRing",
    "HealthMonitor",
    "HealthPolicy",
    "HealthReport",
    "Histogram",
    "LaserPowerDecay",
    "MetricsRegistry",
    "Model",
    "ModelClock",
    "PendingFlushError",
    "PerformanceModel",
    "Perturbation",
    "PhotonicCluster",
    "PhotonicSession",
    "PhotonicTensorCore",
    "Poisson",
    "ProgramStore",
    "PsramArray",
    "PsramBitcell",
    "ReLU",
    "Replay",
    "ReplicatedModel",
    "ReproError",
    "RoutingPolicy",
    "RunReport",
    "ShiftAddEoAdc",
    "SLO",
    "Technology",
    "Telemetry",
    "Tenant",
    "ThermalDetuning",
    "TiaGainDrift",
    "TiledMatmul",
    "TimeInterleavedEoAdc",
    "TokenBucket",
    "TraceRecorder",
    "TrafficEngine",
    "VectorComputeCore",
    "WeightProgramCache",
    "WorkloadMix",
    "find_capacity",
    "__version__",
]
