"""Observability for the serving stack: tracing and metrics.

Photonic-accelerator claims live and die on measured
throughput/energy/latency comparisons; ``repro.telemetry`` turns the
serving benches from point estimates into auditable distributions:

* :class:`TraceRecorder` — typed spans on the **modelled** clock
  (:class:`ModelClock`): per-request lifecycle, per-flush and per-batch
  core spans, compile-vs-cache-hit, health probes, recalibrations,
  drains and sheds.  ``to_chrome()`` / ``save(path)`` emit Chrome
  trace-event JSON that opens directly in Perfetto.  Attach via
  ``PhotonicSession(trace=recorder)`` / ``PhotonicCluster(trace=...)``
  — with no recorder attached the serving path makes zero telemetry
  calls.
* :class:`MetricsRegistry` — named :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families; histograms use fixed log-spaced bins
  with p50/p95/p99/p999 quantile queries and merge bin-for-bin across
  cores.  A flush records its served window once, as columns
  (:meth:`Telemetry.drain_window`): one vectorized pass per
  distribution feeds the cumulative and per-tenant histograms, and
  the window's exact quantiles are computed on first read.
  :func:`merged_latency_quantiles` and
  :func:`merged_tenant_quantiles` are the one rollup of a set of
  bindings' histograms: :attr:`repro.api.RunReport.latency_quantiles`
  is their one-binding case, :attr:`repro.api.ClusterReport.
  latency_quantiles` and the traffic engine's per-tenant summary the
  fleet's.
* :func:`wall_clock` — the one sanctioned host-clock accessor; the
  ``modelled-clock-purity`` lint rule forbids ``time.*`` reads
  anywhere else in the stack.
* :class:`ReportExport` — the shared ``to_dict()`` / ``to_json()``
  mixin of every report dataclass.
"""

from .binding import (
    END_TO_END_HISTOGRAM,
    QUEUE_WAIT_HISTOGRAM,
    SERVICE_TIME_HISTOGRAM,
    Telemetry,
    merged_latency_quantiles,
    merged_tenant_quantiles,
    tenant_histogram_name,
)
from .clock import ModelClock
from .export import ReportExport, to_serializable
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    quantiles_from_samples,
)
from .profiling import wall_clock
from .trace import CATEGORIES, TraceEvent, TraceRecorder

__all__ = [
    "CATEGORIES",
    "Counter",
    "END_TO_END_HISTOGRAM",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ModelClock",
    "QUEUE_WAIT_HISTOGRAM",
    "ReportExport",
    "SERVICE_TIME_HISTOGRAM",
    "Telemetry",
    "TraceEvent",
    "TraceRecorder",
    "merged_latency_quantiles",
    "merged_tenant_quantiles",
    "quantiles_from_samples",
    "tenant_histogram_name",
    "to_serializable",
    "wall_clock",
]
