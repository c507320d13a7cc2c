"""Active observability: alerting, flight recording, dashboards.

``repro.telemetry`` records what a serving run did; ``repro.obs``
*watches* it live — the monitoring half a production fleet needs:

* :class:`Observer` — sliding modelled-time windows over the per-flush
  metric deltas, health-probe checks and fleet events the serving
  surfaces feed it, evaluated by an :class:`AlertRule` engine.
  Multi-window SLO burn-rate rules derive directly from a
  :class:`repro.traffic.SLO` (:func:`slo_burn_rules`: fast-burn pages,
  slow-burn warns, each gated on both its long and short window);
  built-in anomaly detectors cover latency-quantile shift, cache-hit
  collapse, shed/deadline-miss spikes and probe code-error growth
  (:func:`default_rules`).  Firing/resolved transitions are typed
  :class:`Alert` records stamped on the modelled clock.  Attach via
  ``PhotonicSession(obs=...)`` / ``PhotonicCluster(obs=...)``; the
  guard contract matches telemetry — an unattached run makes zero obs
  calls and is bit-for-bit identical (``hot-path-telemetry-guard``
  enforces the guards).
* :class:`FlightRecorder` — a bounded ring of recent observations that
  costs O(1) appends until an incident (alert firing, drain,
  recalibration, scale event) dumps a self-contained
  :class:`IncidentBundle`: triggering rule, the ring's window, the
  trace's trailing spans, the fleet snapshot and all active alerts.
* :func:`prometheus_text` — classic text exposition of a
  :class:`~repro.telemetry.MetricsRegistry` (counters as ``_total``,
  histograms as cumulative ``_bucket{le=...}`` series, tenants as
  labels).
* :func:`render_dashboard` / :func:`save_dashboard` — a single-file
  HTML dashboard (inline SVG, zero external deps) of latency quantile
  timelines, per-core utilization/pending, cache hit rate, alert
  markers and incident annotations; wired as
  ``benchmarks/serve_bench.py <scenario> --dashboard out.html`` and
  ``python -m repro obs``.
"""

from .alerts import (
    SEVERITIES,
    Alert,
    AlertRule,
    BurnRateRule,
    CacheHitCollapseRule,
    DeadlineMissBurnRule,
    EventSample,
    HealthSample,
    LatencyBurnRule,
    LatencyShiftRule,
    MetricSample,
    ProbeErrorBurnRule,
    RuleEvaluation,
    ShedSpikeRule,
    WindowView,
    default_rules,
    slo_burn_rules,
)
from .dashboard import PALETTE, render_dashboard, save_dashboard
from .export import prometheus_text
from .monitor import Observer
from .recorder import INCIDENT_EVENTS, FlightRecorder, IncidentBundle

__all__ = [
    "INCIDENT_EVENTS",
    "PALETTE",
    "SEVERITIES",
    "Alert",
    "AlertRule",
    "BurnRateRule",
    "CacheHitCollapseRule",
    "DeadlineMissBurnRule",
    "EventSample",
    "FlightRecorder",
    "HealthSample",
    "IncidentBundle",
    "LatencyBurnRule",
    "LatencyShiftRule",
    "MetricSample",
    "Observer",
    "ProbeErrorBurnRule",
    "RuleEvaluation",
    "ShedSpikeRule",
    "WindowView",
    "default_rules",
    "prometheus_text",
    "render_dashboard",
    "save_dashboard",
    "slo_burn_rules",
]
