"""The per-core telemetry binding the serving stack instruments against.

A :class:`Telemetry` ties together one core timeline's observability
state: the :class:`~repro.telemetry.ModelClock` its timestamps read
(the session it is attached to makes this clock its one service clock,
``BatchScheduler.clock``, so the binding reads the session's timeline
rather than keeping a second one), the (optional, shared)
:class:`~repro.telemetry.TraceRecorder` its spans land in, and the
:class:`~repro.telemetry.MetricsRegistry` its counters and latency
histograms feed.  A flush hands its served window over once, as
columns (:meth:`Telemetry.drain_window`): one vectorized pass bins it
into the cumulative and per-tenant histograms, and the window's exact
quantiles behind :attr:`~repro.api.futures.RunReport.latency_quantiles`
are computed only when something reads them.

The binding is the *only* telemetry object the hot path ever touches,
and only behind a single ``is not None`` check — a session constructed
without ``trace=``/``metrics=`` holds ``telemetry = None`` and makes
zero telemetry calls; its service clock advances exactly as an
attached one's, so attaching telemetry changes no served result.
Span and instant names and arguments are built only behind a second
check, ``telemetry.trace is not None``: ``metrics=`` alone fills the
counters and histograms and makes no span call.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigurationError
from .clock import ModelClock
from .metrics import Histogram, MetricsRegistry, WindowQuantiles
from .trace import TraceRecorder

#: Histogram names of the two per-request latency distributions.
QUEUE_WAIT_HISTOGRAM = "queue_wait_s"
END_TO_END_HISTOGRAM = "end_to_end_s"
#: Histogram name of the per-request service-time distribution
#: (end-to-end minus queue wait); recorded per tenant label only.
SERVICE_TIME_HISTOGRAM = "service_s"


def tenant_histogram_name(base: str, tenant: str) -> str:
    """The per-tenant variant of a latency histogram name — one
    histogram per (distribution, tenant label) in the registry."""
    return f"{base}/{tenant}"


def _clamped(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """``max(value, 0.0)`` per element, as a float array: a negative
    becomes 0.0, while -0.0 and NaN pass through as they are."""
    values = np.asarray(values, dtype=float)
    return np.where(values < 0.0, 0.0, values)


def _rolled_up(bindings: Sequence[Telemetry], name: str) -> Histogram | None:
    """Histogram ``name`` over ``bindings``: one binding's own, else a
    merged copy; None where no binding has it.  Looked up without the
    registry's get-or-create, so a report adds no histogram."""
    found = [binding.metrics._histograms.get(name) for binding in bindings]
    if len(found) == 1:
        return found[0]
    return Histogram.merged(found, name=name)


def merged_latency_quantiles(bindings: Sequence[Telemetry]) -> dict | None:
    """Cumulative queue-wait / end-to-end latency merged bin-for-bin
    across bindings (quantiles are not additive, so the rollup happens
    at the histogram level, :meth:`Histogram.merged`; one binding
    summarises its own histograms).  Returns ``{"queue_wait": summary,
    "end_to_end": summary}``, or None when no binding resolved a
    request — the shape behind :attr:`repro.api.RunReport.
    latency_quantiles` (one binding) and :attr:`repro.api.ClusterReport.
    latency_quantiles` (every core's).
    """
    e2e = _rolled_up(bindings, END_TO_END_HISTOGRAM)
    summary = e2e.summary() if e2e is not None else None
    if summary is None:
        return None
    wait = _rolled_up(bindings, QUEUE_WAIT_HISTOGRAM)
    return {"queue_wait": wait.summary(), "end_to_end": summary}


def merged_tenant_quantiles(
    bindings: Sequence[Telemetry],
) -> dict | None:
    """Per-tenant latency split merged bin-for-bin across bindings.

    Quantiles are not additive, so the per-core → fleet rollup happens
    at the histogram level: every binding's per-tenant queue-wait /
    service-time histograms merge (:meth:`Histogram.merged`; one
    binding summarises its own) before summarizing.  Returns
    ``{tenant: {"queue_wait": summary, "service": summary}}``, or
    None when no labelled request resolved anywhere — the shape behind
    :attr:`repro.api.RunReport.tenant_quantiles`,
    :attr:`repro.api.ClusterReport.tenant_quantiles` and the traffic
    engine's ``"tenants"`` summary entry.
    """
    prefix = QUEUE_WAIT_HISTOGRAM + "/"
    tenants: set[str] = set()
    for binding in bindings:
        for name in binding.metrics.names:
            if name.startswith(prefix):
                tenants.add(name[len(prefix):])
    if not tenants:
        return None
    merged: dict[str, dict] = {}
    for tenant in sorted(tenants):
        wait = _rolled_up(
            bindings, tenant_histogram_name(QUEUE_WAIT_HISTOGRAM, tenant)
        )
        service = _rolled_up(
            bindings, tenant_histogram_name(SERVICE_TIME_HISTOGRAM, tenant)
        )
        merged[tenant] = {
            "queue_wait": wait.summary() if wait is not None else None,
            "service": service.summary() if service is not None else None,
        }
    return merged


class Telemetry:
    """One core timeline's telemetry state.

    ``trace`` may be None (metrics without spans); ``metrics`` and
    ``clock`` default to fresh instances, and the session the binding
    is attached to serves on ``clock``.  ``process``/``track`` name
    the Chrome trace tracks this binding emits onto — a cluster builds
    one binding per core, all sharing the recorder and process but each
    with its own clock and registry (cores digitize concurrently on
    independent modelled timelines).
    """

    def __init__(
        self,
        trace: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
        clock: ModelClock | None = None,
        process: str = "session",
        track: str = "core 0",
        pid: int | None = None,
    ) -> None:
        self.trace = trace
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.clock = clock if clock is not None else ModelClock()
        self.pid = 0
        self.tid = 0
        self.tid_requests = 0
        if trace is not None:
            self.pid = pid if pid is not None else trace.process(process)
            self.tid = trace.thread(self.pid, track)
            # Requests live on a sibling track: their spans start at
            # submit time (before the flush span opens), so stacking
            # them on the core track would render as malformed nesting.
            self.tid_requests = trace.thread(self.pid, f"{track} requests")

    # -- span / instant emission (no-ops without a recorder) -----------------
    def span(
        self,
        name: str,
        category: str,
        start_s: float,
        duration_s: float,
        args: dict | None = None,
    ) -> None:
        if self.trace is not None:
            self.trace.complete(
                name, category, self.pid, self.tid, start_s, duration_s, args
            )

    def instant(
        self, name: str, category: str, args: dict | None = None
    ) -> None:
        if self.trace is not None:
            self.trace.instant(
                name, category, self.pid, self.tid, self.clock.now, args
            )

    def request_span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        args: dict | None = None,
    ) -> None:
        """One request's submit → resolved lifecycle span, on the
        requests track."""
        if self.trace is not None:
            self.trace.complete(
                name,
                "request",
                self.pid,
                self.tid_requests,
                start_s,
                duration_s,
                args,
            )

    # -- per-flush latency window --------------------------------------------
    def drain_window(
        self,
        queue_waits: Sequence[float] | np.ndarray,
        end_to_ends: Sequence[float] | np.ndarray,
        tenants: Sequence[str | None] | None = None,
    ) -> WindowQuantiles | None:
        """Record one flush window of resolved requests in one pass.

        The columns hold each request's modelled queue wait and
        end-to-end latency [s], negative-clamped (a request submitted
        mid-flush never waited), and optionally its tenant label (None
        for an unlabelled request).  The cumulative queue-wait and
        end-to-end histograms take the whole window; each label's
        queue-wait and service-time (end-to-end minus queue wait)
        histograms take its rows.  Returns the window's exact quantile
        summary, ``{"queue_wait": summary, "end_to_end": summary}``,
        computed on first read; None for an empty window (a flush that
        resolved nothing reports no quantiles).
        """
        waits = _clamped(queue_waits)
        e2es = _clamped(end_to_ends)
        if e2es.shape != waits.shape or (
            tenants is not None and len(tenants) != waits.size
        ):
            raise ConfigurationError(
                "a latency window's columns must have one entry per request"
            )
        if waits.size == 0:
            return None
        metrics = self.metrics
        metrics.histogram(QUEUE_WAIT_HISTOGRAM).observe_many(waits)
        metrics.histogram(END_TO_END_HISTOGRAM).observe_many(e2es)
        labels = dict.fromkeys(tenants) if tenants is not None else {}
        labels.pop(None, None)
        if labels:
            services = _clamped(e2es - waits)
            column = np.asarray(tenants, dtype=object)
            for label in labels:
                rows = column == label
                metrics.histogram(
                    tenant_histogram_name(QUEUE_WAIT_HISTOGRAM, label)
                ).observe_many(waits[rows])
                metrics.histogram(
                    tenant_histogram_name(SERVICE_TIME_HISTOGRAM, label)
                ).observe_many(services[rows])
        return WindowQuantiles({"queue_wait": waits, "end_to_end": e2es})

    def record_request(
        self,
        queue_wait_s: float,
        end_to_end_s: float,
        label: str | None = None,
    ) -> WindowQuantiles:
        """One resolved request as a window of its own: the one-request
        case of :meth:`drain_window`."""
        return self.drain_window((queue_wait_s,), (end_to_end_s,), (label,))

    def tenant_quantiles(self) -> dict | None:
        """Per-tenant cumulative latency split — ``{tenant:
        {"queue_wait": summary, "service": summary}}`` from the
        per-tenant histograms; None before any labelled request
        resolved."""
        return merged_tenant_quantiles([self])

    def latency_quantiles(self) -> dict | None:
        """The cumulative latency quantile summary (histogram-derived),
        in the same shape as a flush window's; None before any request
        resolved."""
        return merged_latency_quantiles([self])

    def __repr__(self) -> str:
        return (
            f"<Telemetry t={self.clock.now:.3g} s, "
            f"trace={'on' if self.trace is not None else 'off'}>"
        )
