"""The per-core telemetry binding the serving stack instruments against.

A :class:`Telemetry` ties together one core timeline's observability
state: the :class:`~repro.telemetry.ModelClock` its timestamps read
(the session it is attached to makes this clock its one service clock,
``BatchScheduler.clock``, so the binding reads the session's timeline
rather than keeping a second one), the (optional, shared)
:class:`~repro.telemetry.TraceRecorder` its spans land in, the
:class:`~repro.telemetry.MetricsRegistry` its counters and latency
histograms feed, and the per-flush latency window behind
:attr:`~repro.api.futures.RunReport.latency_quantiles`.

The binding is the *only* telemetry object the hot path ever touches,
and only behind a single ``is not None`` check — a session constructed
without ``trace=``/``metrics=`` holds ``telemetry = None`` and makes
zero telemetry calls; its service clock advances exactly as an
attached one's, so attaching telemetry changes no served result.
"""

from __future__ import annotations

from collections.abc import Sequence

from .clock import ModelClock
from .metrics import Histogram, MetricsRegistry, quantiles_from_samples
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


def merged_latency_quantiles(bindings: Sequence[Telemetry]) -> dict | None:
    """Cumulative queue-wait / end-to-end latency merged bin-for-bin
    across bindings (quantiles are not additive, so the rollup happens
    at the histogram level, :meth:`Histogram.merged`).  Returns
    ``{"queue_wait": summary, "end_to_end": summary}``, or None when no
    binding resolved a request — the shape behind
    :attr:`repro.api.RunReport.latency_quantiles` (one binding) and
    :attr:`repro.api.ClusterReport.latency_quantiles` (every core's).
    """
    e2e = Histogram.merged(
        [binding.metrics.histogram(END_TO_END_HISTOGRAM) for binding in bindings],
        name=END_TO_END_HISTOGRAM,
    )
    summary = e2e.summary() if e2e is not None else None
    if summary is None:
        return None
    wait = Histogram.merged(
        [binding.metrics.histogram(QUEUE_WAIT_HISTOGRAM) for binding in bindings],
        name=QUEUE_WAIT_HISTOGRAM,
    )
    return {"queue_wait": wait.summary(), "end_to_end": summary}


def merged_tenant_quantiles(
    bindings: Sequence[Telemetry],
) -> dict | None:
    """Per-tenant latency split merged bin-for-bin across bindings.

    Quantiles are not additive, so the per-core → fleet rollup happens
    at the histogram level: every binding's per-tenant queue-wait /
    service-time histograms merge (:meth:`Histogram.merged`) before
    summarizing.  Returns ``{tenant: {"queue_wait": summary,
    "service": summary}}``, or None when no labelled request resolved
    anywhere — the shape behind
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
        wait = Histogram.merged(
            [
                binding.metrics.histogram(
                    tenant_histogram_name(QUEUE_WAIT_HISTOGRAM, tenant)
                )
                for binding in bindings
            ],
            name=tenant_histogram_name(QUEUE_WAIT_HISTOGRAM, tenant),
        )
        service = Histogram.merged(
            [
                binding.metrics.histogram(
                    tenant_histogram_name(SERVICE_TIME_HISTOGRAM, tenant)
                )
                for binding in bindings
            ],
            name=tenant_histogram_name(SERVICE_TIME_HISTOGRAM, tenant),
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
        #: Per-flush latency window [s]; drained into the histograms
        #: and the flush's ``latency_quantiles`` by :meth:`drain_window`.
        self._window_wait: list[float] = []
        self._window_e2e: list[float] = []
        #: Per-tenant window split: label -> (queue waits, service
        #: times); drained into per-tenant histograms alongside the
        #: fleet-wide ones.
        self._window_tenants: dict[str, tuple[list[float], list[float]]] = {}

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

    # -- per-request latency window ------------------------------------------
    def record_request(
        self,
        queue_wait_s: float,
        end_to_end_s: float,
        label: str | None = None,
    ) -> None:
        """Add one resolved request's modelled latencies to the current
        flush window (negative-clamped: a request submitted mid-flush
        never waited).  ``label`` additionally splits the request into
        that tenant's queue-wait / service-time histograms."""
        wait = max(queue_wait_s, 0.0)
        e2e = max(end_to_end_s, 0.0)
        self._window_wait.append(wait)
        self._window_e2e.append(e2e)
        if label is not None:
            bucket = self._window_tenants.get(label)
            if bucket is None:
                bucket = ([], [])
                self._window_tenants[label] = bucket
            bucket[0].append(wait)
            bucket[1].append(max(e2e - wait, 0.0))

    def drain_window(self) -> dict | None:
        """Close the flush window: feed the cumulative histograms and
        return the window's exact quantile summary (None for an empty
        window — a flush that resolved nothing reports no quantiles)."""
        if not self._window_e2e:
            return None
        waits, e2es = self._window_wait, self._window_e2e
        self._window_wait, self._window_e2e = [], []
        self.metrics.histogram(QUEUE_WAIT_HISTOGRAM).observe_many(waits)
        self.metrics.histogram(END_TO_END_HISTOGRAM).observe_many(e2es)
        if self._window_tenants:
            tenants, self._window_tenants = self._window_tenants, {}
            for label, (tenant_waits, tenant_services) in tenants.items():
                self.metrics.histogram(
                    tenant_histogram_name(QUEUE_WAIT_HISTOGRAM, label)
                ).observe_many(tenant_waits)
                self.metrics.histogram(
                    tenant_histogram_name(SERVICE_TIME_HISTOGRAM, label)
                ).observe_many(tenant_services)
        return {
            "queue_wait": quantiles_from_samples(waits),
            "end_to_end": quantiles_from_samples(e2es),
        }

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
            f"trace={'on' if self.trace is not None else 'off'}, "
            f"{len(self._window_e2e)} window samples>"
        )
