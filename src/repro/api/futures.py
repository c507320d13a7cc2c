"""Futures and the unified per-flush report.

Every ``submit`` on the session (raw dense, conv, or a deployed model
endpoint) returns a :class:`Future` — a handle that resolves at the
flush evaluating its request.  ``result()`` is the blocking read: if
the request is still pending it triggers the session flush itself, so
callers never hand-place ``flush()`` calls.  The non-blocking
accessors (``value``, ``codes``, ``report``) raise
:class:`~repro.errors.PendingFlushError` naming the pending flush
instead of returning ``None``.

Each flush also produces one :class:`RunReport` — the unified
accounting record (requests, batches, cache behaviour, modelled analog
energy/latency) every future of that flush carries.

A future's ``label`` (for error messages and request spans) is
formatted on first read from the parts the session hands it at
submit, so a request that is served and never named pays no string
formatting.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import DeadlineExceededError, PendingFlushError
from ..telemetry.export import ReportExport

if TYPE_CHECKING:
    from .session import PhotonicSession


@dataclass(frozen=True)
class RunReport(ReportExport):
    """Unified accounting of one flush (or of a whole session).

    Counters are deltas over the covered window: the per-flush report a
    :class:`Future` carries covers exactly the requests resolved by
    that flush; :meth:`repro.api.PhotonicSession.report` returns the
    cumulative session totals in the same shape.  ``to_dict()`` /
    ``to_json()`` (shared by every report type, see
    :class:`repro.telemetry.ReportExport`) export it JSON-ready.
    """

    #: 1-based index of the flush this report covers (or the flush
    #: count so far, for a cumulative session report).
    flush_index: int
    requests: int
    batches: int
    #: Sequential ADC sample slots consumed (per-pass, all paths).
    samples: int
    cache_hits: int
    cache_misses: int
    cache_evictions: int
    #: pSRAM weight-streaming energy [J] spent on compiles / avoided by hits.
    weight_energy_spent: float
    weight_energy_saved: float
    #: Weight streaming time actually spent [s].
    weight_time_spent: float
    #: Modelled analog compute time [s] and wall-plug energy [J].
    analog_time: float
    analog_energy: float
    #: Health-loop traffic: probe checks run / probe vectors replayed
    #: (see :class:`repro.health.HealthMonitor`).
    probe_runs: int = 0
    probe_vectors: int = 0
    #: Online recalibrations performed (ladder re-bisection + re-trim).
    recalibrations: int = 0
    #: Modelled time [s] and wall-plug energy [J] spent keeping the
    #: core calibrated (probe replays, ladder re-bisection, probe
    #: program streaming) — kept apart from the serving ledger so the
    #: calibration overhead stays attributable.
    calibration_time: float = 0.0
    calibration_energy: float = 0.0
    #: Requests shed because their ``deadline=`` expired — at submit
    #: (already past) or at flush (the coalesced batch's modelled
    #: completion fell past the deadline); see
    #: :class:`~repro.errors.DeadlineExceededError`.
    deadline_misses: int = 0
    #: Modelled per-request latency distributions of the covered
    #: window — ``{"queue_wait": {...}, "end_to_end": {...}}``, each a
    #: ``{"count", "mean", "max", "p50", "p95", "p99", "p999"}``
    #: summary in seconds — populated only when the session carries a
    #: :class:`repro.telemetry.Telemetry` binding (None otherwise, so
    #: uninstrumented reports stay bit-for-bit identical).  A flush's
    #: summaries are exact over its window and computed on first read
    #: (a :class:`~repro.telemetry.metrics.WindowQuantiles` mapping,
    #: equal to the eager dict and exported like it); a cumulative
    #: session report's are histogram-derived, a plain dict.
    latency_quantiles: Mapping | None = None
    #: The same latency split per request label —
    #: ``{tenant: {"queue_wait": {...}, "service": {...}}}`` — again
    #: only with a telemetry binding attached (None otherwise).  Like
    #: ``latency_quantiles``, quantile summaries are not additive, so
    #: :meth:`combined` leaves it None; the fleet view merges at the
    #: histogram level (:attr:`repro.api.ClusterReport.tenant_quantiles`).
    tenant_quantiles: dict | None = None

    @classmethod
    def combined(cls, reports: Iterable[RunReport]) -> "RunReport":
        """Sum a sequence of reports into one fleet-level record.

        Every counter and ledger is additive across independent cores;
        ``flush_index`` sums too, becoming the total flush count of the
        covered fleet (one core in → that core's report back out; an
        empty sequence combines to an all-zero report).  Quantile
        summaries are *not* additive, so ``latency_quantiles`` stays
        None here — fleet quantiles merge at the histogram level in
        :attr:`repro.api.ClusterReport.latency_quantiles`.
        """
        reports = list(reports)
        return cls(
            flush_index=sum(report.flush_index for report in reports),
            requests=sum(report.requests for report in reports),
            batches=sum(report.batches for report in reports),
            samples=sum(report.samples for report in reports),
            cache_hits=sum(report.cache_hits for report in reports),
            cache_misses=sum(report.cache_misses for report in reports),
            cache_evictions=sum(report.cache_evictions for report in reports),
            weight_energy_spent=sum(r.weight_energy_spent for r in reports),
            weight_energy_saved=sum(r.weight_energy_saved for r in reports),
            weight_time_spent=sum(r.weight_time_spent for r in reports),
            analog_time=sum(report.analog_time for report in reports),
            analog_energy=sum(report.analog_energy for report in reports),
            probe_runs=sum(report.probe_runs for report in reports),
            probe_vectors=sum(report.probe_vectors for report in reports),
            recalibrations=sum(report.recalibrations for report in reports),
            calibration_time=sum(r.calibration_time for r in reports),
            calibration_energy=sum(r.calibration_energy for r in reports),
            deadline_misses=sum(report.deadline_misses for report in reports),
        )

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def total_latency(self) -> float:
        """Modelled serving time [s]: weight streaming + analog compute."""
        return self.weight_time_spent + self.analog_time

    @property
    def total_energy(self) -> float:
        """Modelled serving energy [J]: weight streaming + analog compute."""
        return self.weight_energy_spent + self.analog_energy

    def lines(self) -> list[str]:
        lines = [
            f"flush #{self.flush_index}: {self.requests} requests "
            f"in {self.batches} batches ({self.samples} ADC sample slots)",
            f"program cache     : {self.cache_hits} hits / "
            f"{self.cache_misses} misses ({self.cache_hit_rate:.0%} hit rate, "
            f"{self.cache_evictions} evictions)",
            f"weight energy     : {self.weight_energy_spent * 1e12:.1f} pJ spent, "
            f"{self.weight_energy_saved * 1e12:.1f} pJ saved by caching",
            f"analog latency    : {self.analog_time * 1e6:.3f} us modelled "
            f"({self.analog_energy * 1e9:.2f} nJ)",
        ]
        if self.probe_runs or self.recalibrations:
            lines.append(
                f"health            : {self.probe_runs} probe runs "
                f"({self.probe_vectors} vectors), "
                f"{self.recalibrations} recalibrations, "
                f"{self.calibration_time * 1e6:.3f} us / "
                f"{self.calibration_energy * 1e9:.2f} nJ calibration overhead"
            )
        if self.deadline_misses:
            lines.append(
                f"deadlines         : {self.deadline_misses} requests shed "
                f"past their deadline"
            )
        if self.latency_quantiles is not None:
            e2e = self.latency_quantiles["end_to_end"]
            lines.append(
                f"end-to-end        : p50 {e2e['p50'] * 1e6:.3f} us, "
                f"p99 {e2e['p99'] * 1e6:.3f} us, "
                f"p999 {e2e['p999'] * 1e6:.3f} us modelled "
                f"({e2e['count']} requests)"
            )
        return lines

    def __str__(self) -> str:
        return "\n".join(self.lines())


class Future:
    """Handle for one submitted request; resolved by a session flush.

    ``result()`` blocks (flushing the session if needed) and returns
    the payload: dequantized W @ x estimates for dense requests,
    (num_kernels, out_rows, out_cols) feature maps for conv requests,
    model outputs for endpoint submits.  ``codes`` additionally carries
    the raw ADC codes of in-grid dense requests, which run on one-tile
    programs and so produce a single tile's worth; tiled and conv
    paths accumulate partial sums digitally, so only dequantized
    estimates exist there.
    """

    __slots__ = (
        "_session",
        "_label",
        "flush_index",
        "shape",
        "_value",
        "_codes",
        "_report",
        "_done",
        "_abandoned",
        "_submitted_at",
        "_resolved_at",
        "_route",
        "_error",
        "_deadline",
        "_tenant",
    )

    def __init__(
        self,
        session: PhotonicSession,
        label: str | tuple,
        flush_index: int,
        shape: tuple | None = None,
    ) -> None:
        self._session = session
        #: The label, or the ``(template, *args)`` it formats from.
        self._label = label
        #: The 1-based flush that will resolve this future.
        self.flush_index = flush_index
        #: Expected payload shape where known ahead of time (conv route).
        self.shape = shape
        self._value: np.ndarray | None = None
        self._codes: np.ndarray | None = None
        self._report: RunReport | None = None
        self._done = False
        self._abandoned = False
        #: Modelled-clock submit/resolve timestamps [s] and the request
        #: route, read back for request lifecycle spans (the submit
        #: stamp only when a ``deadline=`` or a telemetry binding reads
        #: the stamp clock, the route only with a telemetry binding).
        self._submitted_at: float | None = None
        self._resolved_at: float | None = None
        self._route: str | None = None
        #: The typed error a shed request raises on every read
        #: (:class:`~repro.errors.DeadlineExceededError`); None while
        #: pending or when resolved with a value.
        self._error: Exception | None = None
        #: Absolute deadline [s] on the session's clock (None = best
        #: effort) and the submitting tenant's label (traffic engine).
        self._deadline: float | None = None
        self._tenant: str | None = None

    # -- resolution (session-internal) ---------------------------------------
    def _resolve(
        self,
        value: np.ndarray,
        codes: np.ndarray | None = None,
        at: float | None = None,
    ) -> None:
        """Finalize with a payload, taken as given: ``value`` a float
        array already in its final shape (:attr:`shape` on the conv
        route), ``codes`` the int ADC codes of an in-grid request (None
        elsewhere), ``at`` the resolve stamp on the service clock (its
        batch's end, on every route)."""
        self._value = value
        self._codes = codes
        self._done = True
        self._resolved_at = at

    def _attach_report(self, report: RunReport) -> None:
        self._report = report

    def _fail(self, error: Exception) -> None:
        """Finalize this future as shed: ``done`` turns True (the flush
        is over for it) but every payload read raises ``error``."""
        self._error = error
        self._done = True

    def _expire(self) -> None:
        """Shed this request past its deadline: reads raise the typed
        :class:`~repro.errors.DeadlineExceededError`."""
        self._fail(
            DeadlineExceededError(
                f"{self.label} shed: its deadline expired before its "
                f"batch could complete (deadline t={self._deadline:.3g} s "
                "on the session clock); re-submit with a later deadline "
                "or a deadline-aware flush policy"
            )
        )

    def _abandon(self) -> None:
        """Mark this future dropped by a failed flush, so later reads
        say 're-submit' instead of suggesting a retry that cannot
        succeed (the queues were cleared)."""
        self._abandoned = True

    # -- the caller surface --------------------------------------------------
    @property
    def label(self) -> str:
        """Human-readable request label, used in pending-read errors."""
        label = self._label
        if not isinstance(label, str):
            label = self._label = label[0].format(*label[1:])
        return label

    @property
    def done(self) -> bool:
        return self._done

    @property
    def abandoned(self) -> bool:
        """True when a failed flush dropped this request unresolved."""
        return self._abandoned

    @property
    def expired(self) -> bool:
        """True when this request was shed past its ``deadline=`` —
        payload reads then raise
        :class:`~repro.errors.DeadlineExceededError`."""
        return self._error is not None

    def _pending_error(self, what: str) -> PendingFlushError:
        if self._abandoned:
            return PendingFlushError(
                f"{what} of {self.label} was dropped: flush "
                f"#{self.flush_index} failed before resolving it and its "
                "queue was cleared; re-submit the request"
            )
        return PendingFlushError(
            f"{what} of {self.label} is not flushed yet — it is queued for "
            f"flush #{self.flush_index}; call result() or "
            "PhotonicSession.flush() to resolve it"
        )

    def result(self, flush: bool = True) -> np.ndarray:
        """The resolved payload, flushing the session first if needed.

        ``flush=False`` turns off the auto-flush and raises
        :class:`~repro.errors.PendingFlushError` when still pending.
        """
        if not self._done and flush and not self._abandoned:
            self._session.flush()
        if self._error is not None:
            raise self._error
        if not self._done:
            raise self._pending_error("result")
        return self._value

    @property
    def value(self) -> np.ndarray:
        """Non-blocking payload read; raises
        :class:`~repro.errors.PendingFlushError` while pending."""
        if self._error is not None:
            raise self._error
        if not self._done:
            raise self._pending_error("value")
        return self._value

    @property
    def codes(self) -> np.ndarray | None:
        """Raw ADC codes of the one-tile program an in-grid dense
        request ran on (None on every other route)."""
        if self._error is not None:
            raise self._error
        if not self._done:
            raise self._pending_error("codes")
        return self._codes

    @property
    def report(self) -> RunReport:
        """The :class:`RunReport` of the flush that resolved this future."""
        if self._report is None:
            if self._error is not None:
                raise self._error
            raise self._pending_error("report")
        return self._report

    def __repr__(self) -> str:
        if self._error is not None:
            state = "expired"
        elif self._done:
            state = "done"
        else:
            state = f"pending flush #{self.flush_index}"
        return f"<Future {self.label}: {state}>"
