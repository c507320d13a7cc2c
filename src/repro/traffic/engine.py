"""The open-loop traffic engine: a discrete-event driver on the
modelled clock.

:class:`TrafficEngine` replays an arrival tape
(:class:`~repro.traffic.arrivals.ArrivalProcess`) of multi-tenant
requests (:class:`~repro.traffic.workload.WorkloadMix`) through a real
:class:`~repro.api.PhotonicSession` or
:class:`~repro.api.PhotonicCluster` — no mocking, the actual submit /
flush / shed machinery runs — while *all* timing stays on modelled
clocks:

* the target is constructed with ``clock=ModelClock(...)``; the engine
  sets that clock to each arrival's timestamp before submitting, so
  flush-policy ages, ``deadline=`` stamps and queue-wait measurements
  read simulated time, never host time;
* each core's *service* clock (``session.scheduler.clock``) advances
  by modelled batch/compile durations inside flushes; before every
  event the engine pre-advances idle service clocks to the event time,
  so a backlogged core shows queue-wait and an idle one does not;
* between arrivals the engine fires the target's flush-policy triggers
  (``delay_limit`` ages, ``deadline_headroom`` slack) at their
  modelled due-times via :meth:`~repro.api.PhotonicSession.poll` —
  the discrete-event half that makes latency-bounding policies work
  in an open loop.  Each core's session publishes its own next due
  time as it books requests, so finding the next trigger reads one
  float per core; a poll lands one part per billion past its due time
  (the slack subtraction can round just above the headroom exactly
  at it) and never past the next arrival, so the arrival clock only
  moves forward.

Admission runs tenant-by-tenant through token buckets
(:class:`~repro.traffic.workload.TokenBucket`), cluster admission
control (:class:`~repro.errors.ClusterSaturatedError`) is counted
rather than raised, and the run summary folds offered load, goodput,
deadline-miss rate, latency quantiles, the per-tenant queue-wait /
service-time split, and the :class:`~repro.traffic.slo.SLO` verdict.

The engine retains no per-request state (futures are dropped once
submitted; latencies live in the telemetry histograms), so
million-request runs are memory-flat.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from ..api.cluster import PhotonicCluster
from ..api.session import PhotonicSession
from ..errors import ClusterSaturatedError, ConfigurationError
from ..telemetry import ModelClock
from .arrivals import ArrivalProcess
from .slo import SLO
from .workload import WorkloadMix

#: How many arrivals :func:`_arrivals` converts to Python scalars at once.
_TAPE_BLOCK = 4096


def _arrivals(
    times: np.ndarray, tenants: np.ndarray
) -> Iterator[tuple[int, tuple[float, int]]]:
    """``(index, (time, tenant))`` of every arrival as Python scalars
    (``tolist`` is exact), converted one block at a time so a long tape
    is never held a second time as Python objects."""
    for start in range(0, len(times), _TAPE_BLOCK):
        stop = start + _TAPE_BLOCK
        yield from enumerate(
            zip(times[start:stop].tolist(), tenants[start:stop].tolist()), start
        )


class TrafficEngine:
    """Drive one session/cluster with an open-loop modelled workload.

    ``target`` must be constructed with an injected
    :class:`~repro.telemetry.ModelClock` (``clock=``) and metrics
    attached (``metrics=``/``trace=``) — the engine owns the arrival
    clock and reads latencies out of the telemetry histograms.
    ``slo`` (optional) adds a pass/fail verdict to every summary.
    """

    def __init__(
        self,
        target: PhotonicSession | PhotonicCluster,
        workload: WorkloadMix,
        arrivals: ArrivalProcess,
        slo: SLO | None = None,
        seed: int = 2025,
    ) -> None:
        if not isinstance(workload, WorkloadMix):
            raise ConfigurationError(
                f"workload must be a repro.traffic.WorkloadMix, "
                f"got {type(workload).__name__}"
            )
        if not isinstance(arrivals, ArrivalProcess):
            raise ConfigurationError(
                f"arrivals must be a repro.traffic.ArrivalProcess, "
                f"got {type(arrivals).__name__}"
            )
        if slo is not None and not isinstance(slo, SLO):
            raise ConfigurationError(
                f"slo must be a repro.traffic.SLO or None, "
                f"got {type(slo).__name__}"
            )
        if isinstance(target, PhotonicCluster):
            self._sessions: tuple[PhotonicSession, ...] = target.sessions
            self._is_cluster = True
        elif isinstance(target, PhotonicSession):
            self._sessions = (target,)
            self._is_cluster = False
        else:
            raise ConfigurationError(
                f"target must be a PhotonicSession or PhotonicCluster, "
                f"got {type(target).__name__}"
            )
        clock = self._sessions[0].clock
        if not isinstance(clock, ModelClock):
            raise ConfigurationError(
                "the traffic engine needs a target constructed with an "
                "injected modelled clock — pass clock=ModelClock() to "
                "the session/cluster so arrival time never reads the "
                "host clock"
            )
        if any(session.clock is not clock for session in self._sessions):
            raise ConfigurationError(
                "every core must share the engine's arrival clock; "
                "construct the cluster with a single clock= instance"
            )
        if any(session.telemetry is None for session in self._sessions):
            raise ConfigurationError(
                "the traffic engine needs telemetry on every core "
                "(construct the target with metrics= or trace=) — "
                "the latency quantiles live there"
            )
        self.target = target
        self.workload = workload
        self.arrivals = arrivals
        self.slo = slo
        self.seed = int(seed)
        self.clock = clock
        self._service_clocks = tuple(
            session.scheduler.clock for session in self._sessions
        )
        #: The cluster membership version this engine's session
        #: snapshot was taken at (None for plain sessions, which never
        #: change membership).
        self._membership_seen = (
            target.membership_version if self._is_cluster else None
        )

    def _refresh_membership(self) -> None:
        """Re-snapshot the target's sessions after an elastic
        membership change (``add_core`` / autoscaler grow) so new cores
        get their service clocks driven too.  A cheap integer compare
        per event: the cluster bumps ``membership_version`` only when
        the fleet actually grows."""
        if not self._is_cluster:
            return
        version = self.target.membership_version
        if version == self._membership_seen:
            return
        sessions = self.target.sessions
        for session in sessions[len(self._sessions):]:
            if session.clock is not self.clock:
                raise ConfigurationError(
                    "a core added mid-run must share the engine's "
                    "arrival clock"
                )
            if session.telemetry is None:
                raise ConfigurationError(
                    "a core added mid-run must carry telemetry "
                    "(the cluster builds it when the fleet has any)"
                )
        self._sessions = sessions
        self._service_clocks = tuple(session.scheduler.clock for session in sessions)
        self._membership_seen = version

    # -- discrete-event machinery --------------------------------------------
    def _advance_to(self, t: float) -> None:
        """Move the arrival clock to ``t`` and pull idle service clocks
        up to it (a core that sat idle starts serving at the arrival,
        not in the past; a backlogged core keeps its later time so the
        gap shows up as queue-wait)."""
        self.clock.now = t
        for service in self._service_clocks:
            if service.now < t:
                service.now = t

    def _next_trigger(self) -> float | None:
        """The earliest modelled time any session's flush policy will
        trip on its own (delay-limit age or deadline-headroom slack);
        None when no pending traffic carries a trigger.  Each session
        publishes its own due time as it books requests
        (``PhotonicSession._due``: ``oldest_pending_at + delay_limit``
        or ``next_deadline - deadline_headroom``, whichever is earlier),
        so this reads one float per core."""
        trigger: float | None = None
        for session in self._sessions:
            due = session._due
            if due is not None and (trigger is None or due < trigger):
                trigger = due
        return trigger

    def _fire_triggers_until(self, t: float) -> None:
        """Fire every flush-policy trigger due before modelled time
        ``t``, each just past its due-time but never past ``t`` (the
        event-queue pop of a classical DES, with the policy as the
        event source), so a poll never lands after the arrival it
        precedes and the arrival clock never moves backwards."""
        while True:
            trigger = self._next_trigger()
            if trigger is None or trigger >= t:
                return
            # Land a hair *past* the due-time: at exactly `deadline -
            # headroom` the slack subtraction can round to just above
            # the headroom and the policy would not trip.  The hair is
            # relative (1 ppb of the due time): at sub-microsecond
            # modelled times an absolute one would be whole ADC periods.
            trigger = min(trigger + 1e-9 * abs(trigger), t)
            self._advance_to(max(trigger, self.clock.now))
            if self.target.poll() == 0:
                # The policy disagreed with our estimate (e.g. slack
                # recomputed after a shed); nothing resolved, so stop
                # rather than spin on the same trigger.
                return

    # -- accounting helpers --------------------------------------------------
    def _totals(self) -> tuple[int, int]:
        """(requests, deadline_misses) so far, summed over every core as
        the target report's total sums them, but read from the
        schedulers' ledgers without building any quantile summary."""
        sessions = self.target.sessions if self._is_cluster else self._sessions
        ledgers = [session.scheduler.stats() for session in sessions]
        return (
            sum(ledger.requests for ledger in ledgers),
            sum(ledger.deadline_misses for ledger in ledgers),
        )

    # -- the run loop --------------------------------------------------------
    def run(self, requests: int, input_pool: int = 256) -> dict:
        """Replay ``requests`` arrivals through the target and return
        the run summary (see the module docstring for the timeline
        semantics).  Runs are reproducible: all randomness derives from
        ``seed``, and nothing reads the host clock."""
        if not isinstance(requests, (int, np.integer)) or requests < 1:
            raise ConfigurationError(
                f"a traffic run needs requests >= 1, got {requests!r}"
            )
        rng = np.random.default_rng(self.seed)
        times = self.arrivals.times(int(requests), rng)
        tenant_index = self.workload.sample(int(requests), rng)
        weights = self.workload.materialize(rng)
        pool = self.workload.input_pool(rng, input_pool)
        buckets = [tenant.bucket() for tenant in self.workload.tenants]
        tenants = self.workload.tenants
        requests_before, misses_before = self._totals()
        obs = self.target.obs
        if obs is not None:
            obs.note_event(
                self.clock.now,
                "traffic_run_started",
                {
                    "offered": int(requests),
                    "arrivals": self.arrivals.describe(),
                    "workload": self.workload.describe(),
                    "seed": self.seed,
                },
            )

        admitted = 0
        rate_limited = 0
        admission_shed = 0
        target = self.target
        is_cluster = self._is_cluster
        for i, (t, k) in _arrivals(times, tenant_index):
            self._fire_triggers_until(t)
            # Pick up cores the autoscaler added during the previous
            # event *before* advancing clocks, so a fresh core's idle
            # service clock starts at this arrival rather than at 0.
            self._refresh_membership()
            self._advance_to(t)
            tenant = tenants[k]
            bucket = buckets[k]
            if bucket is not None and not bucket.admit(t):
                rate_limited += 1
                continue
            x = pool[k][i % len(pool[k])]
            try:
                if is_cluster:
                    target.submit(
                        weights[k],
                        x,
                        priority=tenant.priority,
                        deadline=tenant.deadline_s,
                        tenant=tenant.name,
                    )
                else:
                    target.submit(
                        weights[k],
                        x,
                        deadline=tenant.deadline_s,
                        tenant=tenant.name,
                    )
            except ClusterSaturatedError:
                admission_shed += 1
                continue
            admitted += 1
        # Drain immediately at end-of-tape: waiting out the remaining
        # delay/deadline triggers would bill the trailing partial batch
        # with policy wait the run is no longer offering traffic for,
        # inflating every makespan by up to one delay_limit.
        last_arrival = float(times[-1]) if len(times) else 0.0
        target.flush()
        self._refresh_membership()
        if target.pending != 0:
            raise ConfigurationError(
                f"traffic run left {target.pending} requests pending "
                "after the final flush"
            )

        requests_after, misses_after = self._totals()
        # The run's one report: a cluster's quantiles merge bin-for-bin
        # across cores (see repro.telemetry.merged_latency_quantiles).
        report = self.target.report()
        quantiles = report.latency_quantiles
        deadline_misses = misses_after - misses_before
        resolved = admitted - deadline_misses
        makespan = max(
            (service.now for service in self._service_clocks),
            default=last_arrival,
        )
        makespan = max(makespan, last_arrival)
        offered_rate = requests / last_arrival if last_arrival > 0 else 0.0
        p99 = None
        p50 = None
        if quantiles is not None:
            p50 = quantiles["end_to_end"]["p50"]
            p99 = quantiles["end_to_end"]["p99"]
        miss_rate = deadline_misses / requests if requests else 0.0
        summary = {
            "offered": int(requests),
            "offered_rate_per_s": offered_rate,
            "admitted": admitted,
            "rate_limited": rate_limited,
            "admission_shed": admission_shed,
            "resolved": resolved,
            "submitted_delta": requests_after - requests_before,
            "deadline_misses": deadline_misses,
            "miss_rate": miss_rate,
            "makespan_s": makespan,
            "throughput_per_s": resolved / makespan if makespan > 0 else 0.0,
            "p50_e2e_s": p50,
            "p99_e2e_s": p99,
            "latency_quantiles": quantiles,
            "tenants": report.tenant_quantiles,
            "arrivals": self.arrivals.describe(),
            "workload": self.workload.describe(),
            "flush_policy": self._sessions[0].flush_policy.describe(),
            "seed": self.seed,
        }
        if self.slo is not None:
            summary["slo"] = self.slo.describe()
            summary["slo_met"] = self.slo.met(p99, miss_rate)
        if obs is not None:
            obs.note_event(
                makespan,
                "traffic_run_finished",
                {
                    "admitted": admitted,
                    "rate_limited": rate_limited,
                    "admission_shed": admission_shed,
                    "deadline_misses": deadline_misses,
                    "miss_rate": miss_rate,
                    "slo_met": summary.get("slo_met"),
                },
            )
        return summary

    def __repr__(self) -> str:
        kind = "cluster" if self._is_cluster else "session"
        return (
            f"<TrafficEngine {kind} x{len(self._sessions)} cores, "
            f"{self.arrivals.describe()}, {self.workload.describe()}>"
        )
