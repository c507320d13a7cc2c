"""Scaling the front door: a fleet of core slots behind one API.

The paper pitches the pSRAM tensor core as a tileable building block —
throughput scales by instantiating more cores, not by pushing one core
harder.  :class:`PhotonicCluster` is that scale-out step for the
serving API: it owns **N** :class:`~repro.api.PhotonicSession` core
slots (each a full session — its own
:class:`~repro.runtime.scheduler.BatchScheduler`, LRU program caches
and ADC ladder memo) behind the same ``submit`` / ``submit_conv`` /
``compile`` → :class:`~repro.api.futures.Future` surface, so
single-core code is just ``PhotonicCluster(cores=1)`` and the existing
:class:`PhotonicSession` remains the 1-core specialization.

On top of the per-core sessions the cluster adds:

* a pluggable :class:`~repro.api.routing.RoutingPolicy` (round-robin /
  least-loaded / cache-affinity consistent hashing of weight-program
  keys) deciding which slot each routed request lands on;
* per-request QoS — ``priority=`` on every submit route orders which
  cores flush first, and admission control (``max_pending``) sheds
  best-effort traffic with a typed
  :class:`~repro.errors.ClusterSaturatedError` once the fleet backlog
  hits the cap (positive-priority requests bypass the shed gate);
* :meth:`compile` with ``replicas=k`` — one model deployed onto k
  distinct cores, batches fanned out round-robin across the replicas
  with each session's per-stage analog accounting intact;
* :meth:`report` — a :class:`ClusterReport` rolling the per-core
  :class:`~repro.api.futures.RunReport` records into fleet totals plus
  per-core utilization and imbalance statistics;
* **elastic fleets** (:mod:`repro.elastic`) — an optional
  :class:`~repro.elastic.Autoscaler` policy grows
  (:meth:`add_core` / :meth:`scale_up`, warm-started from an attached
  :class:`~repro.elastic.ProgramStore`) and shrinks
  (:meth:`scale_down`, reusing the drain machinery to *park* a core)
  the fleet between ``min_cores`` and ``max_cores`` on load watermarks;
  per-slot :class:`~repro.elastic.CoreSpec` overrides build
  heterogeneous fleets whose capability-aware router places each
  program shape on the cheapest capable core, and cache-affinity
  routing runs on an incremental :class:`~repro.api.routing.HashRing`
  so hot programs keep their homes across membership changes.

Each fleet concern has one path.  Every submit route passes one
admission gate (``_admit``), which runs the request's session-side
checks only on the shed path.  Every fleet transition (shed, drain,
restore, add_core, scale up and down) reaches the fleet registry, the
trace's "fleet" track and the observer through one recorder
(``_record``).  Fleet latency quantiles come from
:func:`repro.telemetry.merged_latency_quantiles`.  ``grid=`` goes
through the session's own parser, and the ``program_store=`` and
``obs=`` type checks are left to the sessions the cluster builds.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..config import Technology, default_technology
from ..elastic import Autoscaler, CoreSpec, FleetSnapshot, ProgramStore
from ..errors import ClusterSaturatedError, ConfigurationError
from ..health.drift import DriftModel, DriftState
from ..health.monitor import HealthPolicy, HealthReport
from ..runtime.engine import weight_key
from ..runtime.scheduler import check_dense_weights
from ..telemetry import (
    Counter,
    MetricsRegistry,
    ModelClock,
    ReportExport,
    Telemetry,
    TraceRecorder,
    merged_latency_quantiles,
    merged_tenant_quantiles,
)
from .futures import Future, RunReport
from .graph import Model
from .policy import FlushPolicy
from .routing import HashRing, RoutingPolicy
from .session import DeployedModel, DriftLike, PhotonicSession

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from ..obs import Observer


@dataclass(frozen=True)
class ClusterReport(ReportExport):
    """Fleet-level accounting: per-core reports rolled into totals.

    ``total`` is the element-wise sum of ``per_core`` (see
    :meth:`RunReport.combined`); ``routed`` counts the requests the
    cluster steered to each core and ``shed`` the requests admission
    control rejected.  On a one-core cluster ``total`` equals that
    core's session report bit for bit.  ``to_dict()`` / ``to_json()``
    export the whole record (per-core reports included) JSON-ready.
    """

    cores: int
    routing: str
    total: RunReport
    per_core: tuple[RunReport, ...]
    #: Requests routed through the cluster to each core, in core order.
    routed: tuple[int, ...]
    #: Requests rejected by admission control (ClusterSaturatedError).
    shed: int
    #: Cores currently drained out of the routing rotation.
    draining: tuple[int, ...] = ()
    #: Drain cycles performed so far (maintenance drain → restore).
    drains: int = 0
    #: Autoscaler grow events (unpark or ``add_core``) so far.
    scale_ups: int = 0
    #: Autoscaler shrink events (drain → park) so far.
    scale_downs: int = 0
    #: Integral of the active-core count over modelled time [core·s]:
    #: the capacity a fleet actually paid for — an autoscaled fleet
    #: meeting the same SLO as a static max-size fleet shows the
    #: savings here.  Timed on the injected ``clock=`` when one is
    #: shared, else on the furthest-along core's service clock.
    core_seconds: float = 0.0
    #: Requests pending per core at report time (the per-core
    #: :attr:`~repro.runtime.scheduler.SchedulerStats.pending` signal
    #: the autoscaler and least-loaded routing watch), in core order.
    pending: tuple[int, ...] = ()
    #: Deadline-shed requests per core (each core's cumulative
    #: ``RunReport.deadline_misses``), in core order.
    deadline_shed: tuple[int, ...] = ()
    #: Fleet-wide modelled latency distributions, merged bin-for-bin
    #: from the per-core telemetry histograms (quantiles are not
    #: additive, so the merge happens at the histogram level — see
    #: :func:`repro.telemetry.merged_latency_quantiles`).  None on a
    #: cluster without telemetry or before any request resolved.
    latency_quantiles: dict | None = None
    #: Fleet-wide per-tenant queue-wait / service-time split, merged
    #: bin-for-bin from the per-core per-tenant histograms (see
    #: :func:`repro.telemetry.merged_tenant_quantiles`).  None without
    #: telemetry or before any labelled request resolved.
    tenant_quantiles: dict | None = None

    @property
    def cache_hit_rate(self) -> float:
        """Aggregate program-cache hit rate across the fleet."""
        return self.total.cache_hit_rate

    @property
    def utilization(self) -> tuple[float, ...]:
        """Each core's share of the fleet's ADC sample slots (sums to
        1.0 when any analog work ran; all zeros otherwise)."""
        if self.total.samples == 0:
            return tuple(0.0 for _ in self.per_core)
        return tuple(
            report.samples / self.total.samples for report in self.per_core
        )

    @property
    def fleet_latency(self) -> float:
        """Modelled serving time [s] of the whole fleet: cores run
        concurrently, so the slowest core's weight-streaming + analog
        total is the makespan (one core in → that core's latency;
        an empty fleet or zero-request window reports 0.0)."""
        return max(
            (report.total_latency for report in self.per_core), default=0.0
        )

    @property
    def imbalance(self) -> float:
        """Hottest core over the fleet mean, in ADC samples (1.0 =
        perfectly balanced; ``cores`` = everything on one core).  A
        zero-request window — a flush firing with nothing queued, or
        an empty fleet — is trivially balanced at 1.0 rather than a
        division by zero."""
        if not self.per_core or self.total.samples == 0:
            return 1.0
        mean = self.total.samples / self.cores
        return max(report.samples for report in self.per_core) / mean

    def lines(self) -> list[str]:
        lines = [
            f"cluster of {self.cores} cores, routing {self.routing}: "
            f"{self.total.requests} requests "
            f"({self.shed} shed by admission control)"
        ]
        lines.extend(self.total.lines()[1:])
        for index, (report, share) in enumerate(
            zip(self.per_core, self.utilization)
        ):
            lines.append(
                f"core {index}            : {self.routed[index]} routed, "
                f"{report.samples} samples ({share:.0%} of fleet), "
                f"{report.cache_hits}/{report.cache_hits + report.cache_misses} "
                f"cache hits"
            )
        lines.append(f"imbalance         : {self.imbalance:.2f}x fleet mean")
        if self.latency_quantiles is not None:
            e2e = self.latency_quantiles["end_to_end"]
            lines.append(
                f"fleet end-to-end  : p50 {e2e['p50'] * 1e6:.3f} us, "
                f"p99 {e2e['p99'] * 1e6:.3f} us, "
                f"p999 {e2e['p999'] * 1e6:.3f} us modelled "
                f"({e2e['count']} requests)"
            )
        if self.drains or self.draining:
            drained = (
                ", ".join(str(core) for core in self.draining)
                if self.draining
                else "none"
            )
            lines.append(
                f"maintenance       : {self.drains} drain cycles, "
                f"currently drained: {drained}"
            )
        if self.scale_ups or self.scale_downs or self.core_seconds:
            lines.append(
                f"autoscaling       : {self.scale_ups} scale-ups, "
                f"{self.scale_downs} scale-downs, "
                f"{self.core_seconds:.3g} core-seconds"
            )
        return lines

    def __str__(self) -> str:
        return "\n".join(self.lines())


class ReplicatedModel:
    """One model deployed onto ``k`` distinct cores of a cluster.

    ``submit(batch)`` fans whole batches out round-robin across the
    replica endpoints (a batch stays on one replica so it coalesces
    into that core's dense evaluation and its per-stage analog
    accounting lands on that core's ledger); ``predict`` (also
    ``__call__``) is the blocking convenience.
    """

    def __init__(
        self,
        cluster: "PhotonicCluster",
        endpoints: tuple[DeployedModel, ...],
        core_indices: tuple[int, ...],
        label: str,
    ) -> None:
        self._cluster = cluster
        self._endpoints = endpoints
        self._core_indices = core_indices
        self.label = label
        self._cursor = 0

    @property
    def model(self) -> Model:
        return self._endpoints[0].model

    @property
    def replicas(self) -> int:
        return len(self._endpoints)

    @property
    def endpoints(self) -> tuple[DeployedModel, ...]:
        """The per-core :class:`DeployedModel` endpoints, in placement
        order (their ``session`` attributes name the backing cores)."""
        return self._endpoints

    @property
    def core_indices(self) -> tuple[int, ...]:
        """Which cluster core each replica endpoint lives on."""
        return self._core_indices

    def submit(
        self,
        batch: ArrayLike,
        priority: int = 0,
        deadline: float | None = None,
        tenant: str | None = None,
    ) -> Future:
        """Queue one forward pass on the next replica in rotation.

        Replicas on drained cores sit the rotation out — the active
        replicas absorb their traffic during maintenance (if every
        replica is drained, the batch falls back to the full set so
        the model never refuses traffic).
        """
        priority = self._cluster._admit(
            priority, deadline, self._endpoints[0]._validated_batch, batch
        )
        drained = self._cluster._drained
        slots = [
            slot
            for slot in range(len(self._endpoints))
            if self._core_indices[slot] not in drained
        ] or list(range(len(self._endpoints)))
        slot = slots[self._cursor % len(slots)]
        future = self._endpoints[slot].submit(
            batch, deadline=deadline, tenant=tenant
        )
        # Only a successfully queued batch advances the rotation and
        # the cluster bookkeeping — a rejected batch routes nowhere.
        self._cursor += 1
        self._cluster._note_routed(self._core_indices[slot], priority)
        return future

    def predict(self, batch: ArrayLike, priority: int = 0) -> np.ndarray:
        """Blocking forward: submit + :meth:`Future.result`."""
        return self.submit(batch, priority=priority).result()

    __call__ = predict

    def __repr__(self) -> str:
        return (
            f"<ReplicatedModel '{self.label}': {self.replicas} replicas "
            f"on cores {list(self._core_indices)}>"
        )


class PhotonicCluster:
    """N session-backed core slots behind the single-session surface.

    Construction mirrors :class:`~repro.api.PhotonicSession` (every
    per-core knob passes straight through to the slots) plus the fleet
    knobs: ``cores``, ``routing`` (a
    :class:`~repro.api.routing.RoutingPolicy`; default round-robin) and
    ``max_pending`` (fleet-wide admission cap; None = never shed).

    The elastic knobs (all optional, see :mod:`repro.elastic`):
    ``core_specs`` gives per-slot :class:`~repro.elastic.CoreSpec`
    overrides for heterogeneous fleets; ``autoscaler`` attaches an
    :class:`~repro.elastic.Autoscaler` policy that grows/parks slots
    on load watermarks; ``program_store`` attaches a
    :class:`~repro.elastic.ProgramStore` every slot warm-starts its
    compiled weight programs from (and writes through to).
    """

    def __init__(
        self,
        cores: int = 1,
        technology: Technology | None = None,
        grid: tuple[int, int] | None = None,
        weight_bits: int | None = None,
        adc_bits: int | None = None,
        cache_capacity: int = 8,
        max_batch: int = 256,
        flush_policy: FlushPolicy | None = None,
        routing: RoutingPolicy | None = None,
        max_pending: int | None = None,
        drift: DriftLike = None,
        health_policy: HealthPolicy | None = None,
        core_specs: Sequence[CoreSpec | None] | None = None,
        autoscaler: Autoscaler | None = None,
        program_store: ProgramStore | None = None,
        trace: TraceRecorder | None = None,
        metrics: MetricsRegistry | None = None,
        clock: ModelClock | None = None,
        obs: Observer | None = None,
        label: str = "cluster",
    ) -> None:
        if not isinstance(cores, (int, np.integer)) or cores < 1:
            raise ConfigurationError(f"a cluster needs cores >= 1, got {cores!r}")
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1 (or None to never shed), "
                f"got {max_pending}"
            )
        if routing is not None and not isinstance(routing, RoutingPolicy):
            raise ConfigurationError(
                f"routing must be a RoutingPolicy, got {type(routing).__name__}"
            )
        if isinstance(drift, DriftState) and cores > 1:
            raise ConfigurationError(
                "pass the DriftModel suite (not a DriftState) to a "
                "multi-core cluster so every core gets its own "
                "independent drift state"
            )
        if health_policy is not None and not isinstance(health_policy, HealthPolicy):
            raise ConfigurationError(
                f"health_policy must be a repro.health.HealthPolicy, "
                f"got {type(health_policy).__name__}"
            )
        if autoscaler is not None and not isinstance(autoscaler, Autoscaler):
            raise ConfigurationError(
                f"autoscaler must be a repro.elastic.Autoscaler, "
                f"got {type(autoscaler).__name__}"
            )
        if core_specs is not None:
            specs = tuple(core_specs)
            if len(specs) != int(cores):
                raise ConfigurationError(
                    f"core_specs must give one CoreSpec (or None) per "
                    f"core slot: got {len(specs)} specs for {cores} cores"
                )
            for spec in specs:
                if spec is not None and not isinstance(spec, CoreSpec):
                    raise ConfigurationError(
                        f"core_specs entries must be CoreSpec or None, "
                        f"got {type(spec).__name__}"
                    )
        else:
            specs = (None,) * int(cores)
        # Resolved once (no grid = the technology's default tile), so a
        # slot's CoreSpec can override rows and columns independently.
        rows, columns = PhotonicSession._validated_grid(grid)
        if rows is None:
            tensor = (
                technology if technology is not None else default_technology()
            ).tensor
            rows, columns = tensor.rows, tensor.columns
        self.routing = routing if routing is not None else RoutingPolicy.round_robin()
        self.max_pending = max_pending
        #: Fleet maintenance policy; per-core sessions stay policy-free
        #: so the cluster (which can drain cores) owns recalibration.
        self.health_policy = health_policy
        if drift is not None and not isinstance(drift, DriftState):
            # Materialize the model suite once: each session wraps it
            # into its own independent DriftState (cores age apart).
            drift = (drift,) if isinstance(drift, DriftModel) else tuple(drift)
        self.label = str(label)
        # -- telemetry (repro.telemetry) --------------------------------
        #: Optional fleet-level :class:`~repro.telemetry.Telemetry`
        #: binding: holds the fleet registry (routed/shed/drain
        #: counters) and the "fleet" trace track carrying shed / drain /
        #: restore instants.  Each core session gets its *own* binding
        #: (own registry, and a clock that becomes that core's service
        #: clock — cores digitize concurrently on independent
        #: timelines) sharing the recorder and the cluster's trace
        #: process.  None without ``trace=``/``metrics=``, and then the
        #: fleet makes zero telemetry calls.
        if trace is not None and not isinstance(trace, TraceRecorder):
            raise ConfigurationError(
                f"trace must be a repro.telemetry.TraceRecorder, "
                f"got {type(trace).__name__}"
            )
        if metrics is not None and not isinstance(metrics, MetricsRegistry):
            raise ConfigurationError(
                f"metrics must be a repro.telemetry.MetricsRegistry, "
                f"got {type(metrics).__name__}"
            )
        self.telemetry: Telemetry | None
        self._trace = trace
        self._pid: int | None = None
        if trace is not None or metrics is not None:
            pid = trace.process(self.label) if trace is not None else None
            self._pid = pid
            self.telemetry = Telemetry(
                trace=trace,
                metrics=metrics,
                process=self.label,
                track="fleet",
                pid=pid,
            )
        else:
            self.telemetry = None
        # -- active observability (repro.obs) ---------------------------
        #: Optional :class:`~repro.obs.Observer` shared by the fleet:
        #: every core session feeds it flush/health samples (and checks
        #: its type), and the cluster feeds it shed / drain / restore /
        #: scale events.  None (the default) = the serving path makes
        #: zero obs calls.
        self.obs = obs
        #: Set while a scale_up/scale_down reuses the drain, restore or
        #: add_core machinery: :meth:`_record` then sends the observer
        #: the scale event alone.
        self._in_scale_change = False
        #: The elastic policy (None = fixed fleet) and the shared
        #: compiled-program store (None = every slot cold-compiles).
        self.autoscaler = autoscaler
        self.program_store = program_store
        self._clock = clock
        # Everything a *new* slot is built from — add_core() replays
        # these (modulo its CoreSpec overrides) so grown slots match
        # the founding fleet.
        self._core_defaults: dict = dict(
            technology=technology,
            rows=rows,
            columns=columns,
            weight_bits=weight_bits,
            adc_bits=adc_bits,
            cache_capacity=cache_capacity,
            max_batch=max_batch,
            flush_policy=flush_policy,
            drift=drift,
        )
        #: Requests pending fleet-wide (:attr:`pending`): each core's
        #: session adds the requests it books and drops its window as
        #: its flush starts.
        self._backlog = 0
        # Sessions only ever *grow*: scale-down parks a slot (drain +
        # out of rotation) rather than deleting it, so core indices —
        # and every consumer holding them (hash ring members, replica
        # placements, traffic engines, report deltas) — stay stable.
        self._sessions: list[PhotonicSession] = [
            self._build_session(index, specs[index])
            for index in range(int(cores))
        ]
        if health_policy is not None:
            for session in self._sessions:
                session.ensure_monitor(health_policy)
        self._specs: list[CoreSpec | None] = list(specs)
        self._core_caps: list[tuple[int, int, int]] = [
            self._session_caps(session) for session in self._sessions
        ]
        self._heterogeneous = len(set(self._core_caps)) > 1
        self._ring = HashRing(range(int(cores)))
        #: Routes under a key-hashing policy, valid for one rotation:
        #: (route kind, min_adc_bits, shape, dtype, bytes) of a program
        #: as the caller gave it -> the core :meth:`_route` picked.
        #: :meth:`invalidate_routes` clears it on every rotation change.
        self._routes: dict[tuple, int] = {}
        #: Bumped on every membership change (add_core); long-lived
        #: consumers holding a session snapshot (e.g.
        #: :class:`~repro.traffic.TrafficEngine`) re-snapshot when it
        #: moves.
        self.membership_version = 0
        self._cursor = 0
        self._routed = [0] * int(cores)
        #: The fleet binding's ``routed`` counter, looked up on the
        #: first routed request (so none exists before it) and kept.
        self._routed_counter: Counter | None = None
        self._shed = 0
        #: Highest priority admitted per core since its last fleet flush
        #: (None = only default traffic); orders flush() across cores.
        self._pending_priority: list[int | None] = [None] * int(cores)
        #: Fleet-wide submit sequence number of each core's oldest
        #: pending request (None = nothing pending); breaks priority
        #: ties in :meth:`_flush_order` deterministically by submit
        #: order instead of the unstable core index alone.
        self._pending_since: list[int | None] = [None] * int(cores)
        self._submit_seq = 0
        self._replicated: list[ReplicatedModel] = []
        self._drained: set[int] = set()
        self._drains = 0
        #: Total core flush count the last health maintenance ran at.
        self._health_watermark = 0
        self._in_maintenance = False
        # -- elastic state --------------------------------------------------
        #: Slots scaled down (subset of _drained): drained AND eligible
        #: to rejoin warm on the next scale-up, LRU caches intact.
        self._parked: set[int] = set()
        self._scale_ups = 0
        self._scale_downs = 0
        #: Total core flush count the last autoscale decision ran at,
        #: and the shed/miss counters it had seen — decisions vote on
        #: *deltas* per window, not lifetime totals.
        self._scale_watermark = 0
        self._scale_shed_seen = 0
        self._scale_miss_seen = 0
        self._last_scale_at: float | None = None
        self._in_scaling = False
        self._core_seconds = 0.0
        self._seconds_accrued_at = self._elastic_now()
        obs_binding = self.obs
        if obs_binding is not None:
            obs_binding.attach_fleet(self._obs_fleet_snapshot)

    # -- slot construction ---------------------------------------------------
    def _core_binding(self, index: int) -> Telemetry | None:
        """One core slot's telemetry binding (own registry, and a clock
        the slot's session makes its service clock; shared
        recorder/process); None without telemetry."""
        if self.telemetry is None:
            return None
        return Telemetry(
            trace=self._trace,
            process=self.label,
            track=f"core {index}",
            pid=self._pid,
        )

    def _build_session(self, index: int, spec: CoreSpec | None) -> PhotonicSession:
        """Build slot ``index`` from the cluster defaults with the
        spec's per-dimension overrides; the shared program store (when
        attached) rides in so the slot warm-starts its programs, and the
        slot keeps this cluster's backlog (:attr:`pending`) current."""
        defaults = self._core_defaults
        spec = spec if spec is not None else CoreSpec()
        session = PhotonicSession(
            technology=defaults["technology"],
            grid=(
                spec.rows if spec.rows is not None else defaults["rows"],
                spec.columns if spec.columns is not None else defaults["columns"],
            ),
            weight_bits=(
                spec.weight_bits
                if spec.weight_bits is not None
                else defaults["weight_bits"]
            ),
            adc_bits=(
                spec.adc_bits if spec.adc_bits is not None else defaults["adc_bits"]
            ),
            cache_capacity=defaults["cache_capacity"],
            max_batch=defaults["max_batch"],
            flush_policy=defaults["flush_policy"],
            drift=defaults["drift"],
            telemetry=self._core_binding(index),
            clock=self._clock,
            program_store=self.program_store,
            obs=self.obs,
            label=f"{self.label}/core{index}",
        )
        session._fleet = self
        return session

    @staticmethod
    def _session_caps(session: PhotonicSession) -> tuple[int, int, int]:
        """(rows, columns, adc_bits) — what capability routing reads."""
        return (session.rows, session.columns, session.core.row_adcs[0].bits)

    # -- fleet geometry ------------------------------------------------------
    @property
    def cores(self) -> int:
        return len(self._sessions)

    @property
    def sessions(self) -> tuple[PhotonicSession, ...]:
        """The per-core sessions, in core-index order."""
        return tuple(self._sessions)

    @property
    def technology(self) -> Technology:
        return self._sessions[0].technology

    @property
    def flush_policy(self) -> FlushPolicy:
        """The per-core flush policy (every slot shares one)."""
        return self._sessions[0].flush_policy

    @property
    def rows(self) -> int:
        return self._sessions[0].rows

    @property
    def columns(self) -> int:
        return self._sessions[0].columns

    @property
    def pending(self) -> int:
        """Fleet-wide requests submitted but not yet flushed: the
        running backlog every core's session keeps current as it books
        a request and as its flush starts (by whatever path: a blocking
        ``result()``, a core's own ``flush()``, :meth:`poll`,
        :meth:`drain`, a failed flush), so a read sums no core."""
        return self._backlog

    @property
    def next_deadline(self) -> float | None:
        """Earliest absolute deadline among the fleet's pending
        requests (None when nothing pending carries one)."""
        deadlines = [
            session.next_deadline
            for session in self._sessions
            if session.next_deadline is not None
        ]
        return min(deadlines) if deadlines else None

    @property
    def flushes(self) -> int:
        """Total completed flushes across the fleet."""
        return sum(session.flushes for session in self._sessions)

    @property
    def models(self) -> tuple[ReplicatedModel, ...]:
        """Deployed replicated models, in compile order."""
        return tuple(self._replicated)

    @property
    def active_cores(self) -> tuple[int, ...]:
        """Cores currently in the routing rotation (not drained)."""
        return tuple(
            index for index in range(self.cores) if index not in self._drained
        )

    @property
    def draining(self) -> tuple[int, ...]:
        """Cores currently drained out of rotation, ascending."""
        return tuple(sorted(self._drained))

    @property
    def parked(self) -> tuple[int, ...]:
        """Slots scaled down and waiting warm (subset of
        :attr:`draining`), ascending."""
        return tuple(sorted(self._parked))

    @property
    def core_specs(self) -> tuple[CoreSpec | None, ...]:
        """The per-slot :class:`~repro.elastic.CoreSpec` overrides
        (None = cluster default), in core-index order."""
        return tuple(self._specs)

    # -- telemetry -----------------------------------------------------------
    def _fleet_now(self) -> float:
        """The fleet's modelled 'now': cores run concurrently on
        independent service clocks, so fleet-scope events (sheds,
        drains) timestamp at the furthest-along core."""
        return max(session.scheduler.clock.now for session in self._sessions)

    def _record(
        self,
        name: str,
        args: dict,
        kind: str | None = None,
        counter: str | None = None,
        active: bool = False,
        obs_args: dict | None = None,
    ) -> None:
        """Write one fleet transition to every attached sink, in order:
        ``counter`` incremented and (with ``active``) the
        ``active_cores`` gauge set in the fleet registry, the instant
        ``name`` with ``args`` on the fleet trace track, then the
        observer event ``kind`` with ``obs_args`` (else ``args``), both
        stamped at :meth:`_fleet_now`.  A scale change records itself,
        so the drain, restore or add_core it performs sends no observer
        event."""
        tel = self.telemetry
        if tel is not None:
            metrics = tel.metrics
            if counter is not None:
                metrics.counter(counter).inc()
            if active:
                metrics.gauge("active_cores").set(len(self.active_cores))
            if tel.trace is not None:
                tel.clock.now = self._fleet_now()
                tel.instant(name, "fleet", args)
        obs = self.obs
        if obs is not None and kind is not None and not self._in_scale_change:
            obs.note_event(
                self._fleet_now(), kind, args if obs_args is None else obs_args
            )

    def _obs_fleet_snapshot(self) -> dict:
        """The fleet's state at an incident dump (see
        :meth:`repro.obs.Observer.attach_fleet`): membership, backlog
        and routing/scale counters — enough to reconstruct what the
        fleet looked like when an alert fired."""
        return {
            "label": self.label,
            "cores": self.cores,
            "active_cores": list(self.active_cores),
            "draining": sorted(self._drained),
            "parked": sorted(self._parked),
            "pending": self.pending,
            "routed": list(self._routed),
            "shed": self._shed,
            "drains": self._drains,
            "scale_ups": self._scale_ups,
            "scale_downs": self._scale_downs,
            "at": self._fleet_now(),
        }

    # -- elastic bookkeeping -------------------------------------------------
    def _elastic_now(self) -> float:
        """Modelled 'now' for scale decisions and core-second
        accounting: the injected clock when one is shared fleet-wide,
        else the furthest-along core's service clock (attached or
        not)."""
        clock = self._clock
        return clock.now if clock is not None else self._fleet_now()

    def _core_seconds_now(self) -> tuple[float, float]:
        """'Now' and the core-seconds integral up to it: the closed
        intervals plus the open one, billed at the *current* active-core
        count.  Reading it changes nothing, so a report does not split
        the integral."""
        now = self._elastic_now()
        elapsed = now - self._seconds_accrued_at
        if elapsed > 0.0:
            return now, self._core_seconds + elapsed * len(self.active_cores)
        return self._seconds_accrued_at, self._core_seconds

    def _accrue_core_seconds(self) -> None:
        """Close the open core-seconds interval at 'now'.  Every rotation
        change (:meth:`drain`, :meth:`restore`, :meth:`add_core`) calls
        it first, so each interval is billed at the fleet size that
        actually served it."""
        self._seconds_accrued_at, self._core_seconds = self._core_seconds_now()

    # -- QoS -----------------------------------------------------------------
    def _admit(
        self,
        priority: int,
        deadline: float | None,
        check: Callable[..., object],
        *request: object,
    ) -> int:
        """Admission control, the one gate of every submit route:
        returns the checked ``priority`` of a request that may queue.
        Once ``max_pending`` requests are queued fleet-wide (the running
        backlog, :attr:`pending`, one read however many cores), best-effort
        traffic (priority <= 0) is shed; positive priority bypasses.  A
        request about to be shed first meets the validation its session
        would run, ``check(*request)`` and the deadline check, so a
        malformed one raises that error, is not counted and queues
        nothing; a well-formed one is counted and recorded, and raises
        :class:`ClusterSaturatedError`.  An admitted request is
        validated by its session alone."""
        if priority.__class__ is not int:
            if not isinstance(priority, (int, np.integer)) or isinstance(priority, bool):
                raise ConfigurationError(
                    f"priority must be an integer (0 = best-effort, higher "
                    f"flushes first and bypasses shedding), got {priority!r}"
                )
            priority = int(priority)
        if (
            self.max_pending is None
            or priority > 0
            or self._backlog < self.max_pending
        ):
            return priority
        check(*request)
        if deadline is not None:
            PhotonicSession._check_deadline(deadline)
        self._shed += 1
        pending = self._backlog
        self._record(
            "shed",
            {"pending": pending, "max_pending": self.max_pending},
            kind="shed",
            counter="shed",
        )
        raise ClusterSaturatedError(
            f"cluster saturated: {pending} requests pending >= "
            f"max_pending={self.max_pending}; flush()/poll() to drain, "
            "raise max_pending, or submit with priority > 0 to bypass"
        )

    def _note_routed(self, core: int, priority: int) -> None:
        """Bookkeeping for one *successfully queued* request (call
        after the session accepted it, so a rejected submit neither
        counts as routed nor pins a phantom priority).  Its health or
        autoscale step, run only when that policy is attached, may
        change the rotation."""
        self._routed[core] += 1
        self._submit_seq += 1
        if self.telemetry is not None:
            counter = self._routed_counter
            if counter is None:
                counter = self._routed_counter = self.telemetry.metrics.counter("routed")
            counter.inc()
        if not self._sessions[core]._window:
            # The submit tripped the core's own flush policy and the
            # request already resolved: nothing pending to prioritize.
            self._pending_priority[core] = None
            self._pending_since[core] = None
        else:
            current = self._pending_priority[core]
            if current is None or priority > current:
                self._pending_priority[core] = priority
            if self._pending_since[core] is None:
                self._pending_since[core] = self._submit_seq
        if self.health_policy is not None:
            self._maybe_run_health()
        if self.autoscaler is not None:
            self._maybe_autoscale()

    # -- routed request paths ------------------------------------------------
    def _placement_cost(self, core: int, shape: tuple[int, int]) -> tuple[int, int]:
        """Cost of serving ``shape`` on ``core``: (powered cells, tile
        passes), compared lexicographically.  Small shapes are cheapest
        on small grids (no dead cells), large shapes on large grids
        (fewer tile passes) — exactly the heterogeneous trade-off; on
        equal cells the fewer-passes core wins (less scheduling and
        weight-streaming overhead)."""
        rows, columns, _ = self._core_caps[core]
        out_features, in_features = shape
        tiles = -(-out_features // rows) * -(-in_features // columns)
        return (tiles * rows * columns, tiles)

    def _capable_cores(
        self,
        shape: tuple[int, int] | None,
        min_adc_bits: int | None,
    ) -> tuple[int, ...]:
        """The active cores a request may land on.  ADC precision is a
        hard-ish constraint (graceful fallback: when no active core
        reaches ``min_adc_bits``, the highest-precision cores stand in
        rather than refusing traffic); on a heterogeneous fleet the
        cheapest-capable cores by :meth:`_placement_cost` remain."""
        candidates = self.active_cores
        if min_adc_bits is not None and len(candidates) > 1:
            capable = tuple(
                index
                for index in candidates
                if self._core_caps[index][2] >= min_adc_bits
            )
            if not capable:
                best = max(self._core_caps[index][2] for index in candidates)
                capable = tuple(
                    index
                    for index in candidates
                    if self._core_caps[index][2] == best
                )
            candidates = capable
        if shape is not None and self._heterogeneous and len(candidates) > 1:
            costs = {
                index: self._placement_cost(index, shape)
                for index in candidates
            }
            cheapest = min(costs.values())
            candidates = tuple(
                index for index in candidates if costs[index] == cheapest
            )
        return candidates

    def invalidate_routes(self) -> None:
        """Forget every memoised route.  Called on each rotation change
        (:meth:`drain`, :meth:`restore`, :meth:`add_core`), since the
        drained set, the ring and the core capabilities are all that
        :meth:`_route` reads besides the program, and when the memo
        reaches its bound (see :meth:`_accept`)."""
        self._routes.clear()

    def _route(
        self, kind: str, program: np.ndarray, min_adc_bits: int | None
    ) -> tuple[int, tuple | None, tuple | None]:
        """Pick the core for one request: ``program`` is the dense
        weight matrix (``kind`` ``"dense"``) or the conv kernel bank
        (``"conv"``), as the caller gave it.

        Drained/parked cores are out of rotation and capability
        filtering (the program's shape, ``min_adc_bits``) narrows the
        sub-fleet first; cache-affinity then resolves on the
        membership-stable :class:`~repro.api.routing.HashRing`
        (restricted to the capable sub-fleet), so a hot program keeps
        its home core across scale events, while the stateless
        policies decide over the sub-fleet by index.

        A key-hashing policy routes each program once per rotation: the
        answer is memoised on the program's exact content (numeric
        dtypes only; an object array's bytes are pointers), so a repeat
        costs one ``tobytes`` and one dict probe instead of a
        serialization, a hash and a ring walk.  Returns the core, the
        program's content key ``(shape, dtype, bytes)`` when one was
        built (the routed session's program memo takes it as its own
        key, see :meth:`submit`) and, for a miss the memo should learn,
        its route key (None on a hit or under a stateless policy);
        :meth:`_accept` stores it once the session has accepted the
        request, so a rejected request leaves no entry.
        """
        content = route = None
        needs_key = self.routing.needs_key
        if needs_key and program.dtype.kind in "biuf":
            content = (program.shape, program.dtype, program.tobytes())
            route = (kind, min_adc_bits, *content)
            core = self._routes.get(route)
            if core is not None:
                return core, content, None
        # A bank is placed as its (kernels, taps) matrix.
        placed = program.ndim == 2 or (kind == "conv" and program.ndim > 2)
        shape = (program.shape[0], math.prod(program.shape[1:])) if placed else None
        candidates = self._capable_cores(shape, min_adc_bits)
        if len(candidates) == 1:
            return candidates[0], content, route
        if needs_key:
            if kind == "conv":
                key = self._conv_route_key(program)
            else:
                # The fleet's widest range (each session still checks its
                # own core's): a malformed matrix fails typed here, before
                # the key's int64 cast.
                check_dense_weights(program, self._widest_weight())
                key = b"dense-route:" + weight_key(program)
            return self._ring.lookup(key, allowed=candidates), content, route
        if self.routing.needs_loads:
            loads = [self._sessions[index].pending for index in candidates]
        else:
            loads = [0] * len(candidates)     # only the length is read
        return candidates[self.routing.select(loads, self._cursor)], None, None

    def _widest_weight(self) -> int:
        """The largest weight any core of the fleet holds."""
        return max(session.core.max_weight for session in self._sessions)

    def _check_dense(
        self, weights: ArrayLike, x: ArrayLike, gain: float | str | None
    ) -> None:
        """The session's dense checks for a request no core holds yet,
        against the fleet's widest weight."""
        PhotonicSession._check_dense(weights, x, gain, self._widest_weight())

    def _accept(self, core: int, priority: int, route: tuple | None) -> None:
        """Bookkeeping for one routed request its session accepted.  A
        miss's ``route`` key is memoised *before* :meth:`_note_routed`, whose
        health or autoscale step may change the rotation and so clear
        the memo.  The memo is cleared whole once it holds as many
        routes as the fleet's program caches hold programs: a program
        no core keeps cached pays a compile or a store restore per use,
        next to which routing it again costs nothing.  The round-robin
        cursor advances here too, so a rejected request does not use
        up a core's turn."""
        if route is not None:
            if len(self._routes) >= sum(
                session.scheduler.cache.capacity
                + session.scheduler.tiled_cache.capacity
                for session in self._sessions
            ):
                self.invalidate_routes()
            self._routes[route] = core
        self._cursor += 1
        self._note_routed(core, priority)

    def submit(
        self,
        weights: ArrayLike,
        x: ArrayLike,
        gain: float | str | None = None,
        priority: int = 0,
        deadline: float | None = None,
        tenant: str | None = None,
        min_adc_bits: int | None = None,
    ) -> Future:
        """Queue one W @ x request on the core the routing policy
        picks; returns that core's :class:`Future`.  ``gain`` follows
        the session semantics; ``priority`` orders the fleet flush and
        (if positive) bypasses admission shedding; ``deadline`` /
        ``tenant`` follow :meth:`PhotonicSession.submit`;
        ``min_adc_bits`` asks for a read-out precision floor on a
        heterogeneous fleet (graceful fallback to the best available
        cores when none reaches it).  Under cache-affinity each
        weight program is routed once per rotation (see
        :meth:`_route`), and the content key the route memo built is
        handed to the core's program memo
        (``BatchScheduler._content_key``, set for this one
        :meth:`PhotonicSession.submit` call), so the weights are keyed
        once per request."""
        priority = self._admit(priority, deadline, self._check_dense, weights, x, gain)
        weights = np.asarray(weights)
        index, content, route = self._route("dense", weights, min_adc_bits)
        session = self._sessions[index]
        scheduler = session.scheduler
        scheduler._content_key = content
        try:
            future = session.submit(
                weights, x, gain=gain, deadline=deadline, tenant=tenant
            )
        finally:
            scheduler._content_key = None
        self._accept(index, priority, route)
        return future

    def _conv_route_key(self, kernels: ArrayLike) -> bytes:
        """Routing key of a conv program: the *quantized* differential
        rows, matching what the session caches on — float banks that
        quantize to one program must land on one core."""
        from ..core.quantization import quantize_weights_differential
        from ..ml.convolution import normalize_kernel_bank

        bank = normalize_kernel_bank(kernels)
        q_positive, q_negative, _ = quantize_weights_differential(
            bank.reshape(bank.shape[0], -1),
            self._sessions[0].core.weight_bits,
        )
        return b"conv-route:" + weight_key(
            np.concatenate([q_positive, q_negative])
        )

    def submit_conv(
        self,
        kernels: ArrayLike,
        image: ArrayLike,
        stride: int = 1,
        gain: float | None = None,
        priority: int = 0,
        deadline: float | None = None,
        tenant: str | None = None,
        min_adc_bits: int | None = None,
    ) -> Future:
        """Queue one im2col convolution on the routed core; the routing
        key is the quantized differential program, so one program's
        traffic shares one core's cache under cache-affinity.  Each
        bank is quantized and keyed for routing once per rotation (see
        :meth:`_route`).  ``min_adc_bits`` follows :meth:`submit`."""
        priority = self._admit(
            priority, deadline, PhotonicSession._validated_conv,
            kernels, image, stride, gain,
        )
        bank = np.asarray(kernels)
        index, _, route = self._route("conv", bank, min_adc_bits)
        future = self._sessions[index].submit_conv(
            bank, image, stride=stride, gain=gain,
            deadline=deadline, tenant=tenant,
        )
        self._accept(index, priority, route)
        return future

    # -- replicated model endpoints ------------------------------------------
    def compile(
        self,
        model: Model,
        calibration: np.ndarray | None = None,
        label: str | None = None,
        replicas: int = 1,
    ) -> ReplicatedModel:
        """Deploy a declarative :class:`Model` onto ``replicas``
        distinct cores (least-populated cores first) and fan submitted
        batches across them; see :class:`ReplicatedModel`."""
        if not isinstance(replicas, (int, np.integer)) or replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas!r}")
        if replicas > self.cores:
            raise ConfigurationError(
                f"cannot place {replicas} replicas on {self.cores} cores; "
                "each replica needs its own core"
            )
        label = label if label is not None else f"model-{len(self._replicated)}"
        placement = sorted(
            range(self.cores),
            key=lambda index: (
                index in self._drained,   # active slots first
                len(self._sessions[index].endpoints),
                self._sessions[index].pending,
                index,
            ),
        )[: int(replicas)]
        endpoints = tuple(
            self._sessions[index].compile(
                model, calibration=calibration, label=f"{label}@core{index}"
            )
            for index in placement
        )
        replicated = ReplicatedModel(self, endpoints, tuple(placement), label)
        self._replicated.append(replicated)
        return replicated

    # -- health: drain / recalibrate / restore -------------------------------
    def _validated_core(self, core: int) -> int:
        if not isinstance(core, (int, np.integer)) or not 0 <= core < self.cores:
            raise ConfigurationError(
                f"core must be an index in [0, {self.cores}), got {core!r}"
            )
        return int(core)

    def drain(self, core: int) -> None:
        """Take one core out of the routing rotation for maintenance.

        Its pending requests flush first so nothing is stranded; new
        traffic then routes to the remaining cores (the replicas absorb
        it) until :meth:`restore`.  The last active core cannot drain —
        the fleet must keep accepting traffic.
        """
        core = self._validated_core(core)
        if core in self._drained:
            return
        active = self.active_cores
        if active == (core,):
            raise ConfigurationError(
                f"cannot drain core {core}: it is the last active core; "
                "restore another core first"
            )
        self._accrue_core_seconds()
        self._sessions[core].flush()
        self._pending_priority[core] = None
        self._pending_since[core] = None
        self._drained.add(core)
        self.invalidate_routes()
        self._drains += 1
        self._record(
            f"drain core {core}", {"core": core}, kind="drain", counter="drains"
        )

    def restore(self, core: int) -> None:
        """Return a drained (or parked) core to the routing rotation."""
        core = self._validated_core(core)
        if core in self._drained:
            self._accrue_core_seconds()
            self._record(f"restore core {core}", {"core": core}, kind="restore")
        self._drained.discard(core)
        self._parked.discard(core)
        self.invalidate_routes()

    # -- elastic scaling -----------------------------------------------------
    def add_core(self, spec: CoreSpec | None = None) -> int:
        """Grow the fleet by one slot and return its index.

        The new slot is built from the cluster defaults with ``spec``'s
        overrides, joins the hash ring incrementally (only ~1/(n+1) of
        affinity keys re-home) and — when a
        :class:`~repro.elastic.ProgramStore` is attached — warm-starts
        every program it serves from the store instead of recompiling.
        Bumps :attr:`membership_version` so long-lived consumers
        re-snapshot the session list.
        """
        if spec is not None and not isinstance(spec, CoreSpec):
            raise ConfigurationError(
                f"spec must be a repro.elastic.CoreSpec, "
                f"got {type(spec).__name__}"
            )
        self._accrue_core_seconds()
        index = len(self._sessions)
        session = self._build_session(index, spec)
        if self.health_policy is not None:
            session.ensure_monitor(self.health_policy)
        self._sessions.append(session)
        self._specs.append(spec)
        self._core_caps.append(self._session_caps(session))
        self._heterogeneous = len(set(self._core_caps)) > 1
        self._routed.append(0)
        self._pending_priority.append(None)
        self._pending_since.append(None)
        self._ring.add(index)
        self.invalidate_routes()
        self.membership_version += 1
        active = len(self.active_cores)
        self._record(
            f"add core {index}",
            {
                "core": index,
                "spec": spec.describe() if spec is not None else "default",
                "warm": self.program_store is not None,
                "active": active,
            },
            kind="add_core",
            active=True,
            obs_args={"core": index, "active": active},
        )
        return index

    def scale_up(self, spec: CoreSpec | None = None) -> int:
        """Bring one more core into rotation and return its index.

        A parked slot rejoins first (warmest possible start — its LRU
        caches survived the park); otherwise a new slot is added via
        :meth:`add_core` (warm-started from the program store when one
        is attached, else cold).  ``spec`` defaults to the autoscaler's
        ``spec`` for grown slots.
        """
        self._in_scale_change = True
        try:
            if self._parked:
                core = max(self._parked)          # most recently parked
                warm_start = "unparked"
                self.restore(core)
            else:
                if spec is None and self.autoscaler is not None:
                    spec = self.autoscaler.spec
                warm_start = (
                    "store" if self.program_store is not None else "cold"
                )
                core = self.add_core(spec)
        finally:
            self._in_scale_change = False
        self._scale_ups += 1
        self._last_scale_at = self._elastic_now()
        self._record(
            f"scale up core {core}",
            {"core": core, "warm_start": warm_start, "active": len(self.active_cores)},
            kind="scale_up",
            counter="scale_ups",
            active=True,
        )
        return core

    def scale_down(self, core: int | None = None) -> int | None:
        """Park one core out of rotation; returns its index.

        Reuses the drain machinery — pending requests flush first, then
        the slot leaves the rotation and is *parked*, not deleted:
        indices stay stable and the slot's caches stay warm for the
        next :meth:`scale_up`.  With ``core=None`` the emptiest
        endpoint-free core parks (highest index on ties); returns None
        when no core can leave (only one active core remains, the
        chosen core is already out, or every active core hosts model
        endpoints).
        """
        active = self.active_cores
        if len(active) <= 1:
            return None
        if core is None:
            candidates = [
                index
                for index in active
                if not self._sessions[index].endpoints
            ]
            if not candidates:
                return None
            core = min(
                candidates,
                key=lambda index: (self._sessions[index].pending, -index),
            )
        else:
            core = self._validated_core(core)
            if core not in active:
                return None
        self._in_scale_change = True
        try:
            self.drain(core)
        finally:
            self._in_scale_change = False
        self._parked.add(core)
        self._scale_downs += 1
        self._last_scale_at = self._elastic_now()
        self._record(
            f"scale down core {core}",
            {"core": core, "active": len(self.active_cores)},
            kind="scale_down",
            counter="scale_downs",
            active=True,
        )
        return core

    def _maybe_autoscale(self) -> None:
        """Evaluate the autoscaler on its watermark and act on the
        vote.  The watermark counts submits *and* flushes — overload
        (queue depth) is only visible between submits, while a fully
        idle fleet only ticks on flush/poll, so both must advance the
        cadence.  Piggybacks on the same hooks as health maintenance,
        so fleets on auto-flush policies still scale."""
        policy = self.autoscaler
        if policy is None or self._in_scaling or self._in_maintenance:
            return
        total = self._submit_seq + self.flushes
        if (
            total - self._scale_watermark < policy.watch_every
            and len(self.active_cores) >= policy.min_cores
        ):
            return
        self._scale_watermark = total
        shed = self._shed
        shed_delta = shed - self._scale_shed_seen
        self._scale_shed_seen = shed
        misses = sum(
            session.scheduler._stats.deadline_misses for session in self._sessions
        )
        miss_delta = misses - self._scale_miss_seen
        self._scale_miss_seen = misses
        snapshot = FleetSnapshot(
            active_cores=len(self.active_cores),
            pending=self.pending,
            shed_delta=shed_delta,
            miss_delta=miss_delta,
            now=self._elastic_now(),
            last_scale_at=self._last_scale_at,
        )
        step = policy.decide(snapshot)
        if step == 0:
            return
        self._in_scaling = True
        try:
            if step > 0:
                self.scale_up()
            else:
                self.scale_down()
        finally:
            self._in_scaling = False

    def check_health(self) -> tuple[HealthReport, ...]:
        """Probe every core (drained ones included) and return the
        per-core reports, in core order."""
        return tuple(session.check_health() for session in self._sessions)

    def recalibrate_core(self, core: int) -> HealthReport | None:
        """Drain → recalibrate → restore one core.

        The core leaves the rotation (unless it is the last active
        core, which recalibrates in place — a one-core fleet cannot
        stop serving), its session re-trims and invalidates its stale
        programs, and it rejoins the rotation.  Returns the session's
        post-trim verification report.
        """
        core = self._validated_core(core)
        was_drained = core in self._drained
        solo = self.active_cores == (core,)
        if not was_drained and not solo:
            self.drain(core)
        try:
            return self._sessions[core].recalibrate()
        finally:
            if not was_drained and not solo:
                self.restore(core)

    def _maybe_run_health(self) -> None:
        """Fleet maintenance on the policy cadence: probe every active
        core, and drain/recalibrate/restore the ones past threshold
        while the rest keep serving.

        The cadence counts *core* flushes (wherever they came from —
        an explicit :meth:`flush`, a blocking ``result()`` or a
        session's own flush policy tripping mid-submit), so fleets
        running entirely on auto-flush policies still get probed.
        """
        policy = self.health_policy
        if policy is None or self._in_maintenance:
            return
        total = self.flushes
        if total - self._health_watermark < policy.probe_every:
            return
        self._health_watermark = total
        self._in_maintenance = True
        try:
            for index in self.active_cores:
                report = self._sessions[index].check_health()
                if (
                    policy.recalibrate_threshold is not None
                    and report.code_error_rate > policy.recalibrate_threshold
                ):
                    self.recalibrate_core(index)
        finally:
            self._in_maintenance = False

    # -- flush / poll --------------------------------------------------------
    def _flush_order(self) -> list[int]:
        """Cores ordered for flushing: highest admitted priority first;
        equal priorities break by submit order (the core whose oldest
        pending request arrived first flushes first), then core index —
        a fully deterministic key, so traced runs replay identically
        across platforms (best-effort-only cores still flush last)."""
        return sorted(
            range(self.cores),
            key=lambda index: (
                -(
                    self._pending_priority[index]
                    if self._pending_priority[index] is not None
                    else float("-inf")
                ),
                (
                    self._pending_since[index]
                    if self._pending_since[index] is not None
                    else float("inf")
                ),
                index,
            ),
        )

    def flush(self) -> int:
        """Flush every core (priority order); returns resolved count."""
        resolved = 0
        for index in self._flush_order():
            resolved += self._sessions[index].flush()
            self._pending_priority[index] = None
            self._pending_since[index] = None
        self._maybe_run_health()
        self._maybe_autoscale()
        return resolved

    def age(self, seconds: float) -> None:
        """Model idle wall-clock passing on every core (the fleet sits
        in one machine room; see :meth:`PhotonicSession.age`)."""
        for session in self._sessions:
            session.age(seconds)

    def poll(self) -> int:
        """Re-check every core's flush-policy deadline (the cluster
        twin of :meth:`PhotonicSession.poll`); returns resolved count."""
        resolved = 0
        for index in self._flush_order():
            resolved += self._sessions[index].poll()
            if self._sessions[index].pending == 0:
                self._pending_priority[index] = None
                self._pending_since[index] = None
        self._maybe_run_health()
        self._maybe_autoscale()
        return resolved

    # -- reporting -----------------------------------------------------------
    def report(self) -> ClusterReport:
        """Cumulative fleet accounting: per-core RunReports plus their
        rolled-up totals, routing spread, shed count and (with
        telemetry) the merged fleet latency distributions."""
        per_core = tuple(session.report() for session in self._sessions)
        bindings = [
            session.telemetry
            for session in self._sessions
            if session.telemetry is not None
        ]
        return ClusterReport(
            cores=self.cores,
            routing=self.routing.describe(),
            total=RunReport.combined(per_core),
            per_core=per_core,
            routed=tuple(self._routed),
            shed=self._shed,
            draining=self.draining,
            drains=self._drains,
            scale_ups=self._scale_ups,
            scale_downs=self._scale_downs,
            core_seconds=self._core_seconds_now()[1],
            pending=tuple(session.pending for session in self._sessions),
            deadline_shed=tuple(
                report.deadline_misses for report in per_core
            ),
            latency_quantiles=merged_latency_quantiles(bindings),
            tenant_quantiles=merged_tenant_quantiles(bindings),
        )

    def __repr__(self) -> str:
        return (
            f"<PhotonicCluster {self.cores} x {self.rows}x{self.columns} "
            f"cores, routing {self.routing.describe()}, "
            f"{self.pending} pending>"
        )
