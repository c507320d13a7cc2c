"""The scaling policy: when a fleet grows, when it shrinks.

:class:`Autoscaler` is a pure decision object — it holds thresholds
and votes ``+1`` (grow), ``0`` (hold), or ``-1`` (shrink) over a
:class:`FleetSnapshot`; the cluster owns the machinery that acts on
the vote (``add_core`` warm-started from the program store, drain for
safe scale-down).  Keeping the policy side-effect free makes every
decision unit-testable and post-hoc explainable from the snapshot
alone.

The policy evaluates on an *event-count watermark* (``watch_every``
submits + flushes), mirroring :class:`~repro.health.HealthPolicy`'s
probe cadence: queue depth is only visible while submits outpace
flushes, while a fully idle fleet only ticks on flush/poll, so both
kinds of event advance the cadence.  Two guards prevent thrash:

* **hysteresis** — the grow threshold (``scale_up_pending`` pending
  requests per active core) sits strictly above the shrink threshold
  (``scale_down_pending``), so a fleet hovering between them holds;
* **cooldown** — after any scale event the policy holds for
  ``cooldown_s`` modelled seconds, long enough for the new capacity
  to drain the backlog before the next look.

:class:`CoreSpec` declares what a fleet slot *is* — grid geometry and
ADC precision — so heterogeneous fleets can mix big high-precision
cores with small cheap ones; the cluster's capability-aware router
places each program shape on the cheapest capable slot.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class CoreSpec:
    """One fleet slot's capabilities; ``None`` inherits the cluster
    default for that dimension."""

    #: Grid rows (output fan-out) of the slot's tensor core.
    rows: int | None = None
    #: Grid columns (input fan-in) of the slot's tensor core.
    columns: int | None = None
    #: eoADC precision [bits] of the slot's read-out.
    adc_bits: int | None = None
    #: pSRAM weight precision [bits] of the slot's cells.
    weight_bits: int | None = None

    def __post_init__(self) -> None:
        for name in ("rows", "columns", "adc_bits", "weight_bits"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(
                    f"CoreSpec.{name} must be >= 1 when given, got {value}"
                )

    def describe(self) -> str:
        """Compact ``16x16/a5`` style label (only explicit fields)."""
        grid = ""
        if self.rows is not None or self.columns is not None:
            grid = f"{self.rows or '*'}x{self.columns or '*'}"
        parts = [part for part in (
            grid,
            f"a{self.adc_bits}" if self.adc_bits is not None else "",
            f"w{self.weight_bits}" if self.weight_bits is not None else "",
        ) if part]
        return "/".join(parts) if parts else "default"


@dataclass(frozen=True)
class FleetSnapshot:
    """What the policy sees at one watermark — enough to reproduce
    (and audit) any decision after the fact."""

    #: Cores currently serving (excludes drained/parked slots).
    active_cores: int
    #: Requests pending across the whole fleet right now.
    pending: int
    #: Admission sheds since the previous decision.
    shed_delta: int
    #: Deadline misses since the previous decision.
    miss_delta: int
    #: Modelled time of this decision [s].
    now: float
    #: Modelled time of the last scale event, ``None`` before the first.
    last_scale_at: float | None = None


@dataclass(frozen=True)
class Autoscaler:
    """Grow/hold/shrink votes between ``min_cores`` and ``max_cores``.

    ============================  =============================================
    knob                          meaning
    ============================  =============================================
    ``min_cores``/``max_cores``   fleet size bounds (inclusive)
    ``watch_every``               fleet events (submits+flushes) per decision
    ``scale_up_pending``          grow at >= this many pending per active core
    ``scale_down_pending``        shrink at <= this many pending per active core
    ``shed_tolerance``            admission sheds per window that force growth
    ``miss_tolerance``            deadline misses per window that force growth
    ``cooldown_s``                modelled seconds to hold after a scale event
    ``spec``                      :class:`CoreSpec` grown slots are built with
    ============================  =============================================
    """

    min_cores: int = 1
    max_cores: int = 4
    watch_every: int = 4
    scale_up_pending: float = 8.0
    scale_down_pending: float = 1.0
    shed_tolerance: int = 0
    miss_tolerance: int = 0
    cooldown_s: float = 0.0
    spec: CoreSpec | None = None

    def __post_init__(self) -> None:
        if self.min_cores < 1:
            raise ConfigurationError(
                f"autoscaler min_cores must be >= 1, got {self.min_cores}"
            )
        if self.max_cores < self.min_cores:
            raise ConfigurationError(
                f"autoscaler max_cores ({self.max_cores}) must be >= "
                f"min_cores ({self.min_cores})"
            )
        if self.watch_every < 1:
            raise ConfigurationError(
                f"autoscaler watch_every must be >= 1 event, got {self.watch_every}"
            )
        if self.scale_up_pending <= self.scale_down_pending:
            raise ConfigurationError(
                f"autoscaler needs a hysteresis band: scale_up_pending "
                f"({self.scale_up_pending}) must exceed scale_down_pending "
                f"({self.scale_down_pending})"
            )
        if self.scale_down_pending < 0.0:
            raise ConfigurationError(
                f"autoscaler scale_down_pending must be >= 0, "
                f"got {self.scale_down_pending}"
            )
        if self.shed_tolerance < 0 or self.miss_tolerance < 0:
            raise ConfigurationError(
                f"autoscaler tolerances must be >= 0, got "
                f"shed={self.shed_tolerance}, miss={self.miss_tolerance}"
            )
        if not (self.cooldown_s >= 0.0):
            raise ConfigurationError(
                f"autoscaler cooldown_s must be >= 0 s, got {self.cooldown_s}"
            )

    def decide(self, snapshot: FleetSnapshot) -> int:
        """``+1`` grow, ``-1`` shrink, ``0`` hold.

        Precedence: the ``min_cores`` floor is enforced even inside the
        cooldown window (a fleet below floor is misconfigured, not
        thrashing); otherwise the cooldown holds, then overload signals
        (pending per core at/over the grow threshold, or shed/miss
        deltas past tolerance) vote grow up to ``max_cores``, then a
        fully quiet window (pending at/under the shrink threshold, no
        sheds, no misses) votes shrink down to ``min_cores``.
        """
        active = snapshot.active_cores
        if active < self.min_cores:
            return 1
        last = snapshot.last_scale_at
        if last is not None and (snapshot.now - last) < self.cooldown_s:
            return 0
        per_core = snapshot.pending / active if active > 0 else float("inf")
        overloaded = (
            per_core >= self.scale_up_pending
            or snapshot.shed_delta > self.shed_tolerance
            or snapshot.miss_delta > self.miss_tolerance
        )
        if overloaded:
            return 1 if active < self.max_cores else 0
        quiet = (
            per_core <= self.scale_down_pending
            and snapshot.shed_delta == 0
            and snapshot.miss_delta == 0
        )
        if quiet and active > self.min_cores:
            return -1
        return 0

    def describe(self) -> str:
        """One-line policy summary for reports and benches."""
        spec = f", spec={self.spec.describe()}" if self.spec is not None else ""
        return (
            f"autoscale[{self.min_cores}..{self.max_cores}] "
            f"every {self.watch_every} flushes, "
            f"up@{self.scale_up_pending:g}/core "
            f"down@{self.scale_down_pending:g}/core, "
            f"cooldown {self.cooldown_s:g}s{spec}"
        )
