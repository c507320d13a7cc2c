"""Probe-based health monitoring and the recalibration policy.

Real mixed-signal ADC deployments never trust compile-time calibration
for long: they interleave known test patterns with traffic and re-trim
when the returned codes walk away from the golden ones.  The
:class:`HealthMonitor` is that loop for a serving session: at
construction (compile time) it freezes a seeded probe program — a full
weight matrix plus a batch of probe vectors — and the *golden* codes a
pristine core returns for them; every :meth:`check` replays the probes
through the live (drifting) core and reports the disagreement as a
typed :class:`HealthReport`:

* ``code_error_rate`` — fraction of probe codes differing from golden;
* ``rms_code_error`` / ``max_code_error`` — magnitude of the walk, in
  LSB;
* ``enob_loss`` — the effective-number-of-bits cost of the walk,
  ``0.5 * log2(1 + 12 * rms^2)`` (code error variance stacked on the
  ideal quantization noise of 1/12 LSB^2);
* ``attribution`` — per-stage code-error rates obtained by replaying
  the probes with the residual restricted to one read-out knob at a
  time (optical / TIA / ADC) — the simulator's privilege standing in
  for the per-stage test modes real calibration firmware exposes.

A :class:`HealthPolicy` automates the loop on a session or cluster:
probe every N flushes, recalibrate past a code-error-rate threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..telemetry.export import ReportExport
from .drift import DRIFT_STAGES, Perturbation


@dataclass(frozen=True)
class HealthPolicy:
    """When to probe and when to recalibrate; the health twin of
    :class:`~repro.api.policy.FlushPolicy`.

    ``probe_every`` runs a probe check after every N-th flush;
    ``recalibrate_threshold`` is the probe code-error rate past which
    the session recalibrates itself (None = monitor only, never
    auto-recalibrate).
    """

    #: Probe after every N-th flush.
    probe_every: int = 1
    #: Probe vectors per check.
    probes: int = 8
    #: Code-error rate triggering auto-recalibration (None = never).
    recalibrate_threshold: float | None = 0.05
    #: Seed of the frozen probe program.
    probe_seed: int = 1310

    def __post_init__(self) -> None:
        if self.probe_every < 1:
            raise ConfigurationError(
                f"probe_every must be >= 1 flush, got {self.probe_every}"
            )
        if self.probes < 1:
            raise ConfigurationError(f"need at least one probe, got {self.probes}")
        if self.recalibrate_threshold is not None and not (
            0.0 <= self.recalibrate_threshold < 1.0
        ):
            raise ConfigurationError(
                f"recalibrate_threshold must be in [0, 1) or None, "
                f"got {self.recalibrate_threshold}"
            )

    @classmethod
    def monitor_only(cls, probe_every: int = 1, probes: int = 8) -> "HealthPolicy":
        """Probe on a cadence but never recalibrate automatically."""
        return cls(
            probe_every=probe_every, probes=probes, recalibrate_threshold=None
        )

    @classmethod
    def auto(
        cls,
        threshold: float = 0.05,
        probe_every: int = 1,
        probes: int = 8,
    ) -> "HealthPolicy":
        """Probe every ``probe_every`` flushes and recalibrate once the
        code-error rate exceeds ``threshold``."""
        return cls(
            probe_every=probe_every,
            probes=probes,
            recalibrate_threshold=threshold,
        )

    def describe(self) -> str:
        trigger = (
            "monitor only"
            if self.recalibrate_threshold is None
            else f"recalibrate > {self.recalibrate_threshold:g}"
        )
        return f"probe every {self.probe_every} flush(es), {trigger}"


@dataclass(frozen=True)
class HealthReport(ReportExport):
    """One probe check of a core against its golden codes.

    ``to_dict()`` / ``to_json()`` export it JSON-ready alongside every
    other report type (see :class:`repro.telemetry.ReportExport`).
    """

    #: Session flush count when the check ran.
    flush_index: int
    #: Modelled core age at check time.
    elapsed_s: float
    inferences: int
    #: Probe vectors replayed.
    probes: int
    #: Probe codes disagreeing with golden (count and fraction).
    code_errors: int
    code_error_rate: float
    #: Magnitude of the code walk [LSB].
    rms_code_error: float
    max_code_error: int
    #: Effective-number-of-bits cost of the walk.
    enob_loss: float
    #: Per-stage code-error rates: {"optical": .., "tia": .., "adc": ..}.
    attribution: dict
    #: The residual perturbation the probes measured.
    residual: Perturbation
    #: Whether this check ran immediately after a recalibration (the
    #: verification point of the recovery curve).
    recalibrated: bool = False

    @property
    def healthy(self) -> bool:
        """Bit-for-bit agreement with the golden probe codes."""
        return self.code_errors == 0

    @property
    def dominant_stage(self) -> str | None:
        """The read-out stage attribution blames most (None if clean)."""
        if self.healthy:
            return None
        return max(self.attribution, key=lambda stage: self.attribution[stage])

    def lines(self) -> list[str]:
        status = "healthy" if self.healthy else f"blame {self.dominant_stage}"
        lines = [
            f"probe check @ flush {self.flush_index}: "
            f"{self.code_errors} probe codes walked "
            f"({self.code_error_rate:.0%} of {self.probes} vectors), {status}",
            f"code walk         : rms {self.rms_code_error:.2f} LSB, "
            f"max {self.max_code_error} LSB, ENOB loss {self.enob_loss:.2f} bits",
            f"attribution       : "
            + ", ".join(
                f"{stage} {rate:.0%}" for stage, rate in self.attribution.items()
            ),
        ]
        if self.recalibrated:
            lines.append("recalibrated      : yes (post-trim verification)")
        return lines

    def __str__(self) -> str:
        return "\n".join(self.lines())


class HealthMonitor:
    """The probe loop of one :class:`~repro.api.PhotonicSession`.

    Construction freezes the probe program: a seeded full-tile weight
    matrix, a batch of probe input vectors, and the golden codes a
    pristine core produces for them (evaluated with the identity
    residual, so golden never depends on *when* the monitor was
    built).  The probe engine is compiled through the session core —
    the pSRAM streaming it costs is charged to the session's
    calibration ledger and service clock, and :meth:`recompile`
    rebuilds it after a recalibration so the engine carries the fresh
    trims.
    """

    def __init__(self, session, probes: int = 8, seed: int = 1310) -> None:
        if probes < 1:
            raise ConfigurationError(f"need at least one probe, got {probes}")
        self._session = session
        self.probes = probes
        self.seed = seed
        core = session.core
        rng = np.random.default_rng(seed)
        #: Frozen probe program: full-tile weights exercising every
        #: column, inputs spread over the analog range.
        self.probe_weights = rng.integers(
            0, core.max_weight + 1, (core.rows, core.columns)
        )
        self.probe_inputs = rng.uniform(0.0, 1.0, (core.columns, probes))
        self._engine = None
        self._golden = None
        self.recompile()

    def recompile(self) -> None:
        """(Re)compile the probe engine through the session core,
        charging the weight streaming (one switch per set weight bit,
        :meth:`~repro.core.tensor_core.PhotonicTensorCore.program_energy`)
        to the calibration ledger and the session's service clock.  The
        golden codes are computed once — pristine evaluation does not
        depend on the core's age."""
        session = self._session
        core = session.core
        core.load_weight_matrix(self.probe_weights)
        stream_time = core.weight_update_time()
        session._calibration_energy += core.program_energy(self.probe_weights)
        session._calibration_time += stream_time
        clock = session.scheduler.clock
        stream_start = clock.now
        clock.advance(stream_time)
        tel = session.telemetry
        if tel is not None and tel.trace is not None:
            tel.span(
                "compile probes",
                "health",
                stream_start,
                stream_time,
                args={"probes": self.probes},
            )
        self._engine = core.compile()
        if self._golden is None:
            self._golden = self._engine.matmul(
                self.probe_inputs, residual=Perturbation()
            ).codes

    def check(self, recalibrated: bool = False) -> HealthReport:
        """Replay the probes through the live core and compare against
        golden; charges the probe conversions to the calibration ledger
        and the session's service clock, and returns the typed report."""
        session = self._session
        codes = self._engine.matmul(self.probe_inputs).codes
        total = codes.size
        errors = int(np.count_nonzero(codes != self._golden))
        delta = codes.astype(float) - self._golden
        rms = float(np.sqrt(np.mean(delta**2)))
        enob_loss = 0.5 * math.log2(1.0 + 12.0 * rms**2)

        drift = session.drift
        if drift is not None and drift.active:
            residual = drift.residual()
            attribution = {}
            for stage in DRIFT_STAGES:
                stage_codes = self._engine.matmul(
                    self.probe_inputs, residual=drift.stage_residual(stage)
                ).codes
                attribution[stage] = float(
                    np.count_nonzero(stage_codes != self._golden) / total
                )
        else:
            residual = Perturbation()
            attribution = {stage: 0.0 for stage in DRIFT_STAGES}

        # Probe overhead: each probe vector spends one ADC sample slot
        # on the core at full grid power, on the calibration ledger
        # (not the serving ledger) so the overhead stays attributable.
        performance = session.performance
        period = 1.0 / performance.sample_rate
        probe_time = self.probes * period
        session._probe_runs += 1
        session._probe_vectors += self.probes
        session._calibration_time += probe_time
        session._calibration_energy += probe_time * performance.total_power
        clock = session.scheduler.clock
        probe_start = clock.now
        clock.advance(probe_time)

        tel = session.telemetry
        if tel is not None:
            tel.metrics.counter("probe_runs").inc()
            if tel.trace is not None:
                blame = (
                    max(attribution, key=attribution.get) if errors else None
                )
                tel.span(
                    "probe check",
                    "health",
                    probe_start,
                    probe_time,
                    args={
                        "probes": self.probes,
                        "code_errors": errors,
                        "code_error_rate": errors / total,
                        "blame": blame,
                    },
                )

        return HealthReport(
            flush_index=session.flushes,
            elapsed_s=drift.elapsed_s if drift is not None else 0.0,
            inferences=drift.inferences if drift is not None else 0,
            probes=self.probes,
            code_errors=errors,
            code_error_rate=errors / total,
            rms_code_error=rms,
            max_code_error=int(np.abs(delta).max(initial=0.0)),
            enob_loss=enob_loss,
            attribution=attribution,
            residual=residual,
            recalibrated=recalibrated,
        )

    def __repr__(self) -> str:
        return (
            f"<HealthMonitor {self.probes} probes on "
            f"{self.probe_weights.shape[0]}x{self.probe_weights.shape[1]} "
            f"probe program, seed {self.seed}>"
        )
