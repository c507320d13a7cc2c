"""Parameterized drift models and the live drift state of one core.

The analog stack only hits the paper's accuracy/energy numbers while it
stays calibrated: MRR resonances wander thermally, the comb laser ages,
row-TIA transimpedance drifts, and the eoADC's thresholding comparators
accumulate input-referred offset with use.  This module models those
processes at the *serving* level: each :class:`DriftModel` is a
deterministic function of modelled wall-clock seconds and inference
count, and a :class:`DriftState` composes a suite of models into the
live hardware truth of one core.

Every perturbation collapses onto the three knobs the mixed-signal
read-out chain actually exposes (see
:meth:`repro.core.tensor_core.PhotonicTensorCore.matvec`):

* ``current_scale`` — multiplicative error on the summed row
  photocurrent (thermal MRR detuning, laser power decay);
* ``gain_scale`` — multiplicative error on the row-TIA transimpedance;
* ``voltage_offset`` — additive input-referred offset at the eoADC
  (comparator aging), in volts.

The state also owns the *compensation* — the trims the last
recalibration programmed into the hardware (TIA gain trim absorbing
multiplicative error, ladder re-bisection absorbing the offset).  The
serving engines evaluate the **residual** (truth relative to the
compensation they were compiled under), so a freshly recalibrated core
is bit-for-bit pristine and then degrades again as drift continues.

Drift is deterministic by construction (no hidden RNG): replaying a
trace replays the exact degradation, which is what the recovery
benches and the regression suite need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..config import ThermalSpec
from ..errors import ConfigurationError


@dataclass(frozen=True)
class Perturbation:
    """One composed hardware error triple; identity = no perturbation."""

    #: Multiplicative error on the summed row photocurrent.
    current_scale: float = 1.0
    #: Multiplicative error on the row-TIA transimpedance.
    gain_scale: float = 1.0
    #: Additive input-referred eoADC offset [V].
    voltage_offset: float = 0.0

    def __post_init__(self) -> None:
        if self.current_scale <= 0.0 or self.gain_scale <= 0.0:
            raise ConfigurationError(
                f"perturbation scales must be positive, got "
                f"current_scale={self.current_scale}, gain_scale={self.gain_scale}"
            )

    @property
    def is_identity(self) -> bool:
        return (
            self.current_scale == 1.0
            and self.gain_scale == 1.0
            and self.voltage_offset == 0.0
        )

    def compose(self, other: "Perturbation") -> "Perturbation":
        """Stack two independent perturbations: scales multiply,
        offsets add."""
        return Perturbation(
            current_scale=self.current_scale * other.current_scale,
            gain_scale=self.gain_scale * other.gain_scale,
            voltage_offset=self.voltage_offset + other.voltage_offset,
        )

    def relative_to(self, reference: "Perturbation") -> "Perturbation":
        """This perturbation as seen through hardware trimmed for
        ``reference``: the residual the read-out chain actually
        suffers.  ``truth.relative_to(truth)`` is the identity."""
        return Perturbation(
            current_scale=self.current_scale / reference.current_scale,
            gain_scale=self.gain_scale / reference.gain_scale,
            voltage_offset=self.voltage_offset - reference.voltage_offset,
        )


def apply_read_out(residual, currents, front_gain: float, full_scale: float):
    """The shared mixed-signal read-out arithmetic: photocurrents
    through the (possibly drifted) TIA onto the clipped eoADC input
    range.  Returns ``(currents, voltages)``.

    Both the device loop (:meth:`~repro.core.tensor_core.
    PhotonicTensorCore.matvec`) and the compiled fast path
    (:meth:`~repro.runtime.engine.CompiledCore.matmul`) evaluate this
    one function — keeping the term order in a single place is what
    *guarantees* they agree code-for-code at every age.  ``residual``
    is the surviving :class:`Perturbation` (None or the identity =
    pristine hardware, evaluated with the exact drift-free
    arithmetic); ``front_gain`` is the caller's ``gain * tia_gain``
    product.
    """
    if residual is not None and residual.is_identity:
        residual = None
    if residual is None:
        voltages = np.clip(front_gain * currents, 0.0, full_scale - 1e-9)
        return currents, voltages
    currents = currents * residual.current_scale
    voltages = np.clip(
        front_gain * residual.gain_scale * currents + residual.voltage_offset,
        0.0,
        full_scale - 1e-9,
    )
    return currents, voltages


class DriftModel:
    """One degradation process of the analog stack.

    Subclasses are frozen dataclasses mapping ``(seconds, inferences)``
    — modelled wall-clock age and conversions served — to a
    :class:`Perturbation`.  ``stage`` names the read-out stage the
    model perturbs (``optical`` / ``tia`` / ``adc``), which is the
    granularity the :class:`~repro.health.monitor.HealthMonitor`
    attributes probe errors at.
    """

    kind = "drift"
    stage = "optical"

    def perturbation(self, seconds: float, inferences: int) -> Perturbation:
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


@dataclass(frozen=True)
class ThermalDetuning(DriftModel):
    """Ambient thermal wander detuning the compute-ring resonances.

    A sinusoidal temperature excursion of ``amplitude_kelvin`` with
    period ``period_s`` shifts every ring resonance by the silicon
    thermo-optic coefficient; the carrier slides along the ring flank,
    attenuating the summed photocurrent.  The attenuation is the
    behavioural quadratic flank model ``1 - (shift / linewidth)^2``
    floored at ``floor`` (a ring pulled a full linewidth off its
    operating point has long tripped the thermal-lock alarm).
    """

    kind = "thermal_detuning"
    stage = "optical"

    #: Peak temperature excursion [K].
    amplitude_kelvin: float = 0.25
    #: Excursion period [s] (slow HVAC-class wander).
    period_s: float = 60.0
    #: Resonance shift per Kelvin [m/K]; silicon O-band default.
    shift_per_kelvin: float = ThermalSpec.shift_per_kelvin
    #: Ring linewidth scale [m] normalizing the flank attenuation.
    linewidth: float = 50e-12
    #: Lowest transmission the detuning can drag the path to.
    floor: float = 0.25

    def __post_init__(self) -> None:
        if self.amplitude_kelvin < 0.0:
            raise ConfigurationError(
                f"amplitude must be non-negative, got {self.amplitude_kelvin}"
            )
        if self.period_s <= 0.0 or self.linewidth <= 0.0:
            raise ConfigurationError(
                "thermal drift needs positive period_s and linewidth"
            )
        if not 0.0 < self.floor <= 1.0:
            raise ConfigurationError(f"floor must be in (0, 1], got {self.floor}")

    def perturbation(self, seconds: float, inferences: int) -> Perturbation:
        delta_t = self.amplitude_kelvin * math.sin(
            2.0 * math.pi * seconds / self.period_s
        )
        shift = self.shift_per_kelvin * delta_t
        scale = max(1.0 - (shift / self.linewidth) ** 2, self.floor)
        return Perturbation(current_scale=scale)


@dataclass(frozen=True)
class LaserPowerDecay(DriftModel):
    """Comb laser output power decaying exponentially with age."""

    kind = "laser_power_decay"
    stage = "optical"

    #: Fractional power-decay rate [1/s].
    rate_per_s: float = 1e-4

    def __post_init__(self) -> None:
        if self.rate_per_s < 0.0:
            raise ConfigurationError(
                f"decay rate must be non-negative, got {self.rate_per_s}"
            )

    def perturbation(self, seconds: float, inferences: int) -> Perturbation:
        return Perturbation(current_scale=math.exp(-self.rate_per_s * seconds))


@dataclass(frozen=True)
class TiaGainDrift(DriftModel):
    """Row-TIA transimpedance drifting linearly with age.

    ``drift_per_s`` may be negative (gain droop) or positive (peaking);
    the scale is clamped to a sane analog range so a long idle gap
    cannot drive the model through zero.
    """

    kind = "tia_gain_drift"
    stage = "tia"

    #: Fractional gain change per second (signed).
    drift_per_s: float = -2e-4
    #: Clamp range of the resulting gain scale.
    minimum_scale: float = 0.05
    maximum_scale: float = 20.0

    def __post_init__(self) -> None:
        if not 0.0 < self.minimum_scale < 1.0 < self.maximum_scale:
            raise ConfigurationError(
                "gain drift clamps must satisfy 0 < minimum < 1 < maximum"
            )

    def perturbation(self, seconds: float, inferences: int) -> Perturbation:
        scale = 1.0 + self.drift_per_s * seconds
        scale = min(max(scale, self.minimum_scale), self.maximum_scale)
        return Perturbation(gain_scale=scale)


@dataclass(frozen=True)
class ComparatorOffsetAging(DriftModel):
    """eoADC thresholding comparators aging with use.

    Hot-carrier / BTI-class aging grows an input-referred offset with
    every conversion the chain performs; the offset saturates at
    ``saturation_volts`` (the classic asymptotic aging curve, linear in
    early life).
    """

    kind = "comparator_offset_aging"
    stage = "adc"

    #: Offset growth per conversion [V] (signed).
    volts_per_inference: float = 1e-7
    #: Magnitude the offset saturates at [V].
    saturation_volts: float = 0.4

    def __post_init__(self) -> None:
        if self.saturation_volts <= 0.0:
            raise ConfigurationError(
                f"saturation must be positive, got {self.saturation_volts}"
            )

    def perturbation(self, seconds: float, inferences: int) -> Perturbation:
        magnitude = min(
            abs(self.volts_per_inference) * inferences, self.saturation_volts
        )
        return Perturbation(
            voltage_offset=math.copysign(magnitude, self.volts_per_inference)
        )


def drift_suite(severity: float = 1.0) -> tuple[DriftModel, ...]:
    """One of each drift process, scaled by ``severity``.

    Slow thermal wander of the ring resonances, exponential laser
    aging, TIA gain droop and comparator-offset aging, at rates chosen
    so a ~minute of modelled traffic at severity 1 walks a visible
    fraction of the 3-bit probe codes.
    """
    if severity <= 0.0:
        raise ConfigurationError(f"drift severity must be positive, got {severity}")
    return (
        ThermalDetuning(amplitude_kelvin=0.35 * severity, period_s=45.0),
        LaserPowerDecay(rate_per_s=1e-3 * severity),
        TiaGainDrift(drift_per_s=-8e-4 * severity),
        ComparatorOffsetAging(
            volts_per_inference=2e-4 * severity, saturation_volts=0.45
        ),
    )


#: The read-out stages attribution decomposes the residual into.
DRIFT_STAGES = ("optical", "tia", "adc")


class DriftState:
    """The live degradation state of one physical core.

    Owns a suite of :class:`DriftModel` processes, the modelled clock
    they evolve on (wall-clock seconds + conversions served — advanced
    by the session after every flush, or explicitly via
    :meth:`advance` / :meth:`~repro.api.PhotonicSession.age`), and the
    compensation the last recalibration trimmed into the hardware.

    Engines compiled from the core snapshot ``compensation`` and
    ``epoch`` at compile time and evaluate the residual against that
    snapshot — see :class:`repro.runtime.engine.CompiledCore` — so
    :meth:`recalibrate` makes *newly compiled* programs pristine while
    programs compiled under an older epoch keep serving with their
    stale trims until the serving caches recompile them.
    """

    def __init__(self, models=(), label: str = "core") -> None:
        if isinstance(models, DriftModel):
            models = (models,)
        models = tuple(models)
        for model in models:
            if not isinstance(model, DriftModel):
                raise ConfigurationError(
                    f"drift models must be DriftModel instances, "
                    f"got {type(model).__name__}"
                )
        self.models = models
        self.label = label
        #: Modelled wall-clock age [s] of the core.
        self.elapsed_s = 0.0
        #: Conversions (ADC sample slots) the core has served.
        self.inferences = 0
        #: Calibration epoch; bumped by every :meth:`recalibrate`.
        self.epoch = 0
        #: The trims currently programmed into the hardware.
        self.compensation = Perturbation()
        self._truth_memo: tuple[float, int, Perturbation] | None = None

    @property
    def active(self) -> bool:
        """Whether any drift process is attached (an inactive state is
        free: engines skip the residual arithmetic entirely)."""
        return bool(self.models)

    def advance(self, seconds: float = 0.0, inferences: int = 0) -> None:
        """Age the core by modelled wall-clock and/or served conversions."""
        if seconds < 0.0 or inferences < 0:
            raise ConfigurationError(
                f"drift only ages forward, got seconds={seconds}, "
                f"inferences={inferences}"
            )
        self.elapsed_s += seconds
        self.inferences += int(inferences)
        self._truth_memo = None

    def truth(self) -> Perturbation:
        """The composed hardware error right now (memoized per clock)."""
        memo = self._truth_memo
        if memo is not None and memo[0] == self.elapsed_s and memo[1] == self.inferences:
            return memo[2]
        truth = Perturbation()
        for model in self.models:
            truth = truth.compose(model.perturbation(self.elapsed_s, self.inferences))
        self._truth_memo = (self.elapsed_s, self.inferences, truth)
        return truth

    def residual(self) -> Perturbation:
        """The error surviving the *current* hardware trims — what a
        freshly compiled engine (and the device loop) suffers."""
        return self.truth().relative_to(self.compensation)

    def stage_residual(self, stage: str) -> Perturbation:
        """The residual restricted to one read-out stage's knob, used
        by the monitor's per-stage drift attribution."""
        if stage not in DRIFT_STAGES:
            raise ConfigurationError(
                f"unknown drift stage {stage!r}; choose from {list(DRIFT_STAGES)}"
            )
        residual = self.residual()
        if stage == "optical":
            return Perturbation(current_scale=residual.current_scale)
        if stage == "tia":
            return Perturbation(gain_scale=residual.gain_scale)
        return Perturbation(voltage_offset=residual.voltage_offset)

    def recalibrate(self) -> Perturbation:
        """Trim the hardware for the current truth: the programmable
        TIA gain absorbs the multiplicative error, the re-bisected
        ladder absorbs the offset.  Bumps the calibration epoch so the
        serving caches can tell stale programs from fresh ones; returns
        the new compensation."""
        self.compensation = self.truth()
        self.epoch += 1
        return self.compensation

    def restore(
        self,
        epoch: int,
        compensation,
        elapsed_s: float | None = None,
        inferences: int | None = None,
    ) -> None:
        """Adopt persisted calibration state (the warm-start path of
        :class:`repro.elastic.ProgramStore`): a replacement core takes
        over the fleet's epoch, hardware trims, and — optionally — the
        modelled age of the core it replaces, so programs compiled
        under that epoch restore bit-for-bit instead of recompiling.

        ``compensation`` is a :class:`Perturbation` or its persisted
        ``(current_scale, gain_scale, voltage_offset)`` triple.
        """
        epoch = int(epoch)
        if epoch < 0:
            raise ConfigurationError(
                f"calibration epoch must be >= 0, got {epoch}"
            )
        if not isinstance(compensation, Perturbation):
            compensation = Perturbation(*(float(value) for value in compensation))
        if elapsed_s is not None:
            if elapsed_s < 0.0:
                raise ConfigurationError(
                    f"restored core age must be >= 0 s, got {elapsed_s}"
                )
            self.elapsed_s = float(elapsed_s)
        if inferences is not None:
            if inferences < 0:
                raise ConfigurationError(
                    f"restored inference count must be >= 0, got {inferences}"
                )
            self.inferences = int(inferences)
        self.epoch = epoch
        self.compensation = compensation
        self._truth_memo = None

    def describe(self) -> str:
        if not self.models:
            return "no drift"
        return ", ".join(model.describe() for model in self.models)

    def __repr__(self) -> str:
        return (
            f"<DriftState '{self.label}': {self.describe()}, "
            f"age {self.elapsed_s:.3g} s / {self.inferences} inferences, "
            f"epoch {self.epoch}>"
        )
