"""Microring resonator transfer models (all-pass and add-drop).

These are the exact single-ring transfer functions (Bogaerts et al.,
"Silicon microring resonators", Laser Photonics Rev. 2012) driven by a
linearized round-trip phase anchored at the designed resonance:

    phi(lambda) = 2*pi*m - 2*pi*n_g*L*(lambda - lambda_res)/lambda_ref^2

which reproduces resonances repeating exactly at the FSR.  The designed
resonance itself moves with the junction tuner (depletion or injection),
thermal drift, heater power, the PDK ring-length adjustment (Fig. 6) and
a per-device trim residual.

Power quantities only are exposed: the architecture never recombines
ring outputs coherently (see ``photonics.signal``).
"""

from __future__ import annotations

import math

import numpy as np

from ..config import (
    CouplerSpec,
    RingSpec,
    ThermalSpec,
    WaveguideSpec,
    photon_lifetime,
    ring_fsr,
)
from ..errors import ConfigurationError
from .pn_junction import DepletionTuner, InjectionTuner
from .signal import WDMSignal
from .thermal import ThermalTuner


class _RingBase:
    """Shared geometry, tuning and phase machinery for ring models."""

    def __init__(
        self,
        spec: RingSpec,
        design_wavelength: float,
        design_voltage: float = 0.0,
        waveguide: WaveguideSpec | None = None,
        coupler: CouplerSpec | None = None,
        tuner: DepletionTuner | InjectionTuner | None = None,
        thermal: ThermalSpec | None = None,
        length_adjust: float = 0.0,
        trim_error: float = 0.0,
        label: str = "",
    ) -> None:
        if design_wavelength <= 0.0:
            raise ConfigurationError("design wavelength must be positive")
        if length_adjust < 0.0:
            raise ConfigurationError("ring length adjustment must be non-negative")
        self.spec = spec
        self.waveguide = waveguide if waveguide is not None else WaveguideSpec()
        self.coupler = coupler if coupler is not None else CouplerSpec()
        self.tuner = tuner
        self.thermal = ThermalTuner(thermal)
        self.design_wavelength = design_wavelength
        self.design_voltage = design_voltage
        self.length_adjust = length_adjust
        self.trim_error = trim_error
        self.label = label

        self._voltage = design_voltage
        self.delta_temperature = 0.0
        self.heater_shift = 0.0

    # -- geometry ----------------------------------------------------------
    @property
    def circumference(self) -> float:
        """Physical round-trip length [m], including the adjust section."""
        return self.spec.circumference + self.length_adjust

    @property
    def resonance_order(self) -> int:
        """Longitudinal mode number m at the design wavelength."""
        return round(self.waveguide.effective_index * self.circumference / self.design_wavelength)

    @property
    def fsr(self) -> float:
        """Free spectral range [m] near the design wavelength."""
        return ring_fsr(self.design_wavelength, self.waveguide.group_index, self.circumference)

    @property
    def single_pass_amplitude(self) -> float:
        """Field amplitude surviving one round trip."""
        loss_db = self.spec.loss_db_per_cm * self.circumference * 100.0
        return 10.0 ** (-loss_db / 20.0)

    def _power_coupling(self, gap: float | None, override: float | None) -> float:
        if override is not None:
            return override
        if gap is None:
            raise ConfigurationError("ring coupler needs a gap or an explicit power coupling")
        return self.coupler.power_coupling(gap)

    # -- tuning ------------------------------------------------------------
    @property
    def voltage(self) -> float:
        """Current junction drive voltage [V]."""
        return self._voltage

    @voltage.setter
    def voltage(self, value: float) -> None:
        self._voltage = value

    def _tuner_shift(self, voltage: float) -> float:
        if self.tuner is None:
            return 0.0
        return self.tuner.wavelength_shift(voltage)

    def length_adjust_shift(self) -> float:
        """Resonance shift from the PDK ring-length adjustment [m].

        Delta_lambda = n_adj * dL / m (paper Fig. 6: 68 nm -> 2.33 nm).
        """
        if self.length_adjust == 0.0:
            return 0.0
        base_order = round(
            self.waveguide.effective_index * self.spec.circumference / self.design_wavelength
        )
        return self.waveguide.adjust_index * self.length_adjust / base_order

    def resonance_wavelength(
        self, voltage: float | None = None, delta_temperature: float | None = None
    ) -> float:
        """Resonance wavelength [m] under the current (or given) drive."""
        voltage = self._voltage if voltage is None else voltage
        delta_t = self.delta_temperature if delta_temperature is None else delta_temperature
        return self.resonance_at(self._tuner_shift(voltage), delta_t, self.trim_error)

    def resonance_at(self, tuner_shift, delta_temperature: float, trim_error):
        """Resonance wavelength [m] for a given junction-tuner shift and
        trim residual, with this ring's other terms as they stand
        (vectorized over ``tuner_shift`` and ``trim_error``)."""
        return (
            self.design_wavelength
            + self.length_adjust_shift()
            + tuner_shift
            - self._tuner_shift(self.design_voltage)
            + self.thermal.wavelength_shift(delta_temperature)
            + self.heater_shift
            + trim_error
        )

    def round_trip_phase(self, wavelength, voltage: float | None = None):
        """Round-trip phase offset from resonance [rad] (vectorized)."""
        return self.detuning_phase(wavelength, self.resonance_wavelength(voltage=voltage))

    def detuning_phase(self, wavelength, resonance):
        """Round-trip phase offset [rad] of ``wavelength`` from a
        resonance at ``resonance`` (vectorized over both)."""
        lam = np.asarray(wavelength, dtype=float)
        scale = 2.0 * math.pi * self.waveguide.group_index * self.circumference
        return scale * (lam - resonance) / self.design_wavelength**2

    # -- figures of merit ----------------------------------------------------
    @property
    def fwhm(self) -> float:
        raise NotImplementedError

    @property
    def q_factor(self) -> float:
        """Loaded quality factor."""
        return self.design_wavelength / self.fwhm

    @property
    def finesse(self) -> float:
        return self.fsr / self.fwhm

    @property
    def photon_lifetime(self) -> float:
        """Cavity field lifetime [s]; the transient engine's lag constant."""
        return photon_lifetime(self.q_factor, self.design_wavelength)


class AllPassMRR(_RingBase):
    """Two-port (bus + ring) resonator: the eoADC thresholding ring."""

    input_ports = ("in",)
    output_ports = ("thru",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        kappa_sq = self._power_coupling(self.spec.gap_thru, self.spec.power_coupling_thru)
        if not 0.0 < kappa_sq < 1.0:
            raise ConfigurationError(f"power coupling must be in (0, 1), got {kappa_sq}")
        self.power_coupling_thru = kappa_sq
        self._t = math.sqrt(1.0 - kappa_sq)

    def thru_transmission(self, wavelength, voltage: float | None = None):
        """Thru-port power transmission (vectorized over wavelength)."""
        return self.thru_at_phase(self.round_trip_phase(wavelength, voltage))

    def thru_at_phase(self, phase):
        """Thru-port power transmission at round-trip phase offsets
        ``phase`` [rad] (vectorized)."""
        t = self._t
        a = self.single_pass_amplitude
        cos_phi = np.cos(phase)
        numerator = t**2 - 2.0 * t * a * cos_phi + a**2
        denominator = 1.0 - 2.0 * t * a * cos_phi + (t * a) ** 2
        return numerator / denominator

    @property
    def fwhm(self) -> float:
        """Loaded linewidth [m]."""
        t_a = self._t * self.single_pass_amplitude
        return (
            (1.0 - t_a)
            * self.design_wavelength**2
            / (math.pi * self.waveguide.group_index * self.circumference * math.sqrt(t_a))
        )

    @property
    def extinction_ratio_db(self) -> float:
        """On-resonance extinction [dB] (inf at exact critical coupling)."""
        t, a = self._t, self.single_pass_amplitude
        t_min = ((t - a) / (1.0 - t * a)) ** 2
        if t_min == 0.0:
            return math.inf
        return -10.0 * math.log10(t_min)

    def propagate_ports(self, inputs: dict[str, WDMSignal]) -> dict[str, WDMSignal]:
        signal = inputs["in"]
        transmission = self.thru_transmission(signal.wavelengths)
        return {"thru": signal.scaled(transmission)}


class AddDropMRR(_RingBase):
    """Four-port resonator: weight rings and the pSRAM latch rings."""

    input_ports = ("in",)
    output_ports = ("thru", "drop")

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        kappa_sq_1 = self._power_coupling(self.spec.gap_thru, self.spec.power_coupling_thru)
        gap_drop = self.spec.gap_drop if self.spec.gap_drop is not None else self.spec.gap_thru
        kappa_sq_2 = self._power_coupling(gap_drop, self.spec.power_coupling_drop)
        for kappa_sq in (kappa_sq_1, kappa_sq_2):
            if not 0.0 < kappa_sq < 1.0:
                raise ConfigurationError(f"power coupling must be in (0, 1), got {kappa_sq}")
        self.power_coupling_thru = kappa_sq_1
        self.power_coupling_drop = kappa_sq_2
        self._t1 = math.sqrt(1.0 - kappa_sq_1)
        self._t2 = math.sqrt(1.0 - kappa_sq_2)

    def _denominator(self, cos_phi):
        t1_t2_a = self._t1 * self._t2 * self.single_pass_amplitude
        return 1.0 - 2.0 * t1_t2_a * cos_phi + t1_t2_a**2

    def thru_transmission(self, wavelength, voltage: float | None = None):
        """Thru-port power transmission (vectorized over wavelength)."""
        t1, t2 = self._t1, self._t2
        a = self.single_pass_amplitude
        cos_phi = np.cos(self.round_trip_phase(wavelength, voltage))
        numerator = (t2 * a) ** 2 - 2.0 * t1 * t2 * a * cos_phi + t1**2
        return numerator / self._denominator(cos_phi)

    def drop_transmission(self, wavelength, voltage: float | None = None):
        """Drop-port power transmission (vectorized over wavelength)."""
        kappa_sq_1 = 1.0 - self._t1**2
        kappa_sq_2 = 1.0 - self._t2**2
        a = self.single_pass_amplitude
        cos_phi = np.cos(self.round_trip_phase(wavelength, voltage))
        return kappa_sq_1 * kappa_sq_2 * a / self._denominator(cos_phi)

    def thru_drop(self, wavelength, voltage: float | None = None):
        """Both port transmissions in one call."""
        return (
            self.thru_transmission(wavelength, voltage),
            self.drop_transmission(wavelength, voltage),
        )

    @property
    def fwhm(self) -> float:
        """Loaded linewidth [m]."""
        t1_t2_a = self._t1 * self._t2 * self.single_pass_amplitude
        return (
            (1.0 - t1_t2_a)
            * self.design_wavelength**2
            / (
                math.pi
                * self.waveguide.group_index
                * self.circumference
                * math.sqrt(t1_t2_a)
            )
        )

    @property
    def extinction_ratio_db(self) -> float:
        """On-resonance thru-port extinction [dB]."""
        t1, t2, a = self._t1, self._t2, self.single_pass_amplitude
        t_min = ((t1 - t2 * a) / (1.0 - t1 * t2 * a)) ** 2
        if t_min == 0.0:
            return math.inf
        return -10.0 * math.log10(t_min)

    @property
    def drop_efficiency(self) -> float:
        """On-resonance drop-port transmission."""
        kappa_sq_1 = 1.0 - self._t1**2
        kappa_sq_2 = 1.0 - self._t2**2
        a = self.single_pass_amplitude
        return kappa_sq_1 * kappa_sq_2 * a / (1.0 - self._t1 * self._t2 * a) ** 2

    def propagate_ports(self, inputs: dict[str, WDMSignal]) -> dict[str, WDMSignal]:
        signal = inputs["in"]
        thru, drop = self.thru_drop(signal.wavelengths)
        return {"thru": signal.scaled(thru), "drop": signal.scaled(drop)}
