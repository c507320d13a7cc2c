"""Device and system parameters for the GF45SPCLO-calibrated models.

This module is the single source of truth for every number used by the
reproduction.  Each dataclass documents whether a value is *stated in the
paper* or *calibrated* (chosen within a physically plausible range so a
paper-stated quantity is reproduced); see ``DESIGN.md`` section 2 for the
full provenance table.

The top-level entry point is :func:`default_technology`, which returns a
:class:`Technology` holding all sub-configurations.  Everything downstream
(pSRAM, compute core, eoADC, tensor core) is constructed from one of these
objects, so a Monte-Carlo or design-space sweep only has to perturb a
``Technology`` (via :func:`dataclasses.replace`) to retarget the entire
stack.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from .constants import SPEED_OF_LIGHT, db_per_cm_to_alpha, dbm_to_watts
from .errors import ConfigurationError

#: Operating wavelength stated in the paper (Section IV-C) [m].
OPERATING_WAVELENGTH = 1310.5e-9

#: Laser wall-plug efficiency from the paper's reference [47].
WALL_PLUG_EFFICIENCY = 0.23


@dataclass
class WaveguideSpec:
    """Strip-waveguide modal parameters around the operating wavelength.

    ``group_index`` is calibrated from the paper's 9.36 nm FSR of the
    7.5 um compute ring; ``effective_index`` from resonance order m = 88
    at 1310.5 nm.  ``adjust_index`` is the modal index of the PDK ring
    cell's length-adjustment section, calibrated so a 68 nm adjustment
    shifts the resonance by the paper's 2.33 nm.
    """

    effective_index: float = 2.447251
    group_index: float = 3.893651
    adjust_index: float = 3.015294
    loss_db_per_cm: float = 2.0
    reference_wavelength: float = OPERATING_WAVELENGTH

    @property
    def alpha(self) -> float:
        """Power attenuation coefficient [1/m]."""
        return db_per_cm_to_alpha(self.loss_db_per_cm)


@dataclass
class CouplerSpec:
    """Exponential gap-to-power-coupling map for bus/ring couplers.

    Calibrated at two points: the 250 nm eoADC ring gap must give the
    critical coupling kappa^2 = 0.0231 of the heavily doped 10 um ring
    (16.15 dB/cm junction loss), and the 200 nm compute-ring gap gives
    kappa^2 = 0.046 (Q ~ 9e3, -27 dB thru extinction, 91% drop
    efficiency; consistent with the paper's spectra).
    """

    amplitude: float = 0.723366
    decay_length: float = 72.588e-9
    max_power_coupling: float = 0.5

    def power_coupling(self, gap: float) -> float:
        """Power cross-coupling kappa^2 for a coupler gap [m]."""
        if gap < 0.0:
            raise ConfigurationError(f"coupler gap must be non-negative, got {gap}")
        value = self.amplitude * math.exp(-gap / self.decay_length)
        return min(value, self.max_power_coupling)


@dataclass
class DepletionJunctionSpec:
    """Reverse/forward-biased pn-junction phase shifter (eoADC rings).

    ``efficiency`` (dlambda/dV at the operating point) is calibrated so
    the 1-hot activation window equals half an ADC code bin given the
    paper's 200 uW channel power, 18 uW reference power and the ring
    photon lifetime an 8 GS/s conversion can afford (DESIGN.md
    section 2).  The 32 pm/V value implies heavy junction doping, which
    is also what sets the ADC ring's 16 dB/cm loaded loss — the two
    are physically coupled.  ``asymmetry`` adds a mild quadratic term:
    injection (positive V_pn) shifts slightly harder than depletion.
    """

    efficiency: float = 32e-12
    asymmetry_per_volt: float = 0.012
    max_forward_voltage: float = 4.5
    max_reverse_voltage: float = 4.5
    capacitance: float = 12e-15

    def wavelength_shift(self, v_pn: float) -> float:
        """Resonance red-shift [m] for a junction voltage ``v_pn`` [V].

        The sign convention follows the paper's Fig. 3(a): increasing
        reverse bias (more negative ``v_pn`` = V_p - V_n) red-shifts the
        resonance, so the shift is ``-efficiency * v_pn`` to first order.
        """
        linear = -self.efficiency * v_pn
        # (v_pn > 0) * 2.0 - 1.0 is +-1.0 for a float or an array alike.
        correction = 1.0 + self.asymmetry_per_volt * abs(v_pn) * ((v_pn > 0) * 2.0 - 1.0)
        return linear * correction


@dataclass
class InjectionTunerSpec:
    """Forward-bias carrier-injection tuner for weight/pSRAM rings.

    A 1.8 V digital drive must move a ~64 pm-linewidth ring by several
    linewidths, which depletion tuning cannot do; injection provides a
    calibrated 180 pm blue-shift at VDD (~2.8 linewidths, giving the
    ~-20 dB off/on contrast of the paper's compute spectra).
    """

    shift_at_vdd: float = 180e-12
    vdd: float = 1.8
    turn_on_voltage: float = 0.7
    carrier_time_constant: float = 10e-12

    def wavelength_shift(self, voltage: float) -> float:
        """Blue-shift magnitude [m] applied at a drive ``voltage`` [V].

        Returns a *negative* wavelength shift (blue) growing linearly
        above the diode turn-on voltage and clamped at the VDD value.
        """
        if voltage <= self.turn_on_voltage:
            return 0.0
        span = self.vdd - self.turn_on_voltage
        fraction = min((voltage - self.turn_on_voltage) / span, 1.0)
        return -self.shift_at_vdd * fraction


@dataclass
class ThermalSpec:
    """Thermo-optic tuning parameters for silicon rings."""

    #: Resonance shift per Kelvin [m/K]; ~75 pm/K for silicon at O-band.
    shift_per_kelvin: float = 75e-12
    #: Integrated heater efficiency [m/W] (~200 pm/mW).
    heater_efficiency: float = 200e-12 / 1e-3
    #: Maximum heater power [W].
    max_heater_power: float = 5e-3


@dataclass
class RingSpec:
    """Geometry of a microring resonator."""

    radius: float
    gap_thru: float
    gap_drop: float | None = None
    loss_db_per_cm: float = 4.0
    power_coupling_thru: float | None = None
    power_coupling_drop: float | None = None

    @property
    def circumference(self) -> float:
        return 2.0 * math.pi * self.radius


@dataclass
class PhotodiodeSpec:
    """Ge photodiode parameters (typical 45SPCLO monolithic values)."""

    responsivity: float = 0.8
    dark_current: float = 10e-9
    capacitance: float = 10e-15
    bandwidth: float = 40e9


@dataclass
class PsramSpec:
    """Photonic SRAM bitcell parameters (paper Section II-A / IV-A)."""

    #: Optical hold bias into PS1 [W]; paper: -20 dBm.
    bias_power: float = dbm_to_watts(-20.0)
    #: Write pulse power on WBL/WBLB [W]; paper: 0 dBm.
    write_power: float = dbm_to_watts(0.0)
    #: Write pulse width [s]; paper: 50 ps.
    write_pulse_width: float = 50e-12
    #: Update rate [Hz]; paper: 20 GHz.
    update_rate: float = 20e9
    #: Supply voltage [V].
    vdd: float = 1.8
    #: Storage-node capacitance [F] (calibrated: 0.4 mA write photocurrent
    #: flips 5 fF across VDD/2 in ~11 ps, well inside the 50 ps pulse).
    node_capacitance: float = 5e-15
    #: Driver time constant [s] for the cross-coupled MRR drive.
    driver_time_constant: float = 5e-12
    #: Effective switched capacitance [F] for the electrical share of the
    #: write energy (calibrated so total switching energy is 0.5 pJ).
    switched_capacitance: float = 86.554e-15
    #: Static electrical power per held cell [W] (driver leakage).
    hold_electrical_power: float = 5e-6

    @property
    def switch_energy_target(self) -> float:
        """Paper-stated energy per switching event [J]."""
        return 0.5e-12


@dataclass
class EoAdcSpec:
    """1-hot encoding electro-optic ADC parameters (Sections II-C / IV-C)."""

    bits: int = 3
    full_scale_voltage: float = 4.0
    #: Optical input power per MRR channel [W]; paper: 200 uW.
    channel_power: float = 200e-6
    #: Optical reference power per thresholding block [W]; paper: 18 uW.
    reference_power: float = 18e-6
    #: Analog/digital supply [V]; paper: 1.8 V.
    supply_voltage: float = 1.8
    #: Sample rate with TIA + amplifier chain [Hz]; paper: 8 GS/s.
    sample_rate: float = 8e9
    #: Sample rate without TIA/amplifiers [Hz]; paper: 416.7 MS/s.
    sample_rate_no_tia: float = 416.7e6
    #: Total electrical power [W]; paper: 11 mW.
    electrical_power: float = 11e-3
    #: Fraction of electrical power burnt by the TIA + amplifier chain;
    #: paper: removing them saves 58 %.
    tia_amp_power_fraction: float = 0.58
    #: Comparator/TIA trip asymmetry guard [W] (numerical hysteresis).
    threshold_hysteresis_power: float = 0.0
    #: Per-ring resonance-trim residual (std-dev) [m]; produces the
    #: Fig. 10 DNL texture.  Deterministically seeded.
    trim_sigma: float = 3e-12
    trim_seed: int = 45

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ConfigurationError(f"ADC needs at least 1 bit, got {self.bits}")
        if self.reference_power >= self.channel_power:
            raise ConfigurationError(
                "reference power must be below channel power for 1-hot thresholding"
            )

    @property
    def levels(self) -> int:
        return 2**self.bits

    @property
    def lsb_voltage(self) -> float:
        return self.full_scale_voltage / self.levels

    def reference_voltages(self) -> list[float]:
        """Bin-center reference ladder V_k = (k + 1/2) * LSB, k = 0..2^p-1."""
        lsb = self.lsb_voltage
        return [(k + 0.5) * lsb for k in range(self.levels)]

    @property
    def optical_power_wall_plug(self) -> float:
        """Total optical wall-plug power [W]; paper: 7.58 mW."""
        total = self.levels * (self.channel_power + self.reference_power)
        return total / WALL_PLUG_EFFICIENCY

    @property
    def total_power(self) -> float:
        """Optical wall-plug + electrical power [W]; paper: 18.58 mW."""
        return self.optical_power_wall_plug + self.electrical_power

    @property
    def energy_per_conversion(self) -> float:
        """Energy per conversion [J]; paper: 2.32 pJ."""
        return self.total_power / self.sample_rate


@dataclass
class ComputeCoreSpec:
    """Mixed-signal vector-multiplication core parameters (Section II-B)."""

    #: WDM channels per vector compute macro; paper: 4.
    wavelengths_per_macro: int = 4
    #: Channel spacing [m]; paper: 2.33 nm.
    channel_spacing: float = 2.33e-9
    #: Weight precision in bits; paper demonstrates 3.
    weight_bits: int = 3
    #: Optical input power per channel at each macro input [W].
    channel_power: float = 200e-6
    #: Ring-length adjustment step per channel [m]; paper: 68 nm.
    length_adjust_step: float = 68e-9


@dataclass
class TensorCoreSpec:
    """16x16 tensor-core system parameters (Section IV-D)."""

    rows: int = 16
    columns: int = 16
    weight_bits: int = 3
    #: ADC sample rate bounds the system clock; paper: 8 GS/s.
    sample_rate: float = 8e9
    #: Row TIA power [W] (calibrated from the paper's 28 nm TIA ref [52]).
    tia_power_per_row: float = 42e-3
    #: Control / clock distribution / thermal stabilization overhead [W]
    #: (calibrated closing term of the 3.02 TOPS/W budget).
    control_overhead_power: float = 127.13e-3

    @property
    def ops_per_sample(self) -> int:
        """1 op = one n-bit multiply or add (paper convention): a 1 x m
        dot product is m multiplies + m accumulates per row."""
        return 2 * self.columns * self.rows

    @property
    def psram_cells(self) -> int:
        return self.rows * self.columns * self.weight_bits


@dataclass
class Technology:
    """Bundle of every device/system spec for one technology corner."""

    wavelength: float = OPERATING_WAVELENGTH
    wall_plug_efficiency: float = WALL_PLUG_EFFICIENCY
    waveguide: WaveguideSpec = field(default_factory=WaveguideSpec)
    coupler: CouplerSpec = field(default_factory=CouplerSpec)
    depletion: DepletionJunctionSpec = field(default_factory=DepletionJunctionSpec)
    injection: InjectionTunerSpec = field(default_factory=InjectionTunerSpec)
    thermal: ThermalSpec = field(default_factory=ThermalSpec)
    photodiode: PhotodiodeSpec = field(default_factory=PhotodiodeSpec)
    psram: PsramSpec = field(default_factory=PsramSpec)
    eoadc: EoAdcSpec = field(default_factory=EoAdcSpec)
    compute: ComputeCoreSpec = field(default_factory=ComputeCoreSpec)
    tensor: TensorCoreSpec = field(default_factory=TensorCoreSpec)

    def compute_ring_spec(self) -> RingSpec:
        """7.5 um add-drop ring used for weights and the pSRAM latch
        (paper Section IV-B: 7.5 um radius, 200 nm thru gap)."""
        return RingSpec(radius=7.5e-6, gap_thru=200e-9, gap_drop=200e-9, loss_db_per_cm=4.0)

    def adc_ring_spec(self) -> RingSpec:
        """10 um all-pass ring used by the eoADC (paper Section IV-C:
        10 um radius, 250 nm gap), pinned at critical coupling.

        The heavy junction doping that buys the 32 pm/V tuning
        efficiency loads the ring to 16.15 dB/cm, setting the Q ~ 2.5e4
        / 52 pm linewidth that both the 1-hot window design and the
        8 GS/s photon-lifetime budget rely on.
        """
        ring = RingSpec(radius=10e-6, gap_thru=250e-9, gap_drop=None, loss_db_per_cm=16.1539)
        loss_db = ring.loss_db_per_cm * ring.circumference * 100.0
        single_pass_amplitude = 10.0 ** (-loss_db / 20.0)
        ring.power_coupling_thru = 1.0 - single_pass_amplitude**2
        return ring

    def replace(self, **kwargs) -> "Technology":
        """Return a copy with top-level fields replaced."""
        return dataclasses.replace(self, **kwargs)


def default_technology() -> Technology:
    """The GF45SPCLO-calibrated technology used throughout the paper."""
    return Technology()


def ring_fsr(wavelength: float, group_index: float, circumference: float) -> float:
    """Free spectral range [m] of a ring: FSR = lambda^2 / (n_g * L)."""
    return wavelength**2 / (group_index * circumference)


def photon_lifetime(quality_factor: float, wavelength: float) -> float:
    """Cavity field lifetime tau = Q * lambda / (2 * pi * c) [s]."""
    return quality_factor * wavelength / (2.0 * math.pi * SPEED_OF_LIGHT)
