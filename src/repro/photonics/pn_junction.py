"""pn-junction electro-optic tuning via the plasma dispersion effect.

Two tuner flavours are used by the paper's architecture:

* :class:`DepletionTuner` — small-signal reverse/forward modulation of
  the eoADC rings.  The p-terminal sits at a reference voltage, the
  n-terminal at the analog input; increasing reverse bias widens the
  depletion region, removes free carriers and *red-shifts* the
  resonance (paper Fig. 3a).
* :class:`InjectionTuner` — forward-bias carrier injection used as the
  digital on/off tuner of the weight and pSRAM rings, providing the
  multi-linewidth shift a 1.8 V drive needs.

The Soref-Bennett relations are provided for physical grounding and are
exercised by the tests to confirm the calibrated efficiencies sit in a
plausible carrier-density range.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import DepletionJunctionSpec, InjectionTunerSpec
from ..constants import SILICON_RELATIVE_PERMITTIVITY, VACUUM_PERMITTIVITY, ELEMENTARY_CHARGE
from ..errors import ConfigurationError

# Soref-Bennett empirical coefficients (per cm^3 carrier densities).
_COEFFS = {
    # wavelength band: (electron dn, hole dn coeff, hole dn exponent,
    #                   electron dalpha, hole dalpha) -- alpha in 1/cm
    1.31e-6: (-6.2e-22, -6.0e-18, 0.8, 6.0e-18, 4.0e-18),
    1.55e-6: (-8.8e-22, -8.5e-18, 0.8, 8.5e-18, 6.0e-18),
}


def _band(wavelength: float) -> tuple[float, float, float, float, float]:
    """Pick the closest Soref-Bennett coefficient band."""
    return _COEFFS[min(_COEFFS, key=lambda band: abs(band - wavelength))]


def soref_bennett_delta_n(
    delta_electrons_cm3: float, delta_holes_cm3: float, wavelength: float = 1.31e-6
) -> float:
    """Refractive-index change for carrier-density changes [cm^-3].

    Positive carrier densities *decrease* the index (free-carrier plasma
    dispersion), so depleting carriers increases it.
    """
    electron_coeff, hole_coeff, hole_exp, _, _ = _band(wavelength)
    hole_term = hole_coeff * (abs(delta_holes_cm3) ** hole_exp) * math.copysign(
        1.0, delta_holes_cm3
    )
    return electron_coeff * delta_electrons_cm3 + hole_term


def soref_bennett_delta_alpha(
    delta_electrons_cm3: float, delta_holes_cm3: float, wavelength: float = 1.31e-6
) -> float:
    """Absorption-coefficient change [1/cm] for carrier-density changes."""
    _, _, _, electron_coeff, hole_coeff = _band(wavelength)
    return electron_coeff * delta_electrons_cm3 + hole_coeff * delta_holes_cm3


def depletion_width(
    bias_voltage: float,
    doping_n_cm3: float = 5e17,
    doping_p_cm3: float = 5e17,
    built_in_voltage: float = 0.8,
) -> float:
    """Depletion width [m] of an abrupt junction under reverse bias [V].

    ``bias_voltage`` is the reverse bias (positive = reverse).  Used by
    the tests to sanity-check the calibrated tuning efficiency.
    """
    if bias_voltage < -built_in_voltage:
        raise ConfigurationError("junction forward-biased beyond the built-in voltage")
    n_m3 = doping_n_cm3 * 1e6
    p_m3 = doping_p_cm3 * 1e6
    effective = n_m3 * p_m3 / (n_m3 + p_m3)
    eps = SILICON_RELATIVE_PERMITTIVITY * VACUUM_PERMITTIVITY
    return math.sqrt(2.0 * eps * (built_in_voltage + bias_voltage) / (ELEMENTARY_CHARGE * effective))


class DepletionTuner:
    """Small-signal junction tuner for the eoADC rings.

    The ring red-shifts as V_pn = V_p - V_n decreases (stronger reverse
    bias) and blue-shifts as V_pn increases, matching the paper's
    Fig. 3(a) description.  A mild odd asymmetry models the stronger
    injection response at forward bias.
    """

    def __init__(self, spec: DepletionJunctionSpec | None = None) -> None:
        self.spec = spec if spec is not None else DepletionJunctionSpec()

    def wavelength_shift(self, v_pn):
        """Resonance wavelength shift [m] at junction voltage ``v_pn``
        (a float or an array; raises for the first voltage outside the
        modelled range)."""
        spec = self.spec
        voltages = np.asarray(v_pn)
        beyond = (voltages > spec.max_forward_voltage) | (voltages < -spec.max_reverse_voltage)
        if beyond.any():
            raise ConfigurationError(
                f"junction voltage {float(voltages[beyond][0])} V outside the modelled "
                f"[-{spec.max_reverse_voltage}, {spec.max_forward_voltage}] V range"
            )
        return spec.wavelength_shift(v_pn)

    def small_signal_efficiency(self) -> float:
        """|dlambda/dV| at V_pn = 0 [m/V]."""
        return self.spec.efficiency

    def capacitance(self) -> float:
        """Junction capacitance [F] (bias dependence neglected)."""
        return self.spec.capacitance


class InjectionTuner:
    """Digital forward-bias tuner for the weight/pSRAM rings.

    Produces zero shift below the diode turn-on voltage and a blue-shift
    saturating at ``shift_at_vdd`` for a full-rail drive.  The carrier
    time constant limits how fast the ring can follow the drive; the
    transient engine uses it as a first-order lag.
    """

    def __init__(self, spec: InjectionTunerSpec | None = None) -> None:
        self.spec = spec if spec is not None else InjectionTunerSpec()

    def wavelength_shift(self, voltage: float) -> float:
        """Resonance wavelength shift [m] for drive ``voltage`` [V]."""
        if voltage < -0.5:
            raise ConfigurationError(f"injection tuner drive must be ~>= 0 V, got {voltage}")
        return self.spec.wavelength_shift(voltage)

    @property
    def time_constant(self) -> float:
        """Carrier response time constant [s]."""
        return self.spec.carrier_time_constant

    @property
    def full_shift(self) -> float:
        """Blue-shift magnitude at VDD [m]."""
        return self.spec.shift_at_vdd
