"""Unit tests for the calibrated technology configuration."""

import math

import pytest

from repro.config import (
    EoAdcSpec,
    default_technology,
    photon_lifetime,
    ring_fsr,
)
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def tech():
    return default_technology()


def test_compute_ring_fsr_matches_paper(tech):
    """Paper Section IV-B: 9.36 nm FSR for the 7.5 um ring."""
    spec = tech.compute_ring_spec()
    fsr = ring_fsr(tech.wavelength, tech.waveguide.group_index, spec.circumference)
    assert fsr == pytest.approx(9.36e-9, rel=1e-3)


def test_resonance_order_is_integer_by_construction(tech):
    spec = tech.compute_ring_spec()
    order = tech.waveguide.effective_index * spec.circumference / tech.wavelength
    assert order == pytest.approx(88.0, abs=1e-3)


def test_adc_ring_is_critically_coupled(tech):
    spec = tech.adc_ring_spec()
    loss_db = spec.loss_db_per_cm * spec.circumference * 100.0
    amplitude = 10.0 ** (-loss_db / 20.0)
    assert spec.power_coupling_thru == pytest.approx(1.0 - amplitude**2)


def test_coupler_map_monotonic_in_gap(tech):
    gaps = [150e-9, 200e-9, 250e-9, 300e-9]
    couplings = [tech.coupler.power_coupling(g) for g in gaps]
    assert all(a > b for a, b in zip(couplings, couplings[1:]))


def test_coupler_map_hits_calibration_points(tech):
    assert tech.coupler.power_coupling(200e-9) == pytest.approx(0.046, rel=1e-3)
    adc = tech.adc_ring_spec()
    assert tech.coupler.power_coupling(250e-9) == pytest.approx(
        adc.power_coupling_thru, rel=2e-2
    )


def test_coupler_rejects_negative_gap(tech):
    with pytest.raises(ConfigurationError):
        tech.coupler.power_coupling(-1e-9)


def test_eoadc_reference_ladder_at_bin_centers(tech):
    refs = tech.eoadc.reference_voltages()
    assert len(refs) == 8
    assert refs[0] == pytest.approx(0.25)
    assert refs[-1] == pytest.approx(3.75)
    steps = [b - a for a, b in zip(refs, refs[1:])]
    assert all(step == pytest.approx(0.5) for step in steps)


def test_eoadc_power_arithmetic_matches_paper(tech):
    """(8*200 + 8*18) uW / 0.23 = 7.58 mW; +11 mW electrical; 2.32 pJ."""
    spec = tech.eoadc
    assert spec.optical_power_wall_plug == pytest.approx(7.58e-3, rel=1e-3)
    assert spec.total_power == pytest.approx(18.58e-3, rel=1e-3)
    assert spec.energy_per_conversion == pytest.approx(2.32e-12, rel=2e-3)


def test_eoadc_spec_rejects_bad_configs():
    with pytest.raises(ConfigurationError):
        EoAdcSpec(bits=0)
    with pytest.raises(ConfigurationError):
        EoAdcSpec(reference_power=300e-6, channel_power=200e-6)


def test_psram_energy_target(tech):
    assert tech.psram.switch_energy_target == pytest.approx(0.5e-12)


def test_tensor_ops_per_sample(tech):
    """16 rows x (16 mult + 16 acc) = 512 ops per ADC sample."""
    assert tech.tensor.ops_per_sample == 512
    assert tech.tensor.psram_cells == 768


def test_depletion_red_shift_sign(tech):
    """Paper Fig. 3(a): stronger reverse bias (more negative V_pn)
    red-shifts the resonance."""
    shift_reverse = tech.depletion.wavelength_shift(-2.0)
    shift_forward = tech.depletion.wavelength_shift(+2.0)
    assert shift_reverse > 0.0
    assert shift_forward < 0.0
    # Injection asymmetry: forward shifts slightly harder.
    assert abs(shift_forward) > abs(shift_reverse)


def test_injection_tuner_turn_on_and_saturation(tech):
    spec = tech.injection
    assert spec.wavelength_shift(0.0) == 0.0
    assert spec.wavelength_shift(0.5) == 0.0
    assert spec.wavelength_shift(1.8) == pytest.approx(-180e-12)
    assert spec.wavelength_shift(2.5) == pytest.approx(-180e-12)


def test_technology_replace_creates_copy(tech):
    modified = tech.replace(wavelength=1550e-9)
    assert modified.wavelength == 1550e-9
    assert tech.wavelength == pytest.approx(1310.5e-9)


def test_photon_lifetime_formula():
    lifetime = photon_lifetime(25000.0, 1310.5e-9)
    expected = 25000.0 * 1310.5e-9 / (2.0 * math.pi * 299792458.0)
    assert lifetime == pytest.approx(expected)
