"""Unit tests for the microring resonator models (paper Figs. 3a, 6)."""

import numpy as np
import pytest

from repro.config import RingSpec
from repro.errors import ConfigurationError
from repro.photonics.mrr import AddDropMRR, AllPassMRR
from repro.photonics.signal import WDMSignal


def test_compute_ring_fsr_and_linewidth(compute_ring):
    assert compute_ring.fsr == pytest.approx(9.36e-9, rel=1e-3)
    assert compute_ring.fwhm == pytest.approx(146.8e-12, rel=0.02)
    assert 8000 < compute_ring.q_factor < 10000


def test_compute_ring_deep_thru_notch_on_resonance(compute_ring, tech):
    thru = float(compute_ring.thru_transmission(tech.wavelength, voltage=0.0))
    drop = float(compute_ring.drop_transmission(tech.wavelength, voltage=0.0))
    assert thru < 0.01  # < -20 dB extinction
    assert drop > 0.85  # most light drops


def test_compute_ring_injection_detuning_opens_thru(compute_ring, tech):
    """Weight bit 1 (VDD drive) must pass most of the channel light."""
    thru = float(compute_ring.thru_transmission(tech.wavelength, voltage=1.8))
    drop = float(compute_ring.drop_transmission(tech.wavelength, voltage=1.8))
    assert thru > 0.8
    assert drop < 0.15


def test_resonances_repeat_at_fsr(compute_ring, tech):
    lam = tech.wavelength
    thru_here = float(compute_ring.thru_transmission(lam, voltage=0.0))
    thru_fsr = float(compute_ring.thru_transmission(lam + compute_ring.fsr, voltage=0.0))
    assert thru_fsr == pytest.approx(thru_here, abs=1e-3)


def test_length_adjust_shifts_resonance_by_paper_value(tech):
    """Paper Fig. 6: dL = 68/136/204 nm -> 2.33/4.66/6.99 nm shifts."""
    for steps in (1, 2, 3):
        ring = AddDropMRR(
            tech.compute_ring_spec(),
            design_wavelength=tech.wavelength,
            waveguide=tech.waveguide,
            coupler=tech.coupler,
            length_adjust=steps * 68e-9,
        )
        shift = ring.resonance_wavelength() - tech.wavelength
        assert shift == pytest.approx(steps * 2.33e-9, rel=1e-3)


def test_four_channels_fit_in_fsr(tech):
    """Paper Section III: 4 channels at 2.33 nm inside the 9.36 nm FSR."""
    ring = AddDropMRR(
        tech.compute_ring_spec(),
        design_wavelength=tech.wavelength,
        waveguide=tech.waveguide,
        coupler=tech.coupler,
    )
    assert 4 * 2.33e-9 < ring.fsr


def test_adc_ring_critical_coupling_extinction(adc_ring, tech):
    """At critical coupling the on-resonance thru power vanishes."""
    thru = float(adc_ring.thru_transmission(tech.wavelength, voltage=0.0))
    assert thru < 1e-4
    assert adc_ring.extinction_ratio_db > 35.0


def test_adc_ring_voltage_notch_walks_with_reference(adc_ring, tech):
    """Paper Fig. 3(a): the dip tracks the junction voltage."""
    lam = tech.wavelength
    t_resonant = float(adc_ring.thru_transmission(lam, voltage=0.0))
    t_quarter = float(adc_ring.thru_transmission(lam, voltage=0.25))
    t_volt = float(adc_ring.thru_transmission(lam, voltage=1.0))
    assert t_resonant < t_quarter < t_volt


def test_adc_ring_bin_edge_transmission_matches_window_design(adc_ring, tech):
    """At a half-LSB detuning the thru power sits just below the 18/200
    threshold — the two-hot bin-edge behaviour of Fig. 9."""
    threshold = tech.eoadc.reference_power / tech.eoadc.channel_power
    t_edge = float(adc_ring.thru_transmission(tech.wavelength, voltage=0.25))
    assert t_edge < threshold
    assert t_edge > 0.8 * threshold


def test_adc_ring_q_supports_8gsps(adc_ring):
    """Photon lifetime must leave room inside a 125 ps sample period."""
    assert adc_ring.photon_lifetime < 125e-12 / 4.0
    assert 20000 < adc_ring.q_factor < 30000


def test_passivity_thru_plus_drop_bounded(compute_ring, tech):
    lam = np.linspace(tech.wavelength - 5e-9, tech.wavelength + 5e-9, 501)
    thru = compute_ring.thru_transmission(lam, voltage=0.0)
    drop = compute_ring.drop_transmission(lam, voltage=0.0)
    assert np.all(thru >= 0.0) and np.all(drop >= 0.0)
    assert np.all(thru + drop <= 1.0 + 1e-12)


def test_lossless_ring_conserves_power(tech):
    spec = RingSpec(radius=7.5e-6, gap_thru=200e-9, gap_drop=200e-9, loss_db_per_cm=0.0)
    ring = AddDropMRR(
        spec,
        design_wavelength=tech.wavelength,
        waveguide=tech.waveguide,
        coupler=tech.coupler,
    )
    lam = np.linspace(tech.wavelength - 2e-9, tech.wavelength + 2e-9, 101)
    total = ring.thru_transmission(lam) + ring.drop_transmission(lam)
    assert np.allclose(total, 1.0, atol=1e-9)


def test_trim_error_shifts_resonance(tech):
    ring = AllPassMRR(
        tech.adc_ring_spec(),
        design_wavelength=tech.wavelength,
        waveguide=tech.waveguide,
        coupler=tech.coupler,
        trim_error=5e-12,
    )
    assert ring.resonance_wavelength() - tech.wavelength == pytest.approx(5e-12)


def test_thermal_shift_is_red(tech):
    ring = AllPassMRR(
        tech.adc_ring_spec(),
        design_wavelength=tech.wavelength,
        waveguide=tech.waveguide,
        coupler=tech.coupler,
    )
    ring.delta_temperature = 2.0
    assert ring.resonance_wavelength() - tech.wavelength == pytest.approx(150e-12, rel=1e-6)


def test_finesse_consistency(compute_ring):
    assert compute_ring.finesse == pytest.approx(
        compute_ring.fsr / compute_ring.fwhm, rel=1e-12
    )


def test_port_protocol_scales_signal(compute_ring, tech):
    signal = WDMSignal.single(tech.wavelength, 1e-3)
    out = compute_ring.propagate_ports({"in": signal})
    assert out["thru"].total_power == pytest.approx(
        1e-3 * float(compute_ring.thru_transmission(tech.wavelength))
    )
    assert out["drop"].total_power == pytest.approx(
        1e-3 * float(compute_ring.drop_transmission(tech.wavelength))
    )


def test_invalid_construction_rejected(tech):
    with pytest.raises(ConfigurationError):
        AllPassMRR(
            tech.adc_ring_spec(),
            design_wavelength=-1.0,
            waveguide=tech.waveguide,
        )
    with pytest.raises(ConfigurationError):
        AddDropMRR(
            tech.compute_ring_spec(),
            design_wavelength=tech.wavelength,
            waveguide=tech.waveguide,
            length_adjust=-1e-9,
        )
