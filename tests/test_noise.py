"""Tests for the noise-floor analyses."""

import pytest

from repro.analysis.noise import (
    ComputePathNoiseAnalysis,
    EoAdcNoiseAnalysis,
    PsramNoiseAnalysis,
    shot_noise_sigma,
    thermal_noise_sigma,
    threshold_error_probability,
)
from repro.errors import ConfigurationError


def test_shot_noise_scaling():
    base = shot_noise_sigma(10e-6, 4e9)
    assert shot_noise_sigma(40e-6, 4e9) == pytest.approx(2 * base)
    assert shot_noise_sigma(10e-6, 16e9) == pytest.approx(2 * base)
    with pytest.raises(ConfigurationError):
        shot_noise_sigma(-1e-6, 4e9)


def test_thermal_noise_scaling():
    base = thermal_noise_sigma(4e9)
    assert thermal_noise_sigma(16e9) == pytest.approx(2 * base)
    assert thermal_noise_sigma(4e9, load_resistance=40e3) == pytest.approx(base / 2)
    with pytest.raises(ConfigurationError):
        thermal_noise_sigma(0.0)


def test_threshold_error_probability_limits():
    assert threshold_error_probability(1e-6, 0.0) == 0.0
    assert threshold_error_probability(0.0, 1e-6) == pytest.approx(0.5)
    # One sigma of margin ~ 15.9 % error.
    assert threshold_error_probability(1e-6, 1e-6) == pytest.approx(0.1587, abs=1e-3)
    # More margin -> less error.
    assert threshold_error_probability(3e-6, 1e-6) < threshold_error_probability(
        1e-6, 1e-6
    )


class TestEoAdcNoise:
    def test_paper_operating_point_has_huge_margin(self, tech):
        analysis = EoAdcNoiseAnalysis(tech)
        assert analysis.worst_case_margin() > 1e-6  # > 1 uA of margin
        assert analysis.code_error_probability() < 1e-50

    def test_margin_shrinks_with_power(self, tech):
        analysis = EoAdcNoiseAnalysis(tech)
        assert analysis.worst_case_margin(20e-6) < analysis.worst_case_margin(200e-6)

    def test_minimum_power_below_paper_choice(self, tech):
        """The paper's 200 uW leaves an order of magnitude of optical
        headroom at a 1e-12 code-error target."""
        analysis = EoAdcNoiseAnalysis(tech)
        minimum = analysis.minimum_channel_power(1e-12)
        assert 5e-6 < minimum < 100e-6
        assert minimum < tech.eoadc.channel_power

    def test_tighter_target_needs_more_power(self, tech):
        analysis = EoAdcNoiseAnalysis(tech)
        assert analysis.minimum_channel_power(1e-15) > analysis.minimum_channel_power(
            1e-6
        )

    def test_target_validation(self, tech):
        with pytest.raises(ConfigurationError):
            EoAdcNoiseAnalysis(tech).minimum_channel_power(0.7)


class TestComputePathNoise:
    def test_analog_path_outresolves_the_eoadc(self, tech):
        """The analog dot product supports far more than 3 bits — the
        eoADC is the resolution bottleneck, as the paper implies."""
        analysis = ComputePathNoiseAnalysis(tech)
        assert analysis.effective_bits(16) > tech.eoadc.bits + 2

    def test_snr_improves_with_utilization(self, tech):
        analysis = ComputePathNoiseAnalysis(tech)
        assert analysis.snr_db(16, utilization=1.0) > analysis.snr_db(
            16, utilization=0.1
        )

    def test_utilization_validation(self, tech):
        with pytest.raises(ConfigurationError):
            ComputePathNoiseAnalysis(tech).snr_db(16, utilization=0.0)


class TestPsramNoise:
    def test_margin_grows_with_bias(self, tech):
        analysis = PsramNoiseAnalysis(tech)
        assert analysis.hold_margin(20e-6) > analysis.hold_margin(10e-6)

    def test_paper_bias_is_disturb_free(self, tech):
        analysis = PsramNoiseAnalysis(tech)
        assert analysis.disturb_probability() < 1e-20

    def test_minimum_bias_below_paper_choice(self, tech):
        """-20 dBm (10 uW) holds with several-x margin over the noise
        floor."""
        analysis = PsramNoiseAnalysis(tech)
        minimum = analysis.minimum_bias_power(1e-15)
        assert minimum < tech.psram.bias_power
        assert minimum > 0.1e-6

    def test_target_validation(self, tech):
        with pytest.raises(ConfigurationError):
            PsramNoiseAnalysis(tech).minimum_bias_power(1.0)
