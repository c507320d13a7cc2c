"""Static tests for the 1-hot electro-optic ADC (Figs. 8 and 10)."""

import numpy as np
import pytest

from repro.core.eoadc import EoAdc, ShiftAddEoAdc, TimeInterleavedEoAdc
from repro.electronics.adc_metrics import (
    code_transitions,
    differential_nonlinearity,
    is_monotonic,
    missing_codes,
    transfer_function,
)
from repro.errors import ConfigurationError, ConversionError


def test_paper_code_points(ideal_adc):
    """Fig. 9's static codes: 0.72 V -> 001, 3.3 V -> 110."""
    assert ideal_adc.convert(0.72) == 1
    assert ideal_adc.convert(3.3) == 6


def test_boundary_input_activates_two_adjacent_channels(ideal_adc):
    """Fig. 9: V_IN = 2.0 V fires B4 and B5; ceiling resolves to 100."""
    active = [i for i, fired in enumerate(ideal_adc.activations(2.0)) if fired]
    assert active == [3, 4]
    assert ideal_adc.convert(2.0) == 4


def test_one_hot_in_bin_interiors(ideal_adc):
    """Away from bin edges exactly one thresholding block fires."""
    for code in range(8):
        center = (code + 0.5) * 0.5
        active = [i for i, fired in enumerate(ideal_adc.activations(center)) if fired]
        assert active == [code]


def test_full_scale_is_4v(ideal_adc):
    assert ideal_adc.spec.full_scale_voltage == pytest.approx(4.0)
    assert ideal_adc.lsb == pytest.approx(0.5)


def test_out_of_range_raises(ideal_adc):
    with pytest.raises(ConversionError):
        ideal_adc.convert(-0.1)
    with pytest.raises(ConversionError):
        ideal_adc.convert(4.0)
    assert ideal_adc.convert_clamped(4.7) == 7
    assert ideal_adc.convert_clamped(-0.5) == 0


def test_monotonic_transfer_with_no_missing_codes(trimmed_adc):
    """Fig. 10: the trimmed converter keeps all 8 codes, monotonic."""
    voltages, codes = transfer_function(trimmed_adc.convert, 0.0, 4.0 - 1e-6, 2001)
    assert is_monotonic(codes)
    assert missing_codes(codes, trimmed_adc.levels) == []


def test_dnl_within_half_lsb(trimmed_adc):
    """Fig. 10: non-zero DNL texture but no -1 LSB (no missing code)."""
    voltages, codes = transfer_function(trimmed_adc.convert, 0.0, 4.0 - 1e-6, 4001)
    transitions = code_transitions(voltages, codes)
    dnl = differential_nonlinearity(transitions, trimmed_adc.lsb, trimmed_adc.levels)
    assert np.max(np.abs(dnl)) < 0.5
    assert np.any(np.abs(dnl) > 0.01)  # visibly non-ideal, as in the paper


def test_ideal_trim_transitions_near_bin_edges(ideal_adc):
    voltages, codes = transfer_function(ideal_adc.convert, 0.0, 4.0 - 1e-6, 8001)
    transitions = code_transitions(voltages, codes)
    for code in range(1, 8):
        # Transitions land ~6.6 mV below each bin edge (window overlap).
        assert transitions[code] == pytest.approx(code * 0.5 - 6.6e-3, abs=3e-3)


def test_thru_powers_one_notch(ideal_adc):
    """Fig. 8: at a bin center exactly one ring's thru power dips."""
    powers = ideal_adc.thru_powers(1.25)
    below = powers < ideal_adc.thresholders[0].reference_power
    assert below.sum() == 1
    assert below[2]  # third ring covers 1.0-1.5 V


def test_power_and_energy_match_paper(trimmed_adc):
    """7.58 mW optical + 11 mW electrical, 2.32 pJ/conv at 8 GS/s."""
    ledger = trimmed_adc.power_ledger()
    assert ledger.total_for("optical") == pytest.approx(7.58e-3, rel=2e-3)
    assert ledger.total_for("electrical") == pytest.approx(11e-3, rel=1e-3)
    assert trimmed_adc.energy_per_conversion == pytest.approx(2.32e-12, rel=2e-3)
    assert trimmed_adc.sample_rate == pytest.approx(8e9)


def test_no_tia_variant_matches_paper_ablation(tech):
    """416.7 MS/s and 58% electrical-power saving without TIA/amps."""
    adc = EoAdc(tech, use_read_chain=False)
    assert adc.sample_rate == pytest.approx(416.7e6)
    electrical = adc.power_ledger().total_for("electrical")
    assert electrical == pytest.approx(11e-3 * 0.42, rel=1e-3)


def test_strict_mode_raises_in_dead_zone(tech):
    adc = EoAdc(tech)  # trimmed: small dead zones exist near some edges
    voltages = np.linspace(0.0, 3.999, 2001)
    saw_dead_zone = False
    for v in voltages:
        try:
            adc.convert(float(v), strict=True)
        except ConversionError:
            saw_dead_zone = True
            break
    assert saw_dead_zone


def test_custom_bit_depth_designs_reference_power(tech):
    adc4 = EoAdc(tech, bits=4)
    assert adc4.levels == 16
    assert adc4.lsb == pytest.approx(0.25)
    # The window rule shrinks the reference with the LSB.
    assert adc4.thresholders[0].reference_power < 18e-6
    ramp_codes = [adc4.convert(v) for v in np.linspace(0.01, 3.99, 400)]
    assert is_monotonic(ramp_codes)


def test_retrim_reaches_conversion_and_ladder_after_invalidation(tech):
    """``trim_errors`` is mutable: after a re-trim and
    invalidate_boundaries, conversion and the ladder equal a converter
    built with the new trims (and stay stale until then)."""
    adc = EoAdc(tech)
    before = adc.code_boundaries()
    sweep = np.linspace(0.0, 3.999, 401)
    codes_before = adc.convert(sweep)
    adc.trim_errors = adc.trim_errors + 20e-12
    assert adc.code_boundaries() is before
    assert np.array_equal(adc.convert(sweep), codes_before)
    adc.invalidate_boundaries()
    fresh = EoAdc(tech, trim_errors=adc.trim_errors)
    assert np.array_equal(adc.code_boundaries(), fresh.code_boundaries())
    assert not np.array_equal(adc.code_boundaries(), before)
    assert np.array_equal(adc.convert(sweep), fresh.convert(sweep))
    assert [adc.convert(float(v)) for v in sweep[::20]] == [
        fresh.convert(float(v)) for v in sweep[::20]
    ]
    assert [ring.trim_error for ring in adc.rings] == adc.trim_errors.tolist()


def test_array_conversion_matches_scalar(trimmed_adc):
    sweep = np.linspace(0.0, 3.999, 300)
    codes = trimmed_adc.convert(sweep.reshape(3, -1))
    assert codes.shape == (3, 100)
    assert codes.ravel().tolist() == [trimmed_adc.convert(float(v)) for v in sweep]
    assert isinstance(trimmed_adc.convert(1.0), int)
    with pytest.raises(ConversionError):
        trimmed_adc.convert(np.array([1.0, 4.0]))


def test_trim_error_shape_validated(tech):
    with pytest.raises(ConfigurationError):
        EoAdc(tech, trim_errors=np.zeros(4))


class TestTimeInterleaved:
    def test_rate_and_power_scale_with_lanes(self, tech):
        ti = TimeInterleavedEoAdc(lanes=2, technology=tech)
        single = EoAdc(tech)
        assert ti.sample_rate == pytest.approx(2 * single.sample_rate)
        assert ti.total_power == pytest.approx(2 * single.total_power, rel=1e-6)
        # Energy per conversion unchanged to first order.
        assert ti.energy_per_conversion == pytest.approx(
            single.energy_per_conversion, rel=1e-6
        )

    def test_stream_conversion_round_robin(self, tech):
        ti = TimeInterleavedEoAdc(lanes=2, technology=tech, offset_sigma=0.0, skew_sigma=0.0)
        codes = ti.convert_stream(lambda t: 1.25, count=8)
        assert codes == [2] * 8

    def test_mismatch_produces_code_errors(self, tech):
        ti = TimeInterleavedEoAdc(
            lanes=4, technology=tech, offset_sigma=0.3, skew_sigma=0.0, seed=3
        )
        codes = ti.convert_stream(lambda t: 1.25, count=16)
        assert len(set(codes)) > 1  # lanes disagree: the paper's objection

    def test_needs_two_lanes(self, tech):
        with pytest.raises(ConfigurationError):
            TimeInterleavedEoAdc(lanes=1, technology=tech)


class TestShiftAdd:
    def test_doubles_resolution(self, tech):
        cascade = ShiftAddEoAdc(tech)
        assert cascade.bits == 6
        assert cascade.levels == 64
        assert cascade.lsb == pytest.approx(4.0 / 64)

    def test_codes_track_fine_ramp(self, tech):
        cascade = ShiftAddEoAdc(tech)
        voltages = np.linspace(0.05, 3.95, 40)
        codes = [cascade.convert(float(v)) for v in voltages]
        ideal = [int(v / cascade.lsb) for v in voltages]
        errors = np.abs(np.array(codes) - np.array(ideal))
        # Within a couple of fine LSBs given trim residuals.
        assert np.max(errors) <= 3

    def test_gain_error_degrades_accuracy(self, tech):
        good = ShiftAddEoAdc(tech, gain_error=0.0)
        bad = ShiftAddEoAdc(tech, gain_error=0.2)
        voltages = np.linspace(0.05, 3.95, 40)
        ideal = np.array([int(v / good.lsb) for v in voltages])
        err_good = np.abs([good.convert(float(v)) for v in voltages] - ideal).max()
        err_bad = np.abs([bad.convert(float(v)) for v in voltages] - ideal).max()
        assert err_bad >= err_good

    def test_pipelined_rate_follows_single_stage(self, tech):
        cascade = ShiftAddEoAdc(tech)
        assert cascade.sample_rate == pytest.approx(8e9)
        assert cascade.total_power == pytest.approx(2 * 18.58e-3, rel=2e-3)
