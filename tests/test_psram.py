"""Unit and transient tests for the pSRAM bitcell/array (Fig. 5)."""

import pytest

from repro.core.psram import PsramArray
from repro.errors import ConfigurationError
from repro.sim.waveform import PulseTrain


def test_both_states_hold_stably(psram_cell):
    """The cross-coupled positive feedback must reinforce both states."""
    for bit in (0, 1):
        psram_cell.set_state(bit)
        assert psram_cell.state == bit
        assert psram_cell.is_hold_stable()


def test_hold_currents_reinforce_state(psram_cell):
    psram_cell.set_state(1)
    current_q, current_qb = psram_cell.hold_node_currents()
    assert current_q > 1e-6  # Q pulled toward VDD with uA margin
    assert current_qb < -1e-6  # QB pulled toward ground


def test_write_one_from_zero(psram_cell):
    psram_cell.set_state(0)
    result = psram_cell.write(1)
    assert result.success
    assert psram_cell.state == 1


def test_write_zero_from_one(psram_cell):
    psram_cell.set_state(1)
    result = psram_cell.write(0)
    assert result.success
    assert psram_cell.state == 0


def test_write_energy_matches_paper(psram_cell):
    """Paper Section IV-A: 0.5 pJ per switching event."""
    psram_cell.set_state(0)
    result = psram_cell.write(1)
    assert result.switch_energy == pytest.approx(0.5e-12, rel=1e-3)


def test_write_flips_inside_the_50ps_pulse(psram_cell):
    """Fig. 5: the storage node crosses mid-rail during the write pulse."""
    psram_cell.set_state(0)
    result = psram_cell.write(1)
    crossings = result.recorder.waveform("Q").crossings(0.9, rising=True)
    assert crossings
    assert crossings[0] < 50e-12


def test_rewrite_same_value_spends_no_switch_energy(psram_cell):
    psram_cell.set_state(1)
    result = psram_cell.write(1)
    assert result.success
    ledger = result.energy.breakdown()
    assert "node/driver switching" not in ledger


def test_hold_transient_retains_state(psram_cell):
    """No write pulses: one full update cycle must not disturb the bit."""
    psram_cell.set_state(1)
    recorder = psram_cell.transient(duration=100e-12)
    assert recorder.waveform("Q").final_value() > 1.7
    assert recorder.waveform("QB").final_value() < 0.1


def test_differential_write_waveforms_recorded(psram_cell):
    psram_cell.set_state(0)
    pulse = PulseTrain().add_pulse(0.0, 50e-12, 1e-3)
    recorder = psram_cell.transient(150e-12, wbl=pulse)
    assert recorder.waveform("WBL").value_at(25e-12) == pytest.approx(1e-3)
    assert recorder.waveform("WBLB").value_at(25e-12) == 0.0


def test_hold_power_ledger(psram_cell):
    """-20 dBm bias / 0.23 wall plug + driver leakage ~ 48.5 uW."""
    total = psram_cell.hold_power_ledger().total
    assert total == pytest.approx(10e-6 / 0.23 + 5e-6, rel=1e-6)


def test_invalid_bit_rejected(psram_cell):
    with pytest.raises(ConfigurationError):
        psram_cell.set_state(2)
    with pytest.raises(ConfigurationError):
        psram_cell.write(-1)


class TestPsramArray:
    def test_word_round_trip(self, tech):
        array = PsramArray(4, 3, tech)
        array.write_word(2, 5)
        assert array.word(2) == 5
        assert array.word_bits(2) == (1, 0, 1)

    def test_write_all_counts_switches(self, tech):
        array = PsramArray(4, 3, tech)
        flips = array.write_all([7, 7, 7, 7])
        assert flips == 12  # every bit 0 -> 1... 3 bits x 4 words
        flips = array.write_all([7, 7, 7, 7])
        assert flips == 0  # rewriting the same data flips nothing

    def test_write_energy_per_switch(self, tech):
        array = PsramArray(2, 3, tech)
        array.write_word(0, 7)  # 3 switches
        assert array.write_energy() == pytest.approx(3 * 0.5e-12, rel=1e-3)

    def test_update_time_at_20ghz(self, tech):
        """Paper: 20 GHz updates -> 16 words stream in 0.8 ns."""
        array = PsramArray(16, 3, tech)
        assert array.update_time() == pytest.approx(16 / 20e9)

    def test_value_range_checked(self, tech):
        array = PsramArray(2, 3, tech)
        with pytest.raises(ConfigurationError):
            array.write_word(0, 8)
        with pytest.raises(ConfigurationError):
            array.write_all([1])

    def test_retention_spot_check(self, tech):
        assert PsramArray(2, 2, tech).check_retention()

    def test_hold_power_scales_with_cells(self, tech):
        small = PsramArray(2, 3, tech).hold_power()
        large = PsramArray(4, 3, tech).hold_power()
        assert large == pytest.approx(2 * small)
