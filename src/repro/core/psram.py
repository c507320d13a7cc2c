"""The differential cross-coupled photonic SRAM bitcell (paper Fig. 1).

Topology: an input splitter PS1 feeds the hold bias to two identical
add-drop rings M1/M2.  M1's thru and drop ports terminate on the
photodiode stack P1 (VDD -> QB) / P2 (QB -> GND); M2's on P3
(VDD -> Q) / P4 (Q -> GND).  Driver D2 closes Q -> M1, driver D1
closes QB -> M2, forming the bistable electro-optic latch: the ring
driven high resonates (drop port wins, pulling its *opposite* node
down), the ring driven low passes light to the thru port (pulling its
node up).

Writes apply differential optical pulses on the WBL/WBLB waveguides;
WBL splits onto P3 and P2 (raising Q, dropping QB), WBLB onto P1 and
P4.  Absorbers A1/A2 terminate the unused bus ends.

The transient model co-simulates the electrical nodes (rail-clamped
capacitors), the drivers (single-pole), and the ring response (photon
lifetime + injection carrier lag) — Fig. 5's waveforms.  The energy
model reproduces the paper's 0.5 pJ per switching event at 20 GHz.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Technology, default_technology
from ..electronics.driver import InverterDriver
from ..electronics.elements import StorageNode
from ..electronics.power import EnergyLedger, PowerLedger
from ..errors import ConfigurationError, SimulationError
from ..photonics.absorber import Absorber
from ..photonics.coupler import PowerSplitter
from ..photonics.mrr import AddDropMRR
from ..photonics.photodiode import Photodiode
from ..photonics.pn_junction import InjectionTuner
from ..sim.transient import FirstOrderLag, Recorder, TransientEngine
from ..sim.waveform import PulseTrain


@dataclass
class WriteResult:
    """Outcome of a pSRAM write transient."""

    target_bit: int
    success: bool
    recorder: Recorder
    energy: EnergyLedger

    @property
    def switch_energy(self) -> float:
        """Total wall-plug energy of the write event [J]."""
        return self.energy.total


class PsramBitcell:
    """One differential cross-coupled photonic SRAM bitcell."""

    def __init__(self, technology: Technology | None = None, label: str = "psram") -> None:
        self.technology = technology if technology is not None else default_technology()
        tech = self.technology
        spec = tech.psram
        self.spec = spec
        self.label = label

        ring_spec = tech.compute_ring_spec()
        # Rings are trimmed to resonate at the bias wavelength when their
        # drive is at VDD (paper Section II-A).
        self.m1 = AddDropMRR(
            ring_spec,
            design_wavelength=tech.wavelength,
            design_voltage=spec.vdd,
            waveguide=tech.waveguide,
            coupler=tech.coupler,
            tuner=InjectionTuner(tech.injection),
            thermal=tech.thermal,
            label=f"{label}.M1",
        )
        self.m2 = AddDropMRR(
            ring_spec,
            design_wavelength=tech.wavelength,
            design_voltage=spec.vdd,
            waveguide=tech.waveguide,
            coupler=tech.coupler,
            tuner=InjectionTuner(tech.injection),
            thermal=tech.thermal,
            label=f"{label}.M2",
        )
        self.ps1 = PowerSplitter(ratio=0.5, label=f"{label}.PS1")
        self.ps2 = PowerSplitter(ratio=0.5, label=f"{label}.PS2")
        self.ps3 = PowerSplitter(ratio=0.5, label=f"{label}.PS3")
        self.p1 = Photodiode(tech.photodiode, label=f"{label}.P1")
        self.p2 = Photodiode(tech.photodiode, label=f"{label}.P2")
        self.p3 = Photodiode(tech.photodiode, label=f"{label}.P3")
        self.p4 = Photodiode(tech.photodiode, label=f"{label}.P4")
        self.a1 = Absorber(label=f"{label}.A1")
        self.a2 = Absorber(label=f"{label}.A2")

        self.node_q = StorageNode(spec.node_capacitance, spec.vdd, 0.0, label=f"{label}.Q")
        self.node_qb = StorageNode(spec.node_capacitance, spec.vdd, spec.vdd, label=f"{label}.QB")
        self.driver_d1 = InverterDriver(
            spec.vdd, spec.driver_time_constant, initial_output=spec.vdd, label=f"{label}.D1"
        )
        self.driver_d2 = InverterDriver(
            spec.vdd, spec.driver_time_constant, initial_output=0.0, label=f"{label}.D2"
        )

        # Ring optical response lag: photon lifetime + injection carriers.
        ring_tau = self.m1.photon_lifetime + tech.injection.carrier_time_constant
        self._m1_response = FirstOrderLag(self._ring_targets(self.m1, 0.0), ring_tau)
        self._m2_response = FirstOrderLag(self._ring_targets(self.m2, spec.vdd), ring_tau)

    # -- structural helpers -------------------------------------------------
    def _ring_targets(self, ring: AddDropMRR, voltage: float):
        """Settled (thru, drop) transmissions at the bias wavelength."""
        wavelength = self.technology.wavelength
        return (
            float(ring.thru_transmission(wavelength, voltage=voltage)),
            float(ring.drop_transmission(wavelength, voltage=voltage)),
        )

    @property
    def state(self) -> int:
        """Stored bit: digital reading of node Q."""
        return int(self.node_q.logic_state)

    def set_state(self, bit: int) -> None:
        """Force the latch into a state (initial conditions)."""
        if bit not in (0, 1):
            raise ConfigurationError(f"bit must be 0 or 1, got {bit}")
        vdd = self.spec.vdd
        self.node_q.voltage = vdd * bit
        self.node_qb.voltage = vdd * (1 - bit)
        self.driver_d2.settle(self.node_q.voltage)
        self.driver_d1.settle(self.node_qb.voltage)
        self._m1_response.snap(self._ring_targets(self.m1, self.driver_d2.output))
        self._m2_response.snap(self._ring_targets(self.m2, self.driver_d1.output))

    # -- static analyses ------------------------------------------------------
    def hold_node_currents(self) -> tuple[float, float]:
        """Settled net currents (I_Q, I_QB) [A] in hold mode.

        For a stable latch the high node's current is positive (or the
        node is clamped at VDD) and the low node's negative.
        """
        bias = self.spec.bias_power / 2.0
        thru1, drop1 = self._ring_targets(self.m1, self.driver_d2.output)
        thru2, drop2 = self._ring_targets(self.m2, self.driver_d1.output)
        current_qb = self.p1.current(bias * thru1) - self.p2.current(bias * drop1)
        current_q = self.p3.current(bias * thru2) - self.p4.current(bias * drop2)
        return current_q, current_qb

    def is_hold_stable(self) -> bool:
        """True when hold currents reinforce the stored state."""
        current_q, current_qb = self.hold_node_currents()
        if self.state == 1:
            return current_q > 0.0 and current_qb < 0.0
        return current_q < 0.0 and current_qb > 0.0

    # -- transient co-simulation ------------------------------------------------
    def _step(self, wbl_power: float, wblb_power: float, dt: float) -> None:
        """One co-simulation step: drivers, rings, photodiodes, nodes."""
        v_m1 = self.driver_d2.step(self.node_q.voltage, dt)
        v_m2 = self.driver_d1.step(self.node_qb.voltage, dt)
        thru1, drop1 = self._m1_response.step(self._ring_targets(self.m1, v_m1), dt)
        thru2, drop2 = self._m2_response.step(self._ring_targets(self.m2, v_m2), dt)

        bias = self.spec.bias_power / 2.0
        # PS2 splits WBL onto P3 (raises Q) and P2 (drops QB); PS3 splits
        # WBLB onto P1 (raises QB) and P4 (drops Q).
        wbl_up, wbl_down = wbl_power * self.ps2.ratio, wbl_power * (1.0 - self.ps2.ratio)
        wblb_up, wblb_down = wblb_power * self.ps3.ratio, wblb_power * (1.0 - self.ps3.ratio)

        power_p1 = bias * thru1 + wblb_up
        power_p2 = bias * drop1 + wbl_down
        power_p3 = bias * thru2 + wbl_up
        power_p4 = bias * drop2 + wblb_down

        current_qb = self.p1.current(power_p1) - self.p2.current(power_p2)
        current_q = self.p3.current(power_p3) - self.p4.current(power_p4)
        self.node_q.integrate(current_q, dt)
        self.node_qb.integrate(current_qb, dt)

    def transient(
        self,
        duration: float,
        wbl: PulseTrain | None = None,
        wblb: PulseTrain | None = None,
        time_step: float = 0.25e-12,
    ) -> Recorder:
        """Co-simulate the latch; returns Q/QB/WBL/WBLB waveforms."""
        wbl = wbl if wbl is not None else PulseTrain()
        wblb = wblb if wblb is not None else PulseTrain()
        engine = TransientEngine(time_step, duration)

        def step(time: float, dt: float) -> dict[str, float]:
            wbl_power = wbl.level_at(time)
            wblb_power = wblb.level_at(time)
            self._step(wbl_power, wblb_power, dt)
            return {
                "Q": self.node_q.voltage,
                "QB": self.node_qb.voltage,
                "WBL": wbl_power,
                "WBLB": wblb_power,
            }

        return engine.run(step)

    def write(
        self,
        bit: int,
        settle_time: float | None = None,
        time_step: float = 0.25e-12,
    ) -> WriteResult:
        """Write ``bit`` with a differential optical pulse (paper Fig. 5).

        A 50 ps, 0 dBm pulse lands on WBL for bit=1 (on WBLB for
        bit=0); the transient runs one full 20 GHz update cycle plus a
        settle margin, then verifies the latch flipped and holds.
        """
        if bit not in (0, 1):
            raise ConfigurationError(f"bit must be 0 or 1, got {bit}")
        spec = self.spec
        cycle = 1.0 / spec.update_rate
        settle_time = 2.0 * cycle if settle_time is None else settle_time
        flipped = self.state != bit

        pulse_line = PulseTrain().add_pulse(0.0, spec.write_pulse_width, spec.write_power)
        quiet_line = PulseTrain()
        wbl, wblb = (pulse_line, quiet_line) if bit == 1 else (quiet_line, pulse_line)
        recorder = self.transient(cycle + settle_time, wbl, wblb, time_step)

        success = self.state == bit and self.is_hold_stable()
        energy = self.switching_energy_ledger(state_flipped=flipped)
        return WriteResult(target_bit=bit, success=success, recorder=recorder, energy=energy)

    # -- energy / power accounting ------------------------------------------------
    def switching_energy_ledger(self, state_flipped: bool = True) -> EnergyLedger:
        """Energy of one write event (paper: 0.5 pJ per switch)."""
        return switching_energy_ledger(self.technology, state_flipped)

    def hold_power_ledger(self) -> PowerLedger:
        """Static power while holding a bit."""
        return hold_power_ledger(self.technology)


def switching_energy_ledger(
    technology: Technology, state_flipped: bool = True
) -> EnergyLedger:
    """Energy of one bitcell write event (paper: 0.5 pJ per switch).

    Optical terms are wall-plug converted with the 0.23 efficiency;
    the electrical term is the calibrated switched capacitance and
    is only spent when the latch actually flips.
    """
    spec = technology.psram
    ledger = EnergyLedger(technology.wall_plug_efficiency)
    cycle = 1.0 / spec.update_rate
    ledger.add_optical("write pulse", spec.write_power * spec.write_pulse_width)
    ledger.add_optical("hold bias (1 cycle)", spec.bias_power * cycle)
    if state_flipped:
        ledger.add_electrical(
            "node/driver switching", spec.switched_capacitance * spec.vdd**2
        )
    return ledger


def hold_power_ledger(technology: Technology) -> PowerLedger:
    """Static power of one bitcell while holding a bit."""
    ledger = PowerLedger(technology.wall_plug_efficiency)
    ledger.add_optical("hold bias laser", technology.psram.bias_power)
    ledger.add_electrical("driver leakage", technology.psram.hold_electrical_power)
    return ledger


class PsramArray:
    """A behavioural array of pSRAM bitcells storing multi-bit weights.

    The bit-level physics is validated by :class:`PsramBitcell`; the
    array tracks stored bits, write scheduling at the 20 GHz update
    rate, and aggregate energy, which is what the tensor core needs.
    """

    def __init__(
        self,
        words: int,
        bits_per_word: int,
        technology: Technology | None = None,
    ) -> None:
        if words < 1 or bits_per_word < 1:
            raise ConfigurationError("array needs at least one word and one bit")
        self.technology = technology if technology is not None else default_technology()
        self.words = words
        self.bits_per_word = bits_per_word
        self._bits = np.zeros((words, bits_per_word), dtype=int)
        self._write_events = 0
        self._switch_events = 0

    @property
    def cell_count(self) -> int:
        return self.words * self.bits_per_word

    def word(self, index: int) -> int:
        """Stored unsigned integer value of word ``index``."""
        value = 0
        for bit in self.word_bits(index):
            value = (value << 1) | bit
        return value

    def word_bits(self, index: int) -> tuple[int, ...]:
        """Stored bits of a word, MSB first."""
        return tuple(self._bits[index].tolist())

    def write_word(self, index: int, value: int) -> int:
        """Store ``value``; returns the number of bitcells that flipped."""
        if not 0 <= value < 2**self.bits_per_word:
            raise ConfigurationError(
                f"value {value} does not fit in {self.bits_per_word} bits"
            )
        new_bits = [
            (value >> shift) & 1 for shift in range(self.bits_per_word - 1, -1, -1)
        ]
        flips = int(np.count_nonzero(self._bits[index] != new_bits))
        self._bits[index] = new_bits
        self._write_events += self.bits_per_word
        self._switch_events += flips
        return flips

    def write_all(self, values) -> int:
        """Store one value per word; returns total flipped bitcells."""
        values = list(values)
        if len(values) != self.words:
            raise ConfigurationError(f"need {self.words} values, got {len(values)}")
        return sum(self.write_word(index, value) for index, value in enumerate(values))

    def write_bits(self, bits) -> int:
        """Store every word from its bits, ``bits[i]`` holding word i
        MSB first; returns total flipped bitcells."""
        bits = np.asarray(bits)
        if bits.shape != self._bits.shape:
            raise ConfigurationError(
                f"need bits of shape {self._bits.shape}, got {bits.shape}"
            )
        if ((bits != 0) & (bits != 1)).any():
            raise ConfigurationError("bits must be 0 or 1")
        flips = int(np.count_nonzero(self._bits != bits))
        self._bits = bits.astype(int)
        self._write_events += bits.size
        self._switch_events += flips
        return flips

    def update_time(self) -> float:
        """Time [s] to rewrite the full array, one bit per cell cycle.

        All cells in a word share the write cycle through parallel
        WBL/WBLB pairs, so a full-array update takes one 20 GHz cycle
        per word with row-sequential addressing.
        """
        return self.words / self.technology.psram.update_rate

    def write_energy(self) -> float:
        """Wall-plug energy [J] of all switch events so far (0.5 pJ each)."""
        per_switch = switching_energy_ledger(self.technology, state_flipped=True).total
        return self._switch_events * per_switch

    def hold_power(self) -> float:
        """Static hold power [W] of the whole array."""
        return hold_power_ledger(self.technology).total * self.cell_count

    @property
    def switch_events(self) -> int:
        return self._switch_events

    def check_retention(self) -> bool:
        """Spot-check that a representative bitcell holds both states."""
        cell = PsramBitcell(self.technology)
        for bit in (0, 1):
            cell.set_state(bit)
            if not cell.is_hold_stable():
                raise SimulationError(f"bitcell does not hold state {bit}")
        return True
