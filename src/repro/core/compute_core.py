"""The mixed-signal multi-bit WDM vector-multiplication core (Fig. 2).

An input vector rides a frequency comb (element i intensity-encoded on
wavelength lambda_i).  A cascade of 50/50 splitters produces binary-
scaled copies of the WDM bus (IN/2 ... IN/2^n); bit plane j of the
weight word drives one ring per channel on its own bus, and a
photodiode per plane converts the surviving light to current.  Equal-
gain electrical summation of the planes then yields

    I  ~  sum_i IN_i * w_i / 2^n ,

the vector-vector product.  Vectors longer than the per-macro channel
count (4 channels in a 9.36 nm FSR at 2.33 nm spacing) tile across
macros whose photocurrents sum.

Inter-channel crosstalk is included exactly: every ring's transfer
function is evaluated at every channel wavelength, reproducing the
paper's all-rings-in-testbench methodology; the per-channel PDK mode
(:meth:`compute_per_channel`) mirrors the paper's one-wavelength-at-a-
time workaround and agrees with the joint evaluation by linearity.
A pSRAM latch drives each ring rail to rail, so a ring shows only two
transfers; they are tabulated once per core
(:attr:`VectorComputeCore.ring_table`) and a weight load selects from
the table.
"""

from __future__ import annotations

import math

import numpy as np

from ..config import Technology, default_technology
from ..electronics.power import PowerLedger
from ..errors import ConfigurationError
from ..photonics.coupler import BinaryScaledSplitterTree
from ..photonics.laser import FrequencyComb
from ..photonics.photodiode import Photodiode
from ..photonics.wdm import ChannelPlan
from .multiplier import OneBitPhotonicMultiplier
from .psram import PsramArray


class VectorComputeCore:
    """A 1 x m, n-bit photonic vector-multiplication engine."""

    def __init__(
        self,
        vector_length: int = 4,
        weight_bits: int | None = None,
        technology: Technology | None = None,
        label: str = "core",
    ) -> None:
        if vector_length < 1:
            raise ConfigurationError(f"vector length must be >= 1, got {vector_length}")
        self.technology = technology if technology is not None else default_technology()
        tech = self.technology
        self.vector_length = vector_length
        self.weight_bits = tech.compute.weight_bits if weight_bits is None else weight_bits
        if self.weight_bits < 1:
            raise ConfigurationError(f"weight bits must be >= 1, got {self.weight_bits}")
        self.label = label

        channels = tech.compute.wavelengths_per_macro
        self.channels_per_macro = channels
        self.macro_count = math.ceil(vector_length / channels)
        self.plan = ChannelPlan(
            base_wavelength=tech.wavelength,
            spacing=tech.compute.channel_spacing,
            count=channels,
        )
        self.comb = FrequencyComb(
            base_wavelength=tech.wavelength,
            spacing=tech.compute.channel_spacing,
            line_count=channels,
            power_per_line=tech.compute.channel_power,
            wall_plug_efficiency=tech.wall_plug_efficiency,
            label=f"{label}.comb",
        )
        self.splitter_tree = BinaryScaledSplitterTree(self.weight_bits)
        self.photodiode = Photodiode(tech.photodiode, label=f"{label}.pd")
        self.weight_memory = PsramArray(vector_length, self.weight_bits, tech)

        # multipliers[element][plane] — one ring per input element per
        # bit plane; the element's macro determines its channel index.
        self.multipliers: list[list[OneBitPhotonicMultiplier]] = []
        for element in range(vector_length):
            channel = element % channels
            planes = [
                OneBitPhotonicMultiplier(
                    channel_index=channel,
                    technology=tech,
                    label=f"{label}.w{element}.b{plane}",
                )
                for plane in range(self.weight_bits)
            ]
            self.multipliers.append(planes)

        self._weights = np.zeros(vector_length, dtype=int)
        self._bits = np.zeros((vector_length, self.weight_bits), dtype=int)
        # Both are evaluated on first use, so the rows that
        # identical_rows() builds can share one ring table.
        self._ring_table: np.ndarray | None = None
        self._transmission_cache: np.ndarray | None = None

    @classmethod
    def identical_rows(
        cls,
        rows: int,
        vector_length: int,
        weight_bits: int | None,
        technology: Technology,
        label: str,
    ) -> list[VectorComputeCore]:
        """``rows`` cores built alike, labelled ``{label}.row{r}``.

        Freshly built, the rings on one channel are identical in every
        row, element and plane, so the rows share one ring table
        evaluated from the first row's ring of each channel.  A row's
        :meth:`invalidate_ring_table` later re-evaluates that row's own
        rings into a table of its own and leaves the others untouched.
        """
        cores = [
            cls(vector_length, weight_bits, technology, label=f"{label}.row{row}")
            for row in range(rows)
        ]
        first = cores[0]
        channels = first.channels_per_macro
        per_channel = [
            first._ring_transfers(first.multipliers[channel][0])
            for channel in range(min(channels, vector_length))
        ]
        table = np.array(
            [[per_channel[element % channels]] * first.weight_bits
             for element in range(vector_length)]
        )
        table.flags.writeable = False
        for core in cores:
            core._ring_table = table
        return cores

    # -- weight handling ------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """Stored unsigned integer weights (copy)."""
        return self._weights.copy()

    @property
    def max_weight(self) -> int:
        return 2**self.weight_bits - 1

    @property
    def ring_table(self) -> np.ndarray:
        """Every weight ring's bus transmission in both pSRAM states.

        Entry [i, j, b, c] is the plane-j ring of element i at channel
        c's wavelength with its bit at b.  A pSRAM latch drives each
        ring rail to rail (bit 0 resonant, bit 1 detuned), so these are
        the only two transfers a ring ever shows: a weight load selects
        from this table instead of re-evaluating the rings.
        """
        if self._ring_table is None:
            self.invalidate_ring_table()
        return self._ring_table

    def invalidate_ring_table(self) -> None:
        """Re-evaluate the ring table from this core's rings.

        Loads select from the table, so they no longer re-read ring
        state: call this after changing a weight ring in place (thermal
        drift, heater or trim shifts).  The loaded weights' bus
        transmissions are rebuilt from the fresh table on next use.
        Each evaluation is a new read-only array of this core's own, so
        rows that shared the old table keep it unchanged.
        """
        table = np.array(
            [[self._ring_transfers(multiplier) for multiplier in planes]
             for planes in self.multipliers]
        )
        table.flags.writeable = False
        self._ring_table = table
        self._transmission_cache = None

    def _ring_transfers(self, multiplier: OneBitPhotonicMultiplier) -> np.ndarray:
        """One ring's bus transmission at every channel, bit 0 then 1."""
        vdd = self.technology.psram.vdd
        return np.array(
            [
                multiplier.ring.thru_transmission(self.plan.wavelengths, voltage=vdd * bit)
                for bit in (0, 1)
            ]
        )

    def load_weights(self, weights) -> None:
        """Write a weight vector into the pSRAM planes and ring drives."""
        weights = np.asarray(weights, dtype=int)
        if weights.shape != (self.vector_length,):
            raise ConfigurationError(
                f"need {self.vector_length} weights, got shape {weights.shape}"
            )
        if np.any(weights < 0) or np.any(weights > self.max_weight):
            raise ConfigurationError(
                f"weights must lie in [0, {self.max_weight}] for {self.weight_bits} bits"
            )
        # bits[i, j]: plane j of word i, MSB first (the pSRAM bit order).
        shifts = np.arange(self.weight_bits - 1, -1, -1)
        bits = (weights[:, None] >> shifts) & 1
        self.weight_memory.write_bits(bits)
        for planes, word in zip(self.multipliers, bits.tolist()):
            for multiplier, bit in zip(planes, word):
                multiplier.bit = bit
        self._weights = weights
        self._bits = bits
        self._transmission_cache = None

    def _transmissions(self) -> np.ndarray:
        """Per-(macro, plane, channel) bus transmission with crosstalk.

        Entry [g, j, c] is the product of every ring transfer on macro
        g's plane-j bus at channel c's wavelength, each ring's selected
        from the ring table by its loaded bit.  Built on first use after
        a load or a table change.
        """
        if self._transmission_cache is None:
            table = self.ring_table
            self._transmission_cache = self._macro_products(
                np.where(self._bits[:, :, None] == 1, table[:, :, 1], table[:, :, 0])
            )
        return self._transmission_cache

    def _macro_products(self, rings: np.ndarray) -> np.ndarray:
        """Multiply per-ring transfers, shape (element, plane, channel),
        along each macro's buses in element order -> (macro, plane,
        channel).  Elements past the vector's end transmit 1."""
        channels = self.channels_per_macro
        padded = np.ones((self.macro_count * channels,) + rings.shape[1:])
        padded[: self.vector_length] = rings
        grouped = padded.reshape((self.macro_count, channels) + rings.shape[1:])
        product = grouped[:, 0]
        for position in range(1, channels):
            product = product * grouped[:, position]
        return product

    # -- evaluation ---------------------------------------------------------------
    def _validated_inputs(self, inputs) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape != (self.vector_length,):
            raise ConfigurationError(
                f"need {self.vector_length} inputs, got shape {inputs.shape}"
            )
        if np.any(inputs < 0.0) or np.any(inputs > 1.0):
            raise ConfigurationError("analog inputs must lie in [0, 1]")
        return inputs

    def compute(self, inputs) -> float:
        """Photocurrent [A] of the full vector multiplication."""
        return self._photocurrent(self._transmissions(), self._validated_inputs(inputs))

    def _photocurrent(self, transmissions: np.ndarray, inputs: np.ndarray) -> float:
        """Summed plane photocurrent [A] of ``inputs`` through per-(macro,
        plane, channel) bus ``transmissions``."""
        fractions = np.asarray(self.splitter_tree.branch_fractions())
        power_per_channel = self.technology.compute.channel_power
        responsivity = self.photodiode.spec.responsivity

        current = 0.0
        for macro in range(self.macro_count):
            start = macro * self.channels_per_macro
            stop = min(start + self.channels_per_macro, self.vector_length)
            macro_inputs = np.zeros(self.channels_per_macro)
            macro_inputs[: stop - start] = inputs[start:stop]
            channel_powers = power_per_channel * macro_inputs
            # plane currents: R * sum_c P_c * frac_j * T[g, j, c]
            plane_powers = transmissions[macro] @ channel_powers
            current += responsivity * float(fractions @ plane_powers)
        return current

    def element_responses(self) -> np.ndarray:
        """Per-element photocurrent response [A per unit input intensity].

        Because the settled optical path is linear in the input
        intensities, ``compute(x)`` equals ``element_responses() @ x``
        for every valid ``x``.  Entry i folds the splitter-tree
        fractions, the bit-plane bus transmissions at element i's
        channel wavelength (including every other ring's crosstalk on
        the shared buses), the channel power and the photodiode
        responsivity into one coefficient.  This is the hook the
        :mod:`repro.runtime` compiler uses to turn the device loop into
        a dense matrix row.  It reads the bus transmissions that
        :meth:`load_weights` selects from the ring table, so it follows
        every load but not in-place ring changes until
        :meth:`invalidate_ring_table`.
        """
        transmissions = self._transmissions()
        fractions = np.asarray(self.splitter_tree.branch_fractions())
        power_per_channel = self.technology.compute.channel_power
        responsivity = self.photodiode.spec.responsivity
        responses = np.empty(self.vector_length)
        for element in range(self.vector_length):
            macro = element // self.channels_per_macro
            channel = element % self.channels_per_macro
            responses[element] = (
                responsivity
                * power_per_channel
                * float(fractions @ transmissions[macro, :, channel])
            )
        return responses

    def compute_per_channel(self, inputs) -> float:
        """The paper's PDK workaround: one wavelength at a time, all
        rings present, photocurrents summed linearly."""
        inputs = self._validated_inputs(inputs)
        current = 0.0
        for element in range(self.vector_length):
            solo = np.zeros(self.vector_length)
            solo[element] = inputs[element]
            current += self.compute(solo)
        return current

    def ideal_dot_product(self, inputs) -> float:
        """Fixed-point reference: sum_i IN_i * w_i / 2^n."""
        inputs = self._validated_inputs(inputs)
        return float(inputs @ self._weights) / 2.0**self.weight_bits

    def full_scale_current(self) -> float:
        """Photocurrent with all inputs at 1 and all weights at max.

        Read from the ring table's bit-1 slice (every ring at the VDD
        drive), so this calibration probe neither rewrites the pSRAM
        nor spends its write energy.
        """
        return self._photocurrent(
            self._macro_products(self.ring_table[:, :, 1]),
            np.ones(self.vector_length),
        )

    def unit_current(self) -> float:
        """Current corresponding to one unit of the ideal dot product.

        Calibrated from the full-scale point so normalized outputs can
        be compared against :meth:`ideal_dot_product` directly.
        """
        full_scale_dot = self.vector_length * self.max_weight / 2.0**self.weight_bits
        return self.full_scale_current() / full_scale_dot

    def normalized_output(self, inputs) -> float:
        """compute() scaled into ideal-dot-product units."""
        return self.compute(inputs) / self.unit_current()

    # -- bookkeeping ------------------------------------------------------------
    def weight_update_energy(self) -> float:
        """Wall-plug energy spent on pSRAM switches so far [J]."""
        return self.weight_memory.write_energy()

    def power_ledger(self) -> PowerLedger:
        """Static optical/electrical power of this core."""
        ledger = PowerLedger(self.technology.wall_plug_efficiency)
        total_input = self.vector_length * self.technology.compute.channel_power
        ledger.add_optical("input comb", total_input)
        ledger.add_optical(
            "pSRAM hold bias",
            self.weight_memory.cell_count * self.technology.psram.bias_power,
        )
        ledger.add_electrical(
            "pSRAM drivers",
            self.weight_memory.cell_count * self.technology.psram.hold_electrical_power,
        )
        return ledger
