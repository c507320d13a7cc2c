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
(:attr:`VectorComputeCore.ring_table`), and the rows of a tensor core
built alike share one table taken from one ring per channel.  A weight
load stores bits; the bus transmissions are one table select and one
product along each macro's buses, and the element responses one
contraction over the bit planes.  :func:`load_rows` and
:func:`row_responses` run those steps for all rows of a core at once
(and for a stack of successive loads, as a tile grid compiles), and a
single core's :meth:`~VectorComputeCore.load_weights` and
:meth:`~VectorComputeCore.element_responses` are their one-row case.
The ring objects themselves (:attr:`VectorComputeCore.multipliers`)
are built on first access, for studies that heat or re-trim single
rings.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from ..config import Technology, default_technology
from ..electronics.power import PowerLedger
from ..errors import ConfigurationError
from ..photonics.coupler import BinaryScaledSplitterTree
from ..photonics.laser import FrequencyComb
from ..photonics.photodiode import Photodiode
from ..photonics.wdm import ChannelPlan
from .multiplier import OneBitPhotonicMultiplier
from .psram import PsramArray, write_arrays


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

        self._multipliers: list[list[OneBitPhotonicMultiplier]] | None = None
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
        evaluated from one ring per channel, and no row builds its ring
        objects.  A row's :meth:`invalidate_ring_table` later
        re-evaluates that row's own rings (built then) into a table of
        its own and leaves the others untouched.
        """
        cores = [
            cls(vector_length, weight_bits, technology, label=f"{label}.row{row}")
            for row in range(rows)
        ]
        first = cores[0]
        channels = first.channels_per_macro
        per_channel = np.array(
            [
                first._ring_transfers(
                    OneBitPhotonicMultiplier(channel_index=channel, technology=technology)
                )
                for channel in range(min(channels, vector_length))
            ]
        )
        table = np.repeat(
            per_channel[np.arange(vector_length) % channels, None],
            first.weight_bits,
            axis=1,
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
    def multipliers(self) -> list[list[OneBitPhotonicMultiplier]]:
        """``multipliers[element][plane]``: one ring per input element per
        bit plane, on the element's channel within its macro, driven by
        the loaded bit.  Built on first access; weight loads select from
        :attr:`ring_table` and only keep these objects' bits current."""
        if self._multipliers is None:
            channels = self.channels_per_macro
            self._multipliers = [
                [
                    OneBitPhotonicMultiplier(
                        channel_index=element % channels,
                        technology=self.technology,
                        label=f"{self.label}.w{element}.b{plane}",
                    )
                    for plane in range(self.weight_bits)
                ]
                for element in range(self.vector_length)
            ]
            self._drive_multipliers()
        return self._multipliers

    def _drive_multipliers(self) -> None:
        for planes, word in zip(self._multipliers, self._bits.tolist()):
            for multiplier, bit in zip(planes, word):
                multiplier.bit = bit

    @property
    def ring_table(self) -> np.ndarray:
        """Every weight ring's bus transmission in both pSRAM states.

        Entry [i, j, b, c] is the plane-j ring of element i at channel
        c's wavelength with its bit at b.  A pSRAM latch drives each
        ring rail to rail (bit 0 resonant, bit 1 detuned), so these are
        the only two transfers a ring ever shows: a weight load selects
        from this table instead of re-evaluating the rings.  The table
        is read-only; the rows of :meth:`identical_rows` share one until
        a row's :meth:`invalidate_ring_table`, and a lone core walks its
        own rings on first use.
        """
        if self._ring_table is None:
            self.invalidate_ring_table()
        return self._ring_table

    def invalidate_ring_table(self) -> None:
        """Re-evaluate the ring table from this core's rings (built now
        if nothing has built them yet).

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
        load_rows([self], weights[None])

    def _transmissions(self) -> np.ndarray:
        """Per-(macro, plane, channel) bus transmission with crosstalk.

        Entry [g, j, c] is the product of every ring transfer on macro
        g's plane-j bus at channel c's wavelength, each ring's selected
        from the ring table by its loaded bit.  Built on first use after
        a load or a table change.
        """
        if self._transmission_cache is None:
            bus_transmissions([self])
        return self._transmission_cache

    def _macro_products(self, rings: np.ndarray) -> np.ndarray:
        """Multiply per-ring transfers, shape (..., element, plane,
        channel), along each macro's buses in element order -> (...,
        macro, plane, channel).  Elements past the vector's end
        transmit 1."""
        channels = self.channels_per_macro
        lead, tail = rings.shape[:-3], rings.shape[-2:]
        padded = np.ones(lead + (self.macro_count * channels,) + tail)
        padded[..., : self.vector_length, :, :] = rings
        grouped = padded.reshape(lead + (self.macro_count, channels) + tail)
        product = grouped[..., 0, :, :]
        for position in range(1, channels):
            product = product * grouped[..., position, :, :]
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
        return self._responses(self._transmissions())

    def _responses(self, transmissions: np.ndarray) -> np.ndarray:
        """Element responses (..., element) of bus transmissions (...,
        macro, plane, channel): one contraction over the bit planes.

        Each dot product runs over the plane axis as a strided view,
        the way ``fractions @ transmissions[macro, :, channel]`` does:
        BLAS ``ddot`` sums strided and contiguous vectors in different
        orders, so a dot over a contiguous copy (or an ``einsum``) would
        move the last bit from 4 planes up.
        """
        fractions = np.asarray(self.splitter_tree.branch_fractions())
        power_per_channel = self.technology.compute.channel_power
        responsivity = self.photodiode.spec.responsivity
        planes = transmissions.swapaxes(-1, -2)  # (..., macro, channel, plane)
        dots = np.matmul(planes[..., None, :], fractions[:, None])[..., 0, 0]
        flat = dots.reshape(dots.shape[:-2] + (-1,))[..., : self.vector_length]
        return responsivity * power_per_channel * flat

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


def load_rows(cores: Sequence[VectorComputeCore], matrix: np.ndarray) -> np.ndarray:
    """Load row r of the int ``matrix`` into ``cores[r]`` (cores built
    alike): one range check, one bit split for every row, then each
    write of every row's pSRAM (:func:`~repro.core.psram.write_arrays`)
    so its flip ledger counts real switches.  A stack ``(loads, rows,
    elements)`` loads its matrices in order, each row's ledger counting
    every load as if written alone, and the cores end holding the last.
    Returns the bits written, ``(..., rows, elements, planes)``."""
    first = cores[0]
    if (matrix < 0).any() or (matrix > first.max_weight).any():
        raise ConfigurationError(
            f"weights must lie in [0, {first.max_weight}] for {first.weight_bits} bits"
        )
    # bits[..., r, i, j]: plane j of word i, MSB first (the pSRAM bit order).
    shifts = np.arange(first.weight_bits - 1, -1, -1)
    bits = (matrix[..., None] >> shifts) & 1
    writes = bits.reshape((-1,) + bits.shape[-3:])
    write_arrays([core.weight_memory for core in cores], writes)
    last = matrix.reshape((-1,) + matrix.shape[-2:])[-1]
    for core, weights, word_bits in zip(cores, last, writes[-1]):
        core._weights = weights
        core._bits = word_bits
        core._transmission_cache = None
        if core._multipliers is not None:
            core._drive_multipliers()
    return bits


def loaded_bits(cores: Sequence[VectorComputeCore]) -> np.ndarray:
    """(row, element, plane) bits ``cores`` hold now."""
    return np.stack([core._bits for core in cores])


def bus_transmissions(cores: Sequence[VectorComputeCore], bits=None) -> np.ndarray:
    """(..., row, macro, plane, channel) bus transmissions of ``cores``
    (built alike) carrying ``bits`` (..., row, element, plane), by
    default their loaded bits (:func:`loaded_bits`): one ring-table
    select and one macro product for every row, and for every load of
    a stack of successive ones.  Each row's slice of the last load
    becomes its cached transmissions."""
    first = cores[0]
    table = np.stack([core.ring_table for core in cores])
    if bits is None:
        bits = loaded_bits(cores)
    transmissions = first._macro_products(
        np.where(bits[..., None] == 1, table[..., 1, :], table[..., 0, :])
    )
    last = transmissions.reshape((-1,) + transmissions.shape[-4:])[-1]
    for core, own in zip(cores, last):
        core._transmission_cache = own
    return transmissions


def row_responses(cores: Sequence[VectorComputeCore], bits=None) -> np.ndarray:
    """(..., row, element) photocurrent responses of ``cores`` (built
    alike) carrying ``bits`` as in :func:`bus_transmissions`, equal to
    stacking each row's :meth:`~VectorComputeCore.element_responses`
    after each load bit for bit."""
    return cores[0]._responses(bus_transmissions(cores, bits))
