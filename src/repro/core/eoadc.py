"""The 1-hot encoding electro-optic ADC (paper Section II-C, Figs. 8-10).

2^p identical high-Q all-pass rings share the input light (200 uW per
channel at 1310.5 nm).  Ring k's junction sees V_pn = V_REF,k - V_IN
with the reference ladder at the code-bin centers; only the ring whose
reference is nearest the input reaches resonance, dropping its thru
power below the 18 uW reference of its balanced-photodiode
thresholding block.  The activated block discharges its midpoint, the
inverter TIA + cascaded amplifier regenerate a rail-to-rail B_p, and
the ceiling-priority ROM decoder emits the binary code — resolving the
bin-edge case where two adjacent channels fire (Fig. 9's 2.0 V input).

The rings differ only in their reference voltage and trim residual, and
the thresholding blocks not at all, so a converter holds their
constants as arrays, an :class:`AdcBank`, and evaluates every ring in
one numpy pass, term for term the arithmetic of the per-ring models:
:meth:`EoAdc.convert` takes one input voltage or an array of them, and
:meth:`EoAdc.code_boundaries` bisects every code of the ladder in
lockstep.  Converters with the same technology, spec, reference ladder
and trims share one bank and its ladder memo (:func:`share_banks`, used
for a tensor core's row ADCs), and a bank whose content matches one
already bisected in the process takes that ladder from a bounded
process-wide memo instead of bisecting again.  The ring and
thresholder objects (:attr:`EoAdc.rings`, :attr:`EoAdc.thresholders`)
are built on first access from the bank, for studies of single rings
and the transient read chain.

Static conversion, the full transient co-simulation (ring photon
lifetime, thresholding-node slew, read-chain settling) and the paper's
extension paths (time interleaving, shift-and-add cascading) are all
implemented here.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import EoAdcSpec, Technology, default_technology
from ..electronics.comparator import OptoElectricThresholder
from ..electronics.power import PowerLedger
from ..electronics.rom_decoder import CeilingPriorityRomDecoder, highest_active
from ..errors import ConfigurationError, ConversionError
from ..photonics.mrr import AllPassMRR
from ..photonics.pn_junction import DepletionTuner
from ..sim.transient import FirstOrderLag, Recorder, TransientEngine

#: Bisected code ladders (read-only) by the digest of everything a
#: bisection reads (:meth:`EoAdc._ladder_key`), shared by every
#: converter in the process: a fresh core whose row-ADC bank matches
#: one already bisected takes its ladder from here.  Entries are keyed
#: by content, so a re-trim misses and nothing needs invalidating.
_LADDERS: dict[bytes, np.ndarray] = {}
#: Ladders :data:`_LADDERS` keeps; the oldest goes first.  Serving uses
#: one trim set per ADC bit depth, so this is ample.
_LADDER_MEMO_SIZE = 64


@dataclass
class ConversionRecord:
    """Result of a transient conversion run."""

    sample_times: list[float]
    codes: list[int]
    recorder: Recorder

    @property
    def final_code(self) -> int:
        return self.codes[-1]


def _adc_ring(technology: Technology, trim_error: float = 0.0, label: str = "") -> AllPassMRR:
    """One eoADC thresholding ring of ``technology``."""
    return AllPassMRR(
        technology.adc_ring_spec(),
        design_wavelength=technology.wavelength,
        design_voltage=0.0,
        waveguide=technology.waveguide,
        coupler=technology.coupler,
        tuner=DepletionTuner(technology.depletion),
        thermal=technology.thermal,
        trim_error=trim_error,
        label=label,
    )


def _frozen(values) -> np.ndarray:
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


class AdcBank:
    """Every ring and thresholding block of one eoADC, held as arrays.

    A bank is built from a technology, a spec, a reference ladder and
    per-ring trims.  It keeps read-only copies of the ladder and the
    trims; the technology and the spec are held by reference, so a
    spec is replaced, never edited field by field.  It holds the
    transfer constants the rings share (one untrimmed :attr:`ring`) and
    the thresholders' common trip power.  :meth:`thru_powers` evaluates
    every ring at many input voltages in one numpy pass, with the exact
    operation order of :meth:`AllPassMRR.thru_transmission`, so a bank's
    activations equal the per-ring walk bit for bit.  :attr:`ladder`
    memoises the bisected code ladder (see
    :meth:`EoAdc.code_boundaries`).
    """

    def __init__(
        self,
        technology: Technology,
        spec: EoAdcSpec,
        reference_voltages,
        trim_errors,
    ) -> None:
        self.technology = technology
        self.spec = spec
        self.reference_voltages = _frozen(reference_voltages)
        self.trim_errors = _frozen(trim_errors)
        #: An untrimmed ring: the transfer constants every ring shares.
        self.ring = _adc_ring(technology)
        #: Thru power below which a thresholding block fires [W] (its
        #: reference power; the blocks carry no hysteresis).
        self.reference_power = self._design_reference_power()
        #: The bisected code ladder, once a converter has asked for it.
        self.ladder: np.ndarray | None = None

    def describes(self, adc: EoAdc) -> bool:
        """Whether ``adc``'s current technology, spec, reference ladder
        and trims are the ones this bank was built from."""
        return (
            adc.technology is self.technology
            and adc.spec == self.spec
            and np.array_equal(adc.reference_voltages, self.reference_voltages)
            and np.array_equal(adc.trim_errors, self.trim_errors)
        )

    def _transfer(self, v_pn: np.ndarray, trim_errors) -> np.ndarray:
        """Thru transmission at junction voltages ``v_pn`` of rings
        trimmed by ``trim_errors`` (broadcast against each other)."""
        ring = self.ring
        resonance = ring.resonance_at(
            ring.tuner.wavelength_shift(v_pn), ring.delta_temperature, trim_errors
        )
        return ring.thru_at_phase(ring.detuning_phase(self.technology.wavelength, resonance))

    def transmissions(self, voltages) -> np.ndarray:
        """Settled thru transmission of every ring, shape
        ``voltages.shape + (levels,)``, at the input voltage(s)."""
        v_pn = self.reference_voltages - np.asarray(voltages, dtype=float)[..., None]
        return self._transfer(v_pn, self.trim_errors)

    def thru_powers(self, voltages) -> np.ndarray:
        """Settled thru-port power of every ring [W]."""
        return self.spec.channel_power * self.transmissions(voltages)

    def activations(self, voltages) -> np.ndarray:
        """Settled thresholding-block outputs, shape
        ``voltages.shape + (levels,)``."""
        return self.thru_powers(voltages) < self.reference_power

    def _design_reference_power(self) -> float:
        """Reference power setting the activation window to ~LSB/2.

        For the paper's 3-bit design this is its stated 18 uW; for other
        precisions the same window rule (thru power at a half-LSB
        detuning, averaged over both junction flanks) re-derives the
        reference so each ring covers exactly its own bin.
        """
        spec = self.spec
        if spec.bits == self.technology.eoadc.bits:
            return spec.reference_power
        half_lsb = spec.lsb_voltage / 2.0
        window = 1.0264 * half_lsb  # keep the paper's ~2.6% bin-edge overlap
        t_upper, t_lower = self._transfer(np.array([window, -window]), 0.0).tolist()
        return spec.channel_power * 0.5 * (t_upper + t_lower)


class EoAdc:
    """The mixed-signal 1-hot electro-optic analog-to-digital converter.

    ``spec``, ``reference_voltages`` and ``trim_errors`` describe the
    converter.  The trims and the reference ladder may be changed in
    place, and ``spec`` replaced by one of the same bit depth (variation
    studies, recalibration re-trims); :meth:`invalidate_boundaries` then
    rebuilds the :attr:`bank` that conversion, the code ladder and the
    lazily built :attr:`rings` read.  The decoder is sized at
    construction, so a different bit depth needs a new converter.
    """

    def __init__(
        self,
        technology: Technology | None = None,
        bits: int | None = None,
        use_read_chain: bool = True,
        trim_errors=None,
        strict_decoder: bool = True,
        label: str = "eoadc",
    ) -> None:
        self.technology = technology if technology is not None else default_technology()
        spec = self.technology.eoadc
        if bits is not None and bits != spec.bits:
            spec = dataclasses.replace(spec, bits=bits)
        self.spec = spec
        self.use_read_chain = use_read_chain
        self.label = label

        self.reference_voltages = np.asarray(spec.reference_voltages())
        if trim_errors is None:
            # The trim budget tracks the LSB: a converter designed for
            # finer codes is trimmed proportionally tighter, so the DNL
            # *texture* (in LSB) is comparable across precisions.  Pass
            # explicit trim_errors to study absolute-trim limits.
            sigma = spec.trim_sigma * (
                spec.lsb_voltage / self.technology.eoadc.lsb_voltage
            )
            rng = np.random.default_rng(spec.trim_seed)
            trim_errors = rng.normal(0.0, sigma, spec.levels)
        trim_errors = np.asarray(trim_errors, dtype=float)
        if trim_errors.shape != (spec.levels,):
            raise ConfigurationError(
                f"need {spec.levels} trim errors, got shape {trim_errors.shape}"
            )
        self.trim_errors = trim_errors

        # Non-strict decoding emits the highest active channel even for
        # non-adjacent activations (a mistrimmed part producing garbage
        # codes rather than halting) — used by variation stress benches.
        self.decoder = CeilingPriorityRomDecoder(
            spec.bits, strict=strict_decoder, power=self._decoder_power()
        )
        self._bank: AdcBank | None = None
        self._rings: list[AllPassMRR] | None = None
        self._thresholders: list[OptoElectricThresholder] | None = None

    # -- the bank and its per-ring objects --------------------------------------
    @property
    def bank(self) -> AdcBank:
        """The array form of this converter's rings and thresholders
        that conversion reads; built on first use."""
        if self._bank is None:
            self.invalidate_boundaries()
        return self._bank

    def invalidate_boundaries(self) -> None:
        """Rebuild :attr:`bank` from the current ``spec``,
        ``reference_voltages`` and ``trim_errors``.

        Conversion, :meth:`code_boundaries` and the lazily built
        :attr:`rings` and :attr:`thresholders` all read the bank, which
        copies the reference ladder and the trims at build time and
        holds ``spec`` by reference.  After re-trimming or re-levelling
        in place, or replacing ``spec`` with one of the same bit depth
        (editing its fields in place leaves the bank's memoised ladder
        and trip power stale), call this (or
        :meth:`~repro.core.tensor_core.PhotonicTensorCore.
        invalidate_ladders` on the owning core) so all of them follow.
        The fresh bank starts without a ladder; on next use it takes the
        process memo's ladder for its content, which a re-trim changes,
        or bisects one (see :meth:`code_boundaries`).  Converters that
        shared the old bank keep it.
        """
        self._bank = AdcBank(
            self.technology, self.spec, self.reference_voltages, self.trim_errors
        )
        self._rings = None
        self._thresholders = None

    @property
    def rings(self) -> list[AllPassMRR]:
        """The 2^p thresholding rings as objects, built on first access
        from the bank, for single-ring studies.  Conversion reads the
        bank, not these objects."""
        if self._rings is None:
            self._rings = [
                _adc_ring(self.technology, float(trim), f"{self.label}.M{k + 1}")
                for k, trim in enumerate(self.bank.trim_errors)
            ]
        return self._rings

    @property
    def thresholders(self) -> list[OptoElectricThresholder]:
        """The 2^p balanced-photodiode thresholding blocks, built on
        first access (the transient read chain steps their nodes)."""
        if self._thresholders is None:
            bank = self.bank
            self._thresholders = [
                OptoElectricThresholder(
                    reference_power=bank.reference_power,
                    supply_voltage=bank.spec.supply_voltage,
                    photodiode_spec=self.technology.photodiode,
                    label=f"{self.label}.B{k + 1}",
                )
                for k in range(bank.spec.levels)
            ]
        return self._thresholders

    def _decoder_power(self) -> float:
        """ROM decoder + clocking power, scaled from the paper's 3-bit
        macro (the non-TIA 42% share of 11 mW)."""
        base = self.technology.eoadc
        share = base.electrical_power * (1.0 - base.tia_amp_power_fraction)
        return share * self.spec.levels / base.levels

    # -- static behaviour --------------------------------------------------------
    @property
    def bits(self) -> int:
        return self.spec.bits

    @property
    def levels(self) -> int:
        return self.spec.levels

    @property
    def lsb(self) -> float:
        return self.spec.lsb_voltage

    @property
    def sample_rate(self) -> float:
        """Conversion rate [Hz]: 8 GS/s with the read chain, 416.7 MS/s
        without (the paper's low-power ablation)."""
        if self.use_read_chain:
            return self.spec.sample_rate
        return self.spec.sample_rate_no_tia

    def thru_powers(self, v_in: float) -> np.ndarray:
        """Settled thru-port power per ring [W] at the input voltage."""
        return self.bank.thru_powers(v_in)

    def activations(self, v_in: float) -> list[bool]:
        """Settled thresholding-block outputs B_1 .. B_{2^p}."""
        return self.bank.activations(v_in).tolist()

    def convert(self, v_in, strict: bool = False):
        """Settled (static) conversion of ``v_in`` to a binary code.

        Trim residuals can open small dead zones between adjacent
        activation windows; there the dynamic-logic ROM decoder holds
        its last code, which for a monotonic input equals the highest
        reference already passed.  That ramp-hold semantic is the
        default; ``strict=True`` instead raises
        :class:`~repro.errors.ConversionError` when no block fires
        (useful for verifying pure 1-hot coverage of an ideally trimmed
        converter).

        ``v_in`` may also be an array: the codes come back as an int
        array of its shape, and the call raises if any one voltage
        would.
        """
        voltages = np.asarray(v_in, dtype=float)
        full_scale = self.bank.spec.full_scale_voltage
        outside = ~((voltages >= 0.0) & (voltages < full_scale))
        if outside.any():
            raise ConversionError(
                f"input {float(voltages[outside][0])} V outside the "
                f"[0, {full_scale}) V full-scale range"
            )
        codes = self._codes(voltages.reshape(-1), strict).reshape(voltages.shape)
        return int(codes) if voltages.ndim == 0 else codes

    def _codes(self, voltages: np.ndarray, strict: bool) -> np.ndarray:
        """Codes of in-range ``voltages`` (1-D), one numpy pass."""
        bank = self.bank
        active = bank.activations(voltages)
        fired = active.any(axis=1)
        if strict or fired.all():
            return self.decoder.decode_array(active)
        # Ramp-hold where nothing fired: the highest reference passed.
        codes = np.maximum(highest_active(bank.reference_voltages <= voltages[:, None]), 0)
        if fired.any():
            codes[fired] = self.decoder.decode_array(active[fired])
        return codes

    def code_boundaries(self) -> np.ndarray:
        """Exact code-transition voltages of the settled converter.

        Entry k - 1 is the smallest representable input voltage whose
        static conversion reaches code ``k`` (k = 1 .. 2^p - 1), found
        by bisecting :meth:`convert` down to floating-point resolution:
        every code starts from [0, full scale) and all of them bisect in
        lockstep, one array conversion per step.  Because the settled
        transfer function is a non-decreasing staircase (ring activation
        windows ordered along the reference ladder, ceiling-priority
        decoding, ramp-hold in the trim dead zones),
        ``np.searchsorted(boundaries, v, side="right")`` reproduces
        ``convert(v)`` exactly for every in-range ``v`` — this ladder is
        what the :mod:`repro.runtime` compiler bins whole batches
        against.  The read-only result is memoised on the bank, so
        converters sharing a bank bisect once, until
        :meth:`invalidate_boundaries`.  A bank without a ladder first
        looks its content up in the process-wide memo (at most
        ``_LADDER_MEMO_SIZE`` ladders, the oldest evicted first), keyed
        by a digest of everything a bisection reads: the technology's
        values, the spec, the reference ladder, the trims and the
        decoder's width and strictness.  So a fresh core built like one
        already bisected, or a bank rebuilt with unchanged trims, skips
        the bisection, and a re-trim misses.  A bisection that raises
        stores nothing.
        """
        bank = self.bank
        if bank.ladder is None:
            key = self._ladder_key()
            ladder = _LADDERS.get(key)
            if ladder is None:
                ladder = self._bisect_ladder()
                ladder.flags.writeable = False
                if len(_LADDERS) >= _LADDER_MEMO_SIZE:
                    del _LADDERS[next(iter(_LADDERS))]
                _LADDERS[key] = ladder
            bank.ladder = ladder
        return bank.ladder

    def _ladder_key(self) -> bytes:
        """Digest of everything :meth:`_bisect_ladder` reads.  The
        technology enters by value (``repr`` of its dataclasses, as in
        :func:`repro.elastic.core_fingerprint`): every session builds
        its own, so its identity would never match."""
        bank = self.bank
        digest = hashlib.blake2b(
            f"{bank.technology!r}|{bank.spec!r}|{self.decoder.bits}|"
            f"{self.decoder.strict}|{bank.reference_voltages.shape}|"
            f"{bank.trim_errors.shape}".encode(),
            digest_size=16,
        )
        digest.update(bank.reference_voltages.tobytes())
        digest.update(bank.trim_errors.tobytes())
        return digest.digest()

    def _bisect_ladder(self) -> np.ndarray:
        full_scale = self.bank.spec.full_scale_voltage
        upper_probe = full_scale - 1e-9
        codes = np.arange(1, self.bank.spec.levels)
        at_zero, top_code = self._codes(np.array([0.0, upper_probe]), strict=False)
        # Unreachable codes (a severely mistrimmed part) park their
        # threshold at full scale so binning never emits them.
        boundaries = np.where(codes <= top_code, 0.0, full_scale)
        pending = np.flatnonzero((codes <= top_code) & (codes > at_zero))
        # Invariant per pending code: convert(low) < code <= convert(high).
        low = np.zeros(pending.size)
        high = np.full(pending.size, upper_probe)
        while pending.size:
            mid = 0.5 * (low + high)
            split = (low < mid) & (mid < high)
            boundaries[pending[~split]] = high[~split]
            pending, low, high, mid = pending[split], low[split], high[split], mid[split]
            if pending.size:
                reached = self._codes(mid, strict=False) >= codes[pending]
                high = np.where(reached, mid, high)
                low = np.where(reached, low, mid)
        return boundaries

    def convert_clamped(self, v_in: float) -> int:
        """Conversion with the input clipped into the full-scale range."""
        margin = 1e-9
        clamped = min(max(v_in, 0.0), self.spec.full_scale_voltage - margin)
        return self.convert(clamped)

    # -- transient behaviour ----------------------------------------------------------

    def transient_convert(
        self,
        input_function,
        duration: float,
        time_step: float = 0.5e-12,
        sample_rate: float | None = None,
    ) -> ConversionRecord:
        """Co-simulate a conversion stream (paper Fig. 9).

        ``input_function(t)`` is the analog input; codes are latched at
        the end of every sample period (decode-or-hold: a mid-flight
        sample with no settled activation keeps the previous code).
        """
        sample_rate = self.sample_rate if sample_rate is None else sample_rate
        period = 1.0 / sample_rate
        if duration < period:
            raise ConfigurationError("duration must cover at least one sample period")

        bank = self.bank
        vdd = self.spec.supply_voltage
        # The loaded cavity's energy (hence transmission notch) responds
        # on the photon lifetime.
        ring_lag = FirstOrderLag(np.ones(self.levels), bank.ring.photon_lifetime)
        read_lag = FirstOrderLag(
            np.zeros(self.levels), self.thresholders[0].read_chain_time_constant
        )
        for thresholder in self.thresholders:
            thresholder.node.voltage = vdd

        sample_times: list[float] = []
        codes: list[int] = []
        held = {"code": 0}
        next_sample = {"t": period}

        def step(time: float, dt: float) -> dict[str, float]:
            v_in = float(input_function(time))
            transmissions = ring_lag.step(bank.transmissions(v_in), dt)
            rails = np.empty(self.levels)
            if self.use_read_chain:
                # TIA current sensing: rails regenerate from the sign of
                # the balanced-pair current at the read-chain bandwidth.
                rail_targets = np.array(
                    [
                        thresholder.tia_rail_target(
                            self.spec.channel_power * float(transmission)
                        )
                        for thresholder, transmission in zip(
                            self.thresholders, transmissions
                        )
                    ]
                )
                rails = read_lag.step(rail_targets, dt)
            else:
                # No TIA: the balanced pair slews the midpoint node (and
                # decoder load) directly — the paper's 416.7 MS/s mode.
                for index, thresholder in enumerate(self.thresholders):
                    power = self.spec.channel_power * float(transmissions[index])
                    thresholder.step(power, dt)
                    rails[index] = thresholder.node_rail_output()
            activations = [float(rail) > vdd / 2.0 for rail in rails]
            code = self.decoder.decode_or_hold(activations, held["code"])
            held["code"] = code
            if time + dt >= next_sample["t"] - 1e-15:
                sample_times.append(next_sample["t"])
                codes.append(code)
                next_sample["t"] += period
            signals = {"VIN": v_in, "code": float(code)}
            for index in range(self.levels):
                signals[f"B{index + 1}"] = float(rails[index])
            return signals

        engine = TransientEngine(time_step, duration)
        recorder = engine.run(step)
        if not codes:
            raise ConversionError("no sample instants inside the transient window")
        return ConversionRecord(sample_times=sample_times, codes=codes, recorder=recorder)

    # -- power / energy ------------------------------------------------------------
    def power_ledger(self) -> PowerLedger:
        """Optical + electrical power (paper: 7.58 mW + 11 mW at 3 bits)."""
        spec = self.spec
        ledger = PowerLedger(self.technology.wall_plug_efficiency)
        ledger.add_optical("input light (per-channel x 2^p)", spec.levels * spec.channel_power)
        ledger.add_optical(
            "reference light (per-channel x 2^p)",
            spec.levels * self.bank.reference_power,
        )
        if self.use_read_chain:
            read_power = sum(t.read_chain_power for t in self.thresholders)
            ledger.add_electrical("TIA + amplifier chains", read_power)
        ledger.add_electrical("ROM decoder + clocking", self.decoder.power)
        return ledger

    @property
    def total_power(self) -> float:
        return self.power_ledger().total

    @property
    def energy_per_conversion(self) -> float:
        """Wall-plug energy per conversion [J] (paper: 2.32 pJ)."""
        return self.total_power / self.sample_rate


def share_banks(adcs: Sequence[EoAdc]) -> None:
    """Rebuild the banks of ``adcs`` from their current state, one bank
    per distinct technology, spec, reference ladder and trims.

    Converters built alike (a tensor core's row ADCs) then share one
    bank: they convert in one array call and bisect one ladder.  Like
    :meth:`EoAdc.invalidate_boundaries`, this drops each converter's
    lazily built rings and thresholders.
    """
    banks: list[AdcBank] = []
    for adc in adcs:
        twin = next((bank for bank in banks if bank.describes(adc)), None)
        if twin is None:
            adc.invalidate_boundaries()
            banks.append(adc.bank)
        else:
            adc._bank, adc._rings, adc._thresholders = twin, None, None


class TimeInterleavedEoAdc:
    """K interleaved eoADC slices for a K-fold sample rate (paper's
    'time-interleaved structures to improve the operating speed').

    Interleaving reintroduces the classic lane mismatches the 1-hot
    design otherwise avoids: per-lane offset and clock skew are drawn
    from seeded distributions so benches can quantify the trade.
    """

    def __init__(
        self,
        lanes: int = 2,
        technology: Technology | None = None,
        offset_sigma: float = 2e-3,
        skew_sigma: float = 0.5e-12,
        seed: int = 7,
    ) -> None:
        if lanes < 2:
            raise ConfigurationError(f"interleaving needs >= 2 lanes, got {lanes}")
        self.technology = technology if technology is not None else default_technology()
        self.lanes = lanes
        rng = np.random.default_rng(seed)
        self.offsets = rng.normal(0.0, offset_sigma, lanes)
        self.skews = rng.normal(0.0, skew_sigma, lanes)
        self.slices = [
            EoAdc(self.technology, label=f"ti.lane{index}") for index in range(lanes)
        ]

    @property
    def sample_rate(self) -> float:
        return self.lanes * self.slices[0].sample_rate

    @property
    def total_power(self) -> float:
        return sum(adc.total_power for adc in self.slices)

    @property
    def energy_per_conversion(self) -> float:
        return self.total_power / self.sample_rate

    def convert_stream(self, input_function, count: int) -> list[int]:
        """Convert ``count`` samples of ``input_function(t)`` round-robin
        across lanes, including each lane's offset and skew errors."""
        if count < 1:
            raise ConfigurationError(f"need at least one sample, got {count}")
        period = 1.0 / self.sample_rate
        codes = []
        full_scale = self.slices[0].spec.full_scale_voltage
        for n in range(count):
            lane = n % self.lanes
            time = n * period + self.skews[lane]
            value = float(input_function(max(time, 0.0))) + self.offsets[lane]
            value = min(max(value, 0.0), full_scale - 1e-9)
            codes.append(self.slices[lane].convert(value))
        return codes


class ShiftAddEoAdc:
    """Two cascaded lower-bit eoADCs with shift-and-add recombination
    (the paper's higher-precision extension).

    The coarse stage resolves p bits; the residue is amplified by 2^p
    (with a configurable interstage gain error) and digitized by the
    fine stage, yielding 2p bits total.
    """

    def __init__(
        self,
        technology: Technology | None = None,
        gain_error: float = 0.0,
        label: str = "shiftadd",
    ) -> None:
        self.technology = technology if technology is not None else default_technology()
        self.coarse = EoAdc(self.technology, label=f"{label}.coarse")
        self.fine = EoAdc(self.technology, label=f"{label}.fine")
        self.gain_error = gain_error

    @property
    def bits(self) -> int:
        return self.coarse.bits + self.fine.bits

    @property
    def levels(self) -> int:
        return 2**self.bits

    @property
    def lsb(self) -> float:
        return self.coarse.spec.full_scale_voltage / self.levels

    def convert(self, v_in: float) -> int:
        """Full-precision conversion via coarse code + amplified residue."""
        coarse_code = self.coarse.convert(v_in)
        residue = v_in - coarse_code * self.coarse.lsb
        gain = self.coarse.levels * (1.0 + self.gain_error)
        amplified = residue * gain
        full_scale = self.fine.spec.full_scale_voltage
        amplified = min(max(amplified, 0.0), full_scale - 1e-9)
        fine_code = self.fine.convert(amplified)
        return (coarse_code << self.fine.bits) | fine_code

    @property
    def total_power(self) -> float:
        return self.coarse.total_power + self.fine.total_power

    @property
    def sample_rate(self) -> float:
        # The cascade is pipelined: throughput follows the single stage.
        return self.coarse.sample_rate

    @property
    def energy_per_conversion(self) -> float:
        return self.total_power / self.sample_rate
