"""The scalable 2D mixed-signal photonic tensor core (paper Section III).

Each of the n rows holds a 1 x m vector-multiplication core (tiled from
4-wavelength macros), a row TIA mapping the summed photocurrent onto
the eoADC full scale, and one eoADC digitizing the row's dot product.
Matrix-vector multiplication runs all rows on the shared input vector
in one ADC sample period; matrix-matrix multiplication streams input
columns.

The digital outputs are p-bit codes; :meth:`matvec` also returns the
dequantized dot-product estimates so callers can chain layers (see
``repro.ml``).  Weight updates stream through the pSRAM arrays at the
20 GHz rate with energy accounting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import Technology, default_technology
from ..errors import ConfigurationError
from ..health.drift import apply_read_out
from .compute_core import VectorComputeCore, load_rows, loaded_bits
from .eoadc import EoAdc, share_banks
from .performance import PerformanceModel
from .psram import switching_energy_ledger


@dataclass
class MatvecResult:
    """Digital result of one matrix-vector operation."""

    codes: np.ndarray
    estimates: np.ndarray
    currents: np.ndarray

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=int)
        self.estimates = np.asarray(self.estimates, dtype=float)
        self.currents = np.asarray(self.currents, dtype=float)


class PhotonicTensorCore:
    """An m-column x n-row photonic matrix multiplication engine."""

    def __init__(
        self,
        rows: int | None = None,
        columns: int | None = None,
        weight_bits: int | None = None,
        adc_bits: int | None = None,
        technology: Technology | None = None,
        label: str = "ptc",
    ) -> None:
        self.technology = technology if technology is not None else default_technology()
        tech = self.technology
        self.rows = tech.tensor.rows if rows is None else rows
        self.columns = tech.tensor.columns if columns is None else columns
        self.weight_bits = tech.tensor.weight_bits if weight_bits is None else weight_bits
        if self.rows < 1 or self.columns < 1:
            raise ConfigurationError("tensor core needs at least 1 row and 1 column")
        self.label = label

        # One ring table for all rows: it is evaluated once, not per row.
        self.row_cores = VectorComputeCore.identical_rows(
            self.rows, self.columns, self.weight_bits, tech, label
        )
        # Row ADCs with the same trims share one bank: one array call
        # converts every row, and the ladder is bisected once.
        self.row_adcs = [
            EoAdc(tech, bits=adc_bits, label=f"{label}.adc{row}")
            for row in range(self.rows)
        ]
        share_banks(self.row_adcs)
        self._weight_matrix = np.zeros((self.rows, self.columns), dtype=int)
        # Row TIA gain calibrated so the full-scale dot product lands at
        # the eoADC full scale.
        self._full_scale_current = self.row_cores[0].full_scale_current()
        self._tia_gain = (
            self.row_adcs[0].spec.full_scale_voltage / self._full_scale_current
        )
        #: Live degradation state of this core (a
        #: :class:`repro.health.DriftState`, attached by
        #: :class:`~repro.api.PhotonicSession` when drift is modelled;
        #: None = ideal ageless hardware).  The device loop and every
        #: engine compiled from this core read it at evaluation time.
        self.drift_state = None

    # -- weights -------------------------------------------------------------
    @property
    def max_weight(self) -> int:
        return 2**self.weight_bits - 1

    @property
    def weight_matrix(self) -> np.ndarray:
        return self._weight_matrix.copy()

    def load_weight_matrix(self, matrix) -> np.ndarray:
        """Stream a weight matrix into the pSRAM arrays (20 GHz update):
        validated once and split into bit planes in one shift for every
        row (:func:`~repro.core.compute_core.load_rows`).  A ``(loads,
        rows, columns)`` stack streams its matrices in order, the flip
        ledgers counting each load, and the core ends holding the last.
        Returns the bits written, ``(..., rows, columns, planes)`` MSB
        first."""
        matrix = np.asarray(matrix, dtype=int)
        if (
            matrix.ndim not in (2, 3)
            or matrix.shape[-2:] != (self.rows, self.columns)
            or not matrix.size
        ):
            raise ConfigurationError(
                f"weight matrix must be {self.rows}x{self.columns}, got {matrix.shape}"
            )
        bits = load_rows(self.row_cores, matrix)
        self._weight_matrix = matrix if matrix.ndim == 2 else matrix[-1]
        return bits

    def weight_update_time(self) -> float:
        """Time [s] to stream one full weight matrix at the update rate.

        Rows update in parallel (each row has its own WBL/WBLB pairs);
        within a row, words stream one 20 GHz cycle each.
        """
        return self.columns / self.technology.psram.update_rate

    def weight_update_energy(self) -> float:
        """Wall-plug energy [J] of all weight switches so far."""
        return sum(core.weight_update_energy() for core in self.row_cores)

    def program_energy(self, matrix) -> float:
        """Energy [J] the serving stack charges for loading ``matrix``:
        one pSRAM switch per set weight bit, whatever the arrays held
        before (:meth:`weight_update_energy` counts actual flips)."""
        matrix = np.asarray(matrix, dtype=np.int64)
        set_bits = int(((matrix[..., None] >> np.arange(self.weight_bits)) & 1).sum())
        return set_bits * switching_energy_ledger(self.technology).total

    # -- calibration constants (used by the runtime compiler) ----------------
    @property
    def tia_gain(self) -> float:
        """Native row-TIA transimpedance [V/A] mapping the full-scale
        photocurrent onto the eoADC full scale."""
        return self._tia_gain

    @property
    def full_scale_current(self) -> float:
        """Row photocurrent [A] with all inputs at 1, all weights max."""
        return self._full_scale_current

    def invalidate_ladders(self) -> None:
        """Rebuild the row ADCs' banks, dropping their ladder memos.

        Conversion and the compiled ladders read each row ADC's bank,
        which copies its ``reference_voltages`` and ``trim_errors`` and
        holds its ``spec`` when built.  After changing the first two in
        place or replacing ``spec`` — re-trimming during recalibration,
        a variation study — call this so the device loop converts with
        the new parameters and the next compile reads their ladder;
        rows that still match share one bank again
        (:func:`~repro.core.eoadc.share_banks`).  The rebuilt banks
        start without ladders and find them in the process-wide ladder
        memo by content: a bank with unchanged trims takes its old
        ladder back without bisecting, a re-trimmed one misses and
        bisects (:meth:`~repro.core.eoadc.EoAdc.code_boundaries`).
        Engines compiled *before* the call keep their detached
        snapshots: recompile them (the serving caches do this lazily
        after :meth:`repro.api.PhotonicSession.recalibrate`).
        """
        share_banks(self.row_adcs)

    def _shared_adc(self) -> EoAdc | None:
        """The first row ADC when every row shares its bank, else None."""
        first = self.row_adcs[0]
        if all(adc.bank is first.bank for adc in self.row_adcs[1:]):
            return first
        return None

    def row_ladders(self) -> np.ndarray:
        """(rows, levels - 1) exact code ladders of the row ADCs
        (:meth:`~repro.core.eoadc.EoAdc.code_boundaries`), bisected
        once per shared bank."""
        return np.stack([adc.code_boundaries() for adc in self.row_adcs])

    # -- compute -------------------------------------------------------------
    def _validated_vector(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.columns,):
            raise ConfigurationError(
                f"input must have shape ({self.columns},), got {x.shape}"
            )
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise ConfigurationError(
                "analog inputs must lie in [0, 1], got range "
                f"[{x.min():.6g}, {x.max():.6g}]"
            )
        return x

    def matvec(self, x, gain: float = 1.0) -> MatvecResult:
        """One matrix-vector multiplication through the photonic path.

        ``gain`` models the programmable-gain setting of the row TIAs:
        workloads whose dot products use only part of the ADC range set
        gain > 1 so the codes resolve the active range, and the
        estimates are scaled back down accordingly (standard IMC ADC
        range calibration).
        """
        if gain <= 0.0:
            raise ConfigurationError(f"TIA gain must be positive, got {gain}")
        x = self._validated_vector(x)
        currents = np.array([core.compute(x) for core in self.row_cores])
        # The live hardware suffers whatever drift survives the current
        # trims; the read-out arithmetic is the same apply_read_out the
        # compiled fast path evaluates, so both agree code-for-code at
        # every age.
        residual = None
        if self.drift_state is not None and self.drift_state.active:
            residual = self.drift_state.residual()
        currents, voltages = apply_read_out(
            residual,
            currents,
            gain * self._tia_gain,
            self.row_adcs[0].spec.full_scale_voltage,
        )
        shared = self._shared_adc()
        if shared is not None:
            codes = shared.convert(voltages)
        else:
            codes = np.array(
                [adc.convert(float(v)) for adc, v in zip(self.row_adcs, voltages)]
            )
        estimates = self.dequantize_codes(codes) / gain
        return MatvecResult(codes=codes, estimates=estimates, currents=currents)

    def matmul(self, matrix, gain: float = 1.0) -> np.ndarray:
        """Matrix-matrix product: photonic W @ X for X of shape
        (columns, batch).  Returns dequantized estimates
        (rows, batch).  ``gain`` is the row-TIA range setting applied to
        every column, exactly as in :meth:`matvec`."""
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != self.columns:
            raise ConfigurationError(
                f"input matrix must be ({self.columns}, batch), got shape {matrix.shape}"
            )
        outputs = [
            self.matvec(matrix[:, col], gain=gain).estimates
            for col in range(matrix.shape[1])
        ]
        return np.stack(outputs, axis=1)

    def dequantize_codes(self, codes) -> np.ndarray:
        """Map p-bit codes back to dot-product units (sum_i x_i * w_i)."""
        codes = np.asarray(codes, dtype=float)
        adc = self.row_adcs[0]
        voltage = (codes + 0.5) * adc.lsb
        current = voltage / self._tia_gain
        unit = self._full_scale_current / (
            self.columns * self.max_weight / 2.0**self.weight_bits
        )
        return current / unit * 2.0**self.weight_bits

    def ideal_matvec(self, x) -> np.ndarray:
        """Infinite-precision reference: W @ x."""
        x = self._validated_vector(x)
        return self._weight_matrix @ x

    def quantization_limited_matvec(self, x) -> np.ndarray:
        """Reference including only ADC quantization (no device effects).

        Separates photonic non-ideality from the p-bit output
        quantization that any implementation of this architecture pays.
        """
        x = self._validated_vector(x)
        ideal = self._weight_matrix @ x
        adc = self.row_adcs[0]
        full_scale_dot = self.columns * self.max_weight
        codes = np.clip(
            (ideal / full_scale_dot * adc.levels).astype(int), 0, adc.levels - 1
        )
        return (codes + 0.5) / adc.levels * full_scale_dot

    def compile(self):
        """Snapshot the loaded weights into a vectorized inference engine.

        Returns a :class:`repro.runtime.CompiledCore` that evaluates
        whole input batches as dense numpy products, agreeing with this
        device loop code-for-code.  It is the one-tile case of a grid
        compile (:func:`repro.runtime.engine.compile_tiles`): its
        response matrix comes from one select, macro product and plane
        contraction over every row
        (:func:`~repro.core.compute_core.row_responses`), its ladders
        from the row ADCs' banks (:meth:`row_ladders`).  Compiling
        writes nothing to the pSRAM.  The snapshot is detached:
        reloading weights afterwards does not disturb it.
        """
        from ..runtime.engine import compile_tiles

        tiles, _, _ = compile_tiles(
            self, self.weight_matrix[None], loaded_bits(self.row_cores)[None]
        )
        return tiles[0]

    # -- system analysis -----------------------------------------------------
    def performance(self) -> PerformanceModel:
        """Throughput/efficiency model of this core (Section IV-D)."""
        return PerformanceModel(
            technology=self.technology,
            rows=self.rows,
            columns=self.columns,
            weight_bits=self.weight_bits,
        )
