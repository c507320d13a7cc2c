"""The vectorized fast path: device loops compiled to dense numpy.

:class:`PhotonicTensorCore` evaluates one input vector at a time
through Python loops over row cores and per-row ADC conversions — a
faithful device walk, but three orders of magnitude too slow to serve
traffic.  Both halves of that walk are, at a fixed weight program,
static functions of the input:

* the settled optical path is *linear*: each row's photocurrent is
  ``element_responses() @ x`` (crosstalk folded into the coefficients),
  so a whole batch is one ``(rows, columns) @ (columns, batch)``
  matrix product;
* the settled eoADC is a *non-decreasing staircase*: its exact
  code-transition ladder (:meth:`EoAdc.code_boundaries`) turns
  conversion into ``np.searchsorted`` binning.

:class:`CompiledCore` snapshots both at weight-load time and replays
them vectorized, matching the device loop code-for-code.  Compilation
costs one lockstep ladder bisection per distinct ADC bank (memoised on
the bank, which the row ADCs of a core share while their trims agree)
plus, per weight program, one whole-core pSRAM write and one pass for
the response matrix: a select from the core's two-state ring table, a
product along each macro's buses and a contraction over the bit
planes, for every row at once.

One kernel (:meth:`CompiledCore.evaluate`) serves every dense batch:
a stacked ``np.matmul`` of tile responses against input chunks, one
read-out at per-tile front gains under one drift residual, ladder
binning (one ``searchsorted`` when every row shares a ladder) and
dequantisation through a per-program table holding the estimate of
each of the ``levels`` codes, built by :meth:`CompiledCore.
dequantize_codes` so every code goes through the device loop's
arithmetic.  :meth:`CompiledCore.matmul` is its one-tile case; a
:class:`~repro.runtime.tiling.TiledMatmul` grid (one snapshot per
tile, all taken on one core; an in-grid program is a one-tile grid)
runs its whole tile stack through it in one pass, and a
:class:`~repro.runtime.tiling.DifferentialProgram` its two grids'
stack, so the flush executor
(:class:`~repro.runtime.scheduler.BatchScheduler`) pays one kernel
pass per program in a batch and can recompile any dense program on
every cache miss.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.compute_core import row_responses
from ..core.tensor_core import MatvecResult, PhotonicTensorCore
from ..errors import ConfigurationError
from ..health.drift import Perturbation, apply_read_out


@dataclass
class BatchResult:
    """Digital result of one batched matrix-matrix operation.

    All arrays have shape (rows, batch): column b holds the same
    codes/estimates/currents a :meth:`PhotonicTensorCore.matvec` call on
    input column b would produce.
    """

    codes: np.ndarray
    estimates: np.ndarray
    currents: np.ndarray

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=int)
        self.estimates = np.asarray(self.estimates, dtype=float)
        self.currents = np.asarray(self.currents, dtype=float)

    @property
    def batch_size(self) -> int:
        return self.codes.shape[1]

    def column(self, index: int) -> MatvecResult:
        """The single-vector result view of batch column ``index``."""
        return MatvecResult(
            codes=self.codes[:, index],
            estimates=self.estimates[:, index],
            currents=self.currents[:, index],
        )


def check_unit_inputs(batch: np.ndarray) -> None:
    """Reject a batch of analog inputs reaching outside [0, 1].  The
    test is a negated in-range comparison, so a NaN (false under every
    comparison) fails it, as it fails the device loop."""
    if batch.size and not (0.0 <= batch.min() and batch.max() <= 1.0):
        raise ConfigurationError(
            "analog inputs must lie in [0, 1], got range "
            f"[{batch.min():.6g}, {batch.max():.6g}]"
        )


def common_ladder(boundaries: np.ndarray) -> np.ndarray | None:
    """The ladder every row of ``boundaries`` (..., rows, levels - 1)
    shares (one ``searchsorted`` then bins the whole batch), or None
    when any row's differs."""
    rows = boundaries.reshape(-1, boundaries.shape[-1])
    return rows[0] if (rows[1:] == rows[0]).all() else None


def _bin(voltages: np.ndarray, boundaries: np.ndarray, ladder) -> np.ndarray:
    """Codes of voltages (..., rows, batch) against the per-row ladders
    (..., rows, levels - 1): one ``searchsorted`` against ``ladder``
    when every row shares it, else one per row."""
    if ladder is not None:
        return np.searchsorted(ladder, voltages, side="right")
    edges = boundaries.reshape(-1, boundaries.shape[-1])
    codes = np.empty(voltages.shape, dtype=int)
    flat_codes = codes.reshape(len(edges), -1)
    for row, row_voltages in enumerate(voltages.reshape(len(edges), -1)):
        flat_codes[row] = np.searchsorted(edges[row], row_voltages, side="right")
    return codes


class CompiledCore:
    """A weight program of a :class:`PhotonicTensorCore`, compiled to
    dense arrays for batched evaluation.

    ``response`` holds every row's element responses to the loaded
    weights (:func:`~repro.core.compute_core.row_responses`, one pass)
    and ``boundaries`` the row ADCs' ladders
    (:meth:`~PhotonicTensorCore.row_ladders`); a shared ladder bins the
    whole batch with one ``searchsorted``.
    The snapshot is detached from the device: reloading the source
    core's weights afterwards (as every later
    :class:`~repro.runtime.tiling.TiledMatmul` compile on it does)
    leaves this program valid.
    """

    def __init__(self, core: PhotonicTensorCore) -> None:
        self.rows = core.rows
        self.columns = core.columns
        self.weight_bits = core.weight_bits
        self.max_weight = core.max_weight
        self.technology = core.technology
        self.weight_matrix = core.weight_matrix
        #: (rows, columns) photocurrent per unit input intensity.
        self.response = row_responses(core.row_cores)
        #: (rows, levels - 1) exact per-row code-transition voltages.
        self.boundaries = core.row_ladders()
        self._shared_ladder = common_ladder(self.boundaries)

        adc = core.row_adcs[0]
        self.adc_bits = adc.bits
        self.adc_levels = adc.levels
        self._adc_lsb = adc.lsb
        self._full_scale_voltage = adc.spec.full_scale_voltage
        self._tia_gain = core.tia_gain
        self._full_scale_current = core.full_scale_current
        self.sample_rate = adc.sample_rate
        self._table = None

        # Drift-aware compilation: the engine keeps a *live* reference
        # to the core's DriftState (hardware truth evolves under it)
        # but snapshots the compensation trims — like the ladder, the
        # trims are part of the compiled program.  A recalibration
        # bumps the state's epoch; programs compiled under an older
        # epoch keep serving with stale trims until the caches
        # recompile them (repro.api.PhotonicSession.recalibrate).
        drift = core.drift_state
        if drift is not None and drift.active:
            self._drift = drift
            self._calibration = drift.compensation
            self.calibration_epoch = drift.epoch
        else:
            self._drift = None
            self._calibration = None
            self.calibration_epoch = 0

    # -- bookkeeping ---------------------------------------------------------
    @property
    def weight_key(self) -> bytes:
        """Canonical cache key of this weight program."""
        return weight_key(self.weight_matrix)

    # -- persistence ---------------------------------------------------------
    def state_dict(self) -> dict:
        """The program as plain ``{"arrays", "meta"}`` payloads — dense
        response matrix, exact ladder tables, and the compile-time
        drift trims — from which :meth:`from_state` rebuilds a
        bit-for-bit equal engine (:class:`repro.elastic.ProgramStore`
        persists exactly this)."""
        calibration = self._calibration
        return {
            "arrays": {
                "response": self.response,
                "boundaries": self.boundaries,
                "weight_matrix": np.ascontiguousarray(
                    np.asarray(self.weight_matrix, dtype=np.int64)
                ),
            },
            "meta": {
                "rows": int(self.rows),
                "columns": int(self.columns),
                "weight_bits": int(self.weight_bits),
                "max_weight": int(self.max_weight),
                "adc_bits": int(self.adc_bits),
                "adc_levels": int(self.adc_levels),
                "adc_lsb": float(self._adc_lsb),
                "full_scale_voltage": float(self._full_scale_voltage),
                "tia_gain": float(self._tia_gain),
                "full_scale_current": float(self._full_scale_current),
                "sample_rate": float(self.sample_rate),
                "calibration_epoch": int(self.calibration_epoch),
                "compensation": None
                if calibration is None
                else [
                    float(calibration.current_scale),
                    float(calibration.gain_scale),
                    float(calibration.voltage_offset),
                ],
            },
        }

    @classmethod
    def from_state(cls, arrays, meta, technology, drift_state=None) -> "CompiledCore":
        """Rebuild a compiled program from :meth:`state_dict` payloads
        without touching a device core.

        ``drift_state`` rebinds the restored program to the requesting
        core's *live* :class:`~repro.health.DriftState` (the persisted
        compensation snapshot stays the program's compile-time trim, so
        residual arithmetic matches a cold compile under the same
        epoch).  Validation of the payload happens in the store — this
        constructor trusts its inputs.
        """
        self = cls.__new__(cls)
        self.rows = int(meta["rows"])
        self.columns = int(meta["columns"])
        self.weight_bits = int(meta["weight_bits"])
        self.max_weight = int(meta["max_weight"])
        self.technology = technology
        self.weight_matrix = np.asarray(arrays["weight_matrix"], dtype=np.int64)
        self.response = np.asarray(arrays["response"], dtype=float)
        self.boundaries = np.asarray(arrays["boundaries"], dtype=float)
        self._shared_ladder = common_ladder(self.boundaries)
        self.adc_bits = int(meta["adc_bits"])
        self.adc_levels = int(meta["adc_levels"])
        self._adc_lsb = float(meta["adc_lsb"])
        self._full_scale_voltage = float(meta["full_scale_voltage"])
        self._tia_gain = float(meta["tia_gain"])
        self._full_scale_current = float(meta["full_scale_current"])
        self.sample_rate = float(meta["sample_rate"])
        self._table = None
        compensation = meta.get("compensation")
        if drift_state is not None and drift_state.active:
            self._drift = drift_state
            self._calibration = (
                Perturbation()
                if compensation is None
                else Perturbation(*(float(value) for value in compensation))
            )
            self.calibration_epoch = int(meta["calibration_epoch"])
        else:
            self._drift = None
            self._calibration = None
            self.calibration_epoch = 0
        return self

    # -- evaluation ----------------------------------------------------------
    def _validated_batch(self, batch) -> np.ndarray:
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[0] != self.columns:
            raise ConfigurationError(
                f"input batch must be ({self.columns}, batch), got shape {batch.shape}"
            )
        check_unit_inputs(batch)
        return batch

    def dequantize_codes(self, codes) -> np.ndarray:
        """Map p-bit codes back to dot-product units.

        Term-for-term the same arithmetic as
        :meth:`PhotonicTensorCore.dequantize_codes`, so estimates agree
        bitwise with the device loop for equal codes.
        """
        codes = np.asarray(codes, dtype=float)
        voltage = (codes + 0.5) * self._adc_lsb
        current = voltage / self._tia_gain
        unit = self._full_scale_current / (
            self.columns * self.max_weight / 2.0**self.weight_bits
        )
        return current / unit * 2.0**self.weight_bits

    def evaluate(
        self, responses, chunks, gains, boundaries, ladder, residual=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The one dense kernel: tiles compiled on this program's core,
        evaluated at once.

        ``responses`` (..., rows, columns) meet their input ``chunks``
        (..., columns, batch) in one ``np.matmul``; one read-out at the
        front gains ``gains * tia_gain`` (``gains`` a number or an array
        broadcasting per tile) under the drift residual the tiles share;
        :func:`_bin` against ``boundaries`` (..., rows, levels - 1) or
        their shared ``ladder``; then the dequantisation table, divided
        by the gain.  Every step is elementwise or one BLAS call per
        contiguous tile, so each tile's result is bit-for-bit its own
        evaluation.  Returns ``(currents, codes, estimates)``;
        ``residual`` as in :meth:`matmul`.
        """
        if residual is None and self._drift is not None:
            residual = self._drift.truth().relative_to(self._calibration)
        currents, voltages = apply_read_out(
            residual,
            np.matmul(responses, chunks),
            gains * self._tia_gain,
            self._full_scale_voltage,
        )
        codes = _bin(voltages, boundaries, ladder)
        if self._table is None:
            # Built on first use: a grid evaluates through one tile.
            self._table = self.dequantize_codes(np.arange(self.adc_levels))
        return currents, codes, self._table[codes] / gains

    def matmul(self, batch, gain: float = 1.0, residual=None) -> BatchResult:
        """Batched photonic W @ X for X of shape (columns, batch).

        The one-tile case of :meth:`evaluate`; column b of the result
        carries the codes the device loop would emit for
        ``matvec(X[:, b], gain)``.

        ``residual`` overrides the drift the evaluation suffers: None
        reads the live :class:`~repro.health.DriftState` relative to
        this program's compile-time trims (the default serving
        behaviour; a no-op on drift-free cores), an explicit
        :class:`~repro.health.Perturbation` is applied as-is (the
        identity yields the pristine evaluation — how the health
        monitor freezes golden codes and attributes errors per stage).
        """
        if gain <= 0.0:
            raise ConfigurationError(f"TIA gain must be positive, got {gain}")
        batch = self._validated_batch(batch)
        currents, codes, estimates = self.evaluate(
            self.response, batch, gain, self.boundaries, self._shared_ladder, residual
        )
        return BatchResult(codes=codes, estimates=estimates, currents=currents)

    def matvec(self, x, gain: float = 1.0, residual=None) -> MatvecResult:
        """Single-vector evaluation with the batched fast path."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.columns,):
            raise ConfigurationError(
                f"input must have shape ({self.columns},), got {x.shape}"
            )
        return self.matmul(x[:, np.newaxis], gain=gain, residual=residual).column(0)


def weight_key(matrix) -> bytes:
    """Canonical cache key for a weight matrix: shape plus the bytes of
    its canonical int64 form, so equal programs hash equal regardless of
    the caller's integer dtype."""
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64))
    shape = "x".join(str(dim) for dim in matrix.shape)
    return shape.encode() + b":" + matrix.tobytes()
