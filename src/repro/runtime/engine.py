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
costs one lockstep ladder bisection per distinct ADC bank content in
the process (memoised on the bank, which the row ADCs of a core share
while their trims agree, and in a bounded process-wide memo keyed by
the bank's content, so a fresh core built alike bisects nothing) plus,
per weight program, one pass over all its tiles
(:func:`compile_tiles`): the tiles' blocks stream into the core's
pSRAM in order, then one select from the core's two-state ring table,
one product along each macro's buses and one contraction over the bit
planes give every row's responses for every tile at once, the row
ladders are read once, and each tile is built from its arrays and one
:class:`TileHeader` the grid shares.
:meth:`PhotonicTensorCore.compile` is the one-tile case.

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

from ..config import Technology
from ..core.compute_core import row_responses
from ..core.tensor_core import MatvecResult, PhotonicTensorCore
from ..errors import ConfigurationError
from ..health.drift import DriftState, Perturbation, apply_read_out


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


#: A :class:`TileHeader`'s scalars and their types, in stored order.
_HEADER_SCALARS = {
    "rows": int,
    "columns": int,
    "weight_bits": int,
    "max_weight": int,
    "adc_bits": int,
    "adc_levels": int,
    "adc_lsb": float,
    "full_scale_voltage": float,
    "tia_gain": float,
    "full_scale_current": float,
    "sample_rate": float,
}


@dataclass(frozen=True)
class TileHeader:
    """What every tile compiled on one core shares, read once per grid:
    geometry and precision, the row ADCs' read-out constants and the
    row TIA's calibration, then the drift binding.  Built from the
    compiling core (:meth:`of_core`) or from a stored tile meta
    (:meth:`from_meta`); :meth:`meta` is that stored form."""

    rows: int
    columns: int
    weight_bits: int
    max_weight: int
    adc_bits: int
    adc_levels: int
    adc_lsb: float
    full_scale_voltage: float
    tia_gain: float
    full_scale_current: float
    sample_rate: float
    technology: Technology
    #: The core's live :class:`~repro.health.DriftState` when active
    #: (hardware truth evolves under it), else None; the compensation
    #: trims snapshotted at compile time, part of the program like the
    #: ladder; and their calibration epoch.  A recalibration bumps the
    #: state's epoch, and programs compiled under an older one keep
    #: serving with stale trims until the caches recompile them
    #: (:meth:`repro.api.PhotonicSession.recalibrate`).
    drift: DriftState | None = None
    calibration: Perturbation | None = None
    calibration_epoch: int = 0

    @classmethod
    def of_core(cls, core: PhotonicTensorCore) -> "TileHeader":
        adc = core.row_adcs[0]
        drift = core.drift_state
        binding = () if drift is None or not drift.active else (
            drift, drift.compensation, drift.epoch
        )
        return cls(
            core.rows,
            core.columns,
            core.weight_bits,
            core.max_weight,
            adc.bits,
            adc.levels,
            adc.lsb,
            adc.spec.full_scale_voltage,
            core.tia_gain,
            core.full_scale_current,
            adc.sample_rate,
            core.technology,
            *binding,
        )

    @classmethod
    def from_meta(cls, meta: dict, technology, drift_state=None) -> "TileHeader":
        """The header :meth:`meta` stored, bound to ``drift_state``, the
        requesting core's live state: the stored compensation stays the
        program's compile-time trim, so residual arithmetic matches a
        cold compile under the same epoch.  The store validates the
        payload; this trusts it."""
        scalars = {name: kind(meta[name]) for name, kind in _HEADER_SCALARS.items()}
        if drift_state is None or not drift_state.active:
            return cls(**scalars, technology=technology)
        compensation = meta.get("compensation") or ()
        return cls(
            **scalars,
            technology=technology,
            drift=drift_state,
            calibration=Perturbation(*(float(value) for value in compensation)),
            calibration_epoch=int(meta["calibration_epoch"]),
        )

    def meta(self) -> dict:
        """The header as a plain JSON-able dict."""
        calibration = self.calibration
        return {
            **{name: kind(getattr(self, name)) for name, kind in _HEADER_SCALARS.items()},
            "calibration_epoch": int(self.calibration_epoch),
            "compensation": None
            if calibration is None
            else [
                float(calibration.current_scale),
                float(calibration.gain_scale),
                float(calibration.voltage_offset),
            ],
        }


class CompiledCore:
    """A weight program of a :class:`PhotonicTensorCore`, compiled to
    dense arrays for batched evaluation.

    Built from its arrays plus the :class:`TileHeader` its grid shares
    (see :func:`compile_tiles`): ``weight_matrix`` the tile's weights,
    ``response`` every row's element responses to them
    (:func:`~repro.core.compute_core.row_responses`), ``boundaries``
    the row ADCs' ladders (:meth:`~PhotonicTensorCore.row_ladders`)
    and ``ladder`` the one every row shares, or None; a shared ladder
    bins the whole batch with one ``searchsorted``.  The snapshot is
    detached from the device: reloading the source core's weights
    afterwards (as every later
    :class:`~repro.runtime.tiling.TiledMatmul` compile on it does)
    leaves this program valid.
    """

    def __init__(
        self,
        header: TileHeader,
        weight_matrix: np.ndarray,
        response: np.ndarray,
        boundaries: np.ndarray,
        ladder: np.ndarray | None,
    ) -> None:
        self.header = header
        self.rows = header.rows
        self.columns = header.columns
        self.weight_bits = header.weight_bits
        self.max_weight = header.max_weight
        self.technology = header.technology
        self.weight_matrix = weight_matrix
        #: (rows, columns) photocurrent per unit input intensity.
        self.response = response
        #: (rows, levels - 1) exact per-row code-transition voltages.
        self.boundaries = boundaries
        self._shared_ladder = ladder
        self.adc_bits = header.adc_bits
        self.adc_levels = header.adc_levels
        self._adc_lsb = header.adc_lsb
        self._full_scale_voltage = header.full_scale_voltage
        self._tia_gain = header.tia_gain
        self._full_scale_current = header.full_scale_current
        self.sample_rate = header.sample_rate
        self._drift = header.drift
        self._calibration = header.calibration
        self.calibration_epoch = header.calibration_epoch
        self._table = None

    # -- bookkeeping ---------------------------------------------------------
    @property
    def weight_key(self) -> bytes:
        """Canonical cache key of this weight program."""
        return weight_key(self.weight_matrix)

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


def compile_tiles(
    core: PhotonicTensorCore, weights: np.ndarray, bits: np.ndarray
) -> tuple[list[CompiledCore], np.ndarray, np.ndarray]:
    """Compile the (tiles, rows, columns) weight blocks ``core`` holds
    or held in turn, ``bits`` the (tiles, rows, columns, planes) bit
    planes its pSRAM took for them, in one pass: one table select,
    macro product and plane contraction over the stack
    (:func:`~repro.core.compute_core.row_responses`), one read of the
    row ADCs' ladders, which every tile shares, one shared-ladder test
    and one :class:`TileHeader`.  Returns the tiles and their (tiles,
    rows, columns) response and (tiles, rows, levels - 1) ladder
    stacks; each tile's arrays are views into them."""
    responses = row_responses(core.row_cores, bits)
    ladders = core.row_ladders()
    boundaries = np.repeat(ladders[None], len(weights), axis=0)
    header = TileHeader.of_core(core)
    ladder = common_ladder(ladders)
    tiles = [
        CompiledCore(header, *arrays, ladder)
        for arrays in zip(weights, responses, boundaries)
    ]
    return tiles, responses, boundaries


def weight_key(matrix) -> bytes:
    """Canonical cache key for a weight matrix: shape plus the bytes of
    its canonical int64 form, so equal programs hash equal regardless of
    the caller's integer dtype."""
    matrix = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64))
    shape = "x".join(str(dim) for dim in matrix.shape)
    return shape.encode() + b":" + matrix.tobytes()
