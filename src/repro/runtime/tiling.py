"""Sharding arbitrary weight shapes across a grid of physical tiles.

One physical core is ``rows x columns``; a workload matrix is not.
:class:`TiledMatmul` maps an (out, in) unsigned weight matrix onto a
grid of :class:`PhotonicTensorCore` tiles the way a multi-tile
deployment would: row tiles fan output rows across independent cores
(their ADCs digitize in parallel), column tiles split the input vector
and their dequantized partial sums accumulate digitally.  Ragged edge
tiles are zero-padded — padded rows read code 0 and padded inputs
contribute nothing, so no masking is needed on the way out.

A grid compiles on, and overwrites, the core it is given (tile shape,
precision, technology, ladder memo and drift state all come from it),
in one pass over all tiles at construction: the matrix is padded to
the grid once and viewed as row-major ``(tiles, rows, columns)``
blocks, which stream into the core's pSRAM in tile order (its flip
ledger as if loaded tile by tile); one table select, macro product
and plane contraction then give every tile's responses, the row
ladders are read once, and each tile
(:class:`~repro.runtime.engine.CompiledCore`) is built from its arrays
and one header the grid shares
(:func:`~repro.runtime.engine.compile_tiles`).  A restore
(:meth:`TiledMatmul.from_state`) builds its tiles through the same
constructor.  The grid holds its tiles' responses as one ``(row_tiles,
column_tiles, rows, columns)`` stack (and their ladders likewise);
each tile's ``response`` and ``boundaries`` are views into it, so
there is one copy, and :meth:`TiledMatmul.matmul` evaluates the whole
stack in one pass of
:meth:`~repro.runtime.engine.CompiledCore.evaluate`: the batch
is padded once and split into per-column-tile chunks, every tile's
codes come from one stacked matmul and read-out, and the column
tiles' estimates are summed in order.  An in-grid program is a
one-tile grid.  A :class:`DifferentialProgram` stacks its two grids
once more, ``(2, row_tiles, column_tiles, rows, columns)``, so a
signed program is one pass too: one padded chunk set, one matmul, one
read-out under one drift residual and one ``searchsorted`` when every
row of both halves shares a ladder, each half's column tiles summed
in order before the halves are subtracted.  Per-tile row-TIA gains
are chosen from the tile's own weight block (``gain="auto"``): a
block holding small weights uses a hotter TIA so its partial sums
still resolve against the full eoADC ladder — the per-tile ADC range
calibration a real deployment performs.

The price of tiling is one output quantization *per column tile*
instead of one per output; :meth:`quantization_error_bound` exposes the
resulting envelope so callers (and the acceptance tests) can bound the
end-to-end error against the exact float product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import default_technology
from ..core.psram import switching_energy_ledger
from ..core.tensor_core import PhotonicTensorCore
from ..errors import ConfigurationError, MappingError
from ..ml.mapping import iter_tile_blocks, tile_grid
from .engine import CompiledCore, TileHeader, check_unit_inputs, common_ladder, compile_tiles


@dataclass
class DifferentialProgram:
    """A cached differential weight program on tiled grids.

    The positive/negative engines hold the quantized weight magnitudes
    of a signed program, W = (W+ - W-); the negative grid is None for
    an all-non-negative program, saving the second analog pass.  Float
    dequantization scales stay with each request, so programs that
    quantize to the same integers share one compiled pair.  This is the
    unit the session's program cache stores for both the conv route and
    compiled model layers.

    A pair holds both halves' tile responses and ladders as one ``(2,
    row_tiles, column_tiles, rows, ...)`` stack, built once at
    construction; each half's ``tile_responses`` and
    ``tile_boundaries`` (and so each tile's arrays) become views into
    it, so there is one copy, and :meth:`matmul` evaluates the pair in
    one kernel pass.
    """

    positive: TiledMatmul
    negative: TiledMatmul | None

    def __post_init__(self) -> None:
        negative = self.negative
        if negative is None:
            return
        halves = (self.positive, negative)
        responses = np.stack([half.tile_responses for half in halves])
        boundaries = np.stack([half.tile_boundaries for half in halves])
        for half, half_responses, half_boundaries in zip(halves, responses, boundaries):
            half._stack(
                [tile for band in half.tiles for tile in band],
                half_responses.reshape((-1,) + half_responses.shape[2:]),
                half_boundaries.reshape((-1,) + half_boundaries.shape[2:]),
            )
        self._responses = responses
        self._boundaries = boundaries
        self._ladder = common_ladder(boundaries)
        self._gains = np.stack([half.gains for half in halves])

    @property
    def calibration_epoch(self) -> int:
        """Drift-calibration epoch the grids were compiled under (both
        halves compile together, so the positive grid speaks for the
        pair); the serving caches evict programs whose epoch trails the
        core's after a recalibration."""
        return self.positive.calibration_epoch

    @property
    def passes(self) -> int:
        """Sequential analog passes per input column."""
        return 2 if self.negative is not None else 1

    @property
    def tile_count(self) -> int:
        return self.positive.tile_count + (
            self.negative.tile_count if self.negative is not None else 0
        )

    @property
    def weight_update_energy(self) -> float:
        return self.positive.weight_update_energy + (
            self.negative.weight_update_energy if self.negative is not None else 0.0
        )

    @property
    def weight_update_time(self) -> float:
        """Streaming time [s]: the two differential arrays load their
        columns concurrently (independent pSRAM drivers), so the pair
        costs the slower grid, not the sum."""
        return max(
            self.positive.weight_update_time,
            self.negative.weight_update_time if self.negative is not None else 0.0,
        )

    def matmul(self, batch: np.ndarray, gain: float) -> np.ndarray:
        """Differential W @ X in quantized dot units: one kernel pass
        over the pair's stack, then positive minus negative."""
        positive = self.positive
        if self.negative is None:
            return positive.matmul(batch, gain=gain)
        total = positive._evaluate(
            batch, gain, self._responses, self._boundaries, self._ladder, self._gains
        )
        out_features = positive.out_features
        return total[0, :out_features] - total[1, :out_features]

    # -- persistence ---------------------------------------------------------
    def state_dict(self) -> dict:
        """Both grids' :meth:`TiledMatmul.state_dict` payloads (the
        negative half ``None`` for a single-pass program)."""
        return {
            "positive": self.positive.state_dict(),
            "negative": None if self.negative is None else self.negative.state_dict(),
        }

    @classmethod
    def from_state(cls, state: dict, technology, drift_state=None) -> "DifferentialProgram":
        """Rebuild the differential pair from :meth:`state_dict`."""
        negative = state.get("negative")
        return cls(
            positive=TiledMatmul.from_state(
                state["positive"]["arrays"],
                state["positive"]["meta"],
                technology,
                drift_state=drift_state,
            ),
            negative=None
            if negative is None
            else TiledMatmul.from_state(
                negative["arrays"],
                negative["meta"],
                technology,
                drift_state=drift_state,
            ),
        )


def auto_range_gain(block: np.ndarray, full_scale_dot: int) -> float:
    """The 'auto' TIA range-calibration rule shared by every request
    path: map the block's largest achievable dot product (max row
    weight sum, inputs at 1) onto the eoADC full scale.  A zero block
    falls back to the native gain."""
    peak = int(np.asarray(block).sum(axis=1).max(initial=0))
    return full_scale_dot / peak if peak > 0 else 1.0


class TiledMatmul:
    """A weight matrix of arbitrary shape compiled onto a tile grid.

    Construction compiles on ``core`` and overwrites its pSRAM; the
    compiled tiles are detached snapshots, so the core stays free for
    the next program.
    """

    #: Sequential analog passes per input column (the tiles of one grid
    #: digitize in parallel).
    passes = 1

    def __init__(
        self,
        weight_matrix,
        core: PhotonicTensorCore,
        gain: float | str = "auto",
    ) -> None:
        self.technology = core.technology
        self.tile_rows = core.rows
        self.tile_columns = core.columns

        weight_matrix = np.asarray(weight_matrix, dtype=int)
        if weight_matrix.ndim != 2:
            raise MappingError(
                f"weight matrix must be 2-D, got shape {weight_matrix.shape}"
            )
        self.weight_matrix = weight_matrix
        self.out_features, self.in_features = weight_matrix.shape

        # Every tile is a core in the same package as ``core``, so the
        # whole grid shares its drift trajectory.  Same stamping rule as
        # CompiledCore: an inactive state (no models) never distinguishes
        # epochs, so both caches agree on which programs a recalibration
        # invalidates.
        drift = core.drift_state
        self.calibration_epoch = drift.epoch if drift is not None and drift.active else 0
        if np.any(weight_matrix < 0) or np.any(weight_matrix > core.max_weight):
            raise MappingError(
                f"weights must lie in [0, {core.max_weight}] for "
                f"{core.weight_bits}-bit tiles, got range "
                f"[{weight_matrix.min()}, {weight_matrix.max()}]"
            )
        self.weight_bits = core.weight_bits
        self.max_weight = core.max_weight
        self.adc_levels = core.row_adcs[0].levels

        self.row_tiles, self.column_tiles = tile_grid(
            self.out_features, self.in_features, self.tile_rows, self.tile_columns
        )
        grid = (self.row_tiles, self.column_tiles)
        # The matrix padded to the grid, as row-major (tiles, rows,
        # columns) blocks: ragged edge tiles are zero-padded.
        padded = np.zeros(
            (self.row_tiles * self.tile_rows, self.column_tiles * self.tile_columns),
            dtype=int,
        )
        padded[: self.out_features, : self.in_features] = weight_matrix
        blocks = (
            padded.reshape(self.row_tiles, self.tile_rows, self.column_tiles, self.tile_columns)
            .swapaxes(1, 2)
            .reshape(-1, self.tile_rows, self.tile_columns)
        )
        if gain == "auto":
            full_scale_dot = self.tile_columns * self.max_weight
            gains = [auto_range_gain(block, full_scale_dot) for block in blocks]
        elif isinstance(gain, (int, float)):
            if gain <= 0.0:
                raise MappingError(f"TIA gain must be positive, got {gain}")
            gains = [float(gain)] * len(blocks)
        else:
            raise MappingError(f"gain must be a number or 'auto', got {gain!r}")
        #: Per-(row_tile, col_tile) TIA gain actually applied (the
        #: defaults; a float ``gain`` argument to matvec/matmul
        #: overrides them globally for that call).
        self.gains = np.array(gains).reshape(grid)

        # The blocks stream into the core's pSRAM in tile order (its flip
        # ledger counts every load), but every tile of a real grid is its
        # own core, so each block is charged by the set-bit rule, not by
        # what ``core`` held: summed in tile order, as tile by tile.
        bits = core.load_weight_matrix(blocks)
        per_switch = switching_energy_ledger(self.technology).total
        load_energy = 0.0
        for set_bits in bits.reshape(len(blocks), -1).sum(axis=1).tolist():
            load_energy += set_bits * per_switch
        self.weight_update_energy = load_energy
        self.weight_update_time = self.column_tiles * core.weight_update_time()
        tiles, responses, boundaries = compile_tiles(core, blocks, bits)
        self._ladder = tiles[0]._shared_ladder
        self._stack(tiles, responses, boundaries)

    def _stack(self, tiles: list[CompiledCore], responses, boundaries) -> None:
        """Hold ``tiles`` (row-major) as the grid and their (tiles, rows,
        ...) ``responses`` and ``boundaries`` as its stacks, each
        tile's arrays becoming views into them."""
        grid = (self.row_tiles, self.column_tiles)
        #: (row_tiles, column_tiles, rows, columns) tile responses.
        self.tile_responses = responses.reshape(grid + responses.shape[1:])
        #: (row_tiles, column_tiles, rows, levels - 1) tile ladders.
        self.tile_boundaries = boundaries.reshape(grid + boundaries.shape[1:])
        for tile, response, tile_boundaries in zip(tiles, responses, boundaries):
            tile.response = response
            tile.boundaries = tile_boundaries
        #: Grid of compiled tile programs, [row_tile][col_tile].
        self.tiles = [
            tiles[start : start + self.column_tiles]
            for start in range(0, len(tiles), self.column_tiles)
        ]

    # -- persistence ---------------------------------------------------------
    def state_dict(self) -> dict:
        """The compiled grid as plain ``{"arrays", "meta"}`` payloads:
        per-tile response matrices / ladder tables / weight blocks
        stacked along a leading tile axis (row-major over the grid),
        the per-tile TIA gains, and one shared tile meta (every tile of
        a grid compiles on the same core, so the ADC scalars and drift
        trims are common: its :class:`~repro.runtime.engine.TileHeader`).
        :meth:`from_state` rebuilds a bit-for-bit equal grid without
        compiling."""
        flat = [tile for band in self.tiles for tile in band]
        return {
            "arrays": {
                "weight_matrix": np.ascontiguousarray(
                    np.asarray(self.weight_matrix, dtype=np.int64)
                ),
                "gains": np.asarray(self.gains, dtype=float),
                "tile_responses": self.tile_responses.reshape(
                    (-1,) + self.tile_responses.shape[2:]
                ),
                "tile_boundaries": self.tile_boundaries.reshape(
                    (-1,) + self.tile_boundaries.shape[2:]
                ),
                "tile_weights": np.stack(
                    [np.asarray(tile.weight_matrix, dtype=np.int64) for tile in flat]
                ),
            },
            "meta": {
                "tile_rows": int(self.tile_rows),
                "tile_columns": int(self.tile_columns),
                "out_features": int(self.out_features),
                "in_features": int(self.in_features),
                "row_tiles": int(self.row_tiles),
                "column_tiles": int(self.column_tiles),
                "weight_bits": int(self.weight_bits),
                "max_weight": int(self.max_weight),
                "adc_levels": int(self.adc_levels),
                "weight_update_energy": float(self.weight_update_energy),
                "weight_update_time": float(self.weight_update_time),
                "calibration_epoch": int(self.calibration_epoch),
                "tile": flat[0].header.meta(),
            },
        }

    @classmethod
    def from_state(cls, arrays, meta, technology, drift_state=None) -> "TiledMatmul":
        """Rebuild a compiled grid from :meth:`state_dict` payloads
        without touching a core (no ladder bisection, no response
        rebuild): one :class:`~repro.runtime.engine.TileHeader` from
        the shared tile meta, one shared-ladder test, and each tile
        built from its slices of the stacks.  ``drift_state`` rebinds
        every restored tile to the requesting core's live
        :class:`~repro.health.DriftState`, same stamping rule as
        construction."""
        self = cls.__new__(cls)
        self.technology = technology if technology is not None else default_technology()
        self.tile_rows = int(meta["tile_rows"])
        self.tile_columns = int(meta["tile_columns"])
        self.weight_matrix = np.asarray(arrays["weight_matrix"], dtype=int)
        self.out_features = int(meta["out_features"])
        self.in_features = int(meta["in_features"])
        self.weight_bits = int(meta["weight_bits"])
        self.max_weight = int(meta["max_weight"])
        self.adc_levels = int(meta["adc_levels"])
        self.row_tiles = int(meta["row_tiles"])
        self.column_tiles = int(meta["column_tiles"])
        self.gains = np.asarray(arrays["gains"], dtype=float)
        self.calibration_epoch = (
            int(meta["calibration_epoch"])
            if drift_state is not None and drift_state.active
            else 0
        )
        header = TileHeader.from_meta(meta["tile"], self.technology, drift_state)
        responses = np.asarray(arrays["tile_responses"], dtype=float)
        boundaries = np.asarray(arrays["tile_boundaries"], dtype=float)
        weights = np.asarray(arrays["tile_weights"], dtype=np.int64)
        self._ladder = common_ladder(boundaries)
        tiles = [
            CompiledCore(header, *tile_arrays, self._ladder)
            for tile_arrays in zip(weights, responses, boundaries)
        ]
        self._stack(tiles, responses, boundaries)
        self.weight_update_energy = float(meta["weight_update_energy"])
        self.weight_update_time = float(meta["weight_update_time"])
        return self

    # -- planning ------------------------------------------------------------
    @property
    def tile_count(self) -> int:
        return self.row_tiles * self.column_tiles

    def plan(self) -> list[dict]:
        """The tile assignment map (for inspection and reporting)."""
        return [
            {
                "row_tile": row_tile,
                "col_tile": col_tile,
                "rows": rows,
                "columns": columns,
                "gain": float(self.gains[row_tile, col_tile]),
            }
            for row_tile, col_tile, rows, columns in iter_tile_blocks(
                self.out_features, self.in_features, self.tile_rows, self.tile_columns
            )
        ]

    def quantization_error_bound(self, gain: float | None = None) -> np.ndarray:
        """Per-output worst-case quantization envelope [dot units].

        Each column tile contributes one independently quantized partial
        sum whose dequantized estimate sits within one code bin of the
        analog value; a bin spans ``full_scale_dot / levels / gain`` dot
        units at that tile's gain.  The bound per output row is the sum
        over its row band's column tiles — the "single-tile quantization
        error envelope" scaled by the tiling fan-in.
        """
        full_scale_dot = self.tile_columns * self.max_weight
        bin_per_tile = np.empty((self.row_tiles, self.column_tiles))
        for row_tile in range(self.row_tiles):
            for col_tile in range(self.column_tiles):
                tile_gain = self.gains[row_tile, col_tile] if gain is None else gain
                bin_per_tile[row_tile, col_tile] = (
                    full_scale_dot / self.adc_levels / tile_gain
                )
        per_band = bin_per_tile.sum(axis=1)
        bound = np.empty(self.out_features)
        for row_tile in range(self.row_tiles):
            row_start = row_tile * self.tile_rows
            row_stop = min(row_start + self.tile_rows, self.out_features)
            bound[row_start:row_stop] = per_band[row_tile]
        return bound

    # -- evaluation ----------------------------------------------------------
    def _validated_batch(self, batch) -> np.ndarray:
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[0] != self.in_features:
            raise MappingError(
                f"input batch must be ({self.in_features}, batch), got shape {batch.shape}"
            )
        return batch

    def matmul(self, batch, gain: float | None = None) -> np.ndarray:
        """Batched W @ X for X of shape (in_features, samples).

        Returns dequantized estimates (out_features, samples).  ``gain``
        overrides every tile's calibrated TIA gain when given.  The
        batch is validated and zero-padded once, every tile evaluates in
        one :meth:`~repro.runtime.engine.CompiledCore.evaluate` pass,
        and each row band sums its column tiles' estimates in column
        order.
        """
        total = self._evaluate(
            batch, gain, self.tile_responses, self.tile_boundaries, self._ladder, self.gains
        )
        # A fresh result: a future's value never pins the stacked estimates.
        return total[: self.out_features].copy()

    def _evaluate(self, batch, gain, responses, boundaries, ladder, gains) -> np.ndarray:
        """One kernel pass over a stack laid out like this grid:
        ``responses`` (..., row_tiles, column_tiles, rows, columns),
        their ``boundaries``, shared ``ladder`` and per-tile ``gains``
        (..., row_tiles, column_tiles), this grid's own or a
        differential pair's stack of two.  Returns the (...,
        row_tiles * rows, samples) estimates, each row band's column
        tiles summed in column order."""
        batch = self._validated_batch(batch)
        if gain is None:
            gains = gains[..., np.newaxis, np.newaxis]
        else:
            gains = float(gain)
            if gains <= 0.0:
                raise ConfigurationError(f"TIA gain must be positive, got {gains}")
        check_unit_inputs(batch)
        samples = batch.shape[1]
        padded = np.zeros((self.column_tiles * self.tile_columns, samples))
        padded[: self.in_features] = batch
        chunks = padded.reshape(self.column_tiles, self.tile_columns, samples)
        _, _, estimates = self.tiles[0][0].evaluate(
            responses, chunks, gains, boundaries, ladder
        )
        total = estimates[..., 0, :, :]
        for col_tile in range(1, self.column_tiles):
            total = total + estimates[..., col_tile, :, :]
        return total.reshape(total.shape[:-3] + (self.row_tiles * self.tile_rows, samples))

    def matvec(self, x, gain: float | None = None) -> np.ndarray:
        """Tiled W @ x for a single input vector."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.in_features,):
            raise MappingError(
                f"input must have shape ({self.in_features},), got {x.shape}"
            )
        return self.matmul(x[:, np.newaxis], gain=gain)[:, 0]

    def ideal_matmul(self, batch) -> np.ndarray:
        """Infinite-precision reference: W @ X in dot units."""
        return self.weight_matrix @ self._validated_batch(batch)
