"""Tests for sharding large matrices across tile grids (repro.runtime.tiling)."""

import numpy as np
import pytest

from repro.core.psram import PsramBitcell
from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import ConfigurationError, ConversionError, MappingError
from repro.ml.mapping import MatrixTiler
from repro.runtime.tiling import TiledMatmul


def test_ragged_17x9_matches_device_matrix_tiler(tech):
    """A 17x9 matrix on 8x4 tiles (ragged in both dimensions) must agree
    with the seed MatrixTiler device path at the same gain."""
    rng = np.random.default_rng(17)
    weights = rng.integers(0, 8, (17, 9))
    tiled = TiledMatmul(
        weights, PhotonicTensorCore(rows=8, columns=4, technology=tech), gain=1.0
    )
    assert (tiled.row_tiles, tiled.column_tiles) == (3, 3)

    core = PhotonicTensorCore(rows=8, columns=4, technology=tech)
    reference = MatrixTiler(core)
    for _ in range(3):
        x = rng.uniform(0.0, 1.0, 9)
        assert np.allclose(tiled.matvec(x), reference.matvec(weights, x))


def test_40x40_on_16x16_tiles_within_quantization_envelope(tech):
    """Acceptance: a 40x40 workload on 16x16 tiles runs end-to-end with
    error vs float W @ x bounded by the tiling quantization envelope."""
    rng = np.random.default_rng(40)
    weights = rng.integers(0, 8, (40, 40))
    tiled = TiledMatmul(weights, PhotonicTensorCore(rows=16, columns=16, technology=tech))
    assert tiled.tile_count == 9
    assert np.all(tiled.gains >= 1.0)

    batch = rng.uniform(0.0, 1.0, (40, 4))
    estimates = tiled.matmul(batch)
    exact = weights @ batch
    bound = tiled.quantization_error_bound()
    assert np.all(np.abs(estimates - exact) <= bound[:, np.newaxis])
    # Relative to the workload's full scale the error stays small.
    relative = np.abs(estimates - exact).max() / np.abs(exact).max()
    assert relative < 0.2


def test_auto_gain_tightens_the_envelope(tech):
    rng = np.random.default_rng(5)
    weights = rng.integers(0, 4, (20, 20))  # small weights leave ADC range idle
    tiled = TiledMatmul(weights, PhotonicTensorCore(rows=16, columns=16, technology=tech))
    auto_bound = tiled.quantization_error_bound()
    native_bound = tiled.quantization_error_bound(gain=1.0)
    assert np.all(auto_bound <= native_bound)
    assert np.any(tiled.gains > 1.0)

    batch = rng.uniform(0.0, 1.0, (20, 3))
    estimates = tiled.matmul(batch)
    assert np.all(np.abs(estimates - weights @ batch) <= auto_bound[:, np.newaxis])


def test_plan_covers_matrix_with_ragged_edges(tech):
    weights = np.zeros((17, 9), dtype=int)
    tiled = TiledMatmul(weights, PhotonicTensorCore(rows=8, columns=4, technology=tech))
    plan = tiled.plan()
    assert len(plan) == 9
    last = plan[-1]
    assert last["rows"] == (16, 17)
    assert last["columns"] == (8, 9)
    # Zero blocks fall back to unit gain.
    assert all(entry["gain"] == 1.0 for entry in plan)


def test_weight_update_energy_is_order_invariant(tech):
    """Regression: each block's load energy must be measured from a
    cleared array, not from the previous block's residue on the shared
    probe — swapping two tile bands must not change the grid energy."""
    rng = np.random.default_rng(44)
    block_a = rng.integers(0, 8, (4, 4))
    block_b = rng.integers(0, 8, (4, 4))
    # Ensure the blocks genuinely differ in set bits, so the old
    # residue-dependent accounting would disagree between orders.
    popcount = lambda block: sum(bin(int(v)).count("1") for v in block.ravel())
    assert popcount(block_a) != popcount(block_b)

    forward = TiledMatmul(
        np.vstack([block_a, block_b]), PhotonicTensorCore(rows=4, columns=4, technology=tech)
    )
    swapped = TiledMatmul(
        np.vstack([block_b, block_a]), PhotonicTensorCore(rows=4, columns=4, technology=tech)
    )
    assert forward.weight_update_energy == pytest.approx(swapped.weight_update_energy)

    # From cleared arrays the grid energy is exactly one switch event
    # per set weight bit, independent of the tiling geometry.
    per_switch = PsramBitcell(tech).switching_energy_ledger(state_flipped=True).total
    total_bits = popcount(block_a) + popcount(block_b)
    assert forward.weight_update_energy == pytest.approx(total_bits * per_switch)
    ragged = TiledMatmul(
        np.vstack([block_a, block_b]), PhotonicTensorCore(rows=3, columns=3, technology=tech)
    )
    assert ragged.weight_update_energy == pytest.approx(total_bits * per_switch)


def test_matvec_and_batch_shapes(tech):
    rng = np.random.default_rng(2)
    weights = rng.integers(0, 8, (10, 6))
    tiled = TiledMatmul(weights, PhotonicTensorCore(rows=8, columns=4, technology=tech))
    single = tiled.matvec(rng.uniform(0.0, 1.0, 6))
    assert single.shape == (10,)
    batched = tiled.matmul(rng.uniform(0.0, 1.0, (6, 5)))
    assert batched.shape == (10, 5)


def test_validation_errors(tech):
    rng = np.random.default_rng(3)
    core = PhotonicTensorCore(rows=2, columns=2, technology=tech)
    with pytest.raises(MappingError, match="2-D"):
        TiledMatmul(np.ones(4, dtype=int), core)
    with pytest.raises(MappingError, match=r"\[0, 7\]"):
        TiledMatmul(np.full((2, 2), 9), core)
    with pytest.raises(MappingError, match="gain"):
        TiledMatmul(np.ones((2, 2), dtype=int), core, gain=-1.0)
    tiled = TiledMatmul(rng.integers(0, 8, (4, 4)), core)
    with pytest.raises(MappingError, match=r"\(3,\)"):
        tiled.matvec(np.ones(3) * 0.5)
    with pytest.raises(MappingError, match=r"\(3, 2\)"):
        tiled.matmul(np.ones((3, 2)) * 0.5)


def test_nan_input_column_is_rejected_like_the_device_loop(tech):
    """A NaN fails every comparison, so a min/max range test lets it
    through; both compiled kernels must reject it, as the device loop
    does, instead of binning it to the top code."""
    core = PhotonicTensorCore(rows=4, columns=4, technology=tech)
    grid = TiledMatmul(np.full((4, 4), 3), core)
    engine = grid.tiles[0][0]
    batch = np.full((4, 3), 0.5)
    batch[1, 2] = np.nan
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        grid.matmul(batch)
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        engine.matmul(batch)
    with pytest.raises(ConversionError):
        core.matvec(batch[:, 2])
