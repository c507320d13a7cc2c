"""Tests for the compiled vectorized fast path (repro.runtime.engine)."""

import numpy as np
import pytest

from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import ConfigurationError
from repro.runtime.engine import BatchResult, weight_key


@pytest.fixture(scope="module")
def device(tech):
    return PhotonicTensorCore(rows=4, columns=6, weight_bits=3, technology=tech)


def test_codes_match_device_on_randomized_pairs(device):
    """Acceptance: batched codes exactly equal the per-call device loop
    on >= 100 randomized (weights, input) pairs, across gains."""
    rng = np.random.default_rng(42)
    for trial in range(100):
        device.load_weight_matrix(rng.integers(0, 8, (4, 6)))
        engine = device.compile()
        x = rng.uniform(0.0, 1.0, 6)
        gain = float(rng.uniform(0.5, 3.0))
        loop = device.matvec(x, gain=gain)
        fast = engine.matvec(x, gain=gain)
        assert np.array_equal(loop.codes, fast.codes), f"trial {trial}"
        assert np.allclose(loop.estimates, fast.estimates)
        assert np.allclose(loop.currents, fast.currents)


def test_batched_matmul_matches_per_call(device):
    rng = np.random.default_rng(7)
    device.load_weight_matrix(rng.integers(0, 8, (4, 6)))
    engine = device.compile()
    batch = rng.uniform(0.0, 1.0, (6, 16))
    result = engine.matmul(batch, gain=1.5)
    assert isinstance(result, BatchResult)
    assert result.codes.shape == (4, 16)
    assert result.batch_size == 16
    for col in range(16):
        loop = device.matvec(batch[:, col], gain=1.5)
        assert np.array_equal(result.codes[:, col], loop.codes)
        assert np.allclose(result.estimates[:, col], loop.estimates)
    # Estimates also match the device's own matmul gain passthrough.
    assert np.allclose(result.estimates, device.matmul(batch, gain=1.5))


def test_compiled_snapshot_is_detached(device):
    rng = np.random.default_rng(9)
    first = rng.integers(0, 8, (4, 6))
    device.load_weight_matrix(first)
    engine = device.compile()
    x = rng.uniform(0.0, 1.0, 6)
    before = engine.matvec(x)
    device.load_weight_matrix(rng.integers(0, 8, (4, 6)))
    after = engine.matvec(x)
    assert np.array_equal(before.codes, after.codes)
    assert np.array_equal(engine.weight_matrix, first)


def test_dequantize_matches_core(device):
    rng = np.random.default_rng(10)
    device.load_weight_matrix(rng.integers(0, 8, (4, 6)))
    engine = device.compile()
    codes = np.array([0, 3, 7, 5])
    assert np.array_equal(engine.dequantize_codes(codes), device.dequantize_codes(codes))


def test_batch_result_column_view(device):
    rng = np.random.default_rng(12)
    device.load_weight_matrix(rng.integers(0, 8, (4, 6)))
    engine = device.compile()
    batch = rng.uniform(0.0, 1.0, (6, 3))
    result = engine.matmul(batch)
    view = result.column(1)
    assert np.array_equal(view.codes, result.codes[:, 1])
    assert np.array_equal(view.estimates, result.estimates[:, 1])


def test_validation_reports_offending_shape(device):
    engine = device.compile()
    with pytest.raises(ConfigurationError, match=r"\(3,\)"):
        engine.matvec(np.ones(3))
    with pytest.raises(ConfigurationError, match=r"\(3, 2\)"):
        engine.matmul(np.ones((3, 2)))
    with pytest.raises(ConfigurationError, match="1.5"):
        engine.matmul(np.full((6, 2), 1.5))
    with pytest.raises(ConfigurationError, match="gain"):
        engine.matmul(np.ones((6, 2)) * 0.5, gain=0.0)


def test_code_boundaries_reproduce_convert(ideal_adc, trimmed_adc):
    for adc in (ideal_adc, trimmed_adc):
        boundaries = adc.code_boundaries()
        assert boundaries.shape == (adc.levels - 1,)
        assert np.all(np.diff(boundaries) > 0)
        sweep = np.linspace(0.0, adc.spec.full_scale_voltage - 1e-6, 801)
        binned = np.searchsorted(boundaries, sweep, side="right")
        device = np.array([adc.convert(float(v)) for v in sweep])
        assert np.array_equal(binned, device)
        # Cached: the second call returns the identical array object.
        assert adc.code_boundaries() is boundaries


def test_weight_key_canonical():
    matrix = np.arange(6).reshape(2, 3)
    assert weight_key(matrix) == weight_key(matrix.astype(np.int8))
    assert weight_key(matrix) != weight_key(matrix.reshape(3, 2))
    assert weight_key(matrix) != weight_key(matrix + 1)


def test_core_exposes_calibration_constants(device):
    assert device.tia_gain > 0.0
    assert device.full_scale_current > 0.0
    engine = device.compile()
    assert engine.response.shape == (4, 6)
    assert np.all(engine.response >= 0.0)
