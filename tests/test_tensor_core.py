"""Tests for the tiled photonic tensor core (paper Section III)."""

import numpy as np
import pytest

from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def core(tech):
    core = PhotonicTensorCore(rows=4, columns=8, weight_bits=3, technology=tech)
    rng = np.random.default_rng(21)
    core.load_weight_matrix(rng.integers(0, 8, (4, 8)))
    return core


def test_default_dimensions_match_paper(tech):
    core = PhotonicTensorCore(technology=tech, rows=2, columns=4)
    assert core.weight_bits == 3
    assert core.max_weight == 7


def test_matvec_tracks_ideal_within_adc_resolution(core):
    """The photonic estimate must sit within ~1 output LSB of W @ x."""
    rng = np.random.default_rng(5)
    full_scale = core.columns * core.max_weight
    lsb_in_dot_units = full_scale / core.row_adcs[0].levels
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, core.columns)
        result = core.matvec(x)
        ideal = core.ideal_matvec(x)
        assert np.all(np.abs(result.estimates - ideal) <= 1.2 * lsb_in_dot_units)


def test_matvec_matches_quantization_limited_reference(core):
    """Photonic non-ideality must not add more than ~1 code of error on
    top of pure output quantization."""
    rng = np.random.default_rng(6)
    for _ in range(5):
        x = rng.uniform(0.0, 1.0, core.columns)
        photonic = core.matvec(x).estimates
        quantized = core.quantization_limited_matvec(x)
        lsb = core.columns * core.max_weight / core.row_adcs[0].levels
        assert np.all(np.abs(photonic - quantized) <= 1.5 * lsb)


def test_codes_monotone_in_input_magnitude(core):
    weak = core.matvec(np.full(core.columns, 0.1)).codes
    strong = core.matvec(np.full(core.columns, 0.9)).codes
    assert np.all(strong >= weak)


def test_matmul_batches_columns(core):
    rng = np.random.default_rng(7)
    batch = rng.uniform(0.0, 1.0, (core.columns, 3))
    product = core.matmul(batch)
    assert product.shape == (core.rows, 3)
    for col in range(3):
        single = core.matvec(batch[:, col]).estimates
        assert np.allclose(product[:, col], single)


def test_matmul_gain_passthrough(core):
    """matmul must forward the TIA range setting to every column's
    matvec instead of silently evaluating at native gain."""
    rng = np.random.default_rng(8)
    batch = rng.uniform(0.0, 0.4, (core.columns, 3))
    product = core.matmul(batch, gain=2.0)
    for col in range(3):
        single = core.matvec(batch[:, col], gain=2.0).estimates
        assert np.allclose(product[:, col], single)
    # A hotter TIA resolves small dot products that native gain rounds
    # into the same coarse codes.
    native = core.matmul(batch)
    ideal = core.weight_matrix @ batch
    assert np.abs(product - ideal).max() <= np.abs(native - ideal).max() + 1e-12


def test_validation_reports_offending_shape(core):
    with pytest.raises(ConfigurationError, match=r"\(3,\)"):
        core.matvec(np.ones(3))
    with pytest.raises(ConfigurationError, match=r"\(3, 2\)"):
        core.matmul(np.ones((3, 2)))
    with pytest.raises(ConfigurationError, match="1.5"):
        core.matvec(np.full(8, 1.5))


def test_weight_update_time_and_energy(tech):
    core = PhotonicTensorCore(rows=2, columns=4, technology=tech)
    assert core.weight_update_time() == pytest.approx(4 / 20e9)
    core.load_weight_matrix(np.full((2, 4), 7))
    # 2x4 words x 3 bits all flip 0 -> 1.
    assert core.weight_update_energy() == pytest.approx(24 * 0.5e-12, rel=1e-3)


def test_weight_matrix_round_trip(core):
    matrix = core.weight_matrix
    assert matrix.shape == (4, 8)
    for row in range(4):
        assert np.array_equal(core.row_cores[row].weights, matrix[row])


def test_load_keeps_a_private_copy_of_the_weights(tech):
    # An in-place edit of the caller's array after a load must not
    # reach the loaded weights: the pSRAM bits keep the old ones.
    core = PhotonicTensorCore(rows=2, columns=3, technology=tech)
    w = np.array([[1, 2, 3], [4, 5, 6]])
    core.load_weight_matrix(w)
    w[0, 0] = 7
    assert core.weight_matrix[0, 0] == 1
    assert core.row_cores[0].weights[0] == 1
    assert core.compile().weight_matrix[0, 0] == 1

    w = np.array([[1, 2, 3], [4, 5, 6]])
    core.row_cores[0].load_weights(w[0])
    w[0, 0] = 7
    assert core.row_cores[0].weights[0] == 1


def test_dequantize_codes_inverts_code_mapping(core):
    codes = np.array([0, 3, 7, 5])
    estimates = core.dequantize_codes(codes)
    assert estimates.shape == (4,)
    assert np.all(np.diff(estimates[np.argsort(codes)]) >= 0)


def test_performance_handle(core):
    perf = core.performance()
    assert perf.rows == 4 and perf.columns == 8
    assert perf.throughput_tops > 0


def test_input_validation(core):
    with pytest.raises(ConfigurationError):
        core.matvec(np.ones(3))
    with pytest.raises(ConfigurationError):
        core.matvec(np.full(8, 1.5))
    with pytest.raises(ConfigurationError):
        core.matmul(np.ones((3, 2)))


def test_weight_matrix_validation(tech):
    core = PhotonicTensorCore(rows=2, columns=2, technology=tech)
    with pytest.raises(ConfigurationError):
        core.load_weight_matrix(np.ones((3, 2), dtype=int))
    with pytest.raises(ConfigurationError):
        PhotonicTensorCore(rows=0, columns=2, technology=tech)


def test_invalidate_ladders_after_inplace_adc_retune(tech):
    """Regression: the ladder memos assume the converters never change
    after construction.  Re-tuning an ADC in place (here: halving the
    full-scale range, as a recalibration re-trim would) must not keep
    serving the old bisected ladder once ``invalidate_ladders`` ran."""
    import dataclasses

    core = PhotonicTensorCore(rows=2, columns=4, technology=tech)
    core.load_weight_matrix(np.full((2, 4), 3, dtype=int))
    first = core.compile()
    shared = core.row_adcs[0].code_boundaries()
    assert core.row_adcs[1].code_boundaries() is shared  # one shared trim/spec

    # In-place parameter change: both memo layers (the ADC's own
    # boundary cache and the core's cross-compiler ladder memo) go
    # stale — a fresh compile still serves the 4 V ladder.
    for adc in core.row_adcs:
        adc.spec = dataclasses.replace(adc.spec, full_scale_voltage=2.0)
        adc.reference_voltages = np.asarray(adc.spec.reference_voltages())
    stale = core.compile()
    assert np.array_equal(stale.boundaries, first.boundaries)

    core.invalidate_ladders()
    fresh = core.compile()
    assert not np.array_equal(fresh.boundaries, first.boundaries)
    assert fresh.boundaries.max() <= 2.0  # re-bisected on the new range
    rebisected = core.row_adcs[0].code_boundaries()
    assert rebisected is not shared
    assert core.row_adcs[1].code_boundaries() is rebisected


def test_invalidate_ladders_clears_every_row_adc_memo(tech):
    core = PhotonicTensorCore(rows=2, columns=4, technology=tech)
    ladders = [adc.code_boundaries() for adc in core.row_adcs]
    for adc, ladder in zip(core.row_adcs, ladders):
        assert adc.code_boundaries() is ladder  # memoised until invalidated
    core.invalidate_ladders()
    # New banks start without a ladder; unchanged trims take the old
    # one back from the process memo instead of re-bisecting.
    assert all(adc.bank.ladder is None for adc in core.row_adcs)
    for adc, ladder in zip(core.row_adcs, ladders):
        fresh = adc.code_boundaries()
        assert adc.bank.ladder is fresh
        assert np.array_equal(fresh, ladder)


def test_retrim_reaches_the_core_after_invalidate_ladders(tech):
    """A re-trimmed row ADC converts, and compiles, like a converter
    built with its new trims once ``invalidate_ladders`` ran; the
    untouched row keeps the shared ladder."""
    from repro.core.eoadc import EoAdc

    core = PhotonicTensorCore(rows=2, columns=4, technology=tech)
    core.load_weight_matrix(np.full((2, 4), 5, dtype=int))
    first = core.compile()
    adc = core.row_adcs[1]
    adc.trim_errors = adc.trim_errors + 20e-12
    core.invalidate_ladders()
    fresh = EoAdc(tech, trim_errors=adc.trim_errors)
    engine = core.compile()
    assert np.array_equal(engine.boundaries[0], first.boundaries[0])
    assert np.array_equal(engine.boundaries[1], fresh.code_boundaries())
    assert not np.array_equal(engine.boundaries[1], first.boundaries[1])
    sweep = np.linspace(0.0, 3.999, 401)
    assert np.array_equal(adc.convert(sweep), fresh.convert(sweep))
    assert core.row_adcs[0].bank is not adc.bank

