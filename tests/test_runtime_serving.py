"""Tests for the dense and conv request routes through the session
front door."""

import numpy as np
import pytest

from repro.api import FlushPolicy, PhotonicSession
from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import ConfigurationError, PendingFlushError
from repro.ml.convolution import PhotonicConv2d


@pytest.fixture()
def session(tech):
    return PhotonicSession(grid=(4, 6), technology=tech,
                           cache_capacity=4, max_batch=16,
                           flush_policy=FlushPolicy.explicit())


def test_native_shape_roundtrip(session, tech):
    rng = np.random.default_rng(1)
    weights = rng.integers(0, 8, (4, 6))
    x = rng.uniform(0.0, 1.0, 6)
    future = session.submit(weights, x)
    assert not future.done
    assert session.flush() == 1
    reference = PhotonicTensorCore(rows=4, columns=6, technology=tech)
    reference.load_weight_matrix(weights)
    assert np.allclose(future.value, reference.matvec(x).estimates)


def test_smaller_shape_is_zero_padded(session, tech):
    rng = np.random.default_rng(2)
    weights = rng.integers(0, 8, (3, 4))
    x = rng.uniform(0.0, 1.0, 4)
    future = session.submit(weights, x)
    session.flush()
    assert future.value.shape == (3,)
    padded_w = np.zeros((4, 6), dtype=int)
    padded_w[:3, :4] = weights
    padded_x = np.zeros(6)
    padded_x[:4] = x
    reference = PhotonicTensorCore(rows=4, columns=6, technology=tech)
    reference.load_weight_matrix(padded_w)
    assert np.allclose(future.value, reference.matvec(padded_x).estimates[:3])


def test_oversize_shape_routes_to_tiled_grid(session):
    rng = np.random.default_rng(3)
    weights = rng.integers(0, 8, (7, 9))
    inputs = [rng.uniform(0.0, 1.0, 9) for _ in range(3)]
    futures = [session.submit(weights, x) for x in inputs]
    session.flush()
    report = session.report()
    assert report.requests == 3
    assert report.cache_misses == 1  # one grid build served the batch
    # Tiled traffic is accounted like in-grid traffic: one sample
    # period per input column, energy scaled by the tile count.
    assert report.batches == 1 and report.samples == 3
    assert report.analog_time > 0.0 and report.analog_energy > 0.0
    assert report.total_energy >= report.analog_energy
    for future, x in zip(futures, inputs):
        assert future.value.shape == (7,)
        assert future.codes is None  # partial sums accumulate digitally
        exact = weights @ x
        assert np.abs(future.value - exact).max() <= 18.0  # 2 col tiles x 1 bin


def test_tiled_engine_cache_reuse(session):
    rng = np.random.default_rng(4)
    weights = rng.integers(0, 8, (7, 9))
    session.submit(weights, rng.uniform(0.0, 1.0, 9))
    session.flush()
    session.submit(weights, rng.uniform(0.0, 1.0, 9))
    session.flush()
    report = session.report()
    assert report.cache_misses == 1 and report.cache_hits == 1
    assert report.weight_energy_saved > 0.0
    assert report.cache_hit_rate > 0.0


def test_tiled_requests_with_distinct_gains_do_not_mix(session):
    rng = np.random.default_rng(14)
    weights = rng.integers(1, 8, (7, 9))
    x = rng.uniform(0.1, 0.3, 9)
    low = session.submit(weights, x, gain=1.0)
    high = session.submit(weights, x, gain=4.0)
    session.flush()
    # The hotter TIA resolves the small dot products onto finer codes;
    # a shared batch would have returned identical estimates.
    assert not np.allclose(low.value, high.value)
    exact = weights @ x
    assert np.abs(high.value - exact).max() <= np.abs(low.value - exact).max()


def test_auto_gain_consistent_across_tile_boundary(session):
    """gain='auto' must range-calibrate on both request paths, and the
    default (None) must mean native gain 1.0 on both.  Calibration
    guarantees a tighter quantization envelope (finer code bins), so
    errors must fit the scaled-down bin on each path."""
    rng = np.random.default_rng(16)
    full_scale_dot = session.columns * session.core.max_weight
    native_bin = full_scale_dot / session.core.row_adcs[0].levels

    small = rng.integers(1, 4, (4, 6))     # fits the tile, leaves range idle
    x = rng.uniform(0.1, 0.3, 6)
    native = session.submit(small, x)
    calibrated = session.submit(small, x, gain="auto")
    session.flush()
    exact = small @ x
    auto_gain = full_scale_dot / int(small.sum(axis=1).max())
    assert auto_gain > 1.0
    assert np.abs(native.value - exact).max() <= native_bin
    assert np.abs(calibrated.value - exact).max() <= native_bin / auto_gain

    tiled_w = rng.integers(1, 4, (7, 9))
    tx = rng.uniform(0.1, 0.3, 9)
    t_native = session.submit(tiled_w, tx)
    t_auto = session.submit(tiled_w, tx, gain="auto")
    session.flush()
    t_exact = tiled_w @ tx
    # Two column tiles: one native bin each vs the calibrated envelope.
    assert np.abs(t_native.value - t_exact).max() <= 2 * native_bin
    tiles = session.tiled_cache.get(session.tiled_cache.keys()[-1])
    auto_bound = tiles.quantization_error_bound()
    assert np.all(auto_bound < 2 * native_bin)
    assert np.abs(t_auto.value - t_exact).max() <= auto_bound.max()


def test_tiled_validation_happens_at_submit(session):
    rng = np.random.default_rng(15)
    with pytest.raises(ConfigurationError, match=r"\[0, 7\]"):
        session.submit(np.full((7, 9), 9), rng.uniform(0.0, 1.0, 9))
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        session.submit(rng.integers(0, 8, (7, 9)), np.full(9, 1.5))
    nan_x = rng.uniform(0.0, 1.0, 9)
    nan_x[4] = np.nan
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        session.submit(rng.integers(0, 8, (7, 9)), nan_x)
    with pytest.raises(ConfigurationError, match="gain"):
        session.submit(rng.integers(0, 8, (7, 9)), np.full(9, 0.5), gain=0.0)
    # Nothing queued: the next flush serves later requests normally.
    good = session.submit(rng.integers(0, 8, (7, 9)), rng.uniform(0.0, 1.0, 9))
    assert session.flush() == 1
    assert good.done


def test_unflushed_ticket_raises(session):
    rng = np.random.default_rng(5)
    native = session.submit(rng.integers(0, 8, (4, 6)), rng.uniform(0.0, 1.0, 6))
    tiled = session.submit(rng.integers(0, 8, (9, 9)), rng.uniform(0.0, 1.0, 9))
    for future in (native, tiled):
        with pytest.raises(ConfigurationError, match="not flushed"):
            future.value
        # ... and it is a RuntimeError naming the pending flush, not a
        # silent None (PendingFlushError subclasses both).
        with pytest.raises(RuntimeError, match="flush #1"):
            future.value
        with pytest.raises(PendingFlushError, match="result\\(\\)"):
            future.value


def test_submit_validation(session):
    rng = np.random.default_rng(6)
    with pytest.raises(ConfigurationError, match="2-D"):
        session.submit(np.ones(4, dtype=int), np.ones(4) * 0.5)
    with pytest.raises(ConfigurationError, match=r"\(3,\)"):
        session.submit(np.ones((4, 6), dtype=int), np.ones(3) * 0.5)
    # NaN fails every comparison: the range check must still reject it.
    nan_x = np.full(6, 0.5)
    nan_x[2] = np.nan
    with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
        session.submit(rng.integers(0, 8, (4, 6)), nan_x)
    # Non-integral weights are rejected, not truncated.
    with pytest.raises(ConfigurationError, match="integers"):
        session.submit(rng.integers(0, 7, (4, 6)) + 0.7, np.full(6, 0.5))
    with pytest.raises(ConfigurationError, match="integers"):
        session.submit(rng.integers(0, 7, (7, 9)) + 0.7, np.full(9, 0.5))
    assert session.pending == 0
    # Integral floats are served like the integers they hold.
    weights = rng.integers(0, 8, (4, 6))
    as_float = session.submit(weights.astype(float), np.full(6, 0.5))
    as_int = session.submit(weights, np.full(6, 0.5))
    session.flush()
    np.testing.assert_array_equal(as_float.codes, as_int.codes)


class TestConvRoute:
    @pytest.fixture()
    def conv_session(self, tech):
        return PhotonicSession(grid=(4, 9), technology=tech,
                               flush_policy=FlushPolicy.explicit())

    def test_conv_route_matches_runtime_conv_layer(self, conv_session, tech):
        rng = np.random.default_rng(21)
        kernels = rng.normal(0.0, 1.0, (3, 3, 3))
        images = [rng.uniform(0.0, 1.0, (7, 7)) for _ in range(3)]
        futures = [conv_session.submit_conv(kernels, image) for image in images]
        assert not futures[0].done
        conv_session.flush()
        core = PhotonicTensorCore(rows=4, columns=9, technology=tech)
        reference = PhotonicConv2d(kernels, core, runtime=True)
        for future, image in zip(futures, images):
            assert future.shape == (3, 5, 5)
            np.testing.assert_array_equal(future.value,
                                          reference.forward(image))

    def test_conv_route_stride_and_gain(self, conv_session, tech):
        rng = np.random.default_rng(22)
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        image = rng.uniform(0.0, 1.0, (8, 8))
        future = conv_session.submit_conv(kernels, image, stride=2, gain=2.0)
        conv_session.flush()
        core = PhotonicTensorCore(rows=4, columns=9, technology=tech)
        reference = PhotonicConv2d(kernels, core, stride=2, gain=2.0, runtime=True)
        np.testing.assert_array_equal(future.value, reference.forward(image))

    def test_one_group_mixing_geometries_matches_each_image_alone(self, conv_session, tech):
        """One bank's requests form one group and one batch even when
        their image sizes and strides differ: the flush unrolls each run
        of consecutive same-geometry images together and keeps every
        request's columns in submit order."""
        rng = np.random.default_rng(27)
        kernels = rng.normal(0.0, 1.0, (3, 3, 3))
        geometries = [(7, 7, 1), (7, 7, 1), (9, 6, 2), (5, 8, 1), (7, 7, 1), (8, 8, 3)]
        images = [rng.uniform(0.0, 1.0, (h, w)) for h, w, _ in geometries]
        futures = [
            conv_session.submit_conv(kernels, image, stride=stride)
            for image, (_, _, stride) in zip(images, geometries)
        ]
        conv_session.flush()
        assert conv_session.report().batches == 1
        core = PhotonicTensorCore(rows=4, columns=9, technology=tech)
        for future, image, (_, _, stride) in zip(futures, images, geometries):
            reference = PhotonicConv2d(kernels, core, stride=stride, runtime=True)
            np.testing.assert_array_equal(future.value, reference.forward(image))

    def test_repeated_kernel_programs_hit_the_cache(self, conv_session):
        rng = np.random.default_rng(23)
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        conv_session.submit_conv(kernels, rng.uniform(0.0, 1.0, (6, 6)))
        conv_session.flush()
        conv_session.submit_conv(kernels, rng.uniform(0.0, 1.0, (6, 6)))
        conv_session.submit_conv(kernels, rng.uniform(0.0, 1.0, (6, 6)))
        conv_session.flush()
        report = conv_session.report()
        assert report.requests == 3
        assert report.cache_misses == 1 and report.cache_hits == 1
        assert report.weight_energy_saved > 0.0
        patches = 3 * 16
        # Signed kernels: two analog passes per patch column.
        assert report.samples == 2 * patches
        assert report.analog_time > 0.0 and report.analog_energy > 0.0

    def test_non_negative_bank_pays_single_pass(self, conv_session):
        rng = np.random.default_rng(24)
        kernels = rng.uniform(0.1, 1.0, (2, 3, 3))  # all positive taps
        conv_session.submit_conv(kernels, rng.uniform(0.0, 1.0, (6, 6)))
        conv_session.flush()
        assert conv_session.report().samples == 16  # one pass per patch

    def test_conv_requests_count_into_totals(self, conv_session):
        rng = np.random.default_rng(25)
        conv_session.submit(rng.integers(0, 8, (4, 9)), rng.uniform(0.0, 1.0, 9))
        conv_session.submit_conv(rng.normal(0.0, 1.0, (2, 3, 3)),
                                 rng.uniform(0.0, 1.0, (5, 5)))
        conv_session.flush()
        assert conv_session.report().requests == 2

    def test_conv_validation(self, conv_session):
        rng = np.random.default_rng(26)
        kernels = rng.normal(0.0, 1.0, (2, 3, 3))
        image = rng.uniform(0.0, 1.0, (6, 6))
        with pytest.raises(ConfigurationError, match="kernels"):
            conv_session.submit_conv(np.ones((2, 3, 4)), image)
        with pytest.raises(ConfigurationError, match="non-negative"):
            conv_session.submit_conv(kernels, -image)
        nan_image = image.copy()
        nan_image[3, 2] = np.nan
        with pytest.raises(ConfigurationError, match="non-negative"):
            conv_session.submit_conv(kernels, nan_image)
        with pytest.raises(ConfigurationError, match="numeric gain"):
            conv_session.submit_conv(kernels, image, gain="auto")
        with pytest.raises(ConfigurationError, match="gain"):
            conv_session.submit_conv(kernels, image, gain=0.0)
        with pytest.raises(ConfigurationError, match=r"\(2, H, W\)"):
            conv_session.submit_conv(np.ones((2, 2, 3, 3)), image)
        future = conv_session.submit_conv(kernels, image)
        with pytest.raises(ConfigurationError, match="not flushed"):
            future.value
        assert conv_session.flush() == 1 and future.done
