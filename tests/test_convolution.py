"""Tests for im2col convolution on the photonic tensor core."""

import numpy as np
import pytest

from repro.api import PhotonicSession
from repro.core.tensor_core import PhotonicTensorCore
from repro.errors import ConfigurationError
from repro.ml import convolution
from repro.ml.convolution import (
    PhotonicConv2d,
    _encode_checked_patches,
    avg_pool2d,
    encode_patch_batch,
    im2col,
    im2col_channels,
    output_shape,
    sobel_kernels,
)
from repro.runtime import scheduler


def im2col_loop(image, kernel_size, stride=1):
    """The original Python-window-loop im2col, kept as the reference
    the vectorized extraction must match value-for-value."""
    rows = (image.shape[0] - kernel_size) // stride + 1
    cols = (image.shape[1] - kernel_size) // stride + 1
    patches = np.empty((kernel_size * kernel_size, rows * cols))
    index = 0
    for r in range(rows):
        for c in range(cols):
            window = image[
                r * stride : r * stride + kernel_size,
                c * stride : c * stride + kernel_size,
            ]
            patches[:, index] = window.ravel()
            index += 1
    return patches


def test_im2col_shapes_and_contents():
    image = np.arange(16, dtype=float).reshape(4, 4)
    patches = im2col(image, kernel_size=3)
    assert patches.shape == (9, 4)
    # Top-left patch is the first column, row-major.
    np.testing.assert_array_equal(
        patches[:, 0], image[0:3, 0:3].ravel()
    )
    # Bottom-right patch is the last column.
    np.testing.assert_array_equal(
        patches[:, -1], image[1:4, 1:4].ravel()
    )


def test_im2col_stride():
    image = np.arange(25, dtype=float).reshape(5, 5)
    patches = im2col(image, kernel_size=3, stride=2)
    assert patches.shape == (9, 4)


@pytest.mark.parametrize("kernel_size, stride", [(1, 1), (2, 1), (3, 2), (4, 3)])
def test_vectorized_im2col_matches_loop(kernel_size, stride):
    rng = np.random.default_rng(11)
    image = rng.uniform(0.0, 1.0, (9, 7))
    np.testing.assert_array_equal(
        im2col(image, kernel_size, stride), im2col_loop(image, kernel_size, stride)
    )


def test_im2col_channels_stacks_channel_major():
    rng = np.random.default_rng(12)
    volume = rng.uniform(0.0, 1.0, (3, 5, 6))
    patches = im2col_channels(volume, kernel_size=2, stride=2)
    rows, cols = output_shape(volume.shape[1:], 2, stride=2)
    assert patches.shape == (3 * 4, rows * cols)
    # Column p is patch p's (channels, k, k) window, channel-major —
    # per-channel loop extraction stacked vertically.
    per_channel = np.vstack([im2col_loop(volume[ch], 2, 2) for ch in range(3)])
    np.testing.assert_array_equal(patches, per_channel)
    with pytest.raises(ConfigurationError):
        im2col_channels(volume[0], 2)


def test_im2col_validation():
    with pytest.raises(ConfigurationError):
        im2col(np.ones(4), 2)
    with pytest.raises(ConfigurationError):
        im2col(np.ones((4, 4)), 5)
    with pytest.raises(ConfigurationError):
        im2col(np.ones((4, 4)), 2, stride=0)


def test_output_shape():
    assert output_shape((8, 8), 3) == (6, 6)
    assert output_shape((8, 8), 3, stride=2) == (3, 3)
    with pytest.raises(ConfigurationError):
        output_shape((2, 2), 3)


def test_sobel_kernels_shape_and_antisymmetry():
    kernels = sobel_kernels()
    assert kernels.shape == (2, 3, 3)
    np.testing.assert_array_equal(kernels[0], kernels[1].T)
    assert kernels[0].sum() == 0.0  # zero-mean edge detector


@pytest.fixture(scope="module")
def conv_core(tech):
    return PhotonicTensorCore(
        rows=4, columns=9, weight_bits=3, adc_bits=6, technology=tech
    )


def test_photonic_conv_tracks_float_reference(conv_core):
    conv = PhotonicConv2d(sobel_kernels(), conv_core, gain=2.0)
    rng = np.random.default_rng(3)
    image = rng.uniform(0.0, 1.0, (6, 6))
    photonic = conv.forward(image)
    reference = conv.forward_float(image)
    assert photonic.shape == reference.shape == (2, 4, 4)
    scale = np.abs(reference).max()
    assert np.max(np.abs(photonic - reference)) < 0.2 * scale


def test_float_reference_matches_manual_convolution(conv_core):
    conv = PhotonicConv2d(sobel_kernels(), conv_core)
    image = np.eye(5)
    reference = conv.forward_float(image)
    kernel = sobel_kernels()[0]
    manual = np.array(
        [
            [np.sum(image[r : r + 3, c : c + 3] * kernel) for c in range(3)]
            for r in range(3)
        ]
    )
    np.testing.assert_allclose(reference[0], manual)


def test_conv_rejects_negative_image(conv_core):
    conv = PhotonicConv2d(sobel_kernels(), conv_core)
    with pytest.raises(ConfigurationError):
        conv.forward(-np.ones((5, 5)))


def test_conv_validation(conv_core):
    with pytest.raises(ConfigurationError):
        PhotonicConv2d(np.ones((2, 3, 4)), conv_core)
    with pytest.raises(ConfigurationError):
        PhotonicConv2d(sobel_kernels(), conv_core, gain=0.0)
    conv = PhotonicConv2d(np.ones((2, 2, 3, 3)), conv_core)
    with pytest.raises(ConfigurationError, match=r"\(2, H, W\)"):
        conv.forward(np.ones((5, 5)))


@pytest.mark.parametrize(
    "seed, stride, adc_bits, channels, num_kernels",
    [
        (0, 1, None, 1, 2),
        (1, 2, 5, 1, 3),
        (2, 1, 6, 2, 3),
        (3, 3, 6, 1, 5),
    ],
)
def test_runtime_conv_matches_device_loop(tech, seed, stride, adc_bits, channels,
                                          num_kernels):
    """The compiled conv path must agree with the patch device loop
    code-for-code across randomized kernels, strides, channel counts
    and non-default ADC precision (exact estimates imply equal codes)."""
    rng = np.random.default_rng(seed)
    core = PhotonicTensorCore(
        rows=4, columns=9, weight_bits=3, adc_bits=adc_bits, technology=tech
    )
    kernels = rng.normal(0.0, 1.0, (num_kernels, channels, 3, 3))
    loop = PhotonicConv2d(kernels, core, stride=stride)
    fast = PhotonicConv2d(kernels, core, stride=stride, runtime=True)
    image = rng.uniform(0.0, 1.0, (channels, 8, 8))
    image[:, :3, :3] = 0.0  # an all-zero patch exercises peak-0 encoding
    loop_out = loop.forward(image)
    fast_out = fast.forward(image)
    assert loop_out.shape == fast_out.shape
    np.testing.assert_array_equal(fast_out, loop_out)


def test_forward_batch_matches_per_image_forward(conv_core):
    conv = PhotonicConv2d(sobel_kernels(), conv_core, runtime=True)
    rng = np.random.default_rng(6)
    images = rng.uniform(0.0, 1.0, (3, 6, 6))
    batched = conv.forward_batch(images)
    assert batched.shape == (3, 2, 4, 4)
    for index, image in enumerate(images):
        np.testing.assert_array_equal(batched[index], conv.forward(image))
    with pytest.raises(ConfigurationError, match="3-D or 4-D"):
        conv.forward_batch(images[0])
    with pytest.raises(ConfigurationError, match="non-empty"):
        conv.forward_batch(np.empty((0, 6, 6)))


def test_non_negative_bank_skips_negative_pass(conv_core, monkeypatch):
    """An all-non-negative kernel bank must run only the positive
    differential array — one analog pass per patch, not two."""
    conv = PhotonicConv2d(np.abs(sobel_kernels()), conv_core)
    assert not np.any(conv.q_negative)
    assert conv.analog_passes == 1
    calls = []
    device_matvec = conv.tiler.matvec
    monkeypatch.setattr(
        conv.tiler, "matvec",
        lambda w, x, gain=1.0: calls.append(w is conv.q_negative)
        or device_matvec(w, x, gain=gain),
    )
    image = np.random.default_rng(7).uniform(0.0, 1.0, (5, 5))
    conv.forward(image)  # 9 patches
    assert len(calls) == 9 and not any(calls)

    signed = PhotonicConv2d(sobel_kernels(), conv_core)
    assert signed.analog_passes == 2


def test_patch_throughput_accounts_for_passes(conv_core, tech):
    # Signed sobel bank on a single tile: positive + negative pass.
    conv = PhotonicConv2d(sobel_kernels(), conv_core)
    assert conv.patch_throughput() == pytest.approx(8e9 / 2)
    # Non-negative bank: one pass, the full ADC rate.
    assert PhotonicConv2d(
        np.abs(sobel_kernels()), conv_core
    ).patch_throughput() == pytest.approx(8e9)


def test_patch_throughput_accounts_for_tiling(tech):
    """Regression: kernels wider or more numerous than one tile need
    multiple sequential passes per patch; the reported rate must drop
    by the tile-grid pass count instead of overstating throughput."""
    small = PhotonicTensorCore(rows=2, columns=4, weight_bits=3, technology=tech)
    conv = PhotonicConv2d(np.abs(sobel_kernels()), small, gain=1.0)
    # 9 taps on 4 columns -> 3 column tiles; 2 kernels fit the 2 rows.
    assert conv.analog_passes == 3
    assert conv.patch_throughput() == pytest.approx(8e9 / 3)
    signed = PhotonicConv2d(np.concatenate([sobel_kernels()] * 2), small)
    # 4 kernels on 2 rows -> 2 row tiles, x3 column tiles, x2 arrays.
    assert signed.analog_passes == 12
    assert signed.patch_throughput() == pytest.approx(8e9 / 12)


def test_conv_invalidate_runtime_recompiles(conv_core):
    """In-place quantized-array mutation plus invalidate_runtime must
    take effect on the compiled path, mirroring PhotonicDense."""
    conv = PhotonicConv2d(sobel_kernels(), conv_core, runtime=True)
    image = np.random.default_rng(9).uniform(0.0, 1.0, (5, 5))
    before = conv.forward(image)
    conv.q_positive[:] = 0
    conv.invalidate_runtime()
    assert conv._runtime_positive is None
    after = conv.forward(image)
    assert not np.array_equal(before, after)
    # Loop and runtime paths agree on the mutated program too.
    loop = PhotonicConv2d(sobel_kernels(), conv_core)
    loop.q_positive[:] = 0
    np.testing.assert_array_equal(after, loop.forward(image))


def test_avg_pool2d():
    maps = np.arange(16.0).reshape(4, 4)
    pooled = avg_pool2d(maps, 2)
    np.testing.assert_allclose(pooled, [[2.5, 4.5], [10.5, 12.5]])
    # Leading axes pass through; trailing remainder is cropped.
    stack = np.arange(2 * 5 * 5, dtype=float).reshape(2, 5, 5)
    assert avg_pool2d(stack, 2).shape == (2, 2, 2)
    with pytest.raises(ConfigurationError):
        avg_pool2d(maps, 0)
    with pytest.raises(ConfigurationError):
        avg_pool2d(maps, 5)


def test_encode_patch_batch_scans_for_negative_patches():
    patches = im2col_channels(np.random.default_rng(9).uniform(0.0, 1.0, (2, 1, 5, 5)), 3)
    encoded, scales = encode_patch_batch(patches)
    checked = _encode_checked_patches(patches)
    assert encoded.tobytes() == checked[0].tobytes()
    assert scales.tobytes() == checked[1].tobytes()
    assert encoded.flags.c_contiguous
    patches = patches.copy()
    patches[4, 3] = -0.1
    with pytest.raises(ConfigurationError, match="requires non-negative inputs"):
        encode_patch_batch(patches)


def test_checked_conv_routes_skip_the_sign_scan(tech, monkeypatch):
    """The runtime conv layer's forwards and the session's conv route
    encode images they checked on entry, so neither calls the scanning
    ``encode_patch_batch``; their values stay the layer's bits."""
    rng = np.random.default_rng(10)
    kernels = rng.normal(0.0, 1.0, (2, 3, 3))
    images = rng.uniform(0.0, 1.0, (3, 6, 6))
    session = PhotonicSession(technology=tech, grid=(4, 9))
    conv = PhotonicConv2d(kernels, session.core, runtime=True)
    expected = [conv.forward(image) for image in images]

    def scanning_encode(patches):
        raise AssertionError("a checked conv batch was scanned again")

    # The scheduler module too, should it import the function by name.
    for module in (convolution, scheduler):
        monkeypatch.setattr(module, "encode_patch_batch", scanning_encode, raising=False)
    batched = conv.forward_batch(images)
    futures = [session.submit_conv(kernels, image) for image in images]
    session.flush()
    for index, image in enumerate(images):
        assert conv.forward(image).tobytes() == expected[index].tobytes()
        assert batched[index].tobytes() == expected[index].tobytes()
        assert futures[index].value.tobytes() == expected[index].tobytes()
    with pytest.raises(ConfigurationError, match="non-negative"):
        conv.forward(-images[0])
