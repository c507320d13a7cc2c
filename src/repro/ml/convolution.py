"""Convolution on the photonic tensor core via im2col.

The photonic-tensor-core literature the paper builds on (its refs [30],
[49]) runs convolutions by unrolling image patches into columns and
kernels into rows, turning conv2d into the matrix multiply the WDM core
natively executes.  This module implements that mapping: patches are
intensity-encoded per sample, kernels are quantized (differential
mapping for signed kernels) into the pSRAM weights once, and every
patch dot product flows through the analog path and the eoADC.

Two execution paths share that mapping.  The device-loop path streams
one patch at a time through :class:`~repro.ml.mapping.MatrixTiler`
(faithful, slow); ``runtime=True`` shards the flattened kernel matrix
onto a compiled :class:`~repro.runtime.tiling.DifferentialProgram` and
evaluates every patch of an image — or a whole image batch — as one
dense pass over both differential halves, code-for-code equal to the
loop.  :func:`im2col_channels` unrolls one volume or a whole
(batch, channels, H, W) stack in one strided copy, so a batch of
images costs one unroll and one :func:`encode_patch_batch` call.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..core.quantization import encode_inputs, quantize_weights_differential
from ..core.tensor_core import PhotonicTensorCore
from ..errors import ConfigurationError
from .mapping import MatrixTiler, tile_grid


def im2col(image: np.ndarray, kernel_size: int, stride: int = 1) -> np.ndarray:
    """Unroll sliding windows of ``image`` into columns.

    Returns an array of shape (kernel_size^2, num_patches), patches in
    row-major output order.  Extraction is a strided view + reshape —
    no Python window loop — but the columns are value-for-value the
    windows' row-major ravels.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim != 2:
        raise ConfigurationError("im2col expects a 2-D image")
    return im2col_channels(image[np.newaxis], kernel_size, stride)


def im2col_channels(volume: np.ndarray, kernel_size: int, stride: int = 1) -> np.ndarray:
    """Multi-channel im2col: (channels, H, W) -> (channels * k^2, patches).

    Column p holds patch p's (channels, k, k) window flattened
    channel-major, matching ``kernels.reshape(n, -1)`` of a
    (n, channels, k, k) kernel bank.  A (batch, channels, H, W) stack
    unrolls to (channels * k^2, batch * patches), each image's patches
    in turn: the per-image unrolls side by side.  The windows are one
    6-D strided view, copied once.
    """
    volume = np.asarray(volume, dtype=float)
    if volume.ndim not in (3, 4):
        raise ConfigurationError(
            "im2col_channels expects a (channels, H, W) volume "
            "or a (batch, channels, H, W) stack"
        )
    stack = volume if volume.ndim == 4 else volume[np.newaxis]
    batch, channels, height, width = stack.shape
    rows, cols = output_shape((height, width), kernel_size, stride)
    image_step, channel_step, row_step, col_step = stack.strides
    # (batch, rows, cols, channels, k, k): patch-major, taps channel-major.
    windows = as_strided(
        stack,
        shape=(batch, rows, cols, channels, kernel_size, kernel_size),
        strides=(
            image_step, row_step * stride, col_step * stride,
            channel_step, row_step, col_step,
        ),
        writeable=False,
    )
    return windows.reshape(-1, channels * kernel_size * kernel_size).T


def _validate_window(image_shape, kernel_size: int, stride: int) -> None:
    if kernel_size < 1 or kernel_size > min(image_shape):
        raise ConfigurationError(
            f"kernel size {kernel_size} incompatible with image {tuple(image_shape)}"
        )
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")


def output_shape(image_shape, kernel_size: int, stride: int = 1) -> tuple[int, int]:
    """Spatial output dimensions of a valid convolution (the kernel
    must fit inside the image and the stride be >= 1)."""
    _validate_window(image_shape, kernel_size, stride)
    rows = (image_shape[0] - kernel_size) // stride + 1
    cols = (image_shape[1] - kernel_size) // stride + 1
    return rows, cols


def encode_patch_batch(patches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized per-column :func:`~repro.core.quantization.encode_inputs`.

    Each patch column is peak-normalized into the [0, 1] analog range
    with its own scale, exactly as the per-patch loop does: column p of
    the result times ``scales[p]`` reproduces ``patches[:, p]``.  The
    patches are taken C-ordered first (:func:`im2col_channels` returns
    a transposed view), so the per-patch peaks reduce down rows and the
    encoded batch comes out C-ordered, the layout the compiled kernel
    chunks without a padded copy.
    """
    patches = np.ascontiguousarray(patches, dtype=float)
    if np.any(patches < 0.0):
        raise ConfigurationError(
            "analog intensity encoding requires non-negative inputs; "
            "shift or split signed activations first"
        )
    peaks = patches.max(axis=0, initial=0.0)
    scales = np.where(peaks > 0.0, peaks, 1.0)
    return patches / scales, scales


def normalize_kernel_bank(kernels) -> np.ndarray:
    """Validate a float kernel bank and promote it to 4-D.

    Accepts (num_kernels, k, k) — promoted to one input channel — or
    (num_kernels, channels, k, k) with square taps.  Shared by the conv
    layer, the float feature extractor and the serving conv route so
    the accepted shapes cannot drift apart.
    """
    kernels = np.asarray(kernels, dtype=float)
    if kernels.ndim == 3:
        kernels = kernels[:, np.newaxis]
    if kernels.ndim != 4 or kernels.shape[2] != kernels.shape[3]:
        raise ConfigurationError(
            "kernels must have shape (n, k, k) or (n, channels, k, k)"
        )
    if not np.isfinite(kernels).all():
        raise ConfigurationError("kernel taps must be finite")
    return kernels


def normalize_image(
    image, channels: int, require_non_negative: bool = True
) -> np.ndarray:
    """Validate an input image and promote it to (channels, H, W).

    A 2-D image is promoted to one channel; a 3-D volume must match
    ``channels``.  Non-negativity is enforced by default (intensities
    ride on optical carrier powers); the float reference path turns it
    off.  Shared by the conv layer and the serving conv route.
    """
    image = np.asarray(image, dtype=float)
    if image.ndim == 2:
        image = image[np.newaxis]
    if image.ndim != 3:
        raise ConfigurationError(
            f"image must be (H, W) or ({channels}, H, W), got shape {image.shape}"
        )
    return _checked_images(image[np.newaxis], channels, require_non_negative)[0]


def normalize_image_batch(images, channels: int) -> np.ndarray:
    """Validate a non-empty image batch and promote it to (batch,
    channels, H, W): :func:`normalize_image`'s checks and messages for
    every image, made once on the stack.  Shared by the conv layer's
    batch forward and the model endpoints' submit."""
    images = np.asarray(images, dtype=float)
    if images.ndim not in (3, 4) or len(images) == 0:
        raise ConfigurationError(
            f"image batch must be non-empty 3-D or 4-D, got shape {images.shape}"
        )
    if images.ndim == 3:
        images = images[:, np.newaxis]
    return _checked_images(images, channels, True)


def _checked_images(
    images: np.ndarray, channels: int, require_non_negative: bool
) -> np.ndarray:
    """The per-image checks, made on a (batch, c, H, W) stack."""
    if images.shape[1] != channels:
        raise ConfigurationError(
            f"image must be (H, W) or ({channels}, H, W), got shape {images.shape[1:]}"
        )
    # A negated in-range test on two whole-array reductions: a NaN
    # reaches both results and fails every comparison, so it is rejected
    # too.  An empty stack has nothing to reject (and no reduction).
    if (
        require_non_negative
        and images.size
        and not (
            0.0 <= np.minimum.reduce(images, axis=None)
            and np.maximum.reduce(images, axis=None) < np.inf
        )
    ):
        raise ConfigurationError("image intensities must be finite and non-negative")
    return images


def avg_pool2d(maps: np.ndarray, size: int = 2) -> np.ndarray:
    """Non-overlapping average pooling over the trailing two axes.

    Accepts any leading shape (..., H, W); trailing rows/columns that
    do not fill a full window are cropped, the standard floor-mode
    pooling convention.
    """
    maps = np.asarray(maps, dtype=float)
    if size < 1:
        raise ConfigurationError(f"pool size must be >= 1, got {size}")
    if maps.ndim < 2:
        raise ConfigurationError("avg_pool2d expects at least a 2-D array")
    rows, cols = maps.shape[-2] // size, maps.shape[-1] // size
    if rows < 1 or cols < 1:
        raise ConfigurationError(
            f"pool size {size} does not fit feature map {maps.shape[-2:]}"
        )
    cropped = maps[..., : rows * size, : cols * size]
    shape = maps.shape[:-2] + (rows, size, cols, size)
    return cropped.reshape(shape).mean(axis=(-3, -1))


class PhotonicConv2d:
    """Valid 2-D convolution executed on the photonic tensor core.

    ``kernels`` has shape (num_kernels, k, k) — or (num_kernels,
    in_channels, k, k) for multi-channel inputs — with float (signed)
    taps.  The kernels are quantized once into differential pSRAM
    weight rows; :meth:`forward` then streams every image patch through
    the analog matmul path.

    ``runtime=True`` switches the forward passes onto the compiled
    :class:`~repro.runtime.tiling.DifferentialProgram` fast path: the
    flattened kernel matrix is sharded once onto compiled tile grids
    (same tile shape, weight/ADC bits and technology as ``core``) and
    all patches of an image — or of a whole batch via
    :meth:`forward_batch` — evaluate in one pass over both differential
    halves, matching the loop path code-for-code.
    """

    def __init__(
        self,
        kernels: np.ndarray,
        core: PhotonicTensorCore,
        stride: int = 1,
        gain: float = 1.0,
        runtime: bool = False,
    ) -> None:
        kernels = normalize_kernel_bank(kernels)
        if gain <= 0.0:
            raise ConfigurationError(f"gain must be positive, got {gain}")
        self.kernels = kernels
        self.kernel_size = kernels.shape[2]
        self.stride = stride
        self.core = core
        self.gain = gain
        flattened = kernels.reshape(kernels.shape[0], -1)
        self.q_positive, self.q_negative, self.weight_scale = (
            quantize_weights_differential(flattened, core.weight_bits)
        )
        self.tiler = MatrixTiler(core)
        self.runtime = runtime
        self._runtime_program = None

    @property
    def num_kernels(self) -> int:
        return self.kernels.shape[0]

    @property
    def in_channels(self) -> int:
        return self.kernels.shape[1]

    @property
    def taps(self) -> int:
        """Flattened kernel length: in_channels * kernel_size^2."""
        return self.in_channels * self.kernel_size * self.kernel_size

    # -- geometry ------------------------------------------------------------
    def _shaped_image(self, image) -> np.ndarray:
        return normalize_image(image, self.in_channels, require_non_negative=False)

    def _validated_image(self, image) -> np.ndarray:
        return normalize_image(image, self.in_channels)

    def _patches(self, image: np.ndarray) -> np.ndarray:
        return im2col_channels(image, self.kernel_size, self.stride)

    # -- evaluation ----------------------------------------------------------
    def forward(self, image: np.ndarray) -> np.ndarray:
        """Convolve ``image``; returns (num_kernels, out_rows, out_cols).

        Image intensities must be non-negative (they ride on optical
        carrier powers); each patch is peak-normalized for encoding and
        rescaled digitally after the eoADC.
        """
        image = self._validated_image(image)
        patches = self._patches(image)
        rows, cols = output_shape(image.shape[1:], self.kernel_size, self.stride)
        outputs = self._forward_patches(patches)
        return outputs.reshape(self.num_kernels, rows, cols)

    def forward_batch(self, images: np.ndarray) -> np.ndarray:
        """Convolve a whole image batch.

        ``images`` has shape (batch, H, W) or (batch, channels, H, W);
        returns (batch, num_kernels, out_rows, out_cols).  The stack is
        validated and unrolled once; on the runtime path every patch of
        every image lands in one compiled differential pass.
        """
        return self._forward_checked(normalize_image_batch(images, self.in_channels))

    def _forward_checked(self, images: np.ndarray) -> np.ndarray:
        """:meth:`forward_batch` of a stack :func:`normalize_image_batch`
        has already checked: (batch, channels, H, W), or (batch, H, W)
        for one input channel."""
        if images.ndim == 3:
            images = images[:, np.newaxis]
        rows, cols = output_shape(images.shape[2:], self.kernel_size, self.stride)
        outputs = self._forward_patches(self._patches(images))
        return outputs.reshape(self.num_kernels, len(images), rows, cols).transpose(
            1, 0, 2, 3
        )

    def _forward_patches(self, patches: np.ndarray) -> np.ndarray:
        """(taps, patches) -> (num_kernels, patches) dot products."""
        if self.runtime:
            return self._forward_patches_runtime(patches)
        has_negative = bool(np.any(self.q_negative))
        outputs = np.empty((self.num_kernels, patches.shape[1]))
        for index in range(patches.shape[1]):
            encoded, input_scale = encode_inputs(patches[:, index])
            raw = self.tiler.matvec(self.q_positive, encoded, gain=self.gain)
            if has_negative:
                raw = raw - self.tiler.matvec(self.q_negative, encoded, gain=self.gain)
            outputs[:, index] = raw * self.weight_scale * input_scale
        return outputs

    def _forward_patches_runtime(self, patches: np.ndarray) -> np.ndarray:
        encoded, scales = encode_patch_batch(patches)
        raw = self.runtime_program().matmul(encoded, gain=self.gain)
        return raw * self.weight_scale * scales

    def runtime_program(self):
        """The quantized kernel arrays compiled as a
        :class:`~repro.runtime.tiling.DifferentialProgram`, compiling
        lazily on first use.  Session compiles pre-bind a cached
        program via :meth:`attach_program`."""
        from .layers import compile_differential_program

        if self._runtime_program is None:
            self._runtime_program = compile_differential_program(
                self.q_positive, self.q_negative, self.core
            )
        return self._runtime_program

    def attach_program(self, program) -> None:
        """Bind a pre-compiled differential program (e.g. a cached conv
        program from a :class:`~repro.api.PhotonicSession` cache) so
        the runtime forward skips its lazy compile."""
        self._runtime_program = program

    @property
    def _runtime_positive(self):
        """The compiled positive grid (None until compiled)."""
        return None if self._runtime_program is None else self._runtime_program.positive

    def invalidate_runtime(self) -> None:
        """Drop the compiled runtime program so the next runtime forward
        recompiles from the current quantized arrays — call after
        mutating ``q_positive``/``q_negative`` in place, exactly as
        :meth:`PhotonicDense.invalidate_runtime` on the dense layer."""
        self._runtime_program = None

    def forward_float(self, image: np.ndarray) -> np.ndarray:
        """Exact reference convolution (no photonics)."""
        image = self._shaped_image(image)
        patches = self._patches(image)
        rows, cols = output_shape(image.shape[1:], self.kernel_size, self.stride)
        flattened = self.kernels.reshape(self.num_kernels, -1)
        return (flattened @ patches).reshape(self.num_kernels, rows, cols)

    # -- accounting ----------------------------------------------------------
    @property
    def analog_passes(self) -> int:
        """Sequential analog passes per patch.

        The (num_kernels, taps) kernel matrix covers a grid of
        row/column tiles, each needing its own pass on the physical
        core; a signed kernel bank additionally runs the negative
        differential array, doubling the passes.  An all-non-negative
        bank skips that second array entirely.
        """
        row_tiles, column_tiles = tile_grid(
            self.num_kernels, self.taps, self.core.rows, self.core.columns
        )
        arrays = 2 if np.any(self.q_negative) else 1
        return row_tiles * column_tiles * arrays

    def patch_throughput(self) -> float:
        """Patches per second at the eoADC sample rate.

        One ADC sample period buys one analog pass; a patch needs
        :attr:`analog_passes` of them (tile-grid passes times the
        differential arrays), so throughput is the sample rate divided
        by that pass count.
        """
        return self.core.row_adcs[0].sample_rate / self.analog_passes


def sobel_kernels() -> np.ndarray:
    """The classic horizontal/vertical edge kernels, for demos/tests."""
    sobel_x = np.array([[1.0, 0.0, -1.0], [2.0, 0.0, -2.0], [1.0, 0.0, -1.0]])
    sobel_y = sobel_x.T
    return np.stack([sobel_x, sobel_y])
