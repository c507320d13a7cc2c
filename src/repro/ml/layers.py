"""Neural-network layers executing on the photonic tensor core.

:class:`PhotonicDense` owns a float weight matrix, quantizes it to the
core's unsigned n-bit format, and runs every forward matmul through the
simulated photonics — analog intensity inputs, pSRAM-stored weights,
WDM multiplication, eoADC readout — then undoes the scalings digitally.

Signed weights use the *differential-column* mapping: W = (W+ - W-)
with the positive and negative magnitudes stored in separate passes and
subtracted digitally.  Each layer also carries a programmable row-TIA
gain (:meth:`PhotonicDense.calibrate_gain`) so its dot-product range
fills the eoADC full scale — the ADC range calibration every analog IMC
deployment performs.
"""

from __future__ import annotations

import numpy as np

from ..core.quantization import (
    encode_inputs,
    quantize_weights,
    quantize_weights_differential,
)
from ..core.tensor_core import PhotonicTensorCore
from ..errors import ConfigurationError
from .convolution import encode_patch_batch
from .mapping import MatrixTiler


def relu(values: np.ndarray) -> np.ndarray:
    """Rectified linear activation."""
    return np.maximum(values, 0.0)


def compile_differential_engines(q_positive, q_negative, core: PhotonicTensorCore):
    """Compile a differential weight pair onto tiled runtime grids.

    Returns ``(positive_engine, negative_engine)`` — the negative
    engine is None when every negative tap is zero, so purely
    non-negative programs never spend the second analog pass.  Both
    grids compile on ``core`` itself (overwriting its pSRAM; the tiles
    are detached snapshots), so they take its tile shape, precision,
    technology, ladder memo and drift state and digitize exactly as
    the device loop would.  Shared by :class:`PhotonicDense` and
    :class:`~repro.ml.convolution.PhotonicConv2d`.
    """
    from ..runtime.tiling import TiledMatmul

    positive = TiledMatmul(q_positive, core, gain=1.0)
    negative = TiledMatmul(q_negative, core, gain=1.0) if np.any(q_negative) else None
    return positive, negative


def compile_differential_program(q_positive, q_negative, core: PhotonicTensorCore):
    """:func:`compile_differential_engines` as one
    :class:`~repro.runtime.tiling.DifferentialProgram`, the unit the
    layers' runtime forwards and the session's program cache evaluate."""
    from ..runtime.tiling import DifferentialProgram

    return DifferentialProgram(*compile_differential_engines(q_positive, q_negative, core))


class PhotonicDense:
    """A dense layer whose matmul runs on the photonic tensor core.

    ``runtime=True`` switches :meth:`forward` onto the compiled
    :class:`repro.runtime.TiledMatmul` fast path: the quantized weight
    arrays are sharded once onto tile grids compiled on ``core`` and
    every batch evaluates as one
    :class:`~repro.runtime.tiling.DifferentialProgram` pass instead of
    the per-sample device loop.  The physics is identical — the engines
    are compiled from the same device models — so the outputs match the
    loop path.
    """

    def __init__(
        self,
        weights: np.ndarray,
        core: PhotonicTensorCore,
        bias: np.ndarray | None = None,
        signed: bool = True,
        runtime: bool = False,
    ) -> None:
        self.core = core
        self.signed = signed
        self.tiler = MatrixTiler(core)
        #: Programmable row-TIA gain (ADC range setting); 1.0 = native.
        self.gain = 1.0
        self.runtime = runtime
        self._runtime_program = None
        self.bias = None
        self.set_weights(weights, bias=bias)

    @property
    def out_features(self) -> int:
        return self.float_weights.shape[0]

    @property
    def in_features(self) -> int:
        return self.float_weights.shape[1]

    def set_weights(self, weights, bias: np.ndarray | None = None) -> None:
        """Replace the float weights (and optionally the bias).

        Requantizes into the pSRAM representation and invalidates any
        compiled runtime engines, so the next runtime forward recompiles
        against the new program instead of silently serving stale
        weights.  With ``bias=None`` the existing bias is kept when its
        shape still fits, otherwise it resets to zeros.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise ConfigurationError("dense weights must be 2-D (out, in)")
        if bias is None:
            keep = self.bias is not None and self.bias.shape == (weights.shape[0],)
            bias = self.bias if keep else np.zeros(weights.shape[0])
        bias = np.asarray(bias, dtype=float)
        if bias.shape != (weights.shape[0],):
            raise ConfigurationError("bias shape must match output features")
        self.float_weights = weights
        self.bias = bias
        if self.signed:
            self.q_positive, self.q_negative, self.weight_scale = (
                quantize_weights_differential(weights, self.core.weight_bits)
            )
        else:
            self.q_positive, self.weight_scale = quantize_weights(
                weights, self.core.weight_bits, signed=False
            )
            self.q_negative = np.zeros_like(self.q_positive)
        self.invalidate_runtime()

    def invalidate_runtime(self) -> None:
        """Drop the compiled runtime program so the next runtime forward
        recompiles from the current quantized arrays.  Called by
        :meth:`set_weights`; call it directly after mutating
        ``float_weights``/``q_positive``/``q_negative`` in place."""
        self._runtime_program = None

    def calibrate_gain(self, batch: np.ndarray, headroom: float = 1.25) -> float:
        """Pick the TIA gain from a representative input batch.

        Estimates the largest quantized-array dot product the batch
        produces and sets the gain so it lands at ``1/headroom`` of the
        ADC full scale.  Returns the chosen gain.
        """
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != self.in_features:
            raise ConfigurationError(
                f"calibration batch must be (samples, {self.in_features})"
            )
        peak = 0.0
        for sample in batch:
            encoded, _ = encode_inputs(sample)
            peak = max(
                peak,
                float((self.q_positive @ encoded).max(initial=0.0)),
                float((self.q_negative @ encoded).max(initial=0.0)),
            )
        full_scale = self.core.columns * self.core.max_weight
        if peak <= 0.0:
            self.gain = 1.0
        else:
            self.gain = max(full_scale / (peak * headroom), 1.0)
        return self.gain

    def forward_sample(self, x: np.ndarray) -> np.ndarray:
        """One sample through the photonic matmul (float in, float out)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.in_features,):
            raise ConfigurationError(f"input must have length {self.in_features}")
        encoded, input_scale = encode_inputs(x)
        positive = self.tiler.matvec(self.q_positive, encoded, gain=self.gain)
        if self.signed and np.any(self.q_negative):
            negative = self.tiler.matvec(self.q_negative, encoded, gain=self.gain)
        else:
            negative = 0.0
        raw = positive - negative
        return raw * self.weight_scale * input_scale + self.bias

    def runtime_program(self):
        """The quantized weight arrays compiled as a
        :class:`~repro.runtime.tiling.DifferentialProgram`, compiling
        lazily on first use (its negative grid is None for an
        all-non-negative program).  Session compiles pre-bind a cached
        program via :meth:`attach_program`."""
        if self._runtime_program is None:
            self._runtime_program = compile_differential_program(
                self.q_positive, self.q_negative, self.core
            )
        return self._runtime_program

    def attach_program(self, program) -> None:
        """Bind a pre-compiled differential program (e.g. from a
        :class:`~repro.api.PhotonicSession` program cache) so the
        runtime forward skips its lazy compile."""
        self._runtime_program = program

    @property
    def _runtime_positive(self):
        """The compiled positive grid (None until compiled)."""
        return None if self._runtime_program is None else self._runtime_program.positive

    @property
    def _runtime_negative(self):
        """The compiled negative grid (None until compiled, or for an
        all-non-negative program)."""
        return None if self._runtime_program is None else self._runtime_program.negative

    def _forward_runtime(self, batch: np.ndarray) -> np.ndarray:
        """Batched compiled forward: every sample peak-encoded in one
        pass, then one differential program pass."""
        encoded, input_scales = encode_patch_batch(batch.T)
        raw = self.runtime_program().matmul(encoded, gain=self.gain)
        return raw.T * self.weight_scale * input_scales[:, np.newaxis] + self.bias

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """Batch forward: batch of shape (samples, in_features)."""
        batch = np.asarray(batch, dtype=float)
        if batch.ndim != 2 or batch.shape[1] != self.in_features:
            raise ConfigurationError(
                f"batch must be (samples, {self.in_features}), got {batch.shape}"
            )
        if self.runtime:
            return self._forward_runtime(batch)
        return np.stack([self.forward_sample(sample) for sample in batch])

    def forward_float(self, batch: np.ndarray) -> np.ndarray:
        """Float reference forward (no photonics, no quantization)."""
        batch = np.asarray(batch, dtype=float)
        return batch @ self.float_weights.T + self.bias
