"""Ceiling-priority ROM decoder of the eoADC.

The decoder turns the (ideally 1-hot) channel activations B_1..B_{2^p}
into a p-bit binary code.  When the analog input sits at the boundary
between two adjacent code bins, *two* neighbouring channels fire (paper
Fig. 9: V_IN = 2.0 V activates B4 and B5); the decoder implements a
ceiling function between adjacent channels, resolving to the upper code
and avoiding the static decoder current a simultaneous two-code drive
would cause.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigurationError, ConversionError


def code_to_bits(code: int, bits: int) -> tuple[int, ...]:
    """Binary expansion of ``code``, MSB first.

    >>> code_to_bits(4, 3)
    (1, 0, 0)
    """
    if bits < 1:
        raise ConfigurationError(f"need at least 1 bit, got {bits}")
    if not 0 <= code < 2**bits:
        raise ConfigurationError(f"code {code} does not fit in {bits} bits")
    return tuple((code >> shift) & 1 for shift in range(bits - 1, -1, -1))


def highest_active(mask: np.ndarray) -> np.ndarray:
    """Index of the last True entry along the last axis of ``mask``,
    -1 where there is none."""
    last = mask.shape[-1] - 1 - mask[..., ::-1].argmax(axis=-1)
    return np.where(mask.any(axis=-1), last, -1)


class CeilingPriorityRomDecoder:
    """Priority decoder mapping channel activations to a binary code.

    Channel k (0-based) active alone yields code k; a contiguous run of
    active channels yields the highest index (the ceiling).  Activations
    that are not contiguous indicate a malfunction (two distant rings
    resonant at once) and raise :class:`ConversionError` unless
    ``strict`` is disabled, in which case the highest active channel
    still wins.
    """

    def __init__(self, bits: int, strict: bool = True, power: float = 0.0) -> None:
        if bits < 1:
            raise ConfigurationError(f"decoder needs at least 1 bit, got {bits}")
        self.bits = bits
        self.strict = strict
        #: Static decoder + clocking power [W] (for the ledger).
        self.power = power

    @property
    def channels(self) -> int:
        return 2**self.bits

    def decode(self, activations: Sequence[bool]) -> int:
        """Binary code for a channel-activation vector.

        Raises :class:`ConversionError` when nothing fired (the input
        fell in no ring's window — with the calibrated design this only
        happens outside the full-scale range) or, in strict mode, when
        non-adjacent channels fired simultaneously.
        """
        if len(activations) != self.channels:
            raise ConfigurationError(
                f"expected {self.channels} activations, got {len(activations)}"
            )
        active = [index for index, fired in enumerate(activations) if fired]
        if not active:
            raise ConversionError("no thresholding block fired; input outside every window")
        if self.strict:
            contiguous = active[-1] - active[0] == len(active) - 1
            if not contiguous:
                raise ConversionError(
                    f"non-adjacent channels fired simultaneously: {active}"
                )
        return active[-1]

    def decode_array(self, activations: np.ndarray) -> np.ndarray:
        """:meth:`decode` of every activation vector along the last axis
        of a boolean array, in one pass.  Raises what :meth:`decode`
        raises for the first vector it would refuse."""
        if activations.shape[-1] != self.channels:
            raise ConfigurationError(
                f"expected {self.channels} activations, got {activations.shape[-1]}"
            )
        top = highest_active(activations)
        refused = top < 0
        if self.strict:
            count = activations.sum(axis=-1)
            refused |= top - activations.argmax(axis=-1) != count - 1
        if refused.any():
            self.decode(activations[np.unravel_index(refused.argmax(), refused.shape)])
        return top

    def decode_bits(self, activations: Sequence[bool]) -> tuple[int, ...]:
        """Binary code as an MSB-first bit tuple."""
        return code_to_bits(self.decode(activations), self.bits)

    def decode_or_hold(self, activations: Sequence[bool], held_code: int) -> int:
        """Decode, holding the previous code when nothing fired.

        Transient conversions sample mid-settling where, for a step
        input, no ring may have reached its window yet; real decoders
        simply keep their output latched.
        """
        try:
            return self.decode(activations)
        except ConversionError:
            return held_code
