"""Block-rectangular interleaving and the 114-bit burst mapping.

The standard mode spreads a 456-bit block over four bursts; the modified
mode spreads a 228-bit block over two bursts by halving the burst stride
while keeping the intra-burst scatter constant 49.  Both permutations are
bijections (the tests enumerate every position).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import kernels
from .bits import (BURST_PAYLOAD_BITS, Burst, antipodal, as_soft_array, binary_uint8, check_type,
                   finite, one_row, rows)


class InterleaveMode(Enum):
    STD4 = "std4"
    MOD2 = "mod2"

    @property
    def burst_count(self) -> int:
        return 4 if self is InterleaveMode.STD4 else 2

    @property
    def block_bits(self) -> int:
        return self.burst_count * BURST_PAYLOAD_BITS


def _destinations(mode: InterleaveMode) -> np.ndarray:
    """dest[k] = index of coded bit k in the concatenated burst payloads."""
    k, b = np.arange(mode.block_bits), mode.burst_count
    return (k % b) * BURST_PAYLOAD_BITS + 2 * ((49 * k) % 57) + (k % (2 * b)) // b


_DEST = {mode: kernels.frozen(_destinations(mode)) for mode in InterleaveMode}
# The inverse permutation: stream column j carries coded bit _SOURCE[mode][j].
_SOURCE = {mode: kernels.frozen(np.argsort(dest)) for mode, dest in _DEST.items()}


def destinations(mode: InterleaveMode) -> np.ndarray:
    # Each function here takes a mode: "std4" is a mode's value, not the mode.
    return _DEST[check_type(mode, InterleaveMode, "mode")]


def interleave(mode: InterleaveMode, block) -> list[np.ndarray]:
    """Permute a coded block into 2 or 4 sub-blocks of 114 bits: ``interleave_batch`` on one row."""
    stream = binary_uint8(interleave_batch(mode, one_row(block)))
    return list(stream.reshape(mode.burst_count, BURST_PAYLOAD_BITS))


def deinterleave(mode: InterleaveMode, subs) -> np.ndarray:
    """Exact inverse of :func:`interleave` on soft values: ``deinterleave_batch`` on one row."""
    stream = np.concatenate([rows(one_row(sub), BURST_PAYLOAD_BITS, "each sub-block is")[0]
                             for sub in subs], dtype=np.float64)
    return deinterleave_batch(mode, one_row(finite(stream)))[0]


def interleave_batch(mode: InterleaveMode, blocks: np.ndarray) -> np.ndarray:
    """(frames, block_bits) -> same shape, C-ordered, columns in burst-payload order."""
    width = check_type(mode, InterleaveMode, "mode").block_bits
    blocks = rows(blocks, width, f"{mode.value} permutes")
    return np.take(blocks, _SOURCE[mode], axis=1)


def deinterleave_batch(mode: InterleaveMode, streams: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`interleave_batch`; the result is C-ordered."""
    width = check_type(mode, InterleaveMode, "mode").block_bits
    streams = rows(streams, width, f"{mode.value} permutes")
    return np.take(streams, _DEST[mode], axis=1)


def map_to_burst(sub) -> Burst:
    """114 interleaved bits onto a normal burst; both stealing flags set.

    Bits 0..56 fill the first data field and 57..113 the second, i.e. bit
    57 is the first one after the (abstracted) midamble boundary.
    """
    return Burst(sub)


def demap_burst(burst) -> np.ndarray:
    """Recover the 114 payload values of a burst as soft values.

    A :class:`Burst` has its hard bits lifted to +-1 by :func:`antipodal`;
    a sequence of received soft values passes through unchanged.
    """
    if isinstance(burst, Burst):
        return antipodal(burst.payload)
    return as_soft_array(burst, BURST_PAYLOAD_BITS)

