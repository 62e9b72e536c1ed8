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
                   finite, one_row, real_float64, rows)


class InterleaveMode(Enum):
    __hash__ = object.__hash__  # identity, as schemes.SchemeId hashes: Enum's hashes in Python

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
# The same, one row per burst, and each mode's shape-error prefix: Enum.value costs a property call.
_BURSTS = {mode: source.reshape(-1, BURST_PAYLOAD_BITS) for mode, source in _SOURCE.items()}
_PERMUTES = {mode: f"{mode.value} permutes" for mode in InterleaveMode}
_NO_VALUES = kernels.frozen(np.empty((1, 0)))


def destinations(mode: InterleaveMode) -> np.ndarray:
    # Each function here takes a mode: "std4" is a mode's value, not the mode.
    return _DEST[check_type(mode, InterleaveMode, "mode")]


def interleave(mode: InterleaveMode, block) -> list[np.ndarray]:
    """Permute a coded block into 2 or 4 sub-blocks of 114 bits: ``interleave_batch`` on one row.

    The sub-blocks are the rows of one fresh array, so writing to one changes no other."""
    bursts = _BURSTS[check_type(mode, InterleaveMode, "mode")]
    return list(binary_uint8(one_row(block, bursts.size, _PERMUTES[mode])).take(bursts))


def deinterleave(mode: InterleaveMode, subs) -> np.ndarray:
    """Exact inverse of :func:`interleave` on soft values: ``deinterleave_batch`` on one row.

    Each sub-block is checked once as a block, and the joined row, whose length must be the
    mode's, once for finite values; one ``take`` from it makes the fresh result."""
    dest = _DEST[check_type(mode, InterleaveMode, "mode")]
    subs = [real_float64(one_row(sub, BURST_PAYLOAD_BITS, "each sub-block is")) for sub in subs]
    stream = np.concatenate(subs or [_NO_VALUES], axis=1)  # no sub-blocks join to an empty row
    return finite(one_row(stream[0], dest.size, _PERMUTES[mode])).take(dest)


def interleave_batch(mode: InterleaveMode, blocks: np.ndarray) -> np.ndarray:
    """(frames, block_bits) 0/1 bits -> uint8, same shape, C-ordered, columns in burst-payload
    order."""
    source = _SOURCE[check_type(mode, InterleaveMode, "mode")]
    return binary_uint8(rows(blocks, source.size, _PERMUTES[mode])).take(source, axis=1)


def deinterleave_batch(mode: InterleaveMode, streams: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`interleave_batch` on finite soft values; the result is C-ordered
    float64."""
    dest = _DEST[check_type(mode, InterleaveMode, "mode")]
    return finite(real_float64(rows(streams, dest.size, _PERMUTES[mode]))).take(dest, axis=1)


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

