"""Block-rectangular interleaving and the 114-bit burst mapping.

The standard mode spreads a 456-bit block over four bursts; the modified
mode spreads a 228-bit block over two bursts by halving the burst stride
while keeping the intra-burst scatter constant 49.  Both permutations are
bijections (the tests enumerate every position).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .bits import BURST_PAYLOAD_BITS, Burst, antipodal, as_bit_array, as_soft_array, rows


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
    n = mode.block_bits
    k = np.arange(n)
    if mode is InterleaveMode.MOD2:
        burst = k % 2
        pos = 2 * ((49 * k) % 57) + ((k % 4) // 2)
    else:
        burst = k % 4
        pos = 2 * ((49 * k) % 57) + ((k % 8) // 4)
    return burst * BURST_PAYLOAD_BITS + pos


_DEST = {mode: _destinations(mode) for mode in InterleaveMode}
# The inverse permutation: stream column j carries coded bit _SOURCE[mode][j].
_SOURCE = {mode: np.argsort(dest) for mode, dest in _DEST.items()}
for _table in (*_DEST.values(), *_SOURCE.values()):
    _table.flags.writeable = False


def destinations(mode: InterleaveMode) -> np.ndarray:
    return _DEST[mode]


def sources(mode: InterleaveMode) -> np.ndarray:
    """The inverse of :func:`destinations`, read by the channel to send blocks in burst order."""
    return _SOURCE[mode]


def interleave(mode: InterleaveMode, block) -> list[np.ndarray]:
    """Permute a coded block into 2 or 4 sub-blocks of 114 bits."""
    arr = as_bit_array(block, mode.block_bits)
    stream = interleave_batch(mode, arr[np.newaxis, :])
    return list(stream.reshape(mode.burst_count, BURST_PAYLOAD_BITS))


def deinterleave(mode: InterleaveMode, subs) -> np.ndarray:
    """Exact inverse of :func:`interleave`, acting on soft values."""
    if len(subs) != mode.burst_count:
        raise ValueError(f"{mode.value} needs {mode.burst_count} sub-blocks, got {len(subs)}")
    stream = np.concatenate([as_soft_array(s, BURST_PAYLOAD_BITS) for s in subs])
    return deinterleave_batch(mode, stream[np.newaxis, :])[0]


def interleave_batch(mode: InterleaveMode, blocks: np.ndarray) -> np.ndarray:
    """(frames, block_bits) -> same shape, C-ordered, columns in burst-payload order."""
    return np.take(rows(blocks, mode.block_bits, f"{mode.value} permutes"), _SOURCE[mode], axis=1)


def deinterleave_batch(mode: InterleaveMode, streams: np.ndarray) -> np.ndarray:
    """Exact inverse of :func:`interleave_batch`; the result is C-ordered."""
    return np.take(rows(streams, mode.block_bits, f"{mode.value} permutes"), _DEST[mode], axis=1)


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

