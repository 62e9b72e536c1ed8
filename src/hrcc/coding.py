"""Primitive coding stages for the control-channel chains.

Covers the systematic Fire block code (40 parity bits over a 184-bit
message), the shorter 20-bit cyclic parity code used by the reduced
90-bit message format, the constraint-length-5 convolutional codes at
rates 1/2 and 1/3, cyclic puncturing, and soft-decision Viterbi decoding.

Generator polynomials are plain ints with bit k holding the coefficient
of D^k.  Block contents are MSB-first in the polynomial sense: the first
transmitted message bit is the highest-degree term, so the parity of a
message starting with a lone 1 is the remainder of D^(k-1+r) mod g.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .bits import antipodal, as_bit_array, as_soft_array, binary_uint8, rows

CONSTRAINT_LENGTH = 5
TAIL_BITS = 4

FULL_MESSAGE_BITS = 184
FIRE_PARITY_BITS = 40
FIRE_CODEWORD_BITS = FULL_MESSAGE_BITS + FIRE_PARITY_BITS  # 224

REDUCED_MESSAGE_BITS = 90
PARITY20_BITS = 20
PARITY20_CODEWORD_BITS = REDUCED_MESSAGE_BITS + PARITY20_BITS  # 110

# (D^23 + 1)(D^17 + D^3 + 1): degree-40 burst-detection generator.
FIRE_POLY = (1 << 40) | (1 << 26) | (1 << 23) | (1 << 17) | (1 << 3) | 1
# (D^3 + D + 1)(D^17 + D^3 + 1): same burst-detection factor, 20 parity bits.
PARITY20_POLY = (1 << 20) | (1 << 18) | (1 << 17) | (1 << 6) | (1 << 4) | (1 << 1) | 1


def poly_remainder(value: int, generator: int) -> int:
    """Remainder of a GF(2) polynomial division, both args as bitmask ints."""
    gdeg = generator.bit_length() - 1
    while value.bit_length() > gdeg:
        value ^= generator << (value.bit_length() - 1 - gdeg)
    return value


def _parity_matrix(k: int, generator: int, r: int) -> np.ndarray:
    """(k, r) GF(2) matrix as read-only float32; row i is the parity of e_i.

    float32 lets the batch product go through BLAS.  Each entry of a
    product with 0/1 messages is an integer no larger than k, and float32
    holds every integer below 2**24 exactly, so the product is exact in any
    summation order.
    """
    matrix = np.zeros((k, r), dtype=np.float32)
    for i in range(k):
        rem = poly_remainder(1 << (k - 1 - i + r), generator)
        matrix[i] = [(rem >> (r - 1 - j)) & 1 for j in range(r)]
    matrix.flags.writeable = False
    return matrix


FIRE_MATRIX = _parity_matrix(FULL_MESSAGE_BITS, FIRE_POLY, FIRE_PARITY_BITS)
PARITY20_MATRIX = _parity_matrix(REDUCED_MESSAGE_BITS, PARITY20_POLY, PARITY20_BITS)


def _parity_batch(msgs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """(frames, k) 0/1 messages -> (frames, r) uint8 parity under ``matrix``."""
    counts = msgs.astype(np.float32) @ matrix
    wide = np.min_scalar_type(matrix.shape[0])
    return (counts.astype(wide) & 1).astype(np.uint8, copy=False)


def fire_encode(msg) -> np.ndarray:
    """184-bit message -> 224-bit systematic codeword (message ++ 40 parity)."""
    msg = as_bit_array(msg, FULL_MESSAGE_BITS)
    return np.concatenate([msg, _parity_batch(msg[np.newaxis, :], FIRE_MATRIX)[0]])


def fire_check(codeword) -> bool:
    """True iff the 224-bit word has a zero syndrome.  Detection only."""
    cw = as_bit_array(codeword, FIRE_CODEWORD_BITS)
    expect = _parity_batch(cw[np.newaxis, :FULL_MESSAGE_BITS], FIRE_MATRIX)[0]
    return bool(np.array_equal(expect, cw[FULL_MESSAGE_BITS:]))


def parity20_encode(msg) -> np.ndarray:
    """90-bit message -> 110-bit systematic codeword (message ++ 20 parity)."""
    msg = as_bit_array(msg, REDUCED_MESSAGE_BITS)
    return np.concatenate([msg, _parity_batch(msg[np.newaxis, :], PARITY20_MATRIX)[0]])


def parity20_check(codeword) -> bool:
    """True iff the 110-bit word has a zero syndrome.  Detection only."""
    cw = as_bit_array(codeword, PARITY20_CODEWORD_BITS)
    expect = _parity_batch(cw[np.newaxis, :REDUCED_MESSAGE_BITS], PARITY20_MATRIX)[0]
    return bool(np.array_equal(expect, cw[REDUCED_MESSAGE_BITS:]))


def add_tail(msg) -> np.ndarray:
    """Append the four zero flushing bits that return the encoder to state 0."""
    msg = as_bit_array(msg)
    return np.concatenate([msg, np.zeros(TAIL_BITS, dtype=np.uint8)])


@dataclass(frozen=True)
class ConvCode:
    """Tail-flushed feedforward convolutional code with 16 trellis states."""

    generators: tuple[int, ...]

    def __post_init__(self):
        if len(self.generators) not in (2, 3):
            raise ValueError("supported rates are 1/2 and 1/3")
        for g in self.generators:
            if not 0 < g < 32:
                raise ValueError(f"generator 0b{g:b} must have degree <= 4")
            if not (g & 1 and g & 16):
                raise ValueError(
                    f"generator 0b{g:b} needs nonzero constant and degree-4 terms"
                )

    @property
    def n_out(self) -> int:
        return len(self.generators)


CONV_RATE_12 = ConvCode((0b11001, 0b11011))  # G0 = 1+D^3+D^4, G1 = 1+D+D^3+D^4
CONV_RATE_13 = ConvCode((0b11011, 0b10101, 0b11111))  # G1, G2 = 1+D^2+D^4, G3


@lru_cache(maxsize=None)
def _tap_table(generators: tuple[int, ...]) -> np.ndarray:
    taps = np.zeros((len(generators), CONSTRAINT_LENGTH), dtype=np.uint8)
    for j, g in enumerate(generators):
        for k in range(CONSTRAINT_LENGTH):
            taps[j, k] = (g >> k) & 1
    taps.flags.writeable = False
    return taps


@lru_cache(maxsize=None)
def _sym_table(generators: tuple[int, ...]) -> np.ndarray:
    """(16, 2, n) antipodal branch outputs: +1 for coded bit 0, -1 for 1."""
    state, b = np.meshgrid(np.arange(16), (0, 1), indexing="ij")
    # The register window x[t], x[t-1], ..., x[t-4] of each (state, input).
    window = np.stack([b, state >> 3, state >> 2, state >> 1, state], axis=-1) & 1
    syms = antipodal((window @ _tap_table(generators).T) & 1)
    syms.flags.writeable = False
    return syms


def conv_encode_batch(code: ConvCode, msgs: np.ndarray) -> np.ndarray:
    return kernels.conv_encode_batch(binary_uint8(np.asarray(msgs)), _tap_table(code.generators))


def conv_encode(code: ConvCode, msg) -> np.ndarray:
    """Encode one tailed block; output length is input length over the rate."""
    msg = as_bit_array(msg)
    return conv_encode_batch(code, msg[np.newaxis, :])[0]


def viterbi_decode_batch(code: ConvCode, softs: np.ndarray, source=None) -> np.ndarray:
    """Decode a soft batch; ``source`` maps a punctured batch (see ``kernels``)."""
    return kernels.viterbi_batch(softs, _sym_table(code.generators), source)


def viterbi_decode(code: ConvCode, soft) -> np.ndarray:
    """Maximum-likelihood input sequence (tail included) for one soft block.

    The trellis starts and ends in state zero; metric ties prefer the
    0-valued register bit so an all-erasure input decodes to all zeros.
    """
    soft = as_soft_array(soft)
    return viterbi_decode_batch(code, soft[np.newaxis, :])[0]


@dataclass(frozen=True)
class PuncturePattern:
    """Cyclic keep/delete mask taking ``input_len`` bits to ``output_len``."""

    keep: tuple[int, ...]
    input_len: int
    output_len: int

    def __post_init__(self):
        if not self.keep or any(b not in (0, 1) for b in self.keep):
            raise ValueError("keep mask must be a nonempty 0/1 sequence")
        if self.kept_indices.size != self.output_len:
            raise ValueError(
                f"mask keeps {self.kept_indices.size} of {self.input_len} bits, "
                f"expected {self.output_len}"
            )

    @cached_property
    def kept_indices(self) -> np.ndarray:
        """Read-only positions of the kept input bits, in increasing order."""
        mask = np.resize(np.asarray(self.keep, dtype=bool), self.input_len)
        kept = np.flatnonzero(mask)
        kept.flags.writeable = False
        return kept


def compose_punctures(patterns) -> PuncturePattern:
    """One full-length pattern equal to applying ``patterns`` in order."""
    kept = patterns[0].kept_indices
    for prev, pattern in zip(patterns, patterns[1:]):
        if pattern.input_len != prev.output_len:
            raise ValueError(
                f"cannot puncture {prev.output_len} bits with a pattern for {pattern.input_len}"
            )
        kept = kept[pattern.kept_indices]
    mask = np.zeros(patterns[0].input_len, dtype=np.uint8)
    mask[kept] = 1
    return PuncturePattern(tuple(mask.tolist()), patterns[0].input_len, patterns[-1].output_len)


# Mother-code puncturing realizing the 2/3 coding scheme, then the three
# scheme-rate masks; all evenly spread and period-aligned to the streams.
PUNCTURE_CS23 = PuncturePattern((1, 1, 1, 0), 456, 342)
PUNCTURE_P12 = PuncturePattern((1, 0), 456, 228)
PUNCTURE_P13 = PuncturePattern((1, 1, 0), 342, 228)
PUNCTURE_P23 = PuncturePattern((1, 0, 0), 684, 228)


def puncture(pattern: PuncturePattern, bits) -> np.ndarray:
    """Drop the masked positions, preserving the order of kept bits."""
    arr = as_bit_array(bits, pattern.input_len)
    return puncture_batch(pattern, arr[np.newaxis, :])[0]


def depuncture(pattern: PuncturePattern, soft) -> np.ndarray:
    """Restore deleted positions as erasures (soft value 0)."""
    arr = as_soft_array(soft, pattern.output_len)
    return depuncture_batch(pattern, arr[np.newaxis, :])[0]


def puncture_batch(pattern: PuncturePattern, bits: np.ndarray) -> np.ndarray:
    """(frames, input_len) -> (frames, output_len), C-ordered."""
    bits = rows(bits, pattern.input_len, "the pattern punctures")
    return np.take(bits, pattern.kept_indices, axis=1)


def depuncture_batch(pattern: PuncturePattern, softs: np.ndarray) -> np.ndarray:
    """(frames, output_len) -> (frames, input_len), deleted bits as erasures (0.0)."""
    softs = rows(softs, pattern.output_len, "the pattern depunctures")
    out = np.zeros((softs.shape[0], pattern.input_len), dtype=np.float64)
    out[:, pattern.kept_indices] = softs
    return out
