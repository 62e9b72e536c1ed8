"""Primitive coding stages for the control-channel chains.

Covers the systematic cyclic block codes, each one ``BlockCode`` value:
the Fire code (40 parity bits over a 184-bit message, ``FIRE_CODE``) and
the shorter 20-bit parity code of the reduced 90-bit message format
(``PARITY20_CODE``); the constraint-length-5 convolutional codes at rates
1/2 and 1/3, cyclic puncturing, and soft-decision Viterbi decoding.

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
from .bits import (antipodal, binary_uint8, check_int, check_type, frozen, one_row, real_float64,
                   rows)

CONSTRAINT_LENGTH = 5
TAIL_BITS = 4  # zero flushing bits that return the encoder to state 0

# (D^23 + 1)(D^17 + D^3 + 1): degree-40 burst-detection generator.
FIRE_POLY = (1 << 40) | (1 << 26) | (1 << 23) | (1 << 17) | (1 << 3) | 1
# (D^3 + D + 1)(D^17 + D^3 + 1): same burst-detection factor, 20 parity bits.
PARITY20_POLY = (1 << 20) | (1 << 18) | (1 << 17) | (1 << 6) | (1 << 4) | (1 << 1) | 1


def _generator(generator: int) -> tuple[int, int]:
    """``generator`` as an int, and its degree; TypeError or ValueError unless >= 1 with D^0."""
    generator = check_int(generator, "generator", 3)  # 3 = D + 1, the least of degree 1
    if not generator & 1:
        raise ValueError(f"a generator needs degree >= 1 and a constant term, got {generator}")
    return generator, generator.bit_length() - 1


def poly_remainder(value: int, generator: int) -> int:
    """Remainder of a GF(2) polynomial division, both args as bitmask ints."""
    generator, gdeg = _generator(generator)
    value = check_int(value, "value", 0)
    while value.bit_length() > gdeg:
        value ^= generator << (value.bit_length() - 1 - gdeg)
    return value


@dataclass(frozen=True)
class BlockCode:
    """Systematic cyclic code: ``k`` message bits, then ``r`` parity bits.

    The parity is the remainder of the message polynomial times D^r modulo
    ``generator``, whose degree r lies in [1, 64] (the compiled LFSR's register)
    and which has a constant term.  Detection only.
    """

    k: int
    generator: int

    def __post_init__(self):
        object.__setattr__(self, "k", check_int(self.k, "k", 1))
        object.__setattr__(self, "generator", _generator(self.generator)[0])
        check_int(self.r, "the generator's degree", 1, 65)

    @property
    def r(self) -> int:
        return self.generator.bit_length() - 1

    @cached_property
    def remainders(self) -> np.ndarray:
        """The compiled LFSR's table: entry v is v(D) * D^r mod g at the top of a uint64."""
        return frozen([poly_remainder(v << self.r, self.generator) << 64 - self.r
                       for v in range(256)], np.uint64)

    @cached_property
    def matrix(self) -> np.ndarray:
        """(k, r) GF(2) matrix as read-only float32; row i is the parity of e_i.

        float32 lets the batch product go through BLAS.  Each entry of a
        product with 0/1 messages is an integer no larger than k, and float32
        holds every integer below 2**24 exactly, so the product is exact in any
        summation order.
        """
        k, r = self.k, self.r
        matrix = np.zeros((k, r), dtype=np.float32)
        for i in range(k):
            rem = poly_remainder(1 << (k - 1 - i + r), self.generator)
            matrix[i] = [(rem >> (r - 1 - j)) & 1 for j in range(r)]
        return frozen(matrix)

    def _parity(self, msgs: np.ndarray) -> np.ndarray:
        counts = msgs.astype(np.float32) @ self.matrix
        return (counts.astype(np.min_scalar_type(self.k)) & 1).astype(np.uint8, copy=False)

    def parity_batch(self, msgs) -> np.ndarray:
        """(frames, k) 0/1 messages -> (frames, r) uint8 parity."""
        return self._parity(binary_uint8(rows(msgs, self.k, "the block code encodes")))

    def check_batch(self, words) -> np.ndarray:
        """(frames, k + r) 0/1 words -> one bool per row, True iff its syndrome is zero."""
        words = binary_uint8(rows(words, self.k + self.r, "the block code checks"))
        return (self._parity(words[:, : self.k]) == words[:, self.k :]).all(axis=1)

    def encode(self, msg) -> np.ndarray:
        """k-bit message -> (k + r)-bit systematic codeword (message ++ parity)."""
        parity = self.parity_batch(one_row(msg, self.k, "the block code encodes"))[0]
        return np.concatenate([np.asarray(msg, np.uint8), parity])

    def check(self, codeword) -> bool:
        """True iff the (k + r)-bit word has a zero syndrome: ``check_batch`` on it as one row."""
        word = one_row(codeword, self.k + self.r, "the block code checks")
        return bool(self.check_batch(word)[0])


FIRE_CODE = BlockCode(184, FIRE_POLY)  # 224-bit codewords
PARITY20_CODE = BlockCode(90, PARITY20_POLY)  # 110-bit codewords
fire_encode, fire_check = FIRE_CODE.encode, FIRE_CODE.check
parity20_encode, parity20_check = PARITY20_CODE.encode, PARITY20_CODE.check


@dataclass(frozen=True)
class ConvCode:
    """Tail-flushed feedforward convolutional code with 16 trellis states.

    Its tables are built once each, vectorised: ``branches``, the decoders' branch outputs,
    and ``eight_steps``, the outputs of 8 trellis steps per entry, from which the compiled
    encoder's kept-bit tables are made."""

    generators: tuple[int, ...]

    def __post_init__(self):
        # A list would construct, then fail to hash in the cached branch table.
        check_type(self.generators, tuple, "generators")
        if len(self.generators) not in (2, 3):
            raise ValueError("supported rates are 1/2 and 1/3")
        for g in self.generators:
            check_int(check_type(g, int, "each generator"), "each generator", 1, 32)  # degree <= 4
            if not (g & 1 and g & 16):
                raise ValueError(
                    f"generator 0b{g:b} needs nonzero constant and degree-4 terms"
                )

    @property
    def n_out(self) -> int:
        return len(self.generators)

    @cached_property
    def eight_steps(self) -> np.ndarray:
        """The compiled encoder's table, read as is where a chain keeps every column and else
        through kept-bit tables made from it: 4096 read-only uint32, one per 12 inputs in time
        order, from bit 11 to bit 0.  Index ``h << 8 | x`` is 8 steps that shift the inputs ``x``,
        first in bit 7, into a register whose last 4 inputs were ``h``, newest in bit 0; bit
        ``i * n_out + j`` of its entry is output j of step i, so the entry holds the 8 * n_out
        mother-code bits of those steps in column order."""
        # Each index's register window at each step, bit m holding x[t-m], as D^m's
        # coefficient sits at bit m of a generator; 2 bytes a window keep the import's peak
        # memory flat.
        windows = np.arange(4096, dtype=np.uint16)[:, None] >> np.arange(7, -1, -1,
                                                                          dtype=np.uint16) & 31
        parity = np.array([bin(w).count("1") & 1 for w in range(32)], np.uint8)
        outputs = parity[windows[:, :, None] & np.array(self.generators, np.uint16)]
        # Bit c of an entry is column c: packed little-endian, 4 bytes an entry.
        packed = np.packbits(outputs.reshape(4096, -1), axis=1, bitorder="little")
        return frozen(np.pad(packed, ((0, 0), (0, 4 - packed.shape[1]))).view("<u4")[:, 0],
                      np.uint32)

    @cached_property
    def branches(self) -> np.ndarray:
        """The decoders' read-only (16, 2, n_out) branch table, ``_sym_table`` of the generators."""
        return _sym_table(self.generators)


CONV_RATE_12 = ConvCode((0b11001, 0b11011))  # G0 = 1+D^3+D^4, G1 = 1+D+D^3+D^4
CONV_RATE_13 = ConvCode((0b11011, 0b10101, 0b11111))  # G1, G2 = 1+D^2+D^4, G3


@lru_cache(maxsize=None)
def _tap_table(generators: tuple[int, ...]) -> np.ndarray:
    taps = np.zeros((len(generators), CONSTRAINT_LENGTH), dtype=np.uint8)
    for j, g in enumerate(generators):
        for k in range(CONSTRAINT_LENGTH):
            taps[j, k] = (g >> k) & 1
    return frozen(taps)


@lru_cache(maxsize=None)
def _sym_table(generators: tuple[int, ...]) -> np.ndarray:
    """(16, 2, n) antipodal branch outputs: +1 for coded bit 0, -1 for 1."""
    state, b = np.meshgrid(np.arange(16), (0, 1), indexing="ij")
    # The register window x[t], x[t-1], ..., x[t-4] of each (state, input).
    window = np.stack([b, state >> 3, state >> 2, state >> 1, state], axis=-1) & 1
    return frozen(antipodal((window @ _tap_table(generators).T) & 1))


def conv_encode_batch(code: ConvCode, msgs: np.ndarray) -> np.ndarray:
    return kernels.conv_encode_batch(msgs, _tap_table(code.generators))


def viterbi_decode_batch(code: ConvCode, softs: np.ndarray, source=None) -> np.ndarray:
    """Decode a soft batch; ``source`` maps a punctured batch (see ``kernels``)."""
    return kernels.viterbi_batch(softs, code.branches, source)


def viterbi_decode(code: ConvCode, soft) -> np.ndarray:
    """Maximum-likelihood input sequence (tail included) for one soft block.

    The trellis starts and ends in state zero; metric ties prefer the
    0-valued register bit so an all-erasure input decodes to all zeros.
    """
    return viterbi_decode_batch(code, one_row(soft, None, "the Viterbi decoder reads"))[0]


@dataclass(frozen=True)
class PuncturePattern:
    """Cyclic keep/delete mask taking ``input_len`` bits to ``output_len``."""

    keep: tuple[int, ...]
    input_len: int
    output_len: int

    def __post_init__(self):
        # A list would construct, then fail to hash; an array would fail the 0/1 test's truth.
        check_type(self.keep, tuple, "keep")
        if not self.keep or any(b not in (0, 1) for b in self.keep):
            raise ValueError("keep mask must be a nonempty 0/1 sequence")
        for name in ("input_len", "output_len"):
            object.__setattr__(self, name, check_int(getattr(self, name), name, 0))
        if self.kept_indices.size != self.output_len:
            raise ValueError(
                f"mask keeps {self.kept_indices.size} of {self.input_len} bits, "
                f"expected {self.output_len}"
            )

    @cached_property
    def kept_indices(self) -> np.ndarray:
        """Read-only positions of the kept input bits, in increasing order."""
        mask = np.resize(np.asarray(self.keep, dtype=bool), self.input_len)
        return frozen(np.flatnonzero(mask))


# Mother-code puncturing realizing the 2/3 coding scheme, then the three
# scheme-rate masks; all evenly spread and period-aligned to the streams.
PUNCTURE_CS23 = PuncturePattern((1, 1, 1, 0), 456, 342)
PUNCTURE_P12 = PuncturePattern((1, 0), 456, 228)
PUNCTURE_P13 = PuncturePattern((1, 1, 0), 342, 228)
PUNCTURE_P23 = PuncturePattern((1, 0, 0), 684, 228)


def puncture_batch(pattern: PuncturePattern, bits: np.ndarray) -> np.ndarray:
    """(frames, input_len) -> (frames, output_len): the kept bits in order, C-ordered."""
    bits = rows(bits, pattern.input_len, "the pattern punctures")
    return np.take(bits, pattern.kept_indices, axis=1)


def depuncture_batch(pattern: PuncturePattern, softs: np.ndarray) -> np.ndarray:
    """(frames, output_len) -> (frames, input_len), deleted bits as erasures (0.0)."""
    softs = real_float64(rows(softs, pattern.output_len, "the pattern depunctures"))
    out = np.zeros((softs.shape[0], pattern.input_len), dtype=np.float64)
    out[:, pattern.kept_indices] = softs
    return out
