"""End-to-end control-information-block codecs.

Five chains share the same stage order: block parity, four tail bits,
convolutional encoding, then any scheme puncturing.  The standard chain
emits the classic 456-bit block; the four modified chains emit 228 bits,
either by puncturing the full 184-bit message or by coding a reduced
90-bit message at rate 1/2.  With the C backend a chain encodes in one
compiled call and decodes and checks in another (``kernels.ChainKernel``);
without it, the numpy stages, Viterbi kernel and ``BlockCode``'s check agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from . import coding, kernels
from .bits import check_type, one_row, rows, shown
from .coding import (
    CONV_RATE_12,
    CONV_RATE_13,
    FIRE_CODE,
    PARITY20_CODE,
    PUNCTURE_CS23,
    PUNCTURE_P12,
    PUNCTURE_P13,
    PUNCTURE_P23,
    TAIL_BITS,
)
from .interleaving import InterleaveMode


class SchemeId(Enum):
    """The five chains; values double as the CLI-stable names."""

    # Members are singletons that compare by identity, so they hash by it too: Enum's own
    # __hash__ hashes the name in Python, on every dict lookup keyed by a scheme.
    __hash__ = object.__hash__

    STANDARD_456 = "standard"
    M1_CS23_P13 = "m1-cs23-p13"
    M1_CS12_P12 = "m1-cs12-p12"
    M1_CS13_P23 = "m1-cs13-p23"
    M2_REDUCED = "m2-reduced"


def scheme_from_name(name: str) -> SchemeId:
    try:
        return SchemeId(name)
    except ValueError:
        known = ", ".join(s.value for s in SchemeId)
        raise ValueError(f"unknown scheme {shown(name)}; known schemes: {known}") from None


@dataclass(frozen=True, eq=False)
class _Chain:
    """Every stage of one chain; ``punctures`` are the paper's steps in order, from which
    ``source``, the one description of the coded block, is built."""

    code: coding.ConvCode
    punctures: tuple[coding.PuncturePattern, ...]
    block: coding.BlockCode
    # The mother code's width, or what the punctures leave of it.
    coded_bits: int = field(init=False)
    # The burst interleaver whose block is coded_bits long: STD4 or MOD2.
    interleave: InterleaveMode = field(init=False)
    # For each mother-code column, its column in the coded block or -1 where
    # a step deleted it, the identity when nothing is punctured: both
    # encoders write and both decoders read the block through this map.
    source: np.ndarray = field(init=False)
    # The compiled encoder and decoder, or None without the C backend: then
    # the numpy stages, the numpy Viterbi kernel and BlockCode's check run.
    kernel: kernels.ChainKernel | None = field(init=False)

    def __post_init__(self):
        mother = (self.block.k + self.block.r + TAIL_BITS) * self.code.n_out
        # The mother-code columns that each step in turn keeps, in order.
        kept, names = np.arange(mother), ("the first puncture", "the mother code")
        for n, step in enumerate(self.punctures, 1):
            if step.input_len != kept.size:
                raise ValueError(f"{names[0]} takes {step.input_len} bits, "
                                 f"but {names[1]} emits {kept.size}")
            kept, names = kept[step.kept_indices], (f"puncture {n + 1}", f"puncture {n}")
        mode = next(m for m in InterleaveMode if m.block_bits == kept.size)
        source = np.full(mother, -1, dtype=np.int32)
        source[kept] = np.arange(kept.size)
        source = kernels.frozen(source)
        kernel = (kernels.ChainKernel(self.block, self.code, source)
                  if kernels.BACKEND == "c" else None)
        object.__setattr__(self, "coded_bits", kept.size)
        object.__setattr__(self, "interleave", mode)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "kernel", kernel)


_CHAINS: dict[SchemeId, _Chain] = {
    SchemeId.STANDARD_456: _Chain(CONV_RATE_12, (), FIRE_CODE),
    SchemeId.M1_CS23_P13: _Chain(CONV_RATE_12, (PUNCTURE_CS23, PUNCTURE_P13), FIRE_CODE),
    SchemeId.M1_CS12_P12: _Chain(CONV_RATE_12, (PUNCTURE_P12,), FIRE_CODE),
    SchemeId.M1_CS13_P23: _Chain(CONV_RATE_13, (PUNCTURE_P23,), FIRE_CODE),
    SchemeId.M2_REDUCED: _Chain(CONV_RATE_12, (), PARITY20_CODE),
}


# Each scheme's shape-error prefixes, made once: Enum.value costs a property call.
_ENCODES = {scheme: f"{scheme.value} encodes" for scheme in SchemeId}
_DECODES = {scheme: f"{scheme.value} decodes" for scheme in SchemeId}


def _chain(scheme: SchemeId) -> _Chain:
    """The scheme's chain; TypeError for anything but a ``SchemeId``, its name included."""
    return _CHAINS[check_type(scheme, SchemeId, "scheme")]


def message_bits(scheme: SchemeId) -> int:
    return _chain(scheme).block.k


def coded_bits(scheme: SchemeId) -> int:
    return _chain(scheme).coded_bits


def interleave_mode(scheme: SchemeId) -> InterleaveMode:
    """The burst interleaver of the scheme's coded blocks."""
    return _chain(scheme).interleave


def info_rate(scheme: SchemeId) -> Fraction:
    """Information bits per transmitted coded bit, as an exact rational."""
    chain = _chain(scheme)
    return Fraction(chain.block.k, chain.coded_bits)


@dataclass(frozen=True)
class DecodeOutcome:
    """Decoded message plus the verdict of the scheme's block-parity check.

    The message is always the maximum-likelihood word, even when the check
    fails, so callers can account for undetected versus detected errors.
    """

    message: np.ndarray
    ok: bool


def encode_blocks(scheme: SchemeId, msgs: np.ndarray) -> np.ndarray:
    """Encode a (frames, message_bits) batch of 0/1 values to (frames, coded_bits)."""
    chain = _chain(scheme)
    return _encode(chain, rows(msgs, chain.block.k, _ENCODES[scheme]))


def decode_blocks(scheme: SchemeId, softs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (frames, coded_bits) soft batch in coded order to (messages, check_ok)."""
    chain = _chain(scheme)
    return _decode(chain, rows(softs, chain.coded_bits, _DECODES[scheme]))


def encode_block(scheme: SchemeId, msg) -> np.ndarray:
    """Encode one message, ``encode_blocks`` on it as one row: 456 bits (standard) or 228."""
    chain = _chain(scheme)
    return _encode(chain, one_row(msg, chain.block.k, _ENCODES[scheme]))[0]


def decode_block(scheme: SchemeId, soft) -> DecodeOutcome:
    """Decode one soft block in coded order, ``decode_blocks`` on it as one row."""
    chain = _chain(scheme)
    msgs, ok = _decode(chain, one_row(soft, chain.coded_bits, _DECODES[scheme]))
    return DecodeOutcome(msgs[0], bool(ok[0]))


def _encode(chain: _Chain, msgs: np.ndarray) -> np.ndarray:
    """``encode_blocks``' body, on checked rows; the compiled encoder checks each value it reads."""
    if chain.kernel is not None:
        return chain.kernel.encode(msgs)
    parity = chain.block.parity_batch(msgs)
    tail = np.zeros((msgs.shape[0], TAIL_BITS), dtype=np.uint8)
    out = coding.conv_encode_batch(chain.code, np.concatenate([msgs, parity, tail], axis=1))
    return np.compress(chain.source >= 0, out, axis=1)  # the map keeps columns in order


def _decode(chain: _Chain, softs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``decode_blocks``' body, on checked rows; the compiled decoder flags non-finite values."""
    if chain.kernel is not None:
        return kernels.viterbi_batch(softs, chain.code.branches, chain=chain.kernel)
    inputs = coding.viterbi_decode_batch(chain.code, softs, chain.source)[:, :-TAIL_BITS]
    return inputs[:, : chain.block.k], chain.block.check_batch(inputs)
