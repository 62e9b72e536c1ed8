"""End-to-end control-information-block codecs.

Five chains share the same stage order: block parity, four tail bits,
convolutional encoding, then any scheme puncturing.  The standard chain
emits the classic 456-bit block; the four modified chains emit 228 bits,
either by puncturing the full 184-bit message or by coding a reduced
90-bit message at rate 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from . import coding
from .bits import as_bit_array, as_soft_array, rows
from .coding import (
    CONV_RATE_12,
    CONV_RATE_13,
    FIRE_MATRIX,
    PARITY20_MATRIX,
    PUNCTURE_CS23,
    PUNCTURE_P12,
    PUNCTURE_P13,
    PUNCTURE_P23,
    TAIL_BITS,
)
from .interleaving import InterleaveMode, destinations


class SchemeId(Enum):
    """The five chains; values double as the CLI-stable names."""

    STANDARD_456 = "standard"
    M1_CS23_P13 = "m1-cs23-p13"
    M1_CS12_P12 = "m1-cs12-p12"
    M1_CS13_P23 = "m1-cs13-p23"
    M2_REDUCED = "m2-reduced"

    @property
    def cli_name(self) -> str:
        return self.value


def scheme_from_name(name: str) -> SchemeId:
    try:
        return SchemeId(name)
    except ValueError:
        known = ", ".join(s.value for s in SchemeId)
        raise ValueError(f"unknown scheme {name!r}; known schemes: {known}") from None


@dataclass(frozen=True, eq=False)
class _Chain:
    """Every stage of one chain; ``punctures`` are the paper's steps in order."""

    code: coding.ConvCode
    punctures: tuple[coding.PuncturePattern, ...]
    parity: np.ndarray  # (message_bits, parity_bits) block-code generator matrix
    message_bits: int = field(init=False)
    # The mother code's width, or what the punctures leave of it.
    coded_bits: int = field(init=False)
    # The burst interleaver whose block is coded_bits long: STD4 or MOD2.
    interleave: InterleaveMode = field(init=False)
    # The steps composed into one pattern; None when nothing is punctured.
    puncture: coding.PuncturePattern | None = field(init=False)
    # For each mother-code column, its column in the coded block or -1 where
    # puncturing deleted it: the decoder reads the block through this map.
    # None when nothing is punctured: the decoder reads the columns in order.
    source: np.ndarray | None = field(init=False)
    # The same for the burst-order stream: each mother-code column's column
    # in the interleaved block, or -1.  Decoding through it deinterleaves.
    stream: np.ndarray = field(init=False)

    def __post_init__(self):
        message_bits, parity_bits = self.parity.shape
        mother = (message_bits + parity_bits + TAIL_BITS) * self.code.n_out
        if self.punctures and self.punctures[0].input_len != mother:
            raise ValueError(
                f"the first puncture takes {self.punctures[0].input_len} bits, "
                f"but the mother code emits {mother}"
            )
        composed = coding.compose_punctures(self.punctures) if self.punctures else None
        coded_bits = mother if composed is None else composed.output_len
        mode = next(m for m in InterleaveMode if m.block_bits == coded_bits)
        kept = slice(None) if composed is None else composed.kept_indices
        source = None
        if composed is not None:
            source = np.full(mother, -1, dtype=np.int32)
            source[kept] = np.arange(coded_bits)
            source.flags.writeable = False
        stream = np.full(mother, -1, dtype=np.int32)
        stream[kept] = destinations(mode)
        stream.flags.writeable = False
        object.__setattr__(self, "message_bits", message_bits)
        object.__setattr__(self, "coded_bits", coded_bits)
        object.__setattr__(self, "interleave", mode)
        object.__setattr__(self, "puncture", composed)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "stream", stream)


_CHAINS: dict[SchemeId, _Chain] = {
    SchemeId.STANDARD_456: _Chain(CONV_RATE_12, (), FIRE_MATRIX),
    SchemeId.M1_CS23_P13: _Chain(CONV_RATE_12, (PUNCTURE_CS23, PUNCTURE_P13), FIRE_MATRIX),
    SchemeId.M1_CS12_P12: _Chain(CONV_RATE_12, (PUNCTURE_P12,), FIRE_MATRIX),
    SchemeId.M1_CS13_P23: _Chain(CONV_RATE_13, (PUNCTURE_P23,), FIRE_MATRIX),
    SchemeId.M2_REDUCED: _Chain(CONV_RATE_12, (), PARITY20_MATRIX),
}


def message_bits(scheme: SchemeId) -> int:
    return _CHAINS[scheme].message_bits


def coded_bits(scheme: SchemeId) -> int:
    return _CHAINS[scheme].coded_bits


def interleave_mode(scheme: SchemeId) -> InterleaveMode:
    """The burst interleaver of the scheme's coded blocks."""
    return _CHAINS[scheme].interleave


def info_rate(scheme: SchemeId) -> Fraction:
    """Information bits per transmitted coded bit, as an exact rational."""
    chain = _CHAINS[scheme]
    return Fraction(chain.message_bits, chain.coded_bits)


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
    chain = _CHAINS[scheme]
    msgs = rows(msgs, chain.message_bits, f"{scheme.cli_name} encodes")
    parity = coding._parity_batch(msgs, chain.parity)
    tail = np.zeros((msgs.shape[0], TAIL_BITS), dtype=np.uint8)
    tailed = np.concatenate([msgs, parity, tail], axis=1)
    # The encoder rejects a block that is not all 0 and 1, so the messages
    # are checked once, with their parity and tail.
    out = coding.conv_encode_batch(chain.code, tailed)
    if chain.puncture is not None:
        out = coding.puncture_batch(chain.puncture, out)
    return out


def decode_blocks(
    scheme: SchemeId, softs: np.ndarray, *, interleaved: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (frames, coded_bits) soft batch to (messages, check_ok).

    With ``interleaved`` the rows are in burst order, as the channel
    delivered them, and are deinterleaved as the decoder reads them.
    """
    chain = _CHAINS[scheme]
    softs = rows(softs, chain.coded_bits, f"{scheme.cli_name} decodes")
    source = chain.stream if interleaved else chain.source
    decoded = coding.viterbi_decode_batch(chain.code, softs, source)
    inputs = decoded[:, :-TAIL_BITS]
    msgs = inputs[:, : chain.message_bits]
    received_parity = inputs[:, chain.message_bits :]
    ok = (coding._parity_batch(msgs, chain.parity) == received_parity).all(axis=1)
    return msgs, ok


def encode_block(scheme: SchemeId, msg) -> np.ndarray:
    """Encode one message; output is 456 bits (standard) or 228 (modified)."""
    msg = as_bit_array(msg, _CHAINS[scheme].message_bits)
    return encode_blocks(scheme, msg[np.newaxis, :])[0]


def decode_block(scheme: SchemeId, soft) -> DecodeOutcome:
    """Decode one soft block, reversing the scheme's stage composition."""
    soft = as_soft_array(soft, _CHAINS[scheme].coded_bits)
    msgs, ok = decode_blocks(scheme, soft[np.newaxis, :])
    return DecodeOutcome(message=msgs[0], ok=bool(ok[0]))
