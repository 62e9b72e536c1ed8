"""End-to-end control-information-block codecs.

Five chains share the same stage order: block parity, four tail bits,
convolutional encoding, then any scheme puncturing.  The standard chain
emits the classic 456-bit block; the four modified chains emit 228 bits,
either by puncturing the full 184-bit message or by coding a reduced
90-bit message at rate 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import coding
from .bits import as_bit_array, as_soft_array
from .coding import (
    CONV_RATE_12,
    CONV_RATE_13,
    PUNCTURE_CS23,
    PUNCTURE_P12,
    PUNCTURE_P13,
    PUNCTURE_P23,
    TAIL_BITS,
)


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


@dataclass(frozen=True)
class _Chain:
    message_bits: int
    coded_bits: int
    code: coding.ConvCode
    punctures: tuple[coding.PuncturePattern, ...]
    parity_bits: int


_CHAINS: dict[SchemeId, _Chain] = {
    SchemeId.STANDARD_456: _Chain(184, 456, CONV_RATE_12, (), 40),
    SchemeId.M1_CS23_P13: _Chain(184, 228, CONV_RATE_12, (PUNCTURE_CS23, PUNCTURE_P13), 40),
    SchemeId.M1_CS12_P12: _Chain(184, 228, CONV_RATE_12, (PUNCTURE_P12,), 40),
    SchemeId.M1_CS13_P23: _Chain(184, 228, CONV_RATE_13, (PUNCTURE_P23,), 40),
    SchemeId.M2_REDUCED: _Chain(90, 228, CONV_RATE_12, (), 20),
}


def message_bits(scheme: SchemeId) -> int:
    return _CHAINS[scheme].message_bits


def coded_bits(scheme: SchemeId) -> int:
    return _CHAINS[scheme].coded_bits


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


def _block_parity_batch(scheme: SchemeId, msgs: np.ndarray) -> np.ndarray:
    if _CHAINS[scheme].parity_bits == 40:
        return coding._parity_batch(msgs, coding._FIRE_MATRIX)
    return coding._parity_batch(msgs, coding._PARITY20_MATRIX)


def encode_blocks(scheme: SchemeId, msgs: np.ndarray) -> np.ndarray:
    """Encode a (frames, message_bits) batch to (frames, coded_bits)."""
    chain = _CHAINS[scheme]
    if msgs.ndim != 2 or msgs.shape[1] != chain.message_bits:
        raise ValueError(
            f"{scheme.cli_name} takes {chain.message_bits}-bit messages, "
            f"got shape {msgs.shape}"
        )
    parity = _block_parity_batch(scheme, msgs)
    tail = np.zeros((msgs.shape[0], TAIL_BITS), dtype=np.uint8)
    tailed = np.concatenate([msgs, parity, tail], axis=1)
    out = coding.conv_encode_batch(chain.code, tailed)
    for pattern in chain.punctures:
        out = coding.puncture_batch(pattern, out)
    return out


def decode_blocks(scheme: SchemeId, softs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a (frames, coded_bits) soft batch to (messages, check_ok)."""
    chain = _CHAINS[scheme]
    if softs.ndim != 2 or softs.shape[1] != chain.coded_bits:
        raise ValueError(
            f"{scheme.cli_name} expects {chain.coded_bits} soft values, "
            f"got shape {softs.shape}"
        )
    arr = np.asarray(softs, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("soft values must be finite")
    for pattern in reversed(chain.punctures):
        arr = coding.depuncture_batch(pattern, arr)
    decoded = coding.viterbi_decode_batch(chain.code, arr)
    inputs = decoded[:, :-TAIL_BITS]
    msgs = inputs[:, : chain.message_bits]
    received_parity = inputs[:, chain.message_bits :]
    ok = (_block_parity_batch(scheme, msgs) == received_parity).all(axis=1)
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
