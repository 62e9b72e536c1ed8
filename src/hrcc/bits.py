"""Bit-level primitives shared by every coding stage.

Hard bits travel as one-dimensional numpy uint8 arrays of 0/1 values in
transmission order (index 0 is transmitted first).  Soft values are
float64 arrays with the convention positive == bit 0 more likely and
0.0 == erasure; :func:`antipodal` is the one map from bits to soft values.
All helpers return fresh arrays; nothing here mutates its inputs, so
values can be shared freely between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

BURST_PAYLOAD_BITS = 114

# The soft value of each bit value: +1 for 0, -1 for 1.
_ANTIPODAL = np.array([1.0, -1.0])
_ANTIPODAL.flags.writeable = False


class HexFormatError(ValueError):
    """Raised when a "LEN:HEX" string cannot be parsed back into bits."""


def binary_uint8(arr: np.ndarray) -> np.ndarray:
    """``arr`` as uint8, itself if it already is; ValueError unless all 0/1.

    A uint8 input costs one pass (its maximum); any other dtype is cast and
    compared with the original, which catches 2, -1, 0.5 and 256 alike.
    """
    out = arr.astype(np.uint8, copy=False)
    if out.size and (int(out.max()) > 1 or (out is not arr and not np.array_equal(out, arr))):
        raise ValueError("bit block may only contain 0 and 1")
    return out


def rows(values, width: int | None, what: str, dtype=None) -> np.ndarray:
    """``values`` as one row per frame, ``width`` (None: any) values each; else ValueError."""
    arr = np.asarray(values, dtype)
    if arr.ndim != 2 or (width is not None and arr.shape[1] != width):
        size = "any number of" if width is None else width
        raise ValueError(f"{what} rows of {size} values, one row per frame; got shape {arr.shape}")
    return arr


def antipodal(bits) -> np.ndarray:
    """uint8 0/1 bits as noiseless soft values: +1.0 for bit 0, -1.0 for bit 1."""
    return _ANTIPODAL[bits]


def as_bit_array(bits, length: int | None = None) -> np.ndarray:
    """Validate a 0/1 sequence and return it as a fresh uint8 array."""
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ValueError(f"bit block must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("bit block must not be empty")
    out = binary_uint8(arr)
    if length is not None and out.size != length:
        raise ValueError(f"expected a {length}-bit block, got {out.size} bits")
    return out.copy() if out is arr else out


def as_soft_array(values, length: int | None = None) -> np.ndarray:
    """Validate a soft-value sequence and return it as a fresh float64 array."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"soft block must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("soft block must not be empty")
    if not np.isfinite(arr).all():
        raise ValueError("soft values must be finite")
    if length is not None and arr.size != length:
        raise ValueError(f"expected a {length}-value soft block, got {arr.size}")
    return arr.copy()


def to_hex(bits) -> str:
    """Serialize bits as "LEN:HEX", MSB-first, zero-padded to whole octets.

    The explicit bit count distinguishes contents whose length is not a
    multiple of 8 (90-bit frames, 114-bit bursts, ...) from their padded
    octet image.
    """
    arr = as_bit_array(bits)
    return f"{arr.size}:{bytes(np.packbits(arr)).hex().upper()}"


def from_hex(text: str) -> np.ndarray:
    """Parse a "LEN:HEX" string produced by :func:`to_hex`.

    LEN is ASCII decimal digits and HEX two ASCII hex digits per octet, in
    either case; only whitespace around the whole string is ignored.
    """
    head, sep, body = text.strip().partition(":")
    if not sep:
        raise HexFormatError("missing ':' between bit count and hex payload")
    try:
        nbits = int(head, 10)
    except ValueError:
        raise HexFormatError(f"bad bit count {head!r}") from None
    # int() also takes a sign, underscores, spaces and non-ASCII digits.
    if nbits <= 0 or not (head.isascii() and head.isdigit()):
        raise HexFormatError(f"bit count must be a positive decimal number, got {head!r}")
    try:
        data = bytes.fromhex(body)
    except ValueError:
        raise HexFormatError(f"bad hex payload {body!r}") from None
    if not body.isalnum():  # bytes.fromhex also skips spaces between octets
        raise HexFormatError(f"bad hex payload {body!r}")
    if len(data) != (nbits + 7) // 8:
        raise HexFormatError(
            f"{nbits} bits need {(nbits + 7) // 8} octets, got {len(data)}"
        )
    raw = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if raw[nbits:].any():
        raise HexFormatError("padding bits past the declared length must be zero")
    return raw[:nbits].copy()


class SubAllocation(Enum):
    """Which half of a four-burst control frame a half-rate user owns."""

    EVEN = "even"  # bursts 0 and 2
    ODD = "odd"  # bursts 1 and 3

    @property
    def burst_positions(self) -> tuple[int, int]:
        return (0, 2) if self is SubAllocation.EVEN else (1, 3)


@dataclass(frozen=True)
class Burst:
    """Normal-burst payload: 114 coded bits plus the two stealing flags."""

    payload: np.ndarray
    hl: int = 1
    hu: int = 1

    def __post_init__(self):
        payload = as_bit_array(self.payload, BURST_PAYLOAD_BITS)
        payload.flags.writeable = False
        object.__setattr__(self, "payload", payload)
        if self.hl not in (0, 1) or self.hu not in (0, 1):
            raise ValueError("stealing flags must be 0 or 1")

    def __eq__(self, other):
        if not isinstance(other, Burst):
            return NotImplemented
        return (
            self.hl == other.hl
            and self.hu == other.hu
            and np.array_equal(self.payload, other.payload)
        )
