"""Bit-level primitives shared by every coding stage.

Hard bits travel as one-dimensional numpy uint8 arrays of 0/1 values in
transmission order (index 0 is transmitted first).  Soft values are
float64 arrays with the convention positive == bit 0 more likely and
0.0 == erasure; :func:`antipodal` is the one map from bits to soft values.
The array rules are stated here, once each: :func:`rows` for the shape of a
batch or of one block (see :func:`one_row`), :func:`binary_uint8` for bits
and :func:`finite` for soft values.  Nothing here mutates its inputs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

BURST_PAYLOAD_BITS = 114
NOT_BINARY = "bit block may only contain 0 and 1"  # the compiled kernels' status code too

# The soft value of each bit value: +1 for 0, -1 for 1.
_ANTIPODAL = np.array([1.0, -1.0])
_ANTIPODAL.flags.writeable = False


class HexFormatError(ValueError):
    """Raised when a "LEN:HEX" string cannot be parsed back into bits."""


def check_type(value, kinds, name: str):
    """``value`` if it is an instance of ``kinds``, a type or a tuple of types; else a
    TypeError that names ``name`` and the types it accepts."""
    if isinstance(value, kinds):
        return value
    names = [kind.__name__ for kind in (kinds if isinstance(kinds, tuple) else (kinds,))]
    accepted = " or ".join("None" if n == "NoneType" else ("an " if n[0] in "AEIOUaeiou" else "a ")
                           + n for n in names)
    raise TypeError(f"{name} must be {accepted}, got {value!r}")


def check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int (``operator.index``, so a ``bool`` is its integer) in [low, high),
    or at least ``low`` for ``high`` None; else a TypeError or ValueError that names ``name``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if number < low or (high is not None and number >= high):
        bound = f"be at least {low}" if high is None else f"lie in [{low}, {high})"
        raise ValueError(f"{name} must {bound}, got {value!r}")
    return number


def check_collection(value, name: str):
    """``value`` if it is iterable and not one ``str`` or ``bytes``, which iterates as its
    characters; else a TypeError that names ``name``."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise TypeError(f"{name} must be a collection, not one {type(value).__name__}: {value!r}")
    return value


def binary_uint8(arr: np.ndarray) -> np.ndarray:
    """``arr`` as uint8, itself if it already is; ValueError unless all 0/1.

    A uint8 input costs one pass (its maximum); any other dtype is cast and
    compared with the original, which catches 2, -1, 0.5 and 256 alike.
    """
    out = arr.astype(np.uint8, copy=False)
    if out.size and (int(out.max()) > 1 or (out is not arr and not np.array_equal(out, arr))):
        raise ValueError(NOT_BINARY)
    return out


def finite(values: np.ndarray) -> np.ndarray:
    """``values`` itself; ValueError unless every soft value is finite."""
    if not np.isfinite(values).all():
        raise ValueError("soft values must be finite")
    return values


def _one_block(arr: np.ndarray, width: int | None, what: str) -> np.ndarray:
    """``arr`` if it is one non-empty 1-D block of ``width`` values (None: any); else ValueError."""
    if arr.ndim != 1 or not arr.size or (width is not None and arr.size != width):
        count = "one or more" if width is None else width
        raise ValueError(f"{what} one 1-D block of {count} values; got shape {arr.shape}")
    return arr


class _Block(np.ndarray):
    """A block that :func:`one_row` lifted, which :func:`rows` checks as the block."""


def one_row(block) -> np.ndarray:
    """``block`` as a batch of one row, which :func:`rows` checks as one 1-D block."""
    return np.asarray(block)[np.newaxis].view(_Block)


def rows(values, width: int | None, what: str) -> np.ndarray:
    """``values`` as one row per frame, ``width`` (None: any) values each; else ValueError."""
    arr = np.asarray(values)
    if type(values) is _Block:
        _one_block(arr[0], width, what)
    elif arr.ndim != 2 or (width is not None and arr.shape[1] != width):
        size = "any number of" if width is None else width
        raise ValueError(f"{what} rows of {size} values, one row per frame; got shape {arr.shape}")
    return arr


def antipodal(bits) -> np.ndarray:
    """uint8 0/1 bits as noiseless soft values: +1.0 for bit 0, -1.0 for bit 1."""
    return _ANTIPODAL[bits]


def as_bit_array(bits, length: int | None = None) -> np.ndarray:
    """One block of 0/1 values, ``length`` of them (None: any), as a fresh uint8 array."""
    return binary_uint8(_one_block(np.asarray(bits), length, "expected")).copy()


def as_soft_array(values, length: int | None = None) -> np.ndarray:
    """One block of finite soft values, ``length`` of them (None: any), as a fresh float64 array."""
    return finite(_one_block(np.array(values, np.float64), length, "expected"))


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

    LEN is ASCII decimal digits without leading zeros and HEX two ASCII hex
    digits per octet, in either case; only whitespace around the whole
    string is ignored.
    """
    head, sep, body = text.strip().partition(":")
    if not sep:
        raise HexFormatError("missing ':' between bit count and hex payload")
    try:
        nbits = int(head, 10)
    except ValueError:
        raise HexFormatError(f"bad bit count {head!r}") from None
    # int() also takes a sign, underscores, spaces, non-ASCII digits and
    # leading zeros; only the form to_hex writes is canonical.
    if nbits <= 0 or head != str(nbits):
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
        check_int(self.hl, "hl", 0, 2)
        check_int(self.hu, "hu", 0, 2)

    def __eq__(self, other):
        if not isinstance(other, Burst):
            return NotImplemented
        return (
            self.hl == other.hl
            and self.hu == other.hu
            and np.array_equal(self.payload, other.payload)
        )
