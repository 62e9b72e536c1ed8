"""Bit-level primitives shared by every coding stage.

Hard bits travel as one-dimensional numpy uint8 arrays of 0/1 values in
transmission order (index 0 is transmitted first).  Soft values are
float64 arrays with the convention positive == bit 0 more likely and
0.0 == erasure; :func:`antipodal` is the one map from bits to soft values.
The argument checks (:func:`check_type`, :func:`check_int`, :func:`check_collection`) name the
argument and show its value by :func:`shown`.  The array rules are stated here, once each:
:func:`rows` for the shape of a batch, :func:`one_row` for one block's, :func:`binary_uint8` for
bits, :func:`real_float64` for what a soft value is and how it becomes float64, and
:func:`finite` for soft values.  A public function applies each once, at its boundary, and hands
what it returns to bodies that do not check again.  Nothing here mutates its inputs.
"""

from __future__ import annotations

import operator
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

BURST_PAYLOAD_BITS = 114
NOT_BINARY = "bit block may only contain 0 and 1"  # the compiled kernels' status code too

# The instances, which numpy takes faster than the types.
_FLOAT64, _UINT8 = np.dtype(np.float64), np.dtype(np.uint8)

# The soft value of each bit value: +1 for 0, -1 for 1.
_ANTIPODAL = np.array([1.0, -1.0])
_ANTIPODAL.flags.writeable = False


class HexFormatError(ValueError):
    """Raised when a "LEN:HEX" string cannot be parsed back into bits."""


def shown(value) -> str:
    """``repr(value)`` for an argument's message, or, where Python's limit on the digits of an
    int's text refuses it (an int of more digits, or a value holding one), its type and that limit,
    so that the message still names the argument."""
    try:
        return repr(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        return f"<{type(value).__name__} beyond the {limit}-digit limit of int to str>"


def check_type(value, kinds, name: str):
    """``value`` if it is an instance of ``kinds``, a type or a tuple of types; else a
    TypeError that names ``name`` and the types it accepts."""
    if isinstance(value, kinds):
        return value
    names = [kind.__name__ for kind in (kinds if isinstance(kinds, tuple) else (kinds,))]
    accepted = " or ".join("None" if n == "NoneType" else ("an " if n[0] in "AEIOUaeiou" else "a ")
                           + n for n in names)
    raise TypeError(f"{name} must be {accepted}, got {shown(value)}")


def check_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int (``operator.index``, so a ``bool`` is its integer) in [low, high),
    or at least ``low`` for ``high`` None; else a TypeError or ValueError that names ``name``."""
    try:
        number = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {shown(value)}") from None
    if number < low or (high is not None and number >= high):
        bound = (f"be at least {shown(low)}" if high is None
                 else f"lie in [{shown(low)}, {shown(high)})")
        raise ValueError(f"{name} must {bound}, got {shown(value)}")
    return number


def check_collection(value, name: str):
    """``value`` if it is iterable and not one ``str`` or ``bytes``, which iterates as its
    characters; else a TypeError that names ``name``."""
    if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
        raise TypeError(f"{name} must be a collection, not one {type(value).__name__}: "
                        f"{shown(value)}")
    return value


def binary_uint8(arr: np.ndarray) -> np.ndarray:
    """``arr`` as uint8, itself if it already is; ValueError unless all 0/1.

    A uint8 input costs one pass (its maximum, or below 2048 values its bytes less the 0s and
    1s); any other dtype is cast and compared with the original, which catches 2, -1, 0.5 and
    256 alike, and NaN and infinities without the warning that their cast raises.
    """
    if arr.dtype == _UINT8:
        if arr.tobytes().translate(None, b"\0\1") if arr.size < 2048 else int(arr.max()) > 1:
            raise ValueError(NOT_BINARY)
        return arr
    with np.errstate(invalid="ignore"):
        out = arr.astype(_UINT8)
    if out.size and (int(out.max()) > 1 or not np.array_equal(out, arr)):
        raise ValueError(NOT_BINARY)
    return out


def real_float64(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a C-ordered float64 array, itself if it already is one; TypeError naming its
    dtype unless it is bool, integer or float, so str, bytes, complex and objects (a
    ``Fraction``, None) are refused, not parsed, truncated or cast."""
    if arr.dtype.kind not in "biuf":
        raise TypeError(f"soft values must have a bool, integer or float dtype; got {arr.dtype}")
    return np.ascontiguousarray(arr, _FLOAT64)


def finite(values: np.ndarray) -> np.ndarray:
    """``values`` itself; ValueError unless every soft value is finite.

    One ``isfinite`` pass, then, below 2048 values, a search of its bytes for a 0, which costs
    less than the reduction that ``all`` runs at that size.
    """
    isfinite = np.isfinite(values)
    if b"\0" in isfinite.tobytes() if isfinite.size < 2048 else not isfinite.all():
        raise ValueError("soft values must be finite")
    return values


def _one_block(arr: np.ndarray, width: int | None, what: str) -> np.ndarray:
    """``arr`` if it is one non-empty 1-D block of ``width`` values (None: any); else ValueError."""
    if arr.ndim != 1 or not arr.size or (width is not None and arr.size != width):
        count = "one or more" if width is None else width
        raise ValueError(f"{what} one 1-D block of {count} values; got shape {arr.shape}")
    return arr


def one_row(block, width: int | None, what: str) -> np.ndarray:
    """One block of ``width`` values (None: any) as a batch of one row, for its batch twin's
    body; else ValueError naming the block's own shape."""
    return _one_block(np.asarray(block), width, what)[np.newaxis]


def rows(values, width: int | None, what: str) -> np.ndarray:
    """``values`` as one row per frame, ``width`` (None: any) values each; else ValueError."""
    arr = np.asarray(values)
    if arr.ndim != 2 or (width is not None and arr.shape[1] != width):
        size = "any number of" if width is None else width
        raise ValueError(f"{what} rows of {size} values, one row per frame; got shape {arr.shape}")
    return arr


def antipodal(bits) -> np.ndarray:
    """uint8 0/1 bits as noiseless soft values: +1.0 for bit 0, -1.0 for bit 1."""
    return _ANTIPODAL.take(bits)


def bit_block(bits, length: int | None = None) -> np.ndarray:
    """One block of 0/1 values, ``length`` of them (None: any), as uint8: itself if it is."""
    return binary_uint8(_one_block(np.asarray(bits), length, "expected"))


def as_soft_array(values, length: int | None = None) -> np.ndarray:
    """One block of finite soft values, ``length`` of them (None: any), as a fresh float64 array."""
    return finite(real_float64(_one_block(np.asarray(values), length, "expected")).copy())


def to_hex(bits) -> str:
    """Serialize bits as "LEN:HEX", MSB-first, zero-padded to whole octets.

    The explicit bit count distinguishes contents whose length is not a
    multiple of 8 (90-bit frames, 114-bit bursts, ...) from their padded
    octet image.
    """
    arr = bit_block(bits)
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


@dataclass(frozen=True, init=False)
class Burst:
    """Normal-burst payload: 114 coded bits plus the two stealing flags."""

    payload: np.ndarray
    hl: int = 1
    hu: int = 1

    def __init__(self, payload, hl: int = 1, hu: int = 1):
        # Each field is set once, where a frozen dataclass's own __init__ and a __post_init__
        # set the payload twice.  The payload is a copy over bytes, which nothing can write to:
        # cheaper than a copy made read-only.
        payload = np.frombuffer(bit_block(payload, BURST_PAYLOAD_BITS).tobytes(), _UINT8)
        check_int(hl, "hl", 0, 2)
        check_int(hu, "hu", 0, 2)
        object.__setattr__(self, "payload", payload)
        object.__setattr__(self, "hl", hl)
        object.__setattr__(self, "hu", hu)

    def __eq__(self, other):
        if not isinstance(other, Burst):
            return NotImplemented
        return (
            self.hl == other.hl
            and self.hu == other.hu
            and np.array_equal(self.payload, other.payload)
        )
