"""Signaling codecs: IMSI handling, the channel assignment message with the
sub-allocation spare bit, and the tailored 90-bit data-link frame.

Octet images serialize MSB-first into bit blocks so they compose directly
with the "LEN:HEX" notation used everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import SubAllocation, bit_block, check_collection, check_int, check_type

IMSI_DIGITS = 15
MCC_DIGITS = 2
MSIN_MIN_DIGITS = 9
MSIN_MAX_DIGITS = 10

ASSIGNMENT_MESSAGE_TYPE = 0x3F
ASSIGNMENT_BITS = 32

LAPDM_INFO_OCTETS = 8
LAPDM_FILL_OCTET = 0x2B
LAPDM_FRAME_BITS = 90  # 11 octets + 2 filler bits


@dataclass(frozen=True)
class Imsi:
    digits: str
    mcc: str
    mnc: str
    msin: str


def parse_imsi(digits: str, mnc_len: int) -> Imsi:
    """Split a 15-digit subscriber identity into its components.

    The country code is fixed at two digits and the subscriber part must
    be 9 or 10 digits, so a 15-digit identity only splits cleanly with a
    3-digit network code; a 2-digit one would leave an 11-digit MSIN.
    """
    check_type(digits, str, "digits")  # bytes would give bytes fields that match no code
    mnc_len = check_int(mnc_len, "mnc_len", 2, 4)
    if len(digits) != IMSI_DIGITS or not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"IMSI must be exactly {IMSI_DIGITS} decimal digits")
    msin = digits[MCC_DIGITS + mnc_len :]
    if not MSIN_MIN_DIGITS <= len(msin) <= MSIN_MAX_DIGITS:
        raise ValueError(
            f"MSIN would be {len(msin)} digits, allowed range is "
            f"{MSIN_MIN_DIGITS}-{MSIN_MAX_DIGITS}"
        )
    return Imsi(
        digits=digits,
        mcc=digits[:MCC_DIGITS],
        mnc=digits[MCC_DIGITS : MCC_DIGITS + mnc_len],
        msin=msin,
    )


def is_halfrate_capable(imsi: Imsi, m2m_mncs) -> bool:
    """Classify a terminal by network code membership; ``m2m_mncs`` is a collection of codes."""
    check_type(imsi, Imsi, "imsi")
    codes = set(check_collection(m2m_mncs, "m2m_mncs"))  # not "901", the digits {"9", "0", "1"}
    for code in codes:
        check_type(code, str, "each network code in m2m_mncs")  # 170 would never match "170"
    return imsi.mnc in codes


@dataclass(frozen=True)
class ChannelAssignment:
    """Non-hopping channel assignment carrying the burst sub-allocation."""

    channel_type: int  # 5-bit channel type and sub-channel field
    timeslot: int
    training_seq: int
    arfcn: int
    suballoc: SubAllocation

    def __post_init__(self):
        # A TypeError here, not in the encoder's shifts, for a float.
        check_int(self.channel_type, "channel_type", 0, 32)  # a 5-bit field
        check_int(self.timeslot, "timeslot", 0, 8)
        check_int(self.training_seq, "training_seq", 0, 8)
        check_int(self.arfcn, "arfcn", 0, 1024)
        check_type(self.suballoc, SubAllocation, "suballoc")


def _octets_to_bits(octets: bytes) -> np.ndarray:
    return np.unpackbits(np.frombuffer(octets, dtype=np.uint8))


def _bits_to_octets(bits: np.ndarray) -> bytes:
    return bytes(np.packbits(bits))


def encode_immediate_assignment(a: ChannelAssignment) -> np.ndarray:
    """Deterministic 32-bit octet image of the assignment message.

    Octet layout: message type, then the three channel-description octets.
    The description's third octet carries the training sequence in bits
    8..6, H=0 in bit 5, the sub-allocation in spare bit 4 (0 selects EVEN,
    1 selects ODD), a zero spare in bit 3 and the two high ARFCN bits in
    bits 2..1.
    """
    check_type(a, ChannelAssignment, "a")
    suballoc_bit = 0 if a.suballoc is SubAllocation.EVEN else 1
    octet3 = (
        (a.training_seq << 5)
        | (0 << 4)  # H = 0: no hopping
        | (suballoc_bit << 3)
        | (0 << 2)
        | ((a.arfcn >> 8) & 0b11)
    )
    octets = bytes(
        [
            ASSIGNMENT_MESSAGE_TYPE,
            (a.channel_type << 3) | a.timeslot,
            octet3,
            a.arfcn & 0xFF,
        ]
    )
    return _octets_to_bits(octets)


def decode_immediate_assignment(block) -> ChannelAssignment:
    """Exact inverse of :func:`encode_immediate_assignment`."""
    bits = bit_block(block, ASSIGNMENT_BITS)
    octets = _bits_to_octets(bits)
    if octets[0] != ASSIGNMENT_MESSAGE_TYPE:
        raise ValueError(
            f"not an assignment image: message type 0x{octets[0]:02X}"
        )
    octet3 = octets[2]
    if (octet3 >> 4) & 1:
        raise ValueError("hopping assignments (H=1) are not supported")
    if (octet3 >> 2) & 1:
        raise ValueError("reserved spare bit 3 must be zero")
    return ChannelAssignment(
        channel_type=octets[1] >> 3,
        timeslot=octets[1] & 0b111,
        training_seq=octet3 >> 5,
        arfcn=((octet3 & 0b11) << 8) | octets[3],
        suballoc=SubAllocation.ODD if (octet3 >> 3) & 1 else SubAllocation.EVEN,
    )


def encode_lapdm_tailored(payload: bytes, address: int, control: int) -> np.ndarray:
    """Pack up to 8 payload octets into the tailored 90-bit frame.

    Layout: address, control, length indicator, 8 info octets (unused ones
    filled with 0x2B), then two zero filler bits.  ``payload`` is ``bytes`` or
    ``bytearray`` and ``address`` and ``control`` are octets, integers in [0, 256).
    """
    check_type(payload, (bytes, bytearray), "payload")
    if len(payload) > LAPDM_INFO_OCTETS:
        raise ValueError(f"payload is limited to {LAPDM_INFO_OCTETS} octets")
    address, control = check_int(address, "address", 0, 256), check_int(control, "control", 0, 256)
    info = payload + bytes([LAPDM_FILL_OCTET]) * (LAPDM_INFO_OCTETS - len(payload))
    octets = bytes([address, control, len(payload)]) + info
    return np.concatenate([_octets_to_bits(octets), np.zeros(2, dtype=np.uint8)])


def decode_lapdm_tailored(block) -> tuple[bytes, int, int]:
    """Inverse of :func:`encode_lapdm_tailored`: (payload, address, control)."""
    octets = _bits_to_octets(bit_block(block, LAPDM_FRAME_BITS))  # the filler bits zero-padded
    if octets[-1]:
        raise ValueError("filler bits must be zero")
    address, control, length = octets[0], octets[1], octets[2]
    if length > LAPDM_INFO_OCTETS:
        raise ValueError(f"length indicator {length} exceeds {LAPDM_INFO_OCTETS}")
    info = octets[3:-1]
    if info[length:] != bytes([LAPDM_FILL_OCTET]) * (LAPDM_INFO_OCTETS - length):
        raise ValueError("unused info octets must carry the 0x2B fill pattern")
    return bytes(info[:length]), address, control
