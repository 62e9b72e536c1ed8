import re

import numpy as np
import pytest

from hrcc.bits import SubAllocation
from hrcc.messages import (
    ChannelAssignment,
    decode_immediate_assignment,
    decode_lapdm_tailored,
    encode_immediate_assignment,
    encode_lapdm_tailored,
    is_halfrate_capable,
    parse_imsi,
)
from hrcc.multiframe import (
    ChannelConfig,
    ChannelKind,
    FrameMode,
    LogicalChannelId,
    MultiframeConfig,
    bursts_for,
)

# Bit index of the sub-allocation spare bit: octet 3 of the channel
# description (block octet index 2), bit 4 in MSB-is-bit-8 numbering.
SUBALLOC_BIT = 2 * 8 + 4


# --- IMSI ------------------------------------------------------------------


def test_parse_imsi_with_three_digit_mnc():
    imsi = parse_imsi("262011234567890", mnc_len=3)
    assert (imsi.mcc, imsi.mnc, imsi.msin) == ("26", "201", "1234567890")
    assert imsi.digits == "262011234567890"


def test_parse_imsi_two_digit_mnc_leaves_oversized_msin():
    # 15 digits minus 2 MCC minus 2 MNC would leave an 11-digit MSIN
    with pytest.raises(ValueError):
        parse_imsi("262011234567890", mnc_len=2)


def test_parse_imsi_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_imsi("26201123456789", mnc_len=3)  # 14 digits
    with pytest.raises(ValueError):
        parse_imsi("2620112345678901", mnc_len=3)  # 16 digits
    with pytest.raises(ValueError):
        parse_imsi("26201123456789x", mnc_len=3)
    # str.isdigit accepts superscripts and other scripts' digits.
    for digits in ("\u00b2" * 15, "262" + "\u0661" * 12, "262011234567\uff1890"):
        with pytest.raises(ValueError, match="decimal digits"):
            parse_imsi(digits, mnc_len=3)
    with pytest.raises(ValueError):
        parse_imsi("262011234567890", mnc_len=4)


def test_classification_by_mnc_membership():
    imsi = parse_imsi("262011234567890", mnc_len=3)
    assert is_halfrate_capable(imsi, {"201"})
    assert not is_halfrate_capable(imsi, set())
    assert not is_halfrate_capable(imsi, {"202", "999"})
    # One code as a string is not a collection of codes: set("901") holds its digits.
    imsi = parse_imsi("269011234567890", 3)
    assert is_halfrate_capable(imsi, ["901"])
    with pytest.raises(TypeError, match="m2m_mncs must be a collection, not one str"):
        is_halfrate_capable(imsi, "901")
    # A number raised "'int' object is not iterable", which names no argument.
    with pytest.raises(TypeError, match="m2m_mncs must be a collection, not one int: 5"):
        is_halfrate_capable(imsi, 5)
    assert is_halfrate_capable(imsi, (code for code in ["902", "901"]))


def test_imsi_inputs_of_the_wrong_type_are_rejected():
    # Bytes digits gave bytes fields that matched no code; 170 never matched "170".
    with pytest.raises(TypeError, match="digits must be a str"):
        parse_imsi(b"901700000000001", 3)
    with pytest.raises(TypeError):
        parse_imsi("901700000000001", 3.0)
    with pytest.raises(TypeError):
        parse_imsi("901700000000001", 2.0)  # a slice TypeError before
    imsi = parse_imsi("901700000000001", np.int64(3))  # numpy integers still pass
    assert is_halfrate_capable(imsi, {"170"})
    for codes in ([170], {"170", 170}, (b"170",)):
        with pytest.raises(TypeError, match="each network code in m2m_mncs must be a str"):
            is_halfrate_capable(imsi, codes)


def test_classification_matches_membership_oracle():
    rng = np.random.default_rng(51)
    for _ in range(1000):
        digits = "".join(str(d) for d in rng.integers(0, 10, size=15))
        imsi = parse_imsi(digits, mnc_len=3)
        pool = {
            "".join(str(d) for d in rng.integers(0, 10, size=3))
            for _ in range(int(rng.integers(0, 4)))
        }
        assert is_halfrate_capable(imsi, pool) == (digits[2:5] in pool)


# --- Immediate Assignment --------------------------------------------------


def _random_assignment(rng):
    return ChannelAssignment(
        channel_type=int(rng.integers(0, 32)),
        timeslot=int(rng.integers(0, 8)),
        training_seq=int(rng.integers(0, 8)),
        arfcn=int(rng.integers(0, 1024)),
        suballoc=SubAllocation.EVEN if rng.integers(0, 2) == 0 else SubAllocation.ODD,
    )


def test_suballoc_spare_bit_values():
    base = dict(channel_type=1, timeslot=3, training_seq=5, arfcn=42)
    even = encode_immediate_assignment(ChannelAssignment(suballoc=SubAllocation.EVEN, **base))
    odd = encode_immediate_assignment(ChannelAssignment(suballoc=SubAllocation.ODD, **base))
    assert even[SUBALLOC_BIT] == 0
    assert odd[SUBALLOC_BIT] == 1


def test_flipping_only_the_spare_bit_changes_only_the_suballoc():
    rng = np.random.default_rng(52)
    for _ in range(50):
        a = _random_assignment(rng)
        block = encode_immediate_assignment(a)
        flipped = block.copy()
        flipped[SUBALLOC_BIT] ^= 1
        b = decode_immediate_assignment(flipped)
        assert b.suballoc is not a.suballoc
        assert (b.channel_type, b.timeslot, b.training_seq, b.arfcn) == (
            a.channel_type,
            a.timeslot,
            a.training_seq,
            a.arfcn,
        )


def test_assignment_roundtrip_fuzz():
    rng = np.random.default_rng(53)
    for _ in range(1000):
        a = _random_assignment(rng)
        block = encode_immediate_assignment(a)
        assert block.size == 32
        assert decode_immediate_assignment(block) == a


def test_assignment_field_validation():
    good = dict(channel_type=1, timeslot=3, training_seq=5, arfcn=42, suballoc=SubAllocation.EVEN)
    for field, bad in [
        ("channel_type", 32),
        ("timeslot", 8),
        ("training_seq", -1),
        ("arfcn", 1024),
    ]:
        with pytest.raises(ValueError):
            ChannelAssignment(**{**good, field: bad})
    for field in ("channel_type", "timeslot", "training_seq", "arfcn"):
        for bad in (1.5, 3.0, np.float64(1.0), "3"):
            with pytest.raises(TypeError):
                ChannelAssignment(**{**good, field: bad})
    # Only a SubAllocation: "even" and None would both encode as ODD.
    for bad in ("even", "odd", None, 0):
        with pytest.raises(TypeError, match="suballoc must be a SubAllocation"):
            ChannelAssignment(9, 3, 5, 600, bad)
    numpy_ints = dict(good, channel_type=np.int64(1), timeslot=np.uint8(3),
                      training_seq=np.int32(5), arfcn=np.uint16(42))
    assert np.array_equal(encode_immediate_assignment(ChannelAssignment(**numpy_ints)),
                          encode_immediate_assignment(ChannelAssignment(**good)))


def test_integer_fields_take_a_bool_as_its_integer():
    # Python's rule, kept on purpose: True and False are the integers 1 and 0.
    fields = dict(channel_type=1, training_seq=5, arfcn=42, suballoc=SubAllocation.EVEN)
    assert np.array_equal(encode_immediate_assignment(ChannelAssignment(timeslot=True, **fields)),
                          encode_immediate_assignment(ChannelAssignment(timeslot=1, **fields)))
    assert np.array_equal(encode_lapdm_tailored(b"hi", True, 3), encode_lapdm_tailored(b"hi", 1, 3))
    cfg = MultiframeConfig(ChannelConfig.SDCCH8, FrameMode.STANDARD)
    assert (bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, True))
            == bursts_for(cfg, LogicalChannelId(ChannelKind.SDCCH, 1)) != [])


def test_assignment_decode_errors():
    rng = np.random.default_rng(54)
    block = encode_immediate_assignment(_random_assignment(rng))
    hopping = block.copy()
    hopping[2 * 8 + 3] = 1  # H bit
    with pytest.raises(ValueError):
        decode_immediate_assignment(hopping)
    spare = block.copy()
    spare[2 * 8 + 5] = 1  # reserved spare bit 3
    with pytest.raises(ValueError):
        decode_immediate_assignment(spare)
    wrong_type = block.copy()
    wrong_type[0] ^= 1
    with pytest.raises(ValueError):
        decode_immediate_assignment(wrong_type)
    with pytest.raises(ValueError):
        decode_immediate_assignment(block[:-1])


# --- tailored data-link frame ----------------------------------------------


def test_lapdm_empty_payload_image():
    frame = encode_lapdm_tailored(b"", address=0x03, control=0x21)
    assert frame.size == 90  # 11 octets plus 2 filler bits
    octets = np.packbits(frame[:88])
    assert octets[0] == 0x03
    assert octets[1] == 0x21
    assert octets[2] == 0
    assert all(o == 0x2B for o in octets[3:])
    assert not frame[-2:].any()


def test_lapdm_full_payload_has_no_fill():
    payload = bytes(range(8))
    frame = encode_lapdm_tailored(payload, address=1, control=2)
    octets = bytes(np.packbits(frame[:88]))
    assert octets[2] == 8
    assert octets[3:] == payload


def test_lapdm_roundtrip_fuzz():
    rng = np.random.default_rng(55)
    for _ in range(1000):
        length = int(rng.integers(0, 9))
        payload = bytes(rng.integers(0, 256, size=length, dtype=np.uint8))
        address = int(rng.integers(0, 256))
        control = int(rng.integers(0, 256))
        frame = encode_lapdm_tailored(payload, address, control)
        assert decode_lapdm_tailored(frame) == (payload, address, control)


def test_lapdm_feeds_the_reduced_chain_directly():
    from hrcc.schemes import SchemeId, encode_block

    frame = encode_lapdm_tailored(b"\x01\x02", address=3, control=4)
    assert encode_block(SchemeId.M2_REDUCED, frame).size == 228


def test_lapdm_errors():
    with pytest.raises(ValueError):
        encode_lapdm_tailored(b"123456789", address=0, control=0)
    with pytest.raises(ValueError):
        encode_lapdm_tailored(b"", address=256, control=0)
    frame = encode_lapdm_tailored(b"\xaa", address=1, control=2)
    bad_filler = frame.copy()
    bad_filler[-1] = 1
    with pytest.raises(ValueError):
        decode_lapdm_tailored(bad_filler)
    bad_fill_octet = frame.copy()
    bad_fill_octet[4 * 8] ^= 1  # first fill octet no longer 0x2B
    with pytest.raises(ValueError):
        decode_lapdm_tailored(bad_fill_octet)
    oversize = frame.copy()
    oversize[2 * 8 : 3 * 8] = [0, 0, 0, 0, 1, 0, 0, 1]  # length indicator 9
    with pytest.raises(ValueError):
        decode_lapdm_tailored(oversize)


@pytest.mark.parametrize("address, control, message", [
    (3.5, 0, "address must be an integer, got 3.5"),
    (1, "1", "control must be an integer, got '1'"),
    (np.float64(1.0), 0, "address must be an integer, got np.float64(1.0)"),
    (None, 0, "address must be an integer, got None"),
])
def test_lapdm_address_and_control_are_integers(address, control, message):
    # 3.5 and "1" raised TypeErrors from bytes() and from a comparison that named neither.
    with pytest.raises(TypeError, match=re.escape(message)):
        encode_lapdm_tailored(b"", address, control)
    with pytest.raises(ValueError, match=re.escape("control must lie in [0, 256), got 256")):
        encode_lapdm_tailored(b"", 1, 256)
    assert np.array_equal(encode_lapdm_tailored(b"", np.uint8(1), np.int64(3)),
                          encode_lapdm_tailored(b"", 1, 3))


def test_classification_and_assignment_encoding_take_only_their_types():
    # Each raised AttributeError: 'str' object has no attribute 'mnc' or 'suballoc'.
    with pytest.raises(TypeError, match="imsi must be an Imsi, got '001010123456789'"):
        is_halfrate_capable("001010123456789", ["010"])
    with pytest.raises(TypeError, match="a must be a ChannelAssignment, got 'x'"):
        encode_immediate_assignment("x")


@pytest.mark.parametrize("payload", ["hi", [104, 105], memoryview(b"hi"), None])
def test_lapdm_payload_must_be_bytes_or_bytearray(payload):
    with pytest.raises(TypeError, match="payload must be a bytes or a bytearray"):
        encode_lapdm_tailored(payload, 1, 3)
    assert np.array_equal(encode_lapdm_tailored(bytearray(b"hi"), 1, 3),
                          encode_lapdm_tailored(b"hi", 1, 3))
