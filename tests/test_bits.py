import re

import numpy as np
import pytest

from hrcc import coding, interleaving, kernels, schemes
from hrcc.bits import (
    Burst,
    HexFormatError,
    SubAllocation,
    as_bit_array,
    as_soft_array,
    check_collection,
    check_int,
    check_type,
    from_hex,
    to_hex,
)
from hrcc.coding import CONV_RATE_12, PUNCTURE_P12, _sym_table, _tap_table
from hrcc.interleaving import InterleaveMode
from hrcc.schemes import SchemeId

from oracles import from_hex_ref, to_hex_ref


def test_to_hex_zero_block():
    assert to_hex(np.zeros(8, dtype=np.uint8)) == "8:00"


def test_to_hex_msb_first():
    assert to_hex([1, 0, 1, 1]) == "4:B0"


def test_from_hex_zero_block():
    assert np.array_equal(from_hex("8:00"), np.zeros(8, dtype=np.uint8))


def test_from_hex_rejects_nonzero_padding():
    with pytest.raises(HexFormatError):
        from_hex("4:B1")


@pytest.mark.parametrize(
    "bad",
    ["", "8", ":00", "x:00", "-4:00", "0:", "8:0", "8:zz", "8:0000", "16:00",
     "+8:FF", "1_6:FFFF", "\u0668:FF", "8 :FF", "8: FF", "16:FF FF", "16:FF\tFF",
     "008:FF", "08:FF", "00:"],
)
def test_from_hex_rejects_malformed(bad):
    with pytest.raises(HexFormatError):
        from_hex(bad)


def test_from_hex_accepts_lowercase_and_surrounding_whitespace():
    assert np.array_equal(from_hex(" 12:abc0\n"), [1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0])


@pytest.mark.parametrize("length", [90, 114, 184, 228, 456])
def test_hex_roundtrip_against_reference(length):
    rng = np.random.default_rng(length)
    for _ in range(50):
        bits = rng.integers(0, 2, size=length, dtype=np.uint8)
        text = to_hex(bits)
        assert text == to_hex_ref(bits.tolist())
        assert np.array_equal(from_hex(text), bits)
        assert from_hex_ref(text) == bits.tolist()


def test_as_bit_array_validation():
    with pytest.raises(ValueError):
        as_bit_array([0, 1, 2])
    with pytest.raises(ValueError):
        as_bit_array([0, -1])
    with pytest.raises(ValueError):
        as_bit_array([])
    with pytest.raises(ValueError):
        as_bit_array([[0, 1]])
    with pytest.raises(ValueError):
        as_bit_array([0, 1, 1], length=4)
    out = as_bit_array([0, 1, 1.0])
    assert out.dtype == np.uint8


def test_as_soft_array_validation():
    with pytest.raises(ValueError):
        as_soft_array([0.0, np.inf])
    with pytest.raises(ValueError):
        as_soft_array([np.nan])
    with pytest.raises(ValueError):
        as_soft_array([1.0, 2.0], length=3)
    assert as_soft_array([1.5, -2.0]).dtype == np.float64


def test_single_block_helpers_return_fresh_arrays():
    # Burst freezes the array as_bit_array returns; the caller's must stay writable.
    bits, soft = np.zeros(114, np.uint8), np.ones(114)
    assert not np.shares_memory(as_bit_array(bits), bits)
    assert not np.shares_memory(as_soft_array(soft), soft)
    Burst(bits)
    assert bits.flags.writeable


_TAPS, _SYMS = _tap_table(CONV_RATE_12.generators), _sym_table(CONV_RATE_12.generators)

# Every batch entry point and the row width it takes; None takes any width.
BATCH_ENTRY_POINTS = {
    "schemes.encode_blocks": (lambda a: schemes.encode_blocks(SchemeId.M2_REDUCED, a), 90),
    "schemes.decode_blocks": (lambda a: schemes.decode_blocks(SchemeId.M2_REDUCED, a), 228),
    "coding.FIRE_CODE.parity_batch": (coding.FIRE_CODE.parity_batch, 184),
    "coding.PARITY20_CODE.check_batch": (coding.PARITY20_CODE.check_batch, 110),
    "coding.conv_encode_batch": (lambda a: coding.conv_encode_batch(CONV_RATE_12, a), None),
    "coding.viterbi_decode_batch": (lambda a: coding.viterbi_decode_batch(CONV_RATE_12, a), None),
    "coding.puncture_batch": (lambda a: coding.puncture_batch(PUNCTURE_P12, a), 456),
    "coding.depuncture_batch": (lambda a: coding.depuncture_batch(PUNCTURE_P12, a), 228),
    "interleaving.interleave_batch": (
        lambda a: interleaving.interleave_batch(InterleaveMode.STD4, a), 456),
    "interleaving.deinterleave_batch": (
        lambda a: interleaving.deinterleave_batch(InterleaveMode.MOD2, a), 228),
    "kernels.conv_encode_batch_np": (lambda a: kernels.conv_encode_batch_np(a, _TAPS), None),
    "kernels.viterbi_batch_np": (lambda a: kernels.viterbi_batch_np(a, _SYMS), None),
    "kernels.viterbi_batch_c": (lambda a: kernels.viterbi_batch_c(a, _SYMS), None),
}


@pytest.mark.parametrize("name", BATCH_ENTRY_POINTS)
def test_batch_entry_points_take_one_row_per_frame(name):
    entry, width = BATCH_ENTRY_POINTS[name]
    if name == "kernels.viterbi_batch_c" and kernels.viterbi_batch_c is None:
        pytest.skip("no compiled kernel")
    row = width or 228
    shapes = [(row,), (2, 1, row)] + ([] if width is None else [(2, width + 1), (2, width - 2)])
    for shape in shapes:
        message = f"one row per frame; got shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=message):
            entry(np.zeros(shape))
    entry(np.zeros((2, row)))  # a well-formed batch passes


@pytest.mark.parametrize("bad", [[[2, 0, 0, 0, 0]], [[0.7, 1.2, 0, 0, 0]], [[-1, 0, 0, 0, 0]]])
@pytest.mark.parametrize("name", ["coding.conv_encode_batch", "kernels.conv_encode_batch_np",
                                  "coding.FIRE_CODE.parity_batch",
                                  "coding.PARITY20_CODE.check_batch", "schemes.encode_blocks"])
def test_encoders_take_only_0_and_1(name, bad):
    # Unchecked, the kernel encoded 2s as 2s and truncated 0.7 and 1.2 to bits.
    entry, width = BATCH_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="only contain 0 and 1"):
        entry(np.pad(bad, ((0, 0), (0, (width or 5) - 5))))


def test_burst_requires_114_bits():
    with pytest.raises(ValueError):
        Burst(payload=np.zeros(113, dtype=np.uint8))
    with pytest.raises(ValueError):
        Burst(payload=np.zeros(115, dtype=np.uint8))
    burst = Burst(payload=np.zeros(114, dtype=np.uint8))
    assert burst.hl == 1 and burst.hu == 1
    with pytest.raises(ValueError):
        Burst(payload=np.zeros(114, dtype=np.uint8), hl=2)


@pytest.mark.parametrize("flag", ["hl", "hu"])
@pytest.mark.parametrize("bad", [1.0, np.float64(0.0), "1", None])
def test_burst_stealing_flags_are_integers(flag, bad):
    # 1.0 constructed a burst with a float flag.
    with pytest.raises(TypeError, match=re.escape(f"{flag} must be an integer, got {bad!r}")):
        Burst(np.zeros(114, dtype=np.uint8), **{flag: bad})
    assert Burst(np.zeros(114, dtype=np.uint8), **{flag: np.uint8(0)}) == Burst(
        np.zeros(114, dtype=np.uint8), **{flag: 0})


# --- the input checks -------------------------------------------------------


@pytest.mark.parametrize("value", [True, False, np.int64(5), np.uint8(5), 5, 2**70])
def test_check_int_takes_any_integer_as_its_int(value):
    number = check_int(value, "field", 0)
    assert type(number) is int and number == value  # a bool is its integer


@pytest.mark.parametrize("value", [2.0, np.float64(2.0), "2", None, [2], np.array([2])])
def test_check_int_names_the_argument_of_a_non_integer(value):
    with pytest.raises(TypeError, match=re.escape(f"field must be an integer, got {value!r}")):
        check_int(value, "field", 0, 8)


@pytest.mark.parametrize("value, low, high, error", [
    (0, 0, 8, None), (7, 0, 8, None), (8, 0, 8, "field must lie in [0, 8), got 8"),
    (-1, 0, 8, "field must lie in [0, 8), got -1"), (3, 3, 4, None),
    (4, 3, 4, "field must lie in [3, 4), got 4"), (2**64, 0, None, None),
    (-1, 0, None, "field must be at least 0, got -1"),
])
def test_check_int_bounds_are_low_inclusive_high_exclusive_none_unbounded(value, low, high, error):
    if error is None:
        assert check_int(value, "field", low, high) == value
        return
    with pytest.raises(ValueError, match=re.escape(error)):
        check_int(value, "field", low, high)


@pytest.mark.parametrize("value, kinds, message", [
    ("std4", InterleaveMode, "mode must be an InterleaveMode, got 'std4'"),
    (3, (bytes, bytearray), "mode must be a bytes or a bytearray, got 3"),
    ("even", (type(None), SubAllocation), "mode must be None or a SubAllocation, got 'even'"),
])
def test_check_type_names_the_argument_and_what_it_accepts(value, kinds, message):
    with pytest.raises(TypeError, match=re.escape(message)):
        check_type(value, kinds, "mode")


def test_check_type_returns_its_value():
    assert check_type(InterleaveMode.STD4, InterleaveMode, "mode") is InterleaveMode.STD4
    assert check_type(None, (type(None), SubAllocation), "suballoc") is None
    assert check_type(True, int, "flag") is True  # a bool is an int


@pytest.mark.parametrize("value", ["901", b"901", ""])
def test_check_collection_refuses_one_string(value):
    kind = type(value).__name__
    with pytest.raises(TypeError, match=re.escape(f"codes must be a collection, not one {kind}")):
        check_collection(value, "codes")


@pytest.mark.parametrize("value", [["901"], ("901",), {"901"}, [], iter(["901"]), bytearray(b"9")])
def test_check_collection_returns_any_other_value(value):
    assert check_collection(value, "codes") is value


@pytest.mark.parametrize("value", [5, 2.5, None, np.float64(1.0)])
def test_check_collection_refuses_a_value_that_does_not_iterate(value):
    kind = type(value).__name__
    with pytest.raises(TypeError, match=re.escape(f"codes must be a collection, not one {kind}: ")):
        check_collection(value, "codes")


def test_check_collection_leaves_an_iterator_unread():
    codes = (code for code in ["901", "902"])
    assert list(check_collection(codes, "codes")) == ["901", "902"]


def test_burst_payload_immutable_and_equality():
    payload = np.zeros(114, dtype=np.uint8)
    burst = Burst(payload=payload)
    with pytest.raises(ValueError):
        burst.payload[0] = 1
    payload[0] = 1  # the burst keeps its own copy
    assert burst == Burst(payload=np.zeros(114, dtype=np.uint8))
    assert burst != Burst(payload=payload)


def test_suballocation_burst_positions():
    assert SubAllocation.EVEN.burst_positions == (0, 2)
    assert SubAllocation.ODD.burst_positions == (1, 3)
