import re
from fractions import Fraction

import numpy as np
import pytest

from hrcc import bits, coding, interleaving, kernels, schemes, simulation
from hrcc.bits import (
    Burst,
    HexFormatError,
    SubAllocation,
    as_soft_array,
    bit_block,
    check_collection,
    check_int,
    check_type,
    from_hex,
    shown,
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


def test_bit_block_validation():
    with pytest.raises(ValueError):
        bit_block([0, 1, 2])
    with pytest.raises(ValueError):
        bit_block([0, -1])
    with pytest.raises(ValueError):
        bit_block([])
    with pytest.raises(ValueError):
        bit_block([[0, 1]])
    with pytest.raises(ValueError):
        bit_block([0, 1, 1], length=4)
    out = bit_block([0, 1, 1.0])
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
    # Burst keeps a read-only copy of its payload; the caller's must stay writable.
    bits, soft = np.zeros(114, np.uint8), np.ones(114)
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
                                  "coding.PARITY20_CODE.check_batch", "schemes.encode_blocks",
                                  "interleaving.interleave_batch"])
def test_encoders_take_only_0_and_1(name, bad):
    # Unchecked, the kernel encoded 2s as 2s and truncated 0.7 and 1.2 to bits.
    entry, width = BATCH_ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="only contain 0 and 1"):
        entry(np.pad(bad, ((0, 0), (0, (width or 5) - 5))))


_M2_KERNEL = schemes._CHAINS[SchemeId.M2_REDUCED].kernel  # None without the C backend

# Every soft entry point, as a function of one array, and the shape of soft values it takes.
SOFT_ENTRY_POINTS = {
    "schemes.decode_blocks": (lambda a: schemes.decode_blocks(SchemeId.M2_REDUCED, a), (2, 228)),
    "schemes.decode_block": (lambda a: schemes.decode_block(SchemeId.M2_REDUCED, a), (228,)),
    "coding.viterbi_decode": (lambda a: coding.viterbi_decode(CONV_RATE_12, a), (20,)),
    "coding.viterbi_decode_batch": (lambda a: coding.viterbi_decode_batch(CONV_RATE_12, a),
                                    (2, 20)),
    "coding.depuncture_batch": (lambda a: coding.depuncture_batch(PUNCTURE_P12, a), (2, 228)),
    "kernels.viterbi_batch_np": (lambda a: kernels.viterbi_batch_np(a, _SYMS), (2, 20)),
    "kernels.viterbi_batch_c": (lambda a: kernels.viterbi_batch_c(a, _SYMS), (2, 20)),
    "kernels.ChainKernel.decode": (lambda a: _M2_KERNEL.decode(a), (2, 228)),
    "interleaving.deinterleave_batch": (
        lambda a: interleaving.deinterleave_batch(InterleaveMode.MOD2, a), (2, 228)),
    "interleaving.deinterleave": (  # its two sub-blocks are the array's rows
        lambda a: interleaving.deinterleave(InterleaveMode.MOD2, a), (2, 114)),
    "interleaving.demap_burst": (interleaving.demap_burst, (114,)),
    "bits.as_soft_array": (as_soft_array, (5,)),
}
TAKEN_DTYPES = ["bool", "int8", "int64", "uint8", "float16", "float32", "float64"]
REFUSED_VALUES = {"str": "1", "bytes": b"1", "complex": 1 + 1j, "Fraction": Fraction(1, 2),
                  "None": None}


def _arrays(result) -> list[np.ndarray]:
    if isinstance(result, schemes.DecodeOutcome):
        return [result.message, np.asarray(result.ok)]
    return list(result) if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("dtype", TAKEN_DTYPES + list(REFUSED_VALUES))
@pytest.mark.parametrize("name", SOFT_ENTRY_POINTS)
def test_soft_entry_points_take_only_real_dtypes(name, dtype):
    # Each used to parse "1", cast b"1" and Fraction(1, 2), drop an imaginary part or fail
    # inside numpy, each differently.
    entry, shape = SOFT_ENTRY_POINTS[name]
    if _M2_KERNEL is None and name in ("kernels.viterbi_batch_c", "kernels.ChainKernel.decode"):
        pytest.skip("no compiled kernel")
    if dtype in REFUSED_VALUES:
        with pytest.raises(ValueError):  # the shape rule runs first
            entry(np.full(shape + (1,), REFUSED_VALUES[dtype]))
        with pytest.raises(TypeError, match=re.escape(
                f"soft values must have a bool, integer or float dtype; "
                f"got {np.asarray(REFUSED_VALUES[dtype]).dtype}")):
            entry(np.full(shape, REFUSED_VALUES[dtype]))
        return
    soft = np.random.default_rng(31).integers(-3, 4, shape).astype(dtype)  # uint8 wraps
    got, expect = _arrays(entry(soft)), _arrays(entry(soft.astype(np.float64)))
    assert [(a.dtype, a.tolist()) for a in got] == [(a.dtype, a.tolist()) for a in expect]


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


BIG = 10**5000  # beyond Python's 4,300-digit limit of int to str
LIMIT = "beyond the 4300-digit limit of int to str>"


def test_shown_is_repr_within_the_digit_limit_and_type_and_limit_beyond_it():
    assert shown(10**4299) == repr(10**4299) and shown("std4") == "'std4'"
    assert shown(BIG) == f"<int {LIMIT}" and shown(-BIG) == f"<int {LIMIT}"
    assert shown(Fraction(BIG, 3)) == f"<Fraction {LIMIT}"
    assert shown([BIG]) == f"<list {LIMIT}"


@pytest.mark.parametrize("call, error, message", [
    (lambda: check_int(BIG, "seed", 0, 2**64), ValueError,
     f"seed must lie in [0, {2**64}), got <int {LIMIT}"),
    (lambda: check_int(-1, "frame_errors", 0, BIG), ValueError,
     f"frame_errors must lie in [0, <int {LIMIT}), got -1"),
    (lambda: check_int(-BIG, "frames", 1), ValueError,
     f"frames must be at least 1, got <int {LIMIT}"),
    (lambda: check_int(Fraction(BIG, 3), "frames", 1), TypeError,
     f"frames must be an integer, got <Fraction {LIMIT}"),
    (lambda: check_type(BIG, InterleaveMode, "mode"), TypeError,
     f"mode must be an InterleaveMode, got <int {LIMIT}"),
    (lambda: check_collection(BIG, "codes"), TypeError,
     f"codes must be a collection, not one int: <int {LIMIT}"),
    (lambda: kernels.check_sigma(BIG, 456), ValueError, f"x 456 finite; got <int {LIMIT}"),
    (lambda: simulation.check_seed(BIG), ValueError, f"seed must lie in [0, {2**64}), got <int"),
    (lambda: simulation.BlerReport(SchemeId.STANDARD_456, 1.0, BIG, -1, 0, 0), ValueError,
     f"frame_errors must lie in [0, <int {LIMIT}), got -1"),
    (lambda: simulation.BlerReport(SchemeId.STANDARD_456, 1.0, -BIG, 0, 0, 0), ValueError,
     f"frames must be at least 1, got <int {LIMIT}"),
    (lambda: schemes.scheme_from_name(BIG), ValueError, f"unknown scheme <int {LIMIT}"),
], ids=["check_int value", "check_int bound", "check_int low", "check_int type", "check_type",
        "check_collection", "check_sigma", "check_seed", "BlerReport bound", "BlerReport frames",
        "scheme_from_name"])
def test_check_helpers_name_an_argument_beyond_the_digit_limit(call, error, message):
    # Each raised Python's own "Exceeds the limit (4300 digits)" ValueError, which names no
    # argument.
    with pytest.raises(error, match=re.escape(message)):
        call()


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


# Every constant table: a write to one would change every later parity, encode or decode.
CONSTANT_TABLES = {
    "BlockCode.matrix": lambda: coding.FIRE_CODE.matrix,
    "BlockCode.remainders": lambda: coding.PARITY20_CODE.remainders,
    "ConvCode.eight_steps": lambda: coding.CONV_RATE_13.eight_steps,
    "ConvCode.branches": lambda: CONV_RATE_12.branches,
    "coding._tap_table": lambda: _tap_table(CONV_RATE_12.generators),
    "PuncturePattern.kept_indices": lambda: PUNCTURE_P12.kept_indices,
    "bits._ANTIPODAL": lambda: bits._ANTIPODAL,
    "kernels._identity_map": lambda: kernels._identity_map(228)[0],
    "interleaving.destinations": lambda: interleaving.destinations(InterleaveMode.MOD2),
    "_Chain.source": lambda: schemes._CHAINS[SchemeId.M1_CS13_P23].source,
}


@pytest.mark.parametrize("name", CONSTANT_TABLES)
def test_constant_tables_cannot_be_made_writable(name):
    # A table made read-only by its flag alone took ``flags.writeable = True`` back.
    table = CONSTANT_TABLES[name]()
    with pytest.raises(ValueError):
        table.flags.writeable = True
    with pytest.raises(ValueError):
        table.reshape(-1)[0] = 0


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
