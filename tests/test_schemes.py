from fractions import Fraction

import numpy as np
import pytest

from hrcc import coding
from hrcc.interleaving import InterleaveMode, deinterleave, demap_burst
from hrcc.coding import conv_encode_batch, fire_encode, parity20_encode, puncture_batch
from hrcc.coding import CONV_RATE_12, CONV_RATE_13, FIRE_CODE, PUNCTURE_CS23, PUNCTURE_P12
from hrcc.coding import PUNCTURE_P13, TAIL_BITS
from hrcc.schemes import (
    _CHAINS,
    _Chain,
    SchemeId,
    coded_bits,
    decode_block,
    decode_blocks,
    encode_block,
    encode_blocks,
    info_rate,
    interleave_mode,
    message_bits,
    scheme_from_name,
)

from oracles import (
    FIRE_GEN_BITS,
    GEN_RATE_12,
    PARITY20_GEN_BITS,
    conv_encode_ref,
    cyclic_parity,
)


def _perfect_soft(bits):
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


def test_scheme_names_roundtrip():
    for scheme in SchemeId:
        assert scheme_from_name(scheme.value) is scheme
    with pytest.raises(ValueError):
        scheme_from_name("m1-cs11-p11")


def test_stage_sizes_standard_chain():
    msg = np.zeros(184, dtype=np.uint8)
    cw = fire_encode(msg)
    assert cw.size == 224
    tailed = np.concatenate([cw, np.zeros(TAIL_BITS, np.uint8)])
    assert tailed.size == 228
    coded = conv_encode_batch(CONV_RATE_12, tailed[np.newaxis])[0]
    assert coded.size == 456
    assert np.array_equal(coded, encode_block(SchemeId.STANDARD_456, msg))


def test_stage_sizes_reduced_chain():
    msg = np.zeros(90, dtype=np.uint8)
    cw = parity20_encode(msg)
    assert cw.size == 110
    tailed = np.concatenate([cw, np.zeros(TAIL_BITS, np.uint8)])
    assert tailed.size == 114
    coded = conv_encode_batch(CONV_RATE_12, tailed[np.newaxis])[0]
    assert coded.size == 228
    assert np.array_equal(coded, encode_block(SchemeId.M2_REDUCED, msg))


def test_output_lengths_per_scheme():
    expected = {
        SchemeId.STANDARD_456: (184, 456),
        SchemeId.M1_CS23_P13: (184, 228),
        SchemeId.M1_CS12_P12: (184, 228),
        SchemeId.M1_CS13_P23: (184, 228),
        SchemeId.M2_REDUCED: (90, 228),
    }
    rng = np.random.default_rng(41)
    for scheme, (k, n) in expected.items():
        assert message_bits(scheme) == k
        assert coded_bits(scheme) == n
        msg = rng.integers(0, 2, size=k, dtype=np.uint8)
        assert encode_block(scheme, msg).size == n


def test_interleave_mode_per_scheme():
    assert interleave_mode(SchemeId.STANDARD_456) is InterleaveMode.STD4
    for scheme in SchemeId:
        assert interleave_mode(scheme).block_bits == coded_bits(scheme)
        if scheme is not SchemeId.STANDARD_456:
            assert interleave_mode(scheme) is InterleaveMode.MOD2


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_source_map_inverts_the_composed_puncture(scheme):
    chain = _CHAINS[scheme]
    if chain.puncture is None:
        assert chain.source is None
        return
    assert not chain.source.flags.writeable and chain.source.dtype == np.int32
    assert chain.source.size == chain.puncture.input_len
    kept = chain.source >= 0
    assert np.array_equal(np.flatnonzero(kept), chain.puncture.kept_indices)
    assert np.array_equal(chain.source[kept], np.arange(chain.coded_bits))
    assert (chain.source[~kept] == -1).all()


def test_chain_rejects_a_puncture_that_does_not_fit_the_mother_code():
    # At rate 1/3 the mother code emits (184 + 40 + 4) * 3 = 684 bits.
    with pytest.raises(ValueError, match="takes 456 bits, but the mother code emits 684"):
        _Chain(CONV_RATE_13, (PUNCTURE_P12,), FIRE_CODE)


def test_exact_information_rates():
    assert info_rate(SchemeId.STANDARD_456) == Fraction(184, 456)
    assert info_rate(SchemeId.M1_CS23_P13) == Fraction(184, 228)
    assert info_rate(SchemeId.M1_CS12_P12) == Fraction(184, 228)
    assert info_rate(SchemeId.M1_CS13_P23) == Fraction(184, 228)
    assert info_rate(SchemeId.M2_REDUCED) == Fraction(90, 228)


def test_standard_encode_matches_stage_composition():
    rng = np.random.default_rng(42)
    msg = rng.integers(0, 2, size=184, dtype=np.uint8)
    parity = cyclic_parity(msg.tolist(), FIRE_GEN_BITS)
    tailed = msg.tolist() + parity + [0, 0, 0, 0]
    assert encode_block(SchemeId.STANDARD_456, msg).tolist() == conv_encode_ref(
        tailed, GEN_RATE_12
    )


def test_m1_encode_applies_puncturing_last():
    rng = np.random.default_rng(43)
    msg = rng.integers(0, 2, size=184, dtype=np.uint8)
    tailed = np.concatenate([fire_encode(msg), np.zeros(TAIL_BITS, np.uint8)])
    mother = conv_encode_batch(CONV_RATE_12, tailed[np.newaxis])
    stage342 = puncture_batch(PUNCTURE_CS23, mother)
    assert stage342.size == 342
    assert np.array_equal(
        encode_block(SchemeId.M1_CS23_P13, msg), puncture_batch(PUNCTURE_P13, stage342)[0]
    )


def test_m2_encode_matches_stage_composition():
    rng = np.random.default_rng(44)
    msg = rng.integers(0, 2, size=90, dtype=np.uint8)
    parity = cyclic_parity(msg.tolist(), PARITY20_GEN_BITS)
    tailed = msg.tolist() + parity + [0, 0, 0, 0]
    assert encode_block(SchemeId.M2_REDUCED, msg).tolist() == conv_encode_ref(
        tailed, GEN_RATE_12
    )


def test_zero_message_encodes_to_zero_block():
    assert not encode_block(SchemeId.STANDARD_456, np.zeros(184, dtype=np.uint8)).any()


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_perfect_roundtrip(scheme):
    rng = np.random.default_rng(45)
    k = message_bits(scheme)
    for _ in range(100):
        msg = rng.integers(0, 2, size=k, dtype=np.uint8)
        outcome = decode_block(scheme, _perfect_soft(encode_block(scheme, msg)))
        assert outcome.ok
        assert np.array_equal(outcome.message, msg)


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_heavy_corruption_is_flagged(scheme):
    rng = np.random.default_rng(46)
    k = message_bits(scheme)
    n = coded_bits(scheme)
    flagged = 0
    for _ in range(50):
        soft = rng.normal(0.0, 1.0, size=n)
        outcome = decode_block(scheme, soft)
        assert outcome.message.size == k  # ML word reported even when corrupted
        flagged += not outcome.ok
    assert flagged == 50  # chance of one undetected pass is <= 2^-20 per trial


@pytest.mark.parametrize("as_bursts", [False, True])
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_all_erasure_block_is_the_zero_codeword(scheme, as_bursts):
    # A block that carried nothing passes the check: ties decode to the zero
    # message, whose parity is zero, because no chain inverts its parity.
    # With as_bursts it arrives as erased bursts through the deinterleaver.
    soft = np.zeros(coded_bits(scheme))
    if as_bursts:
        mode = interleave_mode(scheme)
        soft = deinterleave(mode, [demap_burst(np.zeros(114))] * mode.burst_count)
    msgs, ok = decode_blocks(scheme, np.stack([soft, soft]))
    assert ok.all()
    assert not msgs.any()
    outcome = decode_block(scheme, soft)
    assert outcome.ok and not outcome.message.any()


def test_wrong_lengths_are_rejected():
    with pytest.raises(ValueError):
        encode_block(SchemeId.M2_REDUCED, np.zeros(184, dtype=np.uint8))
    with pytest.raises(ValueError):
        encode_block(SchemeId.STANDARD_456, np.zeros(90, dtype=np.uint8))
    with pytest.raises(ValueError):
        decode_block(SchemeId.STANDARD_456, np.zeros(228))
    with pytest.raises(ValueError):
        decode_blocks(SchemeId.M2_REDUCED, np.zeros((2, 229)))
    with pytest.raises(ValueError):
        decode_blocks(SchemeId.STANDARD_456, np.zeros(456))


def test_batch_codecs_take_nested_lists():
    coded = encode_blocks(SchemeId.M2_REDUCED, [[0] * 90])
    assert coded.shape == (1, 228) and not coded.any()
    msgs, ok = decode_blocks(SchemeId.M2_REDUCED, [[0.0] * 228])
    assert ok.all() and not msgs.any()


@pytest.mark.parametrize("bad", [np.uint8(2), 2, -1, 0.5, 256])
def test_encode_blocks_rejects_non_binary_messages(bad):
    msgs = np.zeros((3, 184), dtype=np.asarray(bad).dtype)
    msgs[1, 7] = bad
    with pytest.raises(ValueError, match="only contain 0 and 1"):
        encode_blocks(SchemeId.STANDARD_456, msgs)


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_composed_puncture_equals_the_paper_steps(scheme):
    chain = _CHAINS[scheme]
    if not chain.punctures:
        assert chain.puncture is None
        return
    rng = np.random.default_rng(len(chain.punctures) * 100 + chain.coded_bits)
    bits = rng.integers(0, 2, size=(6, chain.punctures[0].input_len), dtype=np.uint8)
    soft = rng.normal(size=(6, chain.coded_bits))
    stepped_bits, stepped_soft = [], []
    for row_bits, row_soft in zip(bits, soft):
        for pattern in chain.punctures:
            row_bits = puncture_batch(pattern, row_bits[np.newaxis])[0]
        for pattern in reversed(chain.punctures):
            row_soft = coding.depuncture_batch(pattern, row_soft[np.newaxis, :])[0]
        stepped_bits.append(row_bits)
        stepped_soft.append(row_soft)
    punctured = coding.puncture_batch(chain.puncture, bits)
    assert np.array_equal(punctured, stepped_bits)
    assert punctured.flags.c_contiguous  # the interleaver's gather reads it row by row
    assert np.array_equal(coding.depuncture_batch(chain.puncture, soft), stepped_soft)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decode_blocks_rejects_non_finite_soft_values(bad):
    softs = np.ones((3, 228))
    softs[1, 17] = bad
    with pytest.raises(ValueError, match="soft values must be finite"):
        decode_blocks(SchemeId.M2_REDUCED, softs)


def test_batch_matches_single_block_api():
    rng = np.random.default_rng(47)
    for scheme in SchemeId:
        k = message_bits(scheme)
        msgs = rng.integers(0, 2, size=(5, k), dtype=np.uint8)
        batch = encode_blocks(scheme, msgs)
        for row, msg in zip(batch, msgs):
            assert np.array_equal(row, encode_block(scheme, msg))
        decoded, ok = decode_blocks(scheme, _perfect_soft(batch))
        assert ok.all()
        assert np.array_equal(decoded, msgs)
