import signal

import numpy as np
import pytest

from hrcc.coding import (
    CONV_RATE_12,
    CONV_RATE_13,
    FIRE_CODE,
    PARITY20_CODE,
    PUNCTURE_CS23,
    PUNCTURE_P12,
    PUNCTURE_P13,
    PUNCTURE_P23,
    BlockCode,
    ConvCode,
    PuncturePattern,
    conv_encode_batch,
    depuncture_batch,
    fire_check,
    fire_encode,
    parity20_check,
    parity20_encode,
    poly_remainder,
    puncture_batch,
    viterbi_decode,
    viterbi_decode_batch,
)

from oracles import (
    FIRE_GEN_BITS,
    GEN_RATE_12,
    GEN_RATE_13,
    PARITY20_GEN_BITS,
    build_rate12_codebook,
    conv_encode_ref,
    cyclic_parity,
    ml_decode_bruteforce,
)


def _perfect_soft(bits):
    return 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)


# --- block codes -----------------------------------------------------------


@pytest.mark.parametrize(
    "code,generator", [(FIRE_CODE, FIRE_GEN_BITS), (PARITY20_CODE, PARITY20_GEN_BITS)]
)
def test_parity_batch_matches_long_division(code, generator):
    # All-ones rows give the largest sums the float32 product has to hold.
    k = code.k
    rng = np.random.default_rng(k)
    msgs = np.vstack(
        [rng.integers(0, 2, size=(32, k), dtype=np.uint8), np.ones((2, k), dtype=np.uint8)]
    )
    parity = code.parity_batch(msgs)
    assert parity.dtype == np.uint8
    assert parity.tolist() == [cyclic_parity(row.tolist(), generator) for row in msgs]


@pytest.mark.parametrize("code", [FIRE_CODE, PARITY20_CODE], ids=["fire", "parity20"])
def test_block_code_batch_methods_match_the_single_block_ones(code):
    rng = np.random.default_rng(code.k + 1)
    msgs = rng.integers(0, 2, size=(8, code.k), dtype=np.uint8)
    words = np.array([code.encode(msg) for msg in msgs])
    assert np.array_equal(code.parity_batch(msgs), words[:, code.k :])
    # Every single-bit flip of every word, in the message and in the parity.
    n = code.k + code.r
    flips = (words[:, np.newaxis, :] ^ np.eye(n, dtype=np.uint8)).reshape(-1, n)
    assert code.check_batch(words).all() and not code.check_batch(flips).any()
    batch = np.vstack([words, flips])
    assert code.check_batch(batch).tolist() == [code.check(word) for word in batch]


def test_fire_zero_message_gives_zero_codeword():
    assert np.array_equal(fire_encode(np.zeros(184, dtype=np.uint8)), np.zeros(224, dtype=np.uint8))


def test_fire_impulse_parity_matches_long_division():
    msg = np.zeros(184, dtype=np.uint8)
    msg[0] = 1  # message polynomial D^183, parity = D^223 mod g
    cw = fire_encode(msg)
    assert cw.size == 224
    assert cw[184:].tolist() == cyclic_parity(msg.tolist(), FIRE_GEN_BITS)


def test_fire_random_parity_matches_long_division():
    rng = np.random.default_rng(11)
    for _ in range(50):
        msg = rng.integers(0, 2, size=184, dtype=np.uint8)
        assert fire_encode(msg)[184:].tolist() == cyclic_parity(msg.tolist(), FIRE_GEN_BITS)


def test_fire_linearity():
    rng = np.random.default_rng(12)
    for _ in range(25):
        a = rng.integers(0, 2, size=184, dtype=np.uint8)
        b = rng.integers(0, 2, size=184, dtype=np.uint8)
        assert np.array_equal(fire_encode(a ^ b), fire_encode(a) ^ fire_encode(b))


def test_fire_check_accepts_codewords_and_flags_flips():
    rng = np.random.default_rng(13)
    for _ in range(20):
        cw = fire_encode(rng.integers(0, 2, size=184, dtype=np.uint8))
        assert fire_check(cw)
        flipped = cw.copy()
        flipped[rng.integers(0, 224)] ^= 1
        assert not fire_check(flipped)


def test_fire_detects_all_short_bursts():
    rng = np.random.default_rng(14)
    cw = fire_encode(rng.integers(0, 2, size=184, dtype=np.uint8))
    for _ in range(1000):
        length = int(rng.integers(1, 41))
        start = int(rng.integers(0, 224 - length + 1))
        pattern = rng.integers(0, 2, size=length, dtype=np.uint8)
        pattern[0] = 1
        corrupted = cw.copy()
        corrupted[start : start + length] ^= pattern
        assert not fire_check(corrupted)


def test_parity20_against_long_division_and_linearity():
    rng = np.random.default_rng(15)
    assert np.array_equal(parity20_encode(np.zeros(90, dtype=np.uint8)), np.zeros(110, dtype=np.uint8))
    for _ in range(50):
        msg = rng.integers(0, 2, size=90, dtype=np.uint8)
        cw = parity20_encode(msg)
        assert cw.size == 110
        assert cw[90:].tolist() == cyclic_parity(msg.tolist(), PARITY20_GEN_BITS)
    a = rng.integers(0, 2, size=90, dtype=np.uint8)
    b = rng.integers(0, 2, size=90, dtype=np.uint8)
    assert np.array_equal(parity20_encode(a ^ b), parity20_encode(a) ^ parity20_encode(b))


def test_parity20_detects_flips_and_short_bursts():
    rng = np.random.default_rng(16)
    cw = parity20_encode(rng.integers(0, 2, size=90, dtype=np.uint8))
    assert parity20_check(cw)
    for _ in range(1000):
        length = int(rng.integers(1, 21))
        start = int(rng.integers(0, 110 - length + 1))
        pattern = rng.integers(0, 2, size=length, dtype=np.uint8)
        pattern[0] = 1
        corrupted = cw.copy()
        corrupted[start : start + length] ^= pattern
        assert not parity20_check(corrupted)


def test_block_code_length_validation():
    with pytest.raises(ValueError):
        fire_encode(np.zeros(183, dtype=np.uint8))
    with pytest.raises(ValueError):
        fire_check(np.zeros(223, dtype=np.uint8))
    with pytest.raises(ValueError):
        parity20_encode(np.zeros(91, dtype=np.uint8))
    with pytest.raises(ValueError):
        parity20_check(np.zeros(111, dtype=np.uint8))


@pytest.fixture
def alarm():
    """Fail a call that never returns: SIGALRM after 5 s, on this (the main) thread."""

    def hung(*args):
        raise TimeoutError("the call did not return within 5 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


# Generator 0 looped forever, and a negative generator or value gave a wrong
# remainder; degree 0 (1) and no constant term (even) are refused as in BlockCode.
@pytest.mark.parametrize("value, generator", [(5, 0), (5, 1), (5, -3), (5, 0b110), (-5, 11)])
def test_poly_remainder_rejects_bad_generators_and_values(alarm, value, generator):
    with pytest.raises(ValueError):
        poly_remainder(value, generator)


@pytest.mark.parametrize("value, generator", [(5.0, 11), (5, 11.0), ("5", 11)])
def test_poly_remainder_rejects_non_integers(value, generator):
    with pytest.raises(TypeError):
        poly_remainder(value, generator)


def test_poly_remainder_of_good_generators():
    assert poly_remainder(0b1000, 0b1011) == 0b011
    assert poly_remainder(0b10, 0b1011) == 0b10
    assert poly_remainder(0, 0b11) == 0


# BlockCode(10, 0) had r == -1; degree 65 no longer fits the compiled LFSR.
@pytest.mark.parametrize("k, generator", [(10, 0), (10, 1), (10, -11), (10, 0b1010),
                                          (10, (1 << 65) | 1), (0, 0b1011), (-1, 0b1011)])
def test_block_code_rejects_bad_generators_and_lengths(k, generator):
    with pytest.raises(ValueError):
        BlockCode(k, generator)


@pytest.mark.parametrize("k, generator", [(10.0, 0b1011), (10, 11.0), (10, None)])
def test_block_code_rejects_non_integers(k, generator):
    with pytest.raises(TypeError):
        BlockCode(k, generator)


@pytest.mark.parametrize("generator", [0b11, 0b1011, (1 << 64) | 0b11011])
def test_block_codes_of_degree_1_to_64_give_the_long_division_parity(generator):
    code = BlockCode(13, generator)
    msgs = np.random.default_rng(generator % 1000).integers(0, 2, size=(9, 13), dtype=np.uint8)
    bits = [int(b) for b in bin(generator)[2:]]
    assert code.parity_batch(msgs).tolist() == [cyclic_parity(row.tolist(), bits) for row in msgs]
    assert code.remainders.dtype == np.uint64 and not code.remainders.flags.writeable
    # Entry v is v(D) * D^r mod g, at the top of 64 bits.
    assert int(code.remainders[1]) == poly_remainder(1 << code.r, generator) << 64 - code.r


# --- convolutional codes ---------------------------------------------------


def test_conv_code_validation():
    with pytest.raises(ValueError):
        ConvCode((0b11001,))
    with pytest.raises(ValueError):
        ConvCode((0b11001, 0b11000))  # no constant term
    with pytest.raises(ValueError):
        ConvCode((0b11001, 0b01011))  # no degree-4 term
    with pytest.raises(ValueError):
        ConvCode((0b11001, 0b111011))  # degree 5


@pytest.mark.parametrize("generators, message", [
    ([0b11001, 0b11011], "generators must be a tuple, got"),
    ((0b11001, 27.0), "each generator must be an int, got 27.0"),
    ("ab", "generators must be a tuple, got"),
    (25, "generators must be a tuple, got"),
], ids=["generators0", "generators1", "ab", "25"])
def test_conv_code_takes_its_generators_as_a_tuple_of_ints(generators, message):
    # A list constructed and only failed later, unhashable in the branch table's cache.
    with pytest.raises(TypeError, match=message):
        ConvCode(generators)


def test_conv_encode_zero_input_and_lengths():
    zeros = np.zeros((1, 228), dtype=np.uint8)
    assert np.array_equal(conv_encode_batch(CONV_RATE_12, zeros)[0], np.zeros(456, dtype=np.uint8))
    assert conv_encode_batch(CONV_RATE_13, zeros)[0].size == 684


def test_conv_encode_impulse_response():
    msg = np.zeros(228, dtype=np.uint8)
    msg[0] = 1
    out = conv_encode_batch(CONV_RATE_12, msg[np.newaxis])[0]
    # first five output pairs replay the generator coefficients
    expect = []
    for k in range(5):
        expect.extend([GEN_RATE_12[0][k], GEN_RATE_12[1][k]])
    assert out[:10].tolist() == expect
    assert not out[10:].any()


@pytest.mark.parametrize(
    "code,gens", [(CONV_RATE_12, GEN_RATE_12), (CONV_RATE_13, GEN_RATE_13)]
)
def test_conv_encode_matches_shift_register(code, gens):
    rng = np.random.default_rng(17)
    for _ in range(20):
        msg = rng.integers(0, 2, size=228, dtype=np.uint8)
        out = conv_encode_batch(code, msg[np.newaxis])[0]
        assert out.tolist() == conv_encode_ref(msg.tolist(), gens)


def test_conv_encode_linearity():
    rng = np.random.default_rng(18)
    a = rng.integers(0, 2, size=228, dtype=np.uint8)
    b = rng.integers(0, 2, size=228, dtype=np.uint8)
    coded_sum, coded_a, coded_b = conv_encode_batch(CONV_RATE_12, np.stack([a ^ b, a, b]))
    assert np.array_equal(coded_sum, coded_a ^ coded_b)


# --- puncturing ------------------------------------------------------------


def test_puncture_pattern_invariant():
    with pytest.raises(ValueError):
        PuncturePattern((1, 0), 456, 229)
    with pytest.raises(ValueError):
        PuncturePattern((), 456, 228)
    with pytest.raises(ValueError):
        PuncturePattern((1, 2), 4, 2)


@pytest.mark.parametrize(
    "pattern,inlen,outlen",
    [
        (PUNCTURE_CS23, 456, 342),
        (PUNCTURE_P12, 456, 228),
        (PUNCTURE_P13, 342, 228),
        (PUNCTURE_P23, 684, 228),
    ],
)
def test_scheme_puncture_lengths(pattern, inlen, outlen):
    rng = np.random.default_rng(inlen)
    bits = rng.integers(0, 2, size=inlen, dtype=np.uint8)
    out = puncture_batch(pattern, bits[np.newaxis])[0]
    assert out.size == outlen
    kept = pattern.kept_indices
    assert np.all(np.diff(kept) > 0)  # order preserved
    assert np.array_equal(out, bits[kept])


def test_kept_indices_are_built_once_and_read_only():
    kept = PUNCTURE_P13.kept_indices
    assert kept is PUNCTURE_P13.kept_indices
    with pytest.raises(ValueError):
        kept[0] = 1


def test_puncture_length_mismatch():
    with pytest.raises(ValueError):
        puncture_batch(PUNCTURE_P12, np.zeros((1, 455), dtype=np.uint8))


@pytest.mark.parametrize("shape", [(2, 500), (2, 455), (456,)])
def test_puncture_batch_rejects_rows_of_the_wrong_width(shape):
    with pytest.raises(ValueError, match="punctures rows of 456 values"):
        puncture_batch(PUNCTURE_P12, np.zeros(shape, dtype=np.uint8))


@pytest.mark.parametrize("shape", [(2, 1), (228,), (2, 229)])
def test_depuncture_batch_rejects_rows_of_the_wrong_width(shape):
    # Unchecked, numpy broadcast the first two into plausible (2, 456) and
    # (228, 456) matrices.
    with pytest.raises(ValueError, match="depunctures rows of 228 values"):
        depuncture_batch(PUNCTURE_P12, np.ones(shape))


def test_depuncture_restores_kept_positions_as_erasures():
    rng = np.random.default_rng(19)
    for pattern in (PUNCTURE_CS23, PUNCTURE_P12, PUNCTURE_P13, PUNCTURE_P23):
        soft = rng.normal(size=pattern.output_len)
        soft[soft == 0.0] = 1.0
        restored = depuncture_batch(pattern, soft[np.newaxis, :])[0]
        assert restored.size == pattern.input_len
        assert np.array_equal(restored[pattern.kept_indices], soft)
        erased = np.setdiff1d(np.arange(pattern.input_len), pattern.kept_indices)
        assert not restored[erased].any()
        assert erased.size == pattern.input_len - pattern.output_len
        # all-erasure input stays all-erasure
        assert not depuncture_batch(pattern, np.zeros((1, pattern.output_len))).any()


def test_puncture_then_depuncture_is_identity_on_kept_values():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2, size=456, dtype=np.uint8)
    soft = _perfect_soft(bits)
    back = depuncture_batch(PUNCTURE_P12, soft[np.newaxis, PUNCTURE_P12.kept_indices])[0]
    assert np.array_equal(back[PUNCTURE_P12.kept_indices], soft[PUNCTURE_P12.kept_indices])


# --- Viterbi ---------------------------------------------------------------


@pytest.mark.parametrize("code", [CONV_RATE_12, CONV_RATE_13])
def test_viterbi_noiseless_roundtrip(code):
    rng = np.random.default_rng(21)
    msgs = rng.integers(0, 2, size=(1000, 224), dtype=np.uint8)
    tailed = np.concatenate([msgs, np.zeros((1000, 4), dtype=np.uint8)], axis=1)
    coded = conv_encode_batch(code, tailed)
    decoded = viterbi_decode_batch(code, _perfect_soft(coded))
    assert np.array_equal(decoded, tailed)


def test_viterbi_all_erasures_decode_to_zero():
    out = viterbi_decode(CONV_RATE_12, np.zeros(456))
    assert not out.any()
    out = viterbi_decode(CONV_RATE_13, np.zeros(684))
    assert not out.any()


def test_viterbi_rejects_inconsistent_length():
    with pytest.raises(ValueError):
        viterbi_decode(CONV_RATE_12, np.zeros(457))
    with pytest.raises(ValueError):
        viterbi_decode(CONV_RATE_13, np.zeros(685))


def test_conv_encode_batch_rejects_non_binary_input():
    msgs = np.zeros((2, 20), dtype=np.uint8)
    msgs[1, 3] = 2
    with pytest.raises(ValueError, match="only contain 0 and 1"):
        conv_encode_batch(CONV_RATE_12, msgs)


def test_viterbi_decode_batch_rejects_a_single_row():
    with pytest.raises(ValueError, match="one row per frame"):
        viterbi_decode_batch(CONV_RATE_12, np.zeros(456))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_viterbi_decode_batch_rejects_non_finite_rows(bad):
    soft = np.ones((3, 456))
    soft[2] = bad
    with pytest.raises(ValueError, match="soft values must be finite"):
        viterbi_decode_batch(CONV_RATE_12, soft)


def test_viterbi_matches_bruteforce_ml_sample():
    msgs, cws = build_rate12_codebook(12)
    rng = np.random.default_rng(22)
    for _ in range(30):
        msg_index = int(rng.integers(0, msgs.shape[0]))
        received = cws[msg_index].copy()
        for pos in rng.choice(received.size, size=int(rng.integers(0, 3)), replace=False):
            received[pos] ^= 1
        soft = _perfect_soft(received)
        decoded = viterbi_decode(CONV_RATE_12, soft)
        assert not decoded[-4:].any()
        assert np.array_equal(decoded[:12], ml_decode_bruteforce(soft, msgs, cws))
