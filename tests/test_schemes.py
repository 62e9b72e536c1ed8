from fractions import Fraction

import numpy as np
import pytest

from hrcc import coding, kernels
from hrcc.interleaving import InterleaveMode, deinterleave, demap_burst
from hrcc.coding import conv_encode_batch, fire_encode, parity20_encode, puncture_batch
from hrcc.coding import CONV_RATE_12, CONV_RATE_13, FIRE_CODE, PUNCTURE_CS23, PUNCTURE_P12
from hrcc.coding import PARITY20_CODE, PUNCTURE_P13, TAIL_BITS
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
from hrcc.simulation import sweep

from oracles import (
    FIRE_GEN_BITS,
    GEN_RATE_12,
    GEN_RATE_13,
    PARITY20_GEN_BITS,
    conv_encode_ref,
    cyclic_parity,
    paper_punctures,
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
    # The mother-code columns that the paper's steps keep, in order, hold the
    # coded columns 0, 1, ...; every other one holds -1.  No step: the identity.
    chain = _CHAINS[scheme]
    assert not chain.source.flags.writeable and chain.source.dtype == np.int32
    mother = (chain.block.k + chain.block.r + TAIL_BITS) * chain.code.n_out
    assert chain.source.size == mother
    kept = chain.source >= 0
    assert np.array_equal(np.flatnonzero(kept), paper_punctures(chain, [np.arange(mother)])[0])
    assert np.array_equal(chain.source[kept], np.arange(chain.coded_bits))
    assert (chain.source[~kept] == -1).all()


def test_the_paper_steps_compose_into_one_full_length_map():
    # 456 -> 342 -> 228 keeps the first two of every four mother-code columns.
    for scheme, keep in [(SchemeId.M1_CS23_P13, (1, 1, 0, 0) * 114),
                         (SchemeId.M1_CS12_P12, (1, 0) * 228)]:
        assert tuple((_CHAINS[scheme].source >= 0).tolist()) == keep
    with pytest.raises(ValueError, match="puncture 2 takes 342 bits, but puncture 1 emits 228"):
        _Chain(CONV_RATE_12, (PUNCTURE_P12, PUNCTURE_P13), FIRE_CODE)


@pytest.mark.parametrize("bad", ["standard", "m2-reduced", None, 0])
def test_every_scheme_function_takes_only_a_scheme_id(bad):
    # A scheme's name raised KeyError: 'standard'.
    calls = [
        lambda: message_bits(bad), lambda: coded_bits(bad), lambda: interleave_mode(bad),
        lambda: info_rate(bad), lambda: encode_block(bad, np.zeros(184, dtype=np.uint8)),
        lambda: encode_blocks(bad, np.zeros((1, 184), dtype=np.uint8)),
        lambda: decode_block(bad, np.zeros(456)), lambda: decode_blocks(bad, np.zeros((1, 456))),
    ]
    for call in calls:
        with pytest.raises(TypeError, match=f"scheme must be a SchemeId, got {bad!r}"):
            call()


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
def test_composed_puncture_equals_the_paper_steps(scheme, monkeypatch):
    # Bits written through the map, as both encoders write them, and soft values
    # read through it, as both decoders read them, against the steps one at a time.
    chain = _CHAINS[scheme]
    rng = np.random.default_rng(len(chain.punctures) * 100 + chain.coded_bits)
    bits = rng.integers(0, 2, size=(6, chain.source.size), dtype=np.uint8)
    soft = rng.normal(size=(6, chain.coded_bits))
    kept = chain.source >= 0
    written = np.empty((6, chain.coded_bits), np.uint8)
    written[:, chain.source[kept]] = bits[:, kept]
    assert np.array_equal(written, paper_punctures(chain, bits))
    read = np.pad(soft, ((0, 0), (0, 1)))[:, chain.source]  # -1 reads the column of zeros
    assert np.array_equal(read, paper_punctures(chain, soft, undo=True))
    monkeypatch.setattr(kernels, "BACKEND", "numpy")
    monkeypatch.setitem(_CHAINS, scheme, _Chain(chain.code, chain.punctures, chain.block))
    msgs = rng.integers(0, 2, size=(6, chain.block.k), dtype=np.uint8)
    # The numpy encoder keeps the map's columns; the interleaver's gather reads them row by row.
    assert encode_blocks(scheme, msgs).flags.c_contiguous


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


def _coded_words(scheme, words):
    """(k + r)-bit words, whatever their parity, through the tail, conv_encode_batch_np and
    the paper's puncture steps."""
    chain = _CHAINS[scheme]
    tailed = np.pad(words, ((0, 0), (0, TAIL_BITS)))
    out = kernels.conv_encode_batch_np(tailed, coding._tap_table(chain.code.generators))
    return paper_punctures(chain, out)


def _numpy_chain(scheme, msgs):
    """The numpy stages of a chain: BLAS parity, tail, conv_encode_batch_np, puncture steps."""
    block = _CHAINS[scheme].block
    return _coded_words(scheme, np.concatenate([msgs, block.parity_batch(msgs)], axis=1))


def _oracle_chain(scheme, msg):
    """One block through oracles.py's long division and shift register."""
    chain = _CHAINS[scheme]
    generator = FIRE_GEN_BITS if chain.block is FIRE_CODE else PARITY20_GEN_BITS
    taps = GEN_RATE_12 if chain.code is CONV_RATE_12 else GEN_RATE_13
    coded = conv_encode_ref(list(msg) + cyclic_parity(msg, generator) + [0] * TAIL_BITS, taps)
    return paper_punctures(chain, np.array([coded]))[0].tolist()


def _message_rows(scheme, nframes, kind, seed):
    k = message_bits(scheme)
    msgs = np.random.default_rng(seed).integers(0, 2, size=(nframes, 2 * k), dtype=np.uint8)
    if kind == "strided":
        return msgs[:, ::2]
    return msgs[:, :k].astype(np.bool_ if kind == "bool" else np.int64)


@pytest.mark.parametrize("kind", ["bool", "int64", "strided"])
@pytest.mark.parametrize("nframes", [0, 1, 4, 5, 513])
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_encoder_equals_the_numpy_chain_and_the_oracles(scheme, nframes, kind):
    msgs = _message_rows(scheme, nframes, kind, nframes)
    coded = encode_blocks(scheme, msgs)
    assert coded.dtype == np.uint8 and coded.flags.c_contiguous
    assert np.array_equal(coded, _numpy_chain(scheme, msgs.astype(np.uint8)))
    for i in sorted({0, nframes - 1}) if nframes else []:
        assert coded[i].tolist() == _oracle_chain(scheme, msgs[i].astype(int).tolist())


@pytest.mark.parametrize("row", [0, -1])
@pytest.mark.parametrize("bad", [2, 255])
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_encoder_rejects_message_bytes_other_than_0_and_1(scheme, bad, row):
    msgs = np.zeros((5, message_bits(scheme)), dtype=np.uint8)
    msgs[row, 3 if row else -1] = bad
    with pytest.raises(ValueError, match="only contain 0 and 1"):
        encode_blocks(scheme, msgs)


def _check_cases(block, seed):
    """Clean words, each single flip of the first, in the message and the parity, and zeros."""
    msgs = np.random.default_rng(seed).integers(0, 2, size=(6, block.k), dtype=np.uint8)
    words = np.concatenate([msgs, block.parity_batch(msgs)], axis=1)
    n = block.k + block.r
    flips = words[0] ^ np.eye(n, dtype=np.uint8)
    return np.vstack([words, flips, np.zeros((2, n), dtype=np.uint8)])


# Batches that end in the one-row loop of the block code's LFSR, or run it eight rows abreast
# and then one by one: every count below two groups of eight, and a chunk plus 1 to 7.
EIGHT_ABREAST_COUNTS = [*range(18), *range(513, 520)]


@pytest.mark.parametrize("nframes", EIGHT_ABREAST_COUNTS)
@pytest.mark.parametrize("scheme", list(SchemeId))
def test_parity_and_word_check_of_whole_batches_match_the_blas_stages(scheme, nframes):
    # Random words, half of them given their true parity: the decoder's check must flag each
    # row both ways, and the encoder's parity must be the BLAS parity, in every row of a batch.
    chain = _CHAINS[scheme]
    rng = np.random.default_rng([38, nframes])
    block = chain.block
    words = rng.integers(0, 2, (nframes, block.k + block.r), np.uint8)
    words[::2, block.k :] = block.parity_batch(words[::2, : block.k])
    expect = block.check_batch(words)
    assert expect[::2].all() and not expect[1::2].any()
    msgs, ok = decode_blocks(scheme, _perfect_soft(_coded_words(scheme, words)))
    assert np.array_equal(msgs, words[:, : block.k]) and np.array_equal(ok, expect)
    coded = encode_blocks(scheme, words[:, : block.k])
    assert np.array_equal(coded, _numpy_chain(scheme, words[:, : block.k]))


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_compiled_check_equals_the_blas_check(scheme):
    # Noiseless soft values of every case decode to the case itself, so the
    # decoder's check sees each flip; batches of 1 to 17 frames check their
    # groups of eight and of four at the vector widths and their leftover
    # frames on one lane, 513 frames mostly in the widest groups.
    chain = _CHAINS[scheme]
    if chain.kernel is None:
        pytest.skip("no compiled kernel")
    words = _check_cases(chain.block, chain.block.k)
    expect = chain.block.check_batch(words)
    assert expect[:6].all() and not expect[6:-2].any() and expect[-2:].all()
    soft = _perfect_soft(_coded_words(scheme, words))
    for n in range(1, 18):
        pieces = [decode_blocks(scheme, soft[i : i + n]) for i in range(0, len(soft), n)]
        assert np.array_equal(np.concatenate([msgs for msgs, _ in pieces]),
                              words[:, : chain.block.k])
        ok = np.concatenate([piece_ok for _, piece_ok in pieces])
        assert ok.dtype == np.bool_ and np.array_equal(ok, expect)
    many = np.resize(np.arange(len(words)), 513)
    msgs, ok = decode_blocks(scheme, soft[many])
    assert np.array_equal(msgs, words[many, : chain.block.k]) and np.array_equal(ok, expect[many])
    msgs, ok = decode_blocks(scheme, np.asfortranarray(soft[many]).astype(np.float32))
    assert np.array_equal(msgs, words[many, : chain.block.k]) and np.array_equal(ok, expect[many])
    msgs, ok = decode_blocks(scheme, soft[:0])
    assert msgs.shape == (0, chain.block.k) and ok.shape == (0,)


def test_c_backend_makes_one_compiled_call_per_batch_and_no_blas_call(monkeypatch):
    if kernels.BACKEND != "c":
        pytest.skip("no compiled kernel")
    # The decode is a kernels.viterbi_batch call, so that a trace of that layer sees it.
    calls = []
    for name in ("_encoder", "viterbi_batch", "_decoder", "_channel"):
        original = getattr(kernels, name)
        monkeypatch.setattr(kernels, name, lambda *args, name=name, f=original, **kwargs:
                            calls.append(name) or f(*args, **kwargs))

    def blas(*args):
        raise AssertionError("the BLAS parity ran")

    monkeypatch.setattr(coding.BlockCode, "_parity", blas)
    for scheme in SchemeId:
        calls.clear()
        msgs = _message_rows(scheme, 7, "int64", 3)
        decoded, ok = decode_blocks(scheme, _perfect_soft(encode_blocks(scheme, msgs)))
        assert calls == ["_encoder", "viterbi_batch", "_decoder"]
        assert ok.all() and np.array_equal(decoded, msgs)
        calls.clear()
        outcome = decode_block(scheme, _perfect_soft(encode_blocks(scheme, msgs[:1])[0]))
        assert calls == ["_encoder", "viterbi_batch", "_decoder"]
        assert outcome.ok and np.array_equal(outcome.message, msgs[0])
    reports = sweep(list(SchemeId), [0.0, 2.0], min_frames=600, min_errors=20, seed=4)
    assert sum(r.frames for r in reports) > 0


def test_numpy_chains_give_the_compiled_chains_bits(monkeypatch):
    # Without a compiler every chain runs the numpy stages and the BLAS check.
    rng = np.random.default_rng(5)
    for scheme, chain in list(_CHAINS.items()):
        monkeypatch.setattr(kernels, "BACKEND", "numpy")
        numpy_chain = _Chain(chain.code, chain.punctures, chain.block)
        monkeypatch.undo()
        assert numpy_chain.kernel is None
        msgs = rng.integers(0, 2, size=(9, chain.block.k), dtype=np.uint8)
        soft = rng.normal(0.0, 1.5, size=(9, chain.coded_bits))
        soft[0] = 0.0
        coded, outcome = encode_blocks(scheme, msgs), decode_blocks(scheme, soft)
        monkeypatch.setitem(_CHAINS, scheme, numpy_chain)
        assert np.array_equal(encode_blocks(scheme, msgs), coded)
        for got, expect in zip(decode_blocks(scheme, soft), outcome):
            assert np.array_equal(got, expect)
        monkeypatch.undo()


@pytest.mark.parametrize("scheme", [SchemeId.STANDARD_456, SchemeId.M1_CS12_P12])
def test_chain_kernel_takes_only_a_map_onto_every_coded_column(scheme):
    # hrcc_encode writes each kept column, in order, into (frames, width) rows it does not clear.
    if kernels.ChainKernel is None:
        pytest.skip("no compiled kernel")
    chain = _CHAINS[scheme]
    good = chain.source
    missing, repeated, swapped = good.copy(), good.copy(), good.copy()
    missing[np.flatnonzero(good >= 0)[7]] = -1
    repeated[np.flatnonzero(good >= 0)[7]] = good[np.flatnonzero(good >= 0)[8]]
    swapped[np.flatnonzero(good >= 0)[7:9]] = good[np.flatnonzero(good >= 0)[8:6:-1]]
    for bad in (missing, repeated, swapped, good[:-2], np.append(good, -1)):
        with pytest.raises(ValueError, match="each coded column once"):
            kernels.ChainKernel(chain.block, chain.code, bad)
    assert kernels.ChainKernel(chain.block, chain.code, good).width == chain.coded_bits
