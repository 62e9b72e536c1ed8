import numpy as np
import pytest

from hrcc.bits import Burst
from hrcc.interleaving import (
    InterleaveMode,
    deinterleave,
    deinterleave_batch,
    demap_burst,
    destinations,
    interleave,
    interleave_batch,
    map_to_burst,
)


@pytest.mark.parametrize("call", [
    lambda mode: interleave(mode, np.zeros(456, dtype=np.uint8)),
    lambda mode: deinterleave(mode, [np.zeros(114)] * 4),
    lambda mode: interleave_batch(mode, np.zeros((1, 456), dtype=np.uint8)),
    lambda mode: deinterleave_batch(mode, np.zeros((1, 456))),
    destinations,
], ids=["interleave", "deinterleave", "interleave_batch", "deinterleave_batch", "destinations"])
@pytest.mark.parametrize("bad", ["std4", "mod2", None])
def test_interleavers_take_only_an_interleave_mode(call, bad):
    # A mode's value in place of the mode raised AttributeError (KeyError in destinations).
    with pytest.raises(TypeError, match=f"mode must be an InterleaveMode, got {bad!r}"):
        call(bad)


@pytest.mark.parametrize("mode", list(InterleaveMode))
def test_interleaver_is_a_bijection(mode):
    dest = destinations(mode)
    assert sorted(dest.tolist()) == list(range(mode.block_bits))


def test_mod2_positions_follow_the_halved_stride_rule():
    dest = destinations(InterleaveMode.MOD2)
    # (burst, intra-burst position) worked out by hand for the first bits
    assert dest[0] == 114 * 0 + 0
    assert dest[1] == 114 * 1 + 98
    assert dest[2] == 114 * 0 + 83
    assert dest[3] == 114 * 1 + 67


def test_std4_positions_follow_the_block_rectangular_rule():
    dest = destinations(InterleaveMode.STD4)
    assert dest[0] == 114 * 0 + 0
    assert dest[1] == 114 * 1 + 98
    assert dest[57] == 114 * 1 + 0
    assert dest[455] == 114 * 3 + 17


@pytest.mark.parametrize("mode", list(InterleaveMode))
def test_interleave_shapes_and_zero_block(mode):
    subs = interleave(mode, np.zeros(mode.block_bits, dtype=np.uint8))
    assert len(subs) == mode.burst_count
    assert all(s.size == 114 and not s.any() for s in subs)
    with pytest.raises(ValueError):
        interleave(mode, np.zeros(mode.block_bits + 1, dtype=np.uint8))


@pytest.mark.parametrize("mode", list(InterleaveMode))
def test_deinterleave_inverts_interleave(mode):
    rng = np.random.default_rng(31)
    for _ in range(20):
        block = rng.integers(0, 2, size=mode.block_bits, dtype=np.uint8)
        subs = interleave(mode, block)
        soft = deinterleave(mode, [1.0 - 2.0 * s for s in subs])
        assert np.array_equal((soft < 0).astype(np.uint8), block)


def test_deinterleave_validates_counts():
    with pytest.raises(ValueError):
        deinterleave(InterleaveMode.MOD2, [np.zeros(114)])
    with pytest.raises(ValueError):
        deinterleave(InterleaveMode.MOD2, [np.zeros(114), np.zeros(113)])


def test_deinterleave_all_erasures():
    subs = [np.zeros(114), np.zeros(114)]
    assert not deinterleave(InterleaveMode.MOD2, subs).any()


def test_single_observation_maps_to_its_source_index():
    # burst 1, position 0 comes from coded bit 57 in MOD2
    subs = [np.zeros(114), np.zeros(114)]
    subs[1][0] = 1.0
    soft = deinterleave(InterleaveMode.MOD2, subs)
    assert soft[57] == 1.0
    assert np.count_nonzero(soft) == 1


@pytest.mark.parametrize("mode", list(InterleaveMode))
def test_batch_helpers_match_single_block(mode):
    rng = np.random.default_rng(32)
    blocks = rng.integers(0, 2, size=(8, mode.block_bits), dtype=np.uint8)
    streams = interleave_batch(mode, blocks)
    for row, block in zip(streams, blocks):
        assert np.array_equal(row.reshape(mode.burst_count, 114), np.array(interleave(mode, block)))
    back = deinterleave_batch(mode, streams.astype(np.float64))
    assert np.array_equal(back.astype(np.uint8), blocks)


@pytest.mark.parametrize("mode", list(InterleaveMode))
def test_batch_permutations_are_c_ordered_and_follow_the_definition(mode):
    rng = np.random.default_rng(33)
    dest = destinations(mode)
    blocks = rng.integers(0, 2, size=(9, mode.block_bits), dtype=np.uint8)
    streams = np.asfortranarray(rng.normal(size=(9, mode.block_bits)))
    expect_stream = np.empty_like(blocks)
    expect_back = np.empty_like(streams)
    for k in range(mode.block_bits):  # coded bit k travels in stream column dest[k]
        expect_stream[:, dest[k]] = blocks[:, k]
        expect_back[:, k] = streams[:, dest[k]]
    for got, expect in ((interleave_batch(mode, blocks), expect_stream),
                        (deinterleave_batch(mode, streams), expect_back)):
        assert got.flags.c_contiguous and got.dtype == expect.dtype
        assert np.array_equal(got, expect)
    for permute in (interleave_batch, deinterleave_batch):
        with pytest.raises(ValueError, match="permutes rows"):
            permute(mode, np.zeros((2, mode.block_bits + 1)))
        with pytest.raises(ValueError, match="permutes rows"):
            permute(mode, np.zeros(mode.block_bits))


@pytest.mark.parametrize("mode", list(InterleaveMode))
def test_batch_twins_apply_their_single_block_value_rules(mode):
    # interleave_batch permuted 7s and deinterleave_batch strings and NaNs, which their
    # single-block twins refuse.
    width = mode.block_bits
    for bad in (7, -1, 0.5):
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            interleave_batch(mode, np.full((2, width), bad))
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            interleave(mode, np.full(width, bad))
    assert interleave_batch(mode, np.ones((2, width), bool)).dtype == np.uint8
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="soft values must be finite"):
            deinterleave_batch(mode, np.full((2, width), bad))
        with pytest.raises(ValueError, match="soft values must be finite"):
            deinterleave(mode, list(np.full((mode.burst_count, 114), bad)))
    for bad in ("1", b"1", 1 + 1j):
        with pytest.raises(TypeError, match="soft values must have a bool, integer or float"):
            deinterleave_batch(mode, np.full((2, width), bad))
    assert deinterleave_batch(mode, np.ones((2, width), np.int8)).dtype == np.float64


def test_map_to_burst_and_demap():
    rng = np.random.default_rng(33)
    sub = rng.integers(0, 2, size=114, dtype=np.uint8)
    burst = map_to_burst(sub)
    assert burst.hl == 1 and burst.hu == 1
    assert np.array_equal(burst.payload, sub)
    # bit 57 is the first one of the second data field
    assert burst.payload[57] == sub[57]
    soft = demap_burst(burst)
    assert np.array_equal((soft < 0).astype(np.uint8), sub)
    with pytest.raises(ValueError):
        map_to_burst(np.zeros(113, dtype=np.uint8))


def test_demap_passes_received_soft_values_through():
    values = np.linspace(-2.0, 2.0, 114)
    assert np.array_equal(demap_burst(values), values)
    zero_burst = Burst(payload=np.zeros(114, dtype=np.uint8))
    assert (demap_burst(zero_burst) > 0).all()

