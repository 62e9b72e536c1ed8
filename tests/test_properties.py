"""Property-based checks of the codecs, the interleavers and the decoders.

Example counts are capped so the tier-1 suite stays fast, and no examples
are stored between runs.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hrcc import kernels, messages
from hrcc.bits import SubAllocation, antipodal, from_hex, to_hex
from hrcc.coding import (
    CONSTRAINT_LENGTH,
    CONV_RATE_12,
    CONV_RATE_13,
    TAIL_BITS,
    ConvCode,
    _sym_table,
    _tap_table,
)
from hrcc.interleaving import InterleaveMode, deinterleave_batch, interleave_batch
from hrcc.schemes import (
    _CHAINS,
    SchemeId,
    decode_block,
    decode_blocks,
    encode_block,
    encode_blocks,
)

from oracles import paper_punctures

FEW = settings(max_examples=20, deadline=None, database=None)
SOME = settings(max_examples=60, deadline=None, database=None)

SCHEMES = st.sampled_from(list(SchemeId))
BITS = st.integers(0, 1)
# Soft values on a coarse grid make many path metrics tie; 0.0 is an erasure.
TIES = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])
SOFT = TIES | st.floats(-8.0, 8.0)


def _message_batch(data, scheme, max_frames=5):
    frames = data.draw(st.integers(1, max_frames), label="frames")
    shape = (frames, _CHAINS[scheme].block.k)
    return data.draw(hnp.arrays(np.uint8, shape, elements=BITS), label="messages")


@FEW
@given(scheme=SCHEMES, data=st.data())
def test_batch_codecs_equal_the_single_block_codecs(scheme, data):
    msgs = _message_batch(data, scheme)
    coded = encode_blocks(scheme, msgs)
    soft = data.draw(hnp.arrays(np.float64, coded.shape, elements=SOFT), label="soft")
    decoded, ok = decode_blocks(scheme, soft)
    for i, msg in enumerate(msgs):
        assert np.array_equal(coded[i], encode_block(scheme, msg))
        single = decode_block(scheme, soft[i])
        assert np.array_equal(decoded[i], single.message) and ok[i] == single.ok


@FEW
@given(scheme=SCHEMES, data=st.data())
def test_noiseless_blocks_decode_to_their_messages(scheme, data):
    msgs = _message_batch(data, scheme)
    coded = encode_blocks(scheme, msgs)
    # In coded order, and sent through the interleaver and back as `hrcc roundtrip` does.
    mode = _CHAINS[scheme].interleave
    stream = antipodal(interleave_batch(mode, coded))
    for soft in (antipodal(coded), deinterleave_batch(mode, stream)):
        decoded, ok = decode_blocks(scheme, soft)
        assert ok.all() and np.array_equal(decoded, msgs)


@FEW
@given(mode=st.sampled_from(list(InterleaveMode)), data=st.data())
def test_interleavers_are_bijections(mode, data):
    # interleave_batch takes bits, deinterleave_batch soft values, so the rows are 0/1 values.
    shape = (data.draw(st.integers(1, 3), label="frames"), mode.block_bits)
    rows = data.draw(hnp.arrays(np.uint8, shape, elements=st.integers(0, 1)), label="rows")
    assert np.array_equal(deinterleave_batch(mode, interleave_batch(mode, rows)), rows)
    assert np.array_equal(interleave_batch(mode, deinterleave_batch(mode, rows)), rows)
    soft = data.draw(hnp.arrays(np.float64, shape, elements=SOFT), label="soft")
    assert np.array_equal(np.sort(deinterleave_batch(mode, soft)), np.sort(soft))  # each row


@SOME
@given(bits=hnp.arrays(np.uint8, st.integers(1, 300), elements=BITS))
def test_hex_notation_round_trips(bits):
    assert np.array_equal(from_hex(to_hex(bits)), bits)


@SOME
@given(
    assignment=st.builds(
        messages.ChannelAssignment,
        channel_type=st.integers(0, 31),
        timeslot=st.integers(0, 7),
        training_seq=st.integers(0, 7),
        arfcn=st.integers(0, 1023),
        suballoc=st.sampled_from(list(SubAllocation)),
    )
)
def test_assignment_codec_round_trips(assignment):
    image = messages.encode_immediate_assignment(assignment)
    assert messages.decode_immediate_assignment(image) == assignment


@SOME
@given(payload=st.binary(max_size=8), address=st.integers(0, 255), control=st.integers(0, 255))
def test_lapdm_codec_round_trips(payload, address, control):
    frame = messages.encode_lapdm_tailored(payload, address, control)
    assert messages.decode_lapdm_tailored(frame) == (payload, address, control)


@pytest.mark.skipif(kernels.viterbi_batch_c is None, reason="no compiled kernel")
@SOME
@given(code=st.sampled_from([CONV_RATE_12, CONV_RATE_13]), data=st.data())
def test_compiled_kernel_equals_the_numpy_kernel(code, data):
    # Up to 17 frames: two eight-lane groups, a four-lane group and every
    # remainder, on ties and erasures, read in order or through a map with
    # deleted columns.
    syms = _sym_table(code.generators)
    width = code.n_out * data.draw(st.integers(1, 40), label="steps")
    in_width = data.draw(st.none() | st.integers(1, 60), label="mapped row width")
    source = None
    if in_width is not None:
        source = data.draw(
            hnp.arrays(np.int32, width, elements=st.integers(-1, in_width - 1)), label="map"
        )
    shape = (data.draw(st.integers(1, 17), label="frames"), in_width or width)
    soft = data.draw(hnp.arrays(np.float64, shape, elements=SOFT), label="soft")
    expect = kernels.viterbi_batch_np(soft, syms, source)
    assert np.array_equal(kernels.viterbi_batch_c(soft, syms, source), expect)


@pytest.mark.skipif(kernels.BACKEND != "c", reason="no compiled kernel")
@SOME
@given(scheme=SCHEMES, data=st.data())
def test_compiled_chain_equals_the_numpy_chain(scheme, data):
    # Up to 17 frames through the compiled encoder, against BlockCode's BLAS
    # parity, conv_encode_batch_np and the paper's puncture steps; then the
    # noiseless encodings of the same words, with and without flipped bits,
    # through the compiled decoder and its check, against BlockCode's BLAS check.
    chain = _CHAINS[scheme]
    frames = data.draw(st.integers(0, 17), label="frames")
    msgs = data.draw(hnp.arrays(np.uint8, (frames, chain.block.k), elements=BITS), label="msgs")
    words = np.concatenate([msgs, chain.block.parity_batch(msgs)], axis=1)
    flips = data.draw(hnp.arrays(np.uint8, words.shape, elements=st.sampled_from([0, 0, 0, 1])),
                      label="flips")

    def mother_coded(words):
        tailed = np.pad(words, ((0, 0), (0, TAIL_BITS)))
        coded = kernels.conv_encode_batch_np(tailed, _tap_table(chain.code.generators))
        return paper_punctures(chain, coded)

    assert np.array_equal(encode_blocks(scheme, msgs), mother_coded(words))
    for batch in (words, words ^ flips):
        decoded, ok = decode_blocks(scheme, antipodal(mother_coded(batch)))
        assert np.array_equal(decoded, batch[:, : chain.block.k])
        assert np.array_equal(ok, chain.block.check_batch(batch))


def _sym_table_loop(generators):
    """The branch table as first written: one output bit at a time."""
    taps = _tap_table(generators)
    syms = np.empty((16, 2, len(generators)), dtype=np.float64)
    for s in range(16):
        for b in (0, 1):
            window = (b, (s >> 3) & 1, (s >> 2) & 1, (s >> 1) & 1, s & 1)
            for j in range(len(generators)):
                bit = 0
                for k in range(CONSTRAINT_LENGTH):
                    bit ^= taps[j, k] & window[k]
                syms[s, b, j] = 1.0 - 2.0 * bit
    return syms


@SOME
@given(generators=st.lists(st.integers(0, 31), min_size=1, max_size=4).map(tuple))
def test_sym_table_equals_the_loop_definition(generators):
    table = _sym_table(generators)
    assert table.dtype == np.float64 and not table.flags.writeable
    assert np.array_equal(table, _sym_table_loop(generators))


def _eight_steps_loop(generators):
    """The encoder's eight-step table one output bit at a time: entry v's 12 inputs in time
    order from bit 11, and the register window of step i the 5 of them that end at bit 7 - i."""
    taps = _tap_table(generators).tolist()
    table = []
    for v in range(4096):
        entry = 0
        for i in range(8):
            window = [(v >> (7 - i + lag)) & 1 for lag in range(CONSTRAINT_LENGTH)]
            for j, tap in enumerate(taps):
                bit = 0
                for lag in range(CONSTRAINT_LENGTH):
                    bit ^= tap[lag] & window[lag]
                entry |= bit << (i * len(taps) + j)
        table.append(entry)
    return table


@pytest.mark.parametrize("generators", [CONV_RATE_12.generators, CONV_RATE_13.generators,
                                        (0b10001, 0b11111), (0b11111, 0b10101, 0b10001)])
def test_eight_step_table_equals_the_loop_definition(generators):
    table = ConvCode(generators).eight_steps
    assert table.dtype == np.uint32 and table.shape == (4096,) and not table.flags.writeable
    assert table.tolist() == _eight_steps_loop(generators)


def test_a_failing_property_reports_its_example_under_the_suites_warning_filters(tmp_path):
    # Printing a falsifying example imports libcst, which warns on import; the
    # suite's "error" filter must not turn that into an INTERNALERROR.
    (tmp_path / "test_one_property.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
    """))
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider",
         "test_one_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert result.returncode == 1, out
    assert "Falsifying example" in out
    assert "1 failed, 1 passed" in out
