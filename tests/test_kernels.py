import ctypes
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import hrcc
from hrcc import kernels
from hrcc.bits import frozen
from hrcc.coding import (CONV_RATE_12, CONV_RATE_13, FIRE_POLY, PARITY20_POLY, BlockCode,
                         _sym_table, conv_encode_batch)
from hrcc.interleaving import destinations
from hrcc.schemes import _CHAINS, SchemeId, decode_block, decode_blocks
from hrcc.simulation import reports_to_csv, sweep

from oracles import paper_punctures
import test_single_block

CODES = [CONV_RATE_12, CONV_RATE_13]
STEPS = 228


def _assert_kernels_agree(soft, code):
    syms = _sym_table(code.generators)
    active = kernels.viterbi_batch(soft, syms)
    reference = kernels.viterbi_batch_np(soft, syms)
    assert active.dtype == reference.dtype == np.uint8
    assert active.shape == reference.shape == (soft.shape[0], soft.shape[1] // code.n_out)
    assert np.array_equal(active, reference)
    return active


def _cpu_flags() -> set[str]:
    """The CPU's feature flags as /proc/cpuinfo lists them; empty where it cannot be read."""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            return next((set(line.split(":", 1)[1].split()) for line in fh
                         if line.startswith("flags")), set())
    except OSError:
        return set()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_compiled_kernel_is_active():
    # Otherwise every comparison below would check numpy against itself.
    assert kernels.BACKEND == hrcc.BACKEND == "c"
    assert kernels.viterbi_batch is kernels.viterbi_batch_c
    assert kernels.channel is kernels.channel_c and kernels.NORMALS == "c"
    assert kernels.draw_bits is kernels.draw_bits_c and kernels.BITS == "c"
    flags = _cpu_flags()
    eight = {"avx512f", "avx512dq"} <= flags
    assert kernels.LANES == (8 if eight else 4 if "avx2" in flags else 1)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_source_builds_without_warnings_and_exports_one_decoder(tmp_path):
    library = tmp_path / "viterbi.so"
    build = subprocess.run(
        ["cc", *kernels._C_FLAGS, "-Wall", "-Wextra", "-Wpedantic", "-Werror", "-o", str(library),
         str(kernels._C_SOURCE), *kernels._C_LIBS],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    if shutil.which("nm") is not None:
        listing = subprocess.run(
            ["nm", "-D", "--defined-only", str(library)], capture_output=True, text=True, check=True
        )
        defined = {line.split()[-1] for line in listing.stdout.splitlines() if line.strip()}
        assert defined == {"hrcc_viterbi", "hrcc_viterbi_lanes", "hrcc_channel", "hrcc_encode",
                           "hrcc_bits", "hrcc_errors"}


def _argtype(param: str):
    """The ctypes type that passes one C parameter, such as ``const int32_t *source``."""
    if "*" in param:
        return ctypes.c_void_p
    kinds = {"ptrdiff_t": ctypes.c_ssize_t, "int": ctypes.c_int, "double": ctypes.c_double}
    return kinds[param.split()[-2]]


def test_bound_argument_lists_match_the_c_definitions():
    # ctypes calls a function with the argtypes it is given, whatever the C
    # takes: a missing, extra or misordered argument is undefined behaviour,
    # not an error, so each parameter's kind is compared, position by position,
    # and the result's kind too.
    functions = kernels._load_c_library()
    if functions[0] is None:
        pytest.skip("no compiled kernel")
    definitions = re.findall(r"^(int|void) (hrcc_\w+)\(([^)]*)\)",
                             kernels._C_SOURCE.read_text(), re.M)
    params = {name: ({"int": ctypes.c_int, "void": None}[result],
                     [] if args.strip() == "void" else [_argtype(a) for a in args.split(",")])
              for result, name, args in definitions}
    assert params == {f.__name__: (f.restype, list(f.argtypes)) for f in functions}
    # Definitions that span lines are read whole: the channel's first argument is its bitgen_t.
    assert len(params) == 6 and params["hrcc_channel"][1][:2] == [ctypes.c_void_p] * 2
    assert params["hrcc_bits"] == (None, [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_ssize_t])
    assert params["hrcc_errors"] == (None, [ctypes.c_void_p, ctypes.c_ssize_t] * 2
                                     + [ctypes.c_ssize_t] * 2 + [ctypes.c_void_p])


def test_code_struct_matches_the_c_definition():
    # hrcc_viterbi and hrcc_encode read a code's constant operands through one hrcc_code
    # pointer, which kernels._Code lays out by its own field list: a missing, extra,
    # misordered or mistyped field is undefined behaviour, not an error, so each field's
    # name and kind are compared, position by position.
    body = re.search(r"^typedef struct \{([^}]*)\} hrcc_code;", kernels._C_SOURCE.read_text(),
                     re.M).group(1)
    fields = [(decl.split()[-1].lstrip("*"), _argtype(decl)) for decl in body.split(";")
              if decl.strip()]
    assert len(fields) == 10 and fields == list(kernels._Code._fields_)


def test_status_constants_match_the_c_definitions():
    # kernels turns each status of hrcc_viterbi, hrcc_channel and hrcc_encode into its
    # exception by name, so a renumbered or added status in C must fail here, not raise
    # the wrong exception.
    statuses = re.findall(r"\b(HRCC_\w+) = (-?\d+)\b", kernels._C_SOURCE.read_text())
    assert {name: int(value) for name, value in statuses} == {
        name: value for name, value in vars(kernels).items() if name.startswith("HRCC_")}
    assert sorted(name for name, _ in statuses) == [
        "HRCC_NOT_BINARY", "HRCC_NOT_FINITE", "HRCC_NO_MEMORY", "HRCC_OK"]
    assert len({value for _, value in statuses}) == len(statuses)  # one meaning per value


def test_neg_metric_matches_the_c_definition():
    # Both decoders start every state but 0 at NEG_METRIC, so their ties and overflows agree
    # only while the two values do.
    defined = re.findall(r"^#define NEG_METRIC \((\S+)\)$", kernels._C_SOURCE.read_text(), re.M)
    assert [float(value) for value in defined] == [kernels.NEG_METRIC]


@pytest.mark.parametrize("code", CODES)
def test_random_rows_agree(code):
    rng = np.random.default_rng(23)
    _assert_kernels_agree(rng.normal(0.0, 2.0, size=(300, STEPS * code.n_out)), code)


@pytest.mark.parametrize("code", CODES)
def test_erasure_rows_agree_and_decode_to_zeros(code):
    rng = np.random.default_rng(24)
    soft = rng.normal(0.0, 2.0, size=(40, STEPS * code.n_out))
    soft[::4] = 0.0
    soft[1::4, ::5] = 0.0
    decoded = _assert_kernels_agree(soft, code)
    assert not decoded[::4].any()


@pytest.mark.parametrize("code", CODES)
def test_exact_ties_agree(code):
    # Soft values in {-1, 0, 1} make many candidate metrics exactly equal,
    # so this pins down the tie rule (odd predecessor only when strictly better).
    rng = np.random.default_rng(25)
    soft = rng.integers(-1, 2, size=(200, STEPS * code.n_out)).astype(np.float64)
    _assert_kernels_agree(soft, code)


@pytest.mark.parametrize("code", CODES)
def test_single_and_zero_frames_agree(code):
    rng = np.random.default_rng(26)
    _assert_kernels_agree(rng.normal(0.0, 2.0, size=(1, STEPS * code.n_out)), code)
    _assert_kernels_agree(np.zeros((0, STEPS * code.n_out)), code)


def test_strided_input_agrees():
    rng = np.random.default_rng(27)
    wide = rng.normal(0.0, 2.0, size=(16, 2 * STEPS * 2))
    _assert_kernels_agree(wide[:, ::2], CONV_RATE_12)
    _assert_kernels_agree(wide[::3, : STEPS * 2].astype(np.float32), CONV_RATE_12)


def _decode_in_calls_of(most):
    """A decode of ``rows`` in calls of at most ``most`` frames each."""
    def decode(rows, syms, source=None):
        return np.concatenate([kernels.viterbi_batch(rows[i : i + most], syms, source)
                               for i in range(0, len(rows), most)])
    return decode


@pytest.fixture(params=["avx2", "avx512", "four-lane", "scalar"])
def entry(request):
    """Each width of the compiled decoder's one body, reached through ``kernels.viterbi_batch``.

    ``avx2`` decodes the batch in one call, on any CPU: every whole group runs
    at the widest width the CPU has (groups of eight on AVX-512, then a group of
    four left over; groups of four on AVX2 alone) and the remainder on one
    lane.  ``avx512`` decodes it in calls of at most eight frames, so a call of
    eight runs one group on eight lanes and nothing else; it runs only where
    the CPU has AVX-512F and DQ.  ``four-lane`` decodes it in calls of at most
    seven frames, so that a call of four to seven frames runs its first four on
    four lanes wherever the CPU has AVX2, AVX-512 or not.  ``scalar`` decodes it
    in calls of at most three frames, which are all remainder, so every frame
    runs on the one-lane width, plain scalar C, on any CPU.
    """
    if kernels.viterbi_batch_c is None:
        pytest.skip("no compiled kernel")
    if request.param == "avx2":
        return kernels.viterbi_batch
    if request.param == "avx512" and not {"avx512f", "avx512dq"} <= _cpu_flags():
        pytest.skip("no AVX-512F and DQ: the eight-lane body does not run on this CPU")
    return _decode_in_calls_of({"avx512": 8, "four-lane": 7, "scalar": 3}[request.param])


def _chain_case(scheme, rows):
    """(source map, branch table, reference decode of ``rows``) for the scheme's chain.

    The reference undoes the paper's puncture steps one at a time, then runs the
    numpy kernel.  A chain without puncturing has the identity map.
    """
    chain = _CHAINS[scheme]
    syms = _sym_table(chain.code.generators)
    mother = paper_punctures(chain, rows, undo=True)
    return chain.source, syms, kernels.viterbi_batch_np(mother, syms)


@lru_cache(maxsize=None)
def _map_case(scheme, nframes):
    """(rows, source map, branch table, reference) of one chain and frame count, made once
    for every entry.  The numpy kernel must give the reference through the chain's map too:
    a failed check caches nothing, so it fails each entry's case again."""
    rng = np.random.default_rng([28, nframes])
    rows = rng.normal(0.0, 2.0, size=(nframes, _CHAINS[scheme].coded_bits))
    source, syms, reference = _chain_case(scheme, rows)
    assert np.array_equal(kernels.viterbi_batch_np(rows, syms, source), reference)
    return rows, source, syms, reference


@pytest.mark.parametrize("scheme", list(SchemeId))
@pytest.mark.parametrize("nframes", [1, 2, 3, 4, 5, 6, 7, 15, 513, 515, 519])
def test_entry_points_read_every_chains_map(entry, scheme, nframes):
    # Whole groups of eight and of four followed by a remainder of every size,
    # through the identity map (standard, m2-reduced) and the three puncturing maps.
    rows, source, syms, reference = _map_case(scheme, nframes)
    assert np.array_equal(entry(rows, syms, source), reference)
    if not _CHAINS[scheme].punctures:
        assert np.array_equal(entry(rows, syms), reference)


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_entry_points_on_erasure_and_tie_rows(entry, scheme):
    rng = np.random.default_rng(29)
    width = _CHAINS[scheme].coded_bits
    rows = rng.integers(-1, 2, size=(23, width)).astype(np.float64)
    rows[::5] = 0.0
    rows[1::5] = rng.normal(0.0, 2.0, size=(5, width))
    rows[1::5, ::3] = 0.0
    source, syms, reference = _chain_case(scheme, rows)
    decoded = entry(rows, syms, source)
    assert np.array_equal(decoded, reference)
    assert not decoded[::5].any()


LANE_COUNTS = [*range(1, 18), 512]  # groups of eight, of four and every leftover count
GROUP = max(kernels.LANES, 1)  # the frames of the widest group that this CPU runs


def _lane_rows(width, nframes, seed):
    """``nframes`` soft rows of the eight kinds below.  Lane l of group g, row
    g * ``GROUP`` + l, takes kind (l + g) % 8: a group holds each kind at most once, so its
    rows decode to words of their own, and each lane meets every kind in eight groups."""
    rng = np.random.default_rng(seed)

    def signed_zeros():  # ties between +0.0 and -0.0, then a path of its own
        row = rng.normal(0.0, 2.0, width)
        row[: width // 2] = np.copysign(0.0, rng.normal(size=width // 2))
        return row

    def erased_tail():  # a path of its own, then erasures to the end
        row = rng.normal(0.0, 2.0, width)
        row[width // 2 :] = 0.0
        return row

    def tied_head():  # ties at every step, then a path of its own
        row = rng.normal(0.0, 2.0, width)
        row[: width // 2] = rng.integers(-1, 2, width // 2)
        return row

    def every_third_erased():
        row = rng.normal(0.0, 2.0, width)
        row[::3] = 0.0
        return row

    kinds = [
        lambda: np.zeros(width),  # all erasures
        lambda: rng.integers(-1, 2, width).astype(np.float64),  # ties at every step
        signed_zeros,
        lambda: rng.normal(0.0, 2.0, width),
        erased_tail,
        lambda: rng.choice([-1.0, 1.0], width),  # hard decisions
        tied_head,
        every_third_erased,
    ]
    assert GROUP <= len(kinds)
    return np.array([kinds[(f % GROUP + f // GROUP) % len(kinds)]() for f in range(nframes)])


@lru_cache(maxsize=None)
def _lane_cases(scheme):
    """(branch table, [(rows, numpy decode through the chain's map)] for each of LANE_COUNTS)
    of one chain, made once for every entry."""
    chain = _CHAINS[scheme]
    syms = _sym_table(chain.code.generators)
    cases = []
    for nframes in LANE_COUNTS:
        rows = _lane_rows(chain.coded_bits, nframes, [32, nframes])
        cases.append((rows, kernels.viterbi_batch_np(rows, syms, chain.source)))
    return syms, cases


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_entry_points_trace_every_lane_back_on_its_own(entry, scheme):
    # The rows of a group decode to different words, so a traceback that
    # shared one lane's state, or read another lane's decision bits, fails.
    syms, cases = _lane_cases(scheme)
    for rows, reference in cases:
        decoded = entry(rows, syms, _CHAINS[scheme].source)
        assert np.array_equal(decoded, reference)
        for first in range(0, len(rows), GROUP):
            group = decoded[first : first + GROUP]
            assert len({row.tobytes() for row in group}) == len(group)


@pytest.mark.parametrize("code", CODES)
def test_entry_points_trace_back_every_step_count(entry, code):
    # The vector widths write each lane's row back eight steps at a time, then the steps
    # left over one by one: 1 to 17 steps leave every remainder, on whole groups of eight
    # and of four frames.
    for nsteps in range(1, 18):
        for nframes in (8, 12, 16):
            rows = _lane_rows(nsteps * code.n_out, nframes, [34, nsteps, nframes])
            reference = kernels.viterbi_batch_np(rows, code.branches)
            assert np.array_equal(entry(rows, code.branches), reference), (nsteps, nframes)


def test_entry_points_take_strided_and_float32_input(entry):
    rng = np.random.default_rng(30)
    wide = rng.normal(0.0, 2.0, size=(15, 2 * 228))
    source, syms, reference = _chain_case(SchemeId.M1_CS12_P12, wide[:, ::2].copy())
    assert np.array_equal(entry(wide[:, ::2], syms, source), reference)
    narrow = wide[::2, :228].astype(np.float32)
    _, _, reference = _chain_case(SchemeId.M1_CS12_P12, narrow.astype(np.float64))
    assert np.array_equal(entry(narrow, syms, source), reference)


@pytest.mark.parametrize("bad", [[0, 1, 228, 3], [0, -2, 1, 2], [[0, 1], [2, 3]], [0.0, 1.0]])
def test_out_of_range_source_maps_are_rejected(bad):
    syms = _sym_table(CONV_RATE_12.generators)
    for decode in filter(None, [kernels.viterbi_batch_np, kernels.viterbi_batch_c]):
        with pytest.raises(ValueError, match="source map"):
            decode(np.zeros((2, 228)), syms, np.array(bad))


def test_frozen_tables_cannot_be_written_and_views_of_them_are_read_as_views():
    table = frozen(np.arange(228))
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table.flags.writeable = True
    # A view of a frozen table is read as the view, not as the table it views.
    syms = _sym_table(CONV_RATE_12.generators)
    soft = np.random.default_rng(31).normal(0.0, 2.0, size=(3, 228))
    for decode in filter(None, [kernels.viterbi_batch_np, kernels.viterbi_batch_c]):
        for view in (table, table[::-1], frozen(np.arange(456))[:228]):
            assert np.array_equal(decode(soft, syms, view), decode(soft, syms, view.copy()))


@pytest.mark.parametrize("bad", [[0, 1, 228, 3], [0, -2, 1, 2]])
def test_frozen_maps_are_checked_like_any_other(bad):
    syms = _sym_table(CONV_RATE_12.generators)
    for decode in filter(None, [kernels.viterbi_batch_np, kernels.viterbi_batch_c]):
        with pytest.raises(ValueError, match="source map"):
            decode(np.zeros((2, 228)), syms, frozen(bad))
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        with pytest.raises(ValueError, match="source map"):
            channel(np.random.default_rng(0), np.zeros((2, 4)), np.ones((2, 4), dtype=np.uint8),
                    0.8, frozen(bad))


def _old_channel(z, bits, sigma, columns):
    # The channel before the compiled loop: the interleaved stream's
    # antipodal values added to sigma * z, doubled, divided by sigma^2.
    stream = bits if columns is None else bits[:, columns]
    return 2.0 * ((1.0 - 2.0 * stream) + sigma * z) / (sigma * sigma)


@pytest.mark.parametrize("scheme", [None, *SchemeId])
@pytest.mark.parametrize("nframes", [0, 1, 4, 513])
@pytest.mark.parametrize("sigma", [2e-152, 0.8, 1.3e154])
def test_channel_backends_give_the_old_channels_doubles(scheme, nframes, sigma):
    # No scheme: 456-bit rows in order.  The sigmas sit near both ends of
    # the range the simulation accepts for 456-value blocks.
    assert kernels.check_sigma(sigma, 456) == sigma
    dest = None if scheme is None else destinations(_CHAINS[scheme].interleave)
    width = 456 if dest is None else dest.size
    bits = np.random.default_rng(nframes).integers(0, 2, size=(nframes, width), dtype=np.uint8)
    numpys = np.random.default_rng(nframes + 1)
    z = numpys.standard_normal((nframes, width))
    # The old channel sent coded bit k in burst column dest[k], through the
    # inverse map; its burst-order output read through dest is coded order.
    expect = _old_channel(z, bits, sigma, None if dest is None else np.argsort(dest))
    if dest is not None:
        expect = expect[:, dest]
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        rng, out = np.random.default_rng(nframes + 1), np.empty((nframes, width))
        assert channel(rng, out, bits, sigma, dest) is out
        assert out.tobytes() == expect.tobytes()
        assert rng.bit_generator.state == numpys.bit_generator.state


def test_channel_backends_read_the_noise_through_any_map():
    # Entries may repeat or stay put: column j gets bit j and the normal at columns[j].
    # An odd width leaves the compiled loop one column after its pairs.
    rng = np.random.default_rng(9)
    for width in (12, 13):
        columns = rng.integers(0, width, size=width)
        bits = rng.integers(0, 2, size=(5, width), dtype=np.uint8)
        z = np.random.default_rng(width).standard_normal((5, width))
        expect = _old_channel(z[:, columns], bits, 0.8, None)
        for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
            out = channel(np.random.default_rng(width), np.empty((5, width)), bits, 0.8, columns)
            assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("bad", [[0, 1, -1, 3], [0, 1, 4, 2], [[0, 1], [2, 3]], [0.0, 1.0, 2, 3]])
def test_channel_rejects_maps_that_are_not_columns_of_the_bits(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(kernels, "_channel", lambda *args: calls.append(args))
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        rng, out = np.random.default_rng(0), np.zeros((2, 4))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="source map"):
            channel(rng, out, np.ones((2, 4), dtype=np.uint8), 0.8, np.array(bad))
        with pytest.raises(ValueError, match="the channel fills"):  # one entry per column
            channel(rng, out, np.ones((2, 4), dtype=np.uint8), 0.8, np.arange(3))
        assert not out.any() and rng.bit_generator.state == state
    assert not calls  # rejected before C was called


@pytest.mark.skipif(kernels.channel_c is None, reason="no compiled kernel")
def test_compiled_channel_reports_a_failed_allocation(monkeypatch):
    monkeypatch.setattr(kernels, "_channel", lambda *args: kernels.HRCC_NO_MEMORY)
    with pytest.raises(MemoryError, match="no memory"):
        kernels.channel_c(np.random.default_rng(0), np.zeros((2, 4)),
                          np.ones((2, 4), dtype=np.uint8), 0.8)


@pytest.mark.parametrize("bad", [np.uint8(2), np.uint8(255), 0.5, 3.0])
@pytest.mark.parametrize("scheme", [None, SchemeId.M2_REDUCED])
def test_channel_backends_reject_bits_that_are_not_zero_or_one(scheme, bad):
    columns = None if scheme is None else destinations(_CHAINS[scheme].interleave)
    width = 456 if columns is None else columns.size
    bits = np.zeros((3, width), dtype=np.asarray(bad).dtype)
    bits[2, width - 1] = bad
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        rng, out = np.random.default_rng(0), np.zeros((3, width))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            channel(rng, out, bits, 0.8, columns)
        assert rng.bit_generator.state == state and not out.any()  # refused before the draw


@pytest.mark.parametrize("code, width", [(CONV_RATE_12, 9), (CONV_RATE_13, 10), (CONV_RATE_13, 8)])
def test_kernels_reject_a_partial_trellis_step(code, width):
    syms = _sym_table(code.generators)
    message = f"soft length {width} is not a multiple of {code.n_out}"
    for decode in filter(None, [kernels.viterbi_batch_np, kernels.viterbi_batch_c]):
        with pytest.raises(ValueError, match=message):
            decode(np.zeros((1, width)), syms)
        with pytest.raises(ValueError, match=message):  # a source map of `width` entries
            decode(np.zeros((1, 12)), syms, np.arange(width) % 12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_kernels_reject_soft_values_that_are_not_finite(bad):
    syms = _sym_table(CONV_RATE_12.generators)
    soft = np.ones((3, 228))
    soft[2, 17] = bad
    for decode in filter(None, [kernels.viterbi_batch_np, kernels.viterbi_batch_c]):
        for source in (None, _CHAINS[SchemeId.M1_CS12_P12].source):
            with pytest.raises(ValueError, match="soft values must be finite"):
                decode(soft, syms, source)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("scheme", [SchemeId.M2_REDUCED, SchemeId.M1_CS12_P12,
                                    SchemeId.M1_CS13_P23])
def test_chain_decoder_flags_a_value_that_is_not_finite_in_any_frame(scheme, bad):
    # hrcc_viterbi flags a frame whose final path metric is not finite, and only then is
    # the batch scanned: each lane of a group of four and each of the three frames left
    # over meets the bad value, at a column the map reads early, late or in between.
    chain = _CHAINS[scheme]
    soft = np.random.default_rng(41).normal(1.0, 1.0, size=(7, chain.coded_bits))
    for frame in range(7):
        for column in (0, frame * 31, chain.coded_bits - 1):
            rows = soft.copy()
            rows[frame, column] = bad
            with pytest.raises(ValueError, match="soft values must be finite"):
                decode_blocks(scheme, rows)
            with pytest.raises(ValueError, match="soft values must be finite"):
                decode_block(scheme, rows[frame])


@pytest.mark.parametrize("scheme", [SchemeId.STANDARD_456, SchemeId.M1_CS23_P13,
                                    SchemeId.M1_CS13_P23])  # rate 1/2, and 1/3 in the last
def test_chain_decoder_keeps_the_bits_of_finite_values_whose_metrics_overflow(scheme):
    # The path metrics of values near the float maximum overflow to infinity: the flag
    # sends the batch to the scan, which passes it, and the bits are the numpy kernel's,
    # through the chain and through the bare compiled kernel, at either rate.
    # Neither backend warns: the numpy kernel lets such sums overflow, as C does.
    chain = _CHAINS[scheme]
    signs = np.random.default_rng(42).choice([-1.0, 1.0], size=(6, chain.coded_bits))
    for soft in (1e308 * signs, 1.7e308 * signs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reference = kernels.viterbi_batch_np(soft, chain.code.branches, chain.source)
            msgs, ok = decode_blocks(scheme, soft)
            if kernels.viterbi_batch_c is not None:
                bits = kernels.viterbi_batch_c(soft, chain.code.branches, chain.source)
                assert np.array_equal(bits, reference)
        k, r = chain.block.k, chain.block.r
        assert np.array_equal(msgs, reference[:, :k])
        assert np.array_equal(ok, chain.block.check_batch(reference[:, : k + r]))


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize("out, bits", [
    (np.zeros((2, 5)), np.ones((2, 4), dtype=np.uint8)),  # wider than the bits
    (np.zeros((3, 4)), np.ones((2, 4), dtype=np.uint8)),  # more rows than bits
    (np.zeros((2, 4), dtype=np.float32), np.ones((2, 4), dtype=np.uint8)),
    (np.zeros((4, 2)).T, np.ones((2, 4), dtype=np.uint8)),  # not C-ordered
    (_read_only(np.zeros((2, 4))), np.ones((2, 4), dtype=np.uint8)),
    (np.zeros(4), np.ones(4, dtype=np.uint8)),  # not a batch
    (None, np.ones(4, dtype=np.uint8)),  # no buffer, and bits that are not a batch
    ([[0.0] * 4] * 2, np.ones((2, 4), dtype=np.uint8)),  # not an array: raised AttributeError
])
def test_channel_rejects_buffers_that_do_not_fit_the_bits(monkeypatch, out, bits):
    calls = []
    monkeypatch.setattr(kernels, "_channel", lambda *args: calls.append(args))
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        rng = np.random.default_rng(63)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="the channel fills"):
            channel(rng, out, bits, 0.8)
        assert rng.bit_generator.state == state  # nothing drawn
    assert not calls


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
@pytest.mark.parametrize("columns", [None, np.arange(114)[::-1]], ids=["no map", "reversed"])
def test_channel_makes_the_buffer_it_is_not_handed(bit_generator, columns):
    # transmit hands no buffer, so that the channel need not check one that it made itself.
    bits = np.random.default_rng(66).integers(0, 2, (3, 114), np.uint8)
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        made, handed = (np.random.Generator(bit_generator(67)) for _ in range(2))
        out = np.empty((3, 114))
        got = channel(made, None, bits, 0.8, columns)
        assert channel(handed, out, bits, 0.8, columns) is out
        assert (got.shape, got.dtype, got.flags.c_contiguous, got.flags.writeable) == (
            (3, 114), np.float64, True, True)
        assert got.tobytes() == out.tobytes()
        ahead = made.bit_generator.random_raw(4), handed.bit_generator.random_raw(4)
        assert ahead[0].tolist() == ahead[1].tolist()  # the generators left in step


@pytest.mark.parametrize("bad", [3, None, np.random.PCG64(3), np.random.RandomState(3)])
def test_channel_takes_only_a_generator(monkeypatch, bad):
    # A seed where the Generator belongs failed deep in the draw; a bare BitGenerator
    # is refused before it draws.
    calls = []
    monkeypatch.setattr(kernels, "_channel", lambda *args: calls.append(args))
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        out = np.zeros((2, 4))
        with pytest.raises(TypeError, match="rng must be a Generator, got"):
            channel(bad, out, np.ones((2, 4), dtype=np.uint8), 0.8)
        assert not out.any()
    if isinstance(bad, np.random.PCG64):
        assert bad.state == np.random.PCG64(3).state
    assert not calls


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf, 0.0, -0.8, 1e-200, 1e200, 1e-154,
                                   pytest.param(np.float64(1e200), id="float64 1e200"),
                                   pytest.param(10**400, id="10**400")])
def test_channel_rejects_a_sigma_that_is_not_finite_and_positive(monkeypatch, sigma):
    # A NaN sigma gave all-NaN soft values; at 1e-200 and 1e200 sigma^2 is 0 or infinite;
    # at 1e-154 sigma^2 is subnormal and 2/sigma^2 overflows: the soft values were +-inf.
    # numpy's float64 warned of the overflow first, and an int beyond the floats raised
    # OverflowError, neither naming sigma.
    calls = []
    monkeypatch.setattr(kernels, "_channel", lambda *args: calls.append(args))
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        rng, out = np.random.default_rng(0), np.ones((2, 456))
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"sigma must be finite and positive, sigma\^2 finite "
                                             r"and nonzero and 2/sigma\^2 x 456 finite"):
            channel(rng, out, np.ones((2, 456), dtype=np.uint8), sigma)
        assert (out == 1.0).all() and rng.bit_generator.state == state
    assert not calls


@pytest.mark.parametrize("sigma", [np.float32(0.8), Fraction(4, 5)], ids=["float32", "Fraction"])
def test_channel_backends_compute_with_the_float_of_sigma(sigma):
    # sigma^2 of a float32 was rounded in float32, and a Fraction was computed in rationals
    # (or refused by ctypes): both gave other doubles than their float.
    bits = np.random.default_rng(64).integers(0, 2, (3, 456), dtype=np.uint8)
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        got, expect = np.empty((3, 456)), np.empty((3, 456))
        channel(np.random.default_rng(65), got, bits, sigma)
        channel(np.random.default_rng(65), expect, bits, float(sigma))
        assert got.tobytes() == expect.tobytes()


@pytest.mark.skipif(kernels.viterbi_batch_c is None, reason="no compiled kernel")
def test_branch_table_without_butterfly_symmetry_is_rejected():
    syms = _sym_table(CONV_RATE_12.generators).copy()
    syms[3, 0, 1] = -syms[3, 0, 1]
    with pytest.raises(ValueError, match="butterfly"):
        kernels.viterbi_batch_c(np.zeros((1, 20)), syms)


@pytest.mark.skipif(kernels.viterbi_batch_c is None, reason="no compiled kernel")
def test_compiled_kernel_rejects_rates_other_than_one_half_and_one_third():
    # Four generators with D^0 and D^4 terms: butterfly-symmetric, but rate 1/4.
    syms = _sym_table((0b11001, 0b11011, 0b10101, 0b11111))
    assert syms.shape == (16, 2, 4)
    with pytest.raises(ValueError, match="rates 1/2 and 1/3"):
        kernels.viterbi_batch_c(np.zeros((1, 20)), syms)


@pytest.mark.skipif(kernels.viterbi_batch_c is None, reason="no compiled kernel")
def test_compiled_decoder_hands_a_chain_batch_to_its_kernel():
    chain = _CHAINS[SchemeId.M1_CS13_P23]
    soft = np.random.default_rng(8).normal(0.0, 1.5, size=(5, chain.coded_bits))
    msgs, ok = kernels.viterbi_batch_c(soft, chain.code.branches, chain=chain.kernel)
    expect = chain.kernel.decode(soft)
    assert np.array_equal(msgs, expect[0]) and np.array_equal(ok, expect[1])
    for syms, source in [(CONV_RATE_12.branches, None), (chain.code.branches.copy(), None),
                         (chain.code.branches, chain.source)]:
        with pytest.raises(ValueError, match="its own map"):
            kernels.viterbi_batch_c(soft, syms, source, chain=chain.kernel)


BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox,
                  np.random.SFC64]
needs_channel_c = pytest.mark.skipif(kernels.channel_c is None, reason="no compiled kernel")


@needs_channel_c
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
@pytest.mark.parametrize("shape", [(0, 114), (1, 0), (1, 1), (1, 114), (512, 456), (1, 1_000_003)])
def test_compiled_channel_is_numpys_and_leaves_the_generator_in_step(bit_generator, shape):
    # The compiled channel draws its normals itself, row by row; the doubles and the
    # generator's next draws are those of numpy's own fill in channel_np.
    ours, numpys = (np.random.Generator(bit_generator(61)) for _ in range(2))
    bits = np.random.default_rng(60).integers(0, 2, shape, np.uint8)
    columns = np.arange(shape[1])[::-1]
    out = np.empty(shape)
    assert kernels.channel_c(ours, out, bits, 0.8, columns) is out
    expect = kernels.channel_np(numpys, np.empty(shape), bits, 0.8, columns)
    assert out.tobytes() == expect.tobytes()
    assert ours.integers(0, 2**62, 3).tolist() == numpys.integers(0, 2**62, 3).tolist()
    assert ours.random() == numpys.random()
    assert ours.standard_normal(5).tobytes() == numpys.standard_normal(5).tobytes()


@needs_channel_c
@pytest.mark.parametrize("width", [*range(1, 10), 114, 228, 456])
def test_compiled_channel_matches_numpy_where_rows_end_in_a_rejection(width):
    # A row's last normal may take a wedge test, a rejected try or the tail, as about 1.5%
    # of row ends do here (over 7 per width even at 456).  The row must end with numpy's
    # value and leave the generator where numpy's fill of the whole batch leaves it.
    rows = max(1, 4096 // width)
    bits = np.random.default_rng(width).integers(0, 2, (rows, width), np.uint8)
    for bit_generator in BIT_GENERATORS:
        for seed in range(12):
            ours, numpys = (np.random.Generator(bit_generator(seed)) for _ in range(2))
            out = kernels.channel_c(ours, np.empty((rows, width)), bits, 0.8)
            expect = kernels.channel_np(numpys, np.empty((rows, width)), bits, 0.8)
            assert out.tobytes() == expect.tobytes(), (bit_generator, seed)
            ahead = ours.bit_generator.random_raw(2), numpys.bit_generator.random_raw(2)
            assert ahead[0].tolist() == ahead[1].tolist()


@needs_channel_c
def test_compiled_channel_runs_the_slow_paths():
    # The fast path takes one 64-bit draw per value; the tail beyond r and the
    # wedge test take more, so the state runs ahead of n raw draws.
    rng, raw = np.random.Generator(np.random.PCG64(62)), np.random.PCG64(62)
    out = kernels.channel_c(rng, np.empty((1, 1_000_003)), np.zeros((1, 1_000_003), np.uint8), 1.0)
    raw.random_raw(out.size)
    assert (out / 2.0 - 1.0).max() > 3.6541528853610087963519472518  # the tail's start, r
    assert rng.bit_generator.state != raw.state


def _flipped(rng, out, bits, sigma, columns=None):  # one value off
    kernels.channel_np(rng, out, bits, sigma, columns)[-1, -1] *= -1.0
    return out


def _ahead(rng, out, bits, sigma, columns=None):  # the right values, the generator a draw ahead
    kernels.channel_np(rng, out, bits, sigma, columns)
    rng.bit_generator.random_raw()
    return out


def _flipped_on_mt19937(rng, out, bits, sigma, columns=None):  # right for every other type
    if isinstance(rng.bit_generator, np.random.MT19937):
        return _flipped(rng, out, bits, sigma, columns)
    return kernels.channel_np(rng, out, bits, sigma, columns)


def _ahead_on_mt19937(rng, out, bits, sigma, columns=None):  # in step for every other type
    kernels.channel_np(rng, out, bits, sigma, columns)
    if isinstance(rng.bit_generator, np.random.MT19937):  # one call: only the state tells
        rng.bit_generator.random_raw()
    return out


def _checked_channel(candidate):
    return kernels._checked(candidate, kernels.channel_np, kernels._channel_calls())


def test_import_check_picks_numpys_channel_unless_the_channel_matches_it(monkeypatch):
    for candidate in (_flipped, _ahead, _flipped_on_mt19937, _ahead_on_mt19937):
        assert _checked_channel(candidate) is kernels.channel_np
    if kernels.channel_c is not None:
        assert _checked_channel(kernels.channel_c) is kernels.channel_c
        monkeypatch.setattr(kernels, "_channel", lambda *args: 0)  # a channel that draws nothing
        assert _checked_channel(kernels.channel_c) is kernels.channel_np


# --- the message draw -------------------------------------------------------

needs_draw_bits_c = pytest.mark.skipif(kernels.draw_bits_c is None, reason="no compiled kernel")
BIT_SHAPES = [(0,), (1,), (7,), (3, 90), (512, 90), (512, 184)]


@needs_draw_bits_c
@pytest.mark.parametrize("pending", [False, True], ids=["no pending half", "a pending half"])
@pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
def test_compiled_draw_is_numpys_in_bytes_and_generator_state(bit_generator, pending):
    # Each call is numpy's: the same bytes, and after it the same state, whose has_uint32 and
    # uinteger hold a 64-bit generator's pending 32-bit half; a partial word's unused bytes
    # are dropped, and the pending half stays the generator's own.
    ours, numpys = (np.random.Generator(bit_generator(64)) for _ in range(2))
    if pending:
        for rng in (ours, numpys):
            rng.integers(0, 2**32, dtype=np.uint32)  # one next_uint32
        assert ours.bit_generator.state.get("has_uint32", 1) == 1
    for shape in BIT_SHAPES + BIT_SHAPES[::-1]:  # consecutive calls, odd counts among them
        out = np.empty(shape, np.uint8)
        assert kernels.draw_bits_c(ours, out) is out
        assert out.tobytes() == numpys.integers(0, 2, shape, np.uint8).tobytes()
        assert repr(ours.bit_generator.state) == repr(numpys.bit_generator.state)


@needs_draw_bits_c
def test_compiled_draw_fills_a_c_ordered_view_in_place():
    # run_bler draws each chunk into the leading rows of one buffer.
    buffer = np.full((4, 90), 7, np.uint8)
    kernels.draw_bits_c(np.random.default_rng(66), buffer[:3])
    expect = np.random.default_rng(66).integers(0, 2, (3, 90), np.uint8)
    assert buffer[:3].tobytes() == expect.tobytes()
    assert (buffer[3] == 7).all()


@pytest.mark.parametrize("out", [
    np.zeros((2, 4)), np.zeros((2, 4), np.int8), np.zeros((2, 4), bool),  # not uint8
    np.zeros((4, 2), np.uint8).T,  # not C-ordered
    np.zeros((2, 8), np.uint8)[:, ::2],  # strided rows
    _read_only(np.zeros((2, 4), np.uint8)),
    [[0] * 4] * 2,  # not an array
], ids=["float64", "int8", "bool", "transposed", "strided", "read-only", "list"])
def test_draw_rejects_buffers_it_cannot_fill(monkeypatch, out):
    calls = []
    monkeypatch.setattr(kernels, "_bits", lambda *args: calls.append(args))
    for draw in filter(None, [kernels.draw_bits_np, kernels.draw_bits_c]):
        rng = np.random.default_rng(67)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="the message draw fills a writable C-ordered uint8 "):
            draw(rng, out)
        assert rng.bit_generator.state == state  # nothing drawn
        assert not np.asarray(out).any()
    assert not calls


@pytest.mark.parametrize("bad", [3, None, np.random.PCG64(3), np.random.RandomState(3)])
def test_draw_takes_only_a_generator(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(kernels, "_bits", lambda *args: calls.append(args))
    for draw in filter(None, [kernels.draw_bits_np, kernels.draw_bits_c]):
        out = np.zeros((2, 4), np.uint8)
        with pytest.raises(TypeError, match="rng must be a Generator, got"):
            draw(bad, out)
        assert not out.any()
    if isinstance(bad, np.random.PCG64):
        assert bad.state == np.random.PCG64(3).state
    assert not calls


def _draw_flipped(rng, out):  # one bit off
    kernels.draw_bits_np(rng, out).reshape(-1)[-1:] ^= 1
    return out


def _draw_ahead(rng, out):  # the right bits, the generator a draw ahead
    kernels.draw_bits_np(rng, out)
    rng.bit_generator.random_raw()
    return out


def _draw_dropping_the_pending_half(rng, out):  # the right bits, then the pending half lost
    kernels.draw_bits_np(rng, out)
    state = rng.bit_generator.state
    if state.get("has_uint32"):
        rng.bit_generator.state = {**state, "has_uint32": 0, "uinteger": 0}
    return out


def _draw_flipped_on_mt19937(rng, out):  # right for every other type
    if isinstance(rng.bit_generator, np.random.MT19937):
        return _draw_flipped(rng, out)
    return kernels.draw_bits_np(rng, out)


def _checked_draw(candidate):
    return kernels._checked(candidate, kernels.draw_bits_np, kernels._bits_calls())


def test_import_check_picks_numpys_draw_unless_the_draw_matches_it(monkeypatch):
    for candidate in (_draw_flipped, _draw_ahead, _draw_dropping_the_pending_half,
                      _draw_flipped_on_mt19937):
        assert _checked_draw(candidate) is kernels.draw_bits_np
    assert _checked_draw(kernels.draw_bits_np) is kernels.draw_bits_np
    if kernels.draw_bits_c is not None:
        assert _checked_draw(kernels.draw_bits_c) is kernels.draw_bits_c
        monkeypatch.setattr(kernels, "_bits", lambda *args: None)  # a draw that draws nothing
        assert _checked_draw(kernels.draw_bits_c) is kernels.draw_bits_np


# Prints the backend, test_single_block.backend_results() (argv[1] is the tests' directory)
# as JSON, then a sweep's CSV.
_SWEEP_SCRIPT = (
    "import json, sys, warnings\n"
    "from hrcc import kernels\n"
    "from hrcc.schemes import SchemeId\n"
    "from hrcc.simulation import reports_to_csv, sweep\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import test_single_block\n"
    "with warnings.catch_warnings():\n"
    "    warnings.simplefilter('error')\n"
    "    blocks = test_single_block.backend_results()\n"
    "reports = sweep([SchemeId.STANDARD_456, SchemeId.M2_REDUCED], [3.0],"
    " min_frames=300, min_errors=60, seed=778)\n"
    "sys.stdout.write(' '.join((kernels.BACKEND, kernels.NORMALS, kernels.BITS)) + '\\n'"
    " + json.dumps(blocks) + '\\n'"
    " + reports_to_csv(reports))\n"
)


def _fresh_interpreter(script: str, cache: Path, path: str, *args: str, **env: str):
    """``script`` run by a new interpreter with its own kernel cache and ``PATH``, and ``env``
    added to the environment."""
    pkg_root = str(Path(hrcc.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PATH=path, PYTHONPATH=pythonpath, **env)
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, env=env
    )


def _sweep_in_fresh_interpreter(cache: Path, path: str):
    result = _fresh_interpreter(_SWEEP_SCRIPT, cache, path, str(Path(__file__).parent))
    assert result.returncode == 0, result.stderr
    backends, blocks, csv = result.stdout.split("\n", 2)
    return backends, json.loads(blocks), csv


def _sweep_here():
    reports = sweep(
        [SchemeId.STANDARD_456, SchemeId.M2_REDUCED], [3.0], min_frames=300, min_errors=60, seed=778
    )
    return reports_to_csv(reports)


def test_without_a_compiler_falls_back_to_numpy(tmp_path):
    cache = tmp_path / "cache"
    no_cc = tmp_path / "bin"
    no_cc.mkdir()
    backends, blocks, csv = _sweep_in_fresh_interpreter(cache, str(no_cc))
    assert backends == "numpy numpy numpy"  # the decoder, the normals and the message draw
    assert csv == _sweep_here()
    # The single-block path too: a 20-exchange transcript, the exception type of each
    # malformed block, and no rejected transmit that drew from its generator.
    assert blocks == test_single_block.backend_results()
    assert blocks["transmits that drew"] == []
    assert not any(cache.rglob("*.so")) and not any(cache.rglob("*.tmp"))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_cold_cache_builds_the_kernel_once(tmp_path):
    cache = tmp_path / "cache"
    backends, blocks, csv = _sweep_in_fresh_interpreter(cache, os.environ["PATH"])
    assert backends == "c c c"
    assert csv == _sweep_here()
    assert blocks == test_single_block.backend_results()
    built = sorted(p.name for p in (cache / "hrcc").iterdir())
    assert len(built) == 1 and built[0].startswith("_viterbi-") and built[0].endswith(".so")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_build_leaves_kernels_of_other_sources_in_place(tmp_path):
    # Checkouts of two sources that share one cache would otherwise delete each other's
    # library and rebuild it at every alternate import.
    cache = tmp_path / "cache"
    (cache / "hrcc").mkdir(parents=True)
    other = cache / "hrcc" / "_viterbi-0000.so"
    other.write_bytes(b"built from another source")
    partial = cache / "hrcc" / "_viterbi-1111-abcd.tmp"
    partial.write_bytes(b"")
    backends, _, _ = _sweep_in_fresh_interpreter(cache, os.environ["PATH"])
    assert backends == "c c c"
    assert other.read_bytes() == b"built from another source" and partial.exists()
    assert len(list((cache / "hrcc").glob("_viterbi-*.so"))) == 2


def _numpy_chain(block, code, source, msgs):
    """The numpy stages of a chain's encoder: the block parity, the 4 zero tail bits, the
    conv code and the map's kept columns, in order."""
    tail = np.zeros((len(msgs), 4), np.uint8)
    words = np.concatenate([msgs, block.parity_batch(msgs), tail], axis=1)
    return np.compress(source >= 0, conv_encode_batch(code, words), axis=1)


# Generators of degree 1, 3, 7, 20, 40 and 64: parity bits that end inside the first group
# of eight steps after the message, or several groups later.
ENCODER_GENERATORS = [0b11, 0b1011, 0b10001001, PARITY20_POLY, FIRE_POLY, 1 << 64 | 0b11011]


def _periodic_maps(rng, entries, n_out):
    """Source maps of ``entries`` mother-code columns that keep the same columns, in order, of
    every group of 8 trellis steps, the last group's up to the map's end: all of them, and random
    masks that keep about 60% and 5% of a group's columns (at 5%, often none)."""
    for share in (1.0, 0.6, 0.05):
        keep = np.resize(rng.random(8 * n_out) < share, entries)
        source = np.full(entries, -1, np.int32)
        source[keep] = np.arange(np.count_nonzero(keep))
        yield source


def _assert_encodes_within_its_spare_bytes(kernel, block, code, source, msgs):
    """The kernel's rows equal the numpy stages', and C, handed a guarded buffer, writes no byte
    past the 24 spare bytes after the last row: the last group's three 8-byte stores."""
    expect = _numpy_chain(block, code, source, msgs)
    assert np.array_equal(kernel.encode(msgs), expect)
    guarded = np.full(expect.size + 24 + 64, 0xA5, np.uint8)
    assert kernels._encoder(kernel._code_at, msgs.tobytes(), len(msgs),
                            guarded.ctypes.data) == kernels.HRCC_OK
    assert np.array_equal(guarded[: expect.size].reshape(expect.shape), expect)
    assert (guarded[expect.size + 24 :] == 0xA5).all()


@pytest.mark.parametrize("k", range(1, 18))
def test_chain_encoder_matches_the_numpy_stages_at_every_bit_alignment(k):
    # The encoder reads whole words of eight message bits, then the last k % 8 bits lead
    # the parity into the next group of eight steps; a chain's step count, k + r + 4, may end
    # anywhere in a group.  Each code is encoded through periodic maps that keep every column,
    # about 60% of a group's and about 5% of them.
    if kernels.ChainKernel is None:
        pytest.skip("no compiled kernel")
    rng = np.random.default_rng([35, k])
    for generator in ENCODER_GENERATORS:
        block = BlockCode(k, generator)
        for code in CODES:
            entries = (k + block.r + 4) * code.n_out
            for source in _periodic_maps(rng, entries, code.n_out):
                kernel = kernels.ChainKernel(block, code, source)
                for nframes in (0, 1, 9, 17):
                    msgs = rng.integers(0, 2, (nframes, k), np.uint8)
                    msgs[:1] = 1
                    _assert_encodes_within_its_spare_bytes(kernel, block, code, source, msgs)
                for column in {0, k - 1}:  # in a whole word and among the last k % 8 bits
                    bad = np.zeros((2, k), np.uint8)
                    bad[1, column] = 2
                    with pytest.raises(ValueError, match="only contain 0 and 1"):
                        kernel.encode(bad)


@pytest.mark.parametrize("code", CODES)
@pytest.mark.parametrize("generator", [FIRE_POLY, PARITY20_POLY])
def test_chain_encoder_reads_its_periodic_table_and_writes_only_its_spare_bytes(code,
                                                                               generator):
    # One kept-bit table serves every group of 8 steps of the paper's message widths; the last
    # group ends inside the map.  The encoder writes each group's kept bits 8 bytes at a time,
    # so up to 24 bytes past a row's end, and never past the 24 spare bytes after the last row.
    if kernels.ChainKernel is None:
        pytest.skip("no compiled kernel")
    rng = np.random.default_rng([39, generator, code.n_out])
    block = BlockCode(90 if generator == PARITY20_POLY else 184, generator)
    entries = (block.k + block.r + 4) * code.n_out
    for source in _periodic_maps(rng, entries, code.n_out):
        kernel = kernels.ChainKernel(block, code, source)
        assert kernel._tables[1][0].size == 4096
        for nframes in (1, 9, 17):
            msgs = rng.integers(0, 2, (nframes, block.k), np.uint8)
            _assert_encodes_within_its_spare_bytes(kernel, block, code, source, msgs)


def test_chain_tables_are_one_per_paper_chain_and_eight_steps_where_nothing_is_punctured():
    if kernels.ChainKernel is None:
        pytest.skip("no compiled kernel")
    counts = {SchemeId.STANDARD_456: 16, SchemeId.M1_CS23_P13: 8, SchemeId.M1_CS12_P12: 8,
              SchemeId.M1_CS13_P23: 8, SchemeId.M2_REDUCED: 16}
    for scheme, chain in _CHAINS.items():
        kept, _ = chain.kernel._tables[1]
        assert kept.size == 4096 and kept.dtype == np.uint32
        for table, _ in chain.kernel._tables:  # each read by C for the kernel's whole life
            with pytest.raises(ValueError):
                table.flags.writeable = True
        assert chain.kernel._code.count == counts[scheme]
        if scheme in (SchemeId.STANDARD_456, SchemeId.M2_REDUCED):
            assert np.array_equal(kept, chain.code.eight_steps)
    # Maps that delete one column of the second group of 8 steps, or of the last, which ends
    # inside the map.
    chain = _CHAINS[SchemeId.STANDARD_456]
    for column in (20, chain.source.size - 1):
        source = chain.source.copy()
        source[column], source[column + 1 :] = -1, source[column + 1 :] - 1
        with pytest.raises(ValueError, match="the same columns in every group of 8 trellis steps"):
            kernels.ChainKernel(chain.block, chain.code, source)


def test_chain_kernel_refuses_rows_of_another_width():
    # C reads each row's width from the chain, so a shorter row would read past the batch.
    if kernels.ChainKernel is None:
        pytest.skip("no compiled kernel")
    kernel = _CHAINS[SchemeId.M2_REDUCED].kernel
    for width in (kernel.k - 1, kernel.k + 1):
        with pytest.raises(ValueError, match=f"encodes rows of {kernel.k}, not \\(2, {width}\\)"):
            kernel.encode(np.zeros((2, width), np.uint8))
    for width in (kernel.width - 1, kernel.width + 1):
        with pytest.raises(ValueError, match=f"decodes rows of {kernel.width}, not \\(2, {width}\\)"):
            kernel.decode(np.zeros((2, width)))


ERROR_COUNT_WIDTHS = [*range(1, 18), 90, 184]  # every tail of a word of 8, and both messages


@pytest.mark.parametrize("k", ERROR_COUNT_WIDTHS)
def test_error_count_backends_agree_on_strided_rows_and_any_bytes(k):
    # The decoder's messages are a (frames, k) view of rows of k + r + 4 bits; a count is the
    # number of bytes that differ, whatever their values, so a byte of 3 against 0 counts once.
    if kernels.bit_errors_c is None:
        pytest.skip("no compiled kernel")
    rng = np.random.default_rng([40, k])
    steps = k + 7
    for nframes in (0, 1, 9, 17):
        out = rng.integers(0, 2, nframes * steps + nframes, np.uint8)
        decoded = np.ndarray((nframes, k), np.uint8, out, 0, (steps, 1))
        sent = rng.integers(0, 2, (nframes, k), np.uint8)
        sent[::3] = decoded[::3]
        wide = rng.integers(0, 256, (nframes, k), np.uint8)
        wide[::4] = 3 * decoded[::4]
        for rows in ((decoded, sent), (decoded, wide), (wide, wide[::-1]), (sent[:, ::-1], decoded),
                     (np.asfortranarray(wide), sent)):
            expect = [int(np.count_nonzero(a != b)) for a, b in zip(*rows)]
            for count in (kernels.bit_errors_c, kernels.bit_errors_np):
                got = count(*rows)
                assert got.dtype == np.intp and got.shape == (nframes,)
                assert got.tolist() == expect


@pytest.mark.parametrize("count", ["bit_errors_c", "bit_errors_np"])
def test_error_count_takes_only_two_uint8_arrays_of_one_shape(count):
    count = getattr(kernels, count)
    if count is None:
        pytest.skip("no compiled kernel")
    rows = np.zeros((3, 5), np.uint8)
    for bad in (rows[:2], rows[:, :4], rows.astype(bool), rows[0], rows.tolist()):
        for pair in ((bad, rows), (rows, bad)):
            with pytest.raises(ValueError, match="error count compares two uint8"):
                count(*pair)


def _runtime(name: str) -> str | None:
    """The path of the C compiler's runtime library ``name``, or None without one."""
    if shutil.which("cc") is None:
        return None
    found = subprocess.run(["cc", f"-print-file-name={name}"], capture_output=True,
                           text=True).stdout.strip()
    return found if os.path.isabs(found) else None  # else cc echoes the bare name


SANITIZED_DRAWS = ("PCG64", "MT19937")
# The chains' burst, block and coded widths, and an odd width, whose last column goes alone.
SANITIZED_WIDTHS = (114, 228, 456, 115)
# Rate 1/3, 89 + 20 parity + 4 tail = 113 trellis steps, one past a group of 8, and a map that
# keeps all but the first step of each group: the last group keeps nothing of the row, yet writes
# its 21 kept bits' three 8-byte stores, which end exactly where the 24 spare bytes do.
SPARE_K = 89
_SPARE_KEEP = np.resize(np.arange(24) >= 3, 3 * (SPARE_K + 20 + 4))
SPARE_SOURCE = np.where(_SPARE_KEEP, np.cumsum(_SPARE_KEEP) - 1, -1)
# Runs the library at argv[1] on the inputs saved in argv[2], into argv[3]: decodes and encodes
# the chains' rows, encodes the spare-byte batch, draws message bits and runs the channel on the
# saved bits, without and with the saved noise map, keeping each generator's next raw words.
_SANITIZED_SCRIPT = (
    "import ctypes, sys\n"
    "import numpy as np\n"
    "from hrcc import kernels\n"
    "from hrcc.coding import CONV_RATE_13, PARITY20_POLY, BlockCode\n"
    "from hrcc.schemes import _CHAINS, SchemeId\n"
    "library = ctypes.CDLL(sys.argv[1])\n"
    "for name in ('_decoder', '_channel', '_encoder', '_bits', '_errors'):\n"
    "    bound = getattr(kernels, name)\n"
    "    function = getattr(library, bound.__name__)\n"
    "    function.restype, function.argtypes = bound.restype, bound.argtypes\n"
    "    setattr(kernels, name, function)\n"
    "inputs, out = np.load(sys.argv[2]), {}\n"
    f"for kind in {SANITIZED_DRAWS!r}:\n"
    "    out[kind + ':draw'] = kernels.draw_bits_c(\n"
    "        np.random.Generator(getattr(np.random, kind)(68)), np.empty((3, 91), np.uint8))\n"
    f"    for width in {SANITIZED_WIDTHS!r}:\n"
    "        for name, columns in ((f'{kind}:{width}', None),\n"
    "                              (f'{kind}:{width}:map', inputs[f'channel:{width}:map'])):\n"
    "            rng = np.random.Generator(getattr(np.random, kind)(width))\n"
    "            out[name + ':channel'] = kernels.channel_c(rng, None, inputs[f'channel:{width}'],\n"
    "                                                       0.8, columns)\n"
    "            out[name + ':next'] = rng.bit_generator.random_raw(2)\n"
    f"spare = kernels.ChainKernel(BlockCode({SPARE_K}, PARITY20_POLY), CONV_RATE_13,\n"
    "                            inputs['spare:source'])\n"
    "out['spare:coded'] = spare.encode(inputs['spare:msgs'])\n"
    "for name in inputs.files:\n"
    "    if name.startswith(('channel:', 'spare:')):\n"
    "        continue\n"
    "    chain = _CHAINS[SchemeId(name.split(':')[0])]\n"
    "    if name.endswith(':msgs'):\n"
    "        out[name + ':coded'] = chain.kernel.encode(inputs[name])\n"
    "        continue\n"
    "    out[name + ':bits'] = kernels.viterbi_batch_c(inputs[name], chain.code.branches,\n"
    "                                                  chain.source)\n"
    "    out[name + ':msgs'], out[name + ':ok'] = chain.kernel.decode(inputs[name])\n"
    "    sent = np.ascontiguousarray(out[name + ':msgs'][::-1])\n"
    "    out[name + ':errors'] = kernels.bit_errors_c(chain.kernel.decode(inputs[name])[0], sent)\n"
    "np.savez(sys.argv[3], **out)\n"
)


@lru_cache(maxsize=None)
def _sanitized_cases() -> tuple[dict, dict]:
    """(the script's inputs, every output it must give, by name: numpy's), made once."""
    inputs, expect = {}, {}
    for scheme in SchemeId:
        chain = _CHAINS[scheme]
        k, r = chain.block.k, chain.block.r
        for n in LANE_COUNTS:
            name = f"{scheme.value}:{n}"
            inputs[name] = rows = _lane_rows(chain.coded_bits, n, [33, n])
            reference = kernels.viterbi_batch_np(rows, chain.code.branches, chain.source)
            expect[name + ":bits"], expect[name + ":msgs"] = reference, reference[:, :k]
            expect[name + ":ok"] = chain.block.check_batch(reference[:, : k + r])
            expect[name + ":errors"] = np.count_nonzero(reference[:, :k] != reference[::-1, :k],
                                                        axis=1)
            msgs = np.random.default_rng([36, n]).integers(0, 2, (n, k), np.uint8)
            msgs[0] = 1
            inputs[name + ":msgs"] = msgs
            expect[name + ":msgs:coded"] = _numpy_chain(chain.block, chain.code, chain.source, msgs)
    inputs["spare:source"] = SPARE_SOURCE
    inputs["spare:msgs"] = msgs = np.random.default_rng(43).integers(0, 2, (9, SPARE_K), np.uint8)
    expect["spare:coded"] = _numpy_chain(BlockCode(SPARE_K, PARITY20_POLY), CONV_RATE_13,
                                         SPARE_SOURCE, msgs)
    assert expect["spare:coded"].shape == (9, 294)
    for width in SANITIZED_WIDTHS:  # over 4,096 normals a call: the tail comes about once in 3,300
        rng = np.random.default_rng([41, width])
        inputs[f"channel:{width}"] = rng.integers(0, 2, (4096 // width + 1, width), np.uint8)
        inputs[f"channel:{width}:map"] = rng.integers(0, width, width)  # repeats and gaps
    for kind in SANITIZED_DRAWS:
        bit_generator = getattr(np.random, kind)
        # 273 bits: a partial last word
        expect[kind + ":draw"] = np.random.Generator(bit_generator(68)).integers(0, 2, (3, 91),
                                                                                 np.uint8)
        tails = 0
        for width in SANITIZED_WIDTHS:
            bits = inputs[f"channel:{width}"]
            for name, columns in ((f"{kind}:{width}", None),
                                  (f"{kind}:{width}:map", inputs[f"channel:{width}:map"])):
                rng = np.random.Generator(bit_generator(width))
                expect[name + ":channel"] = kernels.channel_np(rng, None, bits, 0.8, columns)
                expect[name + ":next"] = rng.bit_generator.random_raw(2)
                normals = (expect[name + ":channel"] * 0.8 * 0.8 / 2.0 - (1.0 - 2.0 * bits)) / 0.8
                tails += int((np.abs(normals) > 3.6541528853610087963519472518).sum())
        assert tails > 0  # a normal beyond r, which only the ziggurat's tail draws
    return inputs, expect


def _assert_sanitized_library_runs_cleanly(tmp_path, flags, symbol, **env):
    """Build the kernel with the sanitizer ``flags``, which put ``symbol`` in the library, run
    ``_SANITIZED_SCRIPT`` on it in a fresh interpreter with ``env`` added, and check that every
    output has numpy's shape, dtype and bytes."""
    library = tmp_path / "viterbi-sanitized.so"
    build = subprocess.run(["cc", *kernels._C_FLAGS, *flags, "-o", str(library),
                            str(kernels._C_SOURCE), *kernels._C_LIBS],
                           capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    assert symbol in library.read_bytes()
    inputs, expect = _sanitized_cases()
    np.savez(tmp_path / "in.npz", **inputs)
    result = _fresh_interpreter(_SANITIZED_SCRIPT, tmp_path / "cache", os.environ["PATH"],
                                str(library), str(tmp_path / "in.npz"), str(tmp_path / "out.npz"),
                                **env)
    assert result.returncode == 0, result.stderr
    got = np.load(tmp_path / "out.npz")
    assert sorted(got.files) == sorted(expect)
    for name, want in expect.items():
        assert (got[name].shape, got[name].dtype, got[name].tobytes()) == (
            want.shape, want.dtype, want.tobytes()), name


@pytest.mark.skipif(_runtime("libubsan.so") is None, reason="no C compiler with a UBSan runtime")
def test_kernel_built_with_ubsan_decodes_every_chain_cleanly(tmp_path):
    # Undefined behaviour in the decoder, such as a lane's state indexed out
    # of bounds in the AVX2 traceback, in the encoder, such as an eight-step
    # index out of its table, in the error count, which reads the decoder's
    # strided rows, in the channel, which gathers its malloc'd normals through
    # the noise map, or in the message draw stops the sanitized build's process.
    _assert_sanitized_library_runs_cleanly(
        tmp_path, ["-fsanitize=undefined,bounds", "-fno-sanitize-recover=all"], b"__ubsan_handle_")


@pytest.mark.skipif(_runtime("libasan.so") is None, reason="no C compiler with an ASan runtime")
def test_kernel_built_with_asan_reads_and_writes_only_its_buffers(tmp_path):
    # The interpreter loads the ASan runtime first, so each buffer that numpy or C allocates is
    # guarded: a read or write past one, such as an encoder store past the 24 spare bytes or the
    # channel's last column of an odd width stored as two, stops the process.  The leak check is
    # off: the interpreter keeps memory to its exit.
    _assert_sanitized_library_runs_cleanly(
        tmp_path, ["-fsanitize=address", "-fno-omit-frame-pointer"], b"__asan_report_",
        LD_PRELOAD=_runtime("libasan.so"), ASAN_OPTIONS="detect_leaks=0")


# Runs every entry of the library, included whole, on two threads at once, each with its own
# buffers and its own generator behind a bitgen_t, and exits 1 unless both threads' outputs agree.
# argv: the directory of the chain's tables and inputs, then its entries, width, n_out, count, k,
# n and nframes.  Writes the first thread's outputs, one block, to out.bin in the directory: the
# channel's doubles, the error counts, the coded rows and their 24 spare bytes, the decoded bits,
# the checks and the message draw.
_TSAN_HARNESS = r"""
#include <pthread.h>
#include <stdio.h>
#include "_viterbi.c"

enum { DRAWS = 1001 };
static hrcc_code code;
static const uint8_t *msgs;
static const double *soft;
static int32_t *columns;
static ptrdiff_t nframes, nsteps;

typedef struct {
    uint64_t state; /* splitmix64's */
    bitgen_t bitgen;
    double *out; /* bytes of the outputs, in the order above */
    int status;
} work;

static uint64_t next_uint64(void *state)
{
    uint64_t z = *(uint64_t *)state += 0x9e3779b97f4a7c15u;
    z = (z ^ z >> 30) * 0xbf58476d1ce4e5b9u;
    z = (z ^ z >> 27) * 0x94d049bb133111ebu;
    return z ^ z >> 31;
}
static uint32_t next_uint32(void *state) { return (uint32_t)(next_uint64(state) >> 32); }
static double next_double(void *state) { return (double)(next_uint64(state) >> 11) * 0x1.0p-53; }

static void *load(const char *dir, const char *name, size_t size)
{
    char path[4096];
    snprintf(path, sizeof path, "%s/%s", dir, name);
    FILE *file = fopen(path, "rb");
    void *data = malloc(size);
    if (file == NULL || data == NULL || fread(data, 1, size, file) != size)
        exit(2);
    fclose(file);
    return data;
}

static void *run(void *arg)
{
    work *w = arg;
    ptrdiff_t *errors = (ptrdiff_t *)(w->out + nframes * code.width);
    uint8_t *coded = (uint8_t *)(errors + nframes), *bits = coded + nframes * code.width + 24;
    uint8_t *ok = bits + nframes * nsteps;
    w->status = hrcc_encode(&code, msgs, nframes, coded)
                | hrcc_viterbi(&code, soft, nframes, bits, ok)
                | hrcc_channel(&w->bitgen, w->out, nframes, code.width, coded, columns, 0.8);
    hrcc_errors(bits, nsteps, msgs, code.k, nframes, code.k, errors);
    hrcc_bits(&w->bitgen, ok + nframes, DRAWS);
    return NULL;
}

int main(int argc, char **argv)
{
    if (argc != 9)
        return 2;
    const char *dir = argv[1];
    code.entries = atol(argv[2]);
    code.width = atol(argv[3]);
    code.n_out = atoi(argv[4]);
    code.count = atoi(argv[5]);
    code.k = atol(argv[6]);
    code.n = atol(argv[7]);
    nframes = atol(argv[8]);
    nsteps = code.entries / code.n_out;
    code.source = load(dir, "source", code.entries * sizeof(int32_t));
    code.table = load(dir, "remainders", 256 * sizeof(uint64_t));
    code.kept = load(dir, "kept", 4096 * sizeof(uint32_t));
    code.sym = load(dir, "sym", 8 * code.n_out * sizeof(double));
    msgs = load(dir, "msgs", nframes * code.k);
    soft = load(dir, "soft", nframes * code.width * sizeof(double));
    columns = malloc(code.width * sizeof(int32_t));
    for (ptrdiff_t j = 0; j < code.width; j++)
        columns[j] = (int32_t)(code.width - 1 - j);
    const size_t bytes = nframes * (code.width * sizeof(double) + sizeof(ptrdiff_t) + code.width
                                    + nsteps + 1) + 24 + DRAWS;
    work w[2];
    pthread_t threads[2];
    for (int t = 0; t < 2; t++) {
        w[t] = (work){70, {&w[t].state, next_uint64, next_uint32, next_double, next_uint64},
                      calloc(bytes, 1), -1};
        if (w[t].out == NULL || pthread_create(&threads[t], NULL, run, &w[t]))
            return 2;
    }
    for (int t = 0; t < 2; t++)
        pthread_join(threads[t], NULL);
    if (w[0].status != HRCC_OK || w[1].status != HRCC_OK || memcmp(w[0].out, w[1].out, bytes))
        return 1;
    char path[4096];
    snprintf(path, sizeof path, "%s/out.bin", dir);
    FILE *out = fopen(path, "wb");
    return out == NULL || fwrite(w[0].out, 1, bytes, out) != bytes || fclose(out) ? 2 : 0;
}
"""


@pytest.mark.skipif(_runtime("libtsan.so") is None, reason="no C compiler with a TSan runtime")
def test_kernel_built_with_tsan_runs_every_entry_on_two_threads_without_a_race(tmp_path):
    # Workers that each call the kernels with their own buffers and generators must share no
    # state: a static scratch buffer, or one written on every call, races.  The runtime cannot be
    # loaded into the interpreter, so a C harness calls every entry on two threads.
    harness = tmp_path / "harness"
    (tmp_path / "harness.c").write_text(_TSAN_HARNESS)
    build = subprocess.run(
        ["cc", *(f for f in kernels._C_FLAGS if f not in ("-fPIC", "-shared")), "-g",
         "-fsanitize=thread", f"-I{kernels._C_SOURCE.parent}", "-o", str(harness),
         str(tmp_path / "harness.c"), *kernels._C_LIBS, "-pthread"],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    chain = _CHAINS[SchemeId.M1_CS23_P13]  # punctured: the map deletes columns
    kernel, nframes, k = chain.kernel, 13, chain.block.k  # a group of 8, one of 4 and one frame
    remainders, kept, source, sym = (table for table, _ in kernel._tables)
    msgs = np.random.default_rng(71).integers(0, 2, (nframes, k), np.uint8)
    soft = _lane_rows(kernel.width, nframes, 72)
    for name, table in (("source", source), ("remainders", remainders), ("kept", kept),
                        ("sym", sym), ("msgs", msgs), ("soft", soft)):
        table.tofile(tmp_path / name)
    fields = kernel._code
    result = subprocess.run(
        [str(harness), str(tmp_path), *map(str, (fields.entries, fields.width, fields.n_out,
                                                 fields.count, fields.k, fields.n, nframes))],
        capture_output=True, text=True, env=dict(os.environ, TSAN_OPTIONS="halt_on_error=1"),
    )
    assert result.returncode == 0, result.stderr
    out = np.fromfile(tmp_path / "out.bin", np.uint8)
    width, steps = kernel.width, source.size // chain.code.n_out
    channel, errors, coded, bits, ok, draws = np.split(out, np.cumsum(
        [nframes * width * 8, nframes * 8, nframes * width + 24, nframes * steps, nframes]))
    assert np.array_equal(coded[:-24].reshape(nframes, width), kernel.encode(msgs))
    reference = kernels.viterbi_batch_np(soft, chain.code.branches, chain.source)
    assert np.array_equal(bits.reshape(nframes, steps), reference)
    assert np.array_equal(ok, chain.block.check_batch(reference[:, : k + chain.block.r]))
    assert np.array_equal(errors.view(np.intp), np.count_nonzero(reference[:, :k] != msgs, axis=1))
    # The harness's generator is not numpy's: the normals that the channel added to the coded
    # bits must still look standard, and the draw's bits fair.
    normals = (channel.view(np.float64).reshape(nframes, width) * 0.8 * 0.8 / 2.0
               - (1.0 - 2.0 * kernel.encode(msgs))) / 0.8
    assert abs(normals.mean()) < 0.1 and 0.9 < normals.std() < 1.1
    assert set(draws.tolist()) == {0, 1} and 400 < draws.sum() < 600
