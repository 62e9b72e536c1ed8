import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hrcc
from hrcc import kernels, simulation
from hrcc.coding import CONV_RATE_12, CONV_RATE_13, _sym_table, depuncture_batch
from hrcc.interleaving import interleave_batch, sources
from hrcc.schemes import _CHAINS, SchemeId
from hrcc.simulation import reports_to_csv, sweep

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


def _cpu_has_avx2() -> bool:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            return any(line.startswith("flags") and " avx2" in line for line in fh)
    except OSError:
        return False


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_compiled_kernel_is_active():
    # Otherwise every comparison below would check numpy against itself.
    assert kernels.BACKEND == hrcc.BACKEND == "c"
    assert kernels.viterbi_batch is kernels.viterbi_batch_c
    assert kernels.LANES == (4 if _cpu_has_avx2() else 1)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_kernel_source_builds_without_warnings_and_exports_one_decoder(tmp_path):
    library = tmp_path / "viterbi.so"
    build = subprocess.run(
        ["cc", *kernels._C_FLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(library),
         str(kernels._C_SOURCE)],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    if shutil.which("nm") is not None:
        listing = subprocess.run(
            ["nm", "-D", "--defined-only", str(library)], capture_output=True, text=True, check=True
        )
        defined = {line.split()[-1] for line in listing.stdout.splitlines() if line.strip()}
        assert defined == {"hrcc_viterbi", "hrcc_viterbi_lanes", "hrcc_channel"}


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


def _decode_in_threes(rows, syms, source=None):
    """Decode ``rows`` in calls of at most three frames each."""
    return np.concatenate(
        [kernels.viterbi_batch(rows[i : i + 3], syms, source) for i in range(0, len(rows), 3)]
    )


@pytest.fixture(params=["avx2", "scalar"])
def entry(request):
    """Each body of the compiled decoder, reached through ``kernels.viterbi_batch``.

    ``avx2`` decodes the batch in one call: whole groups of four frames run on
    the AVX2 body where the CPU has it, and the remainder on the scalar body.
    ``scalar`` decodes it in calls of at most three frames, which are all
    remainder, so every frame runs on the scalar body on any CPU.
    """
    if kernels.viterbi_batch_c is None:
        pytest.skip("no compiled kernel")
    return kernels.viterbi_batch if request.param == "avx2" else _decode_in_threes


def _chain_case(scheme, rows):
    """(source map, branch table, reference decode of ``rows``) for the scheme's chain.

    A chain without puncturing has no map; it gets the identity map here.
    """
    chain = _CHAINS[scheme]
    syms = _sym_table(chain.code.generators)
    if chain.puncture is None:
        return np.arange(rows.shape[1]), syms, kernels.viterbi_batch_np(rows, syms)
    reference = kernels.viterbi_batch_np(depuncture_batch(chain.puncture, rows), syms)
    return chain.source, syms, reference


def _assert_stream_map_decodes(entry, scheme, rows, syms, reference):
    """The burst-order ``rows`` through the chain's stream map give ``reference``."""
    chain = _CHAINS[scheme]
    stream = interleave_batch(chain.interleave, rows)
    assert np.array_equal(entry(stream, syms, chain.stream), reference)
    assert np.array_equal(kernels.viterbi_batch_np(stream, syms, chain.stream), reference)


@pytest.mark.parametrize("scheme", list(SchemeId))
@pytest.mark.parametrize("nframes", [1, 2, 3, 4, 5, 6, 7, 513, 515])
def test_entry_points_read_every_chains_map(entry, scheme, nframes):
    # Whole groups of four followed by a remainder of every size, through the
    # identity map (standard, m2-reduced), the three puncturing maps and the
    # five stream maps.
    rng = np.random.default_rng([28, nframes])
    rows = rng.normal(0.0, 2.0, size=(nframes, _CHAINS[scheme].coded_bits))
    source, syms, reference = _chain_case(scheme, rows)
    assert np.array_equal(entry(rows, syms, source), reference)
    assert np.array_equal(kernels.viterbi_batch_np(rows, syms, source), reference)
    if _CHAINS[scheme].source is None:
        assert np.array_equal(entry(rows, syms), reference)
    _assert_stream_map_decodes(entry, scheme, rows, syms, reference)


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
    _assert_stream_map_decodes(entry, scheme, rows, syms, reference)


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
    assert simulation._sigma_in_range(sigma, 456)
    columns = None if scheme is None else sources(_CHAINS[scheme].interleave)
    width = 456 if columns is None else columns.size
    rng = np.random.default_rng(nframes)
    bits = rng.integers(0, 2, size=(nframes, width), dtype=np.uint8)
    z = rng.standard_normal((nframes, width))
    expect = _old_channel(z, bits, sigma, columns)
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        out = z.copy()
        assert channel(out, bits, sigma, columns) is out
        assert out.tobytes() == expect.tobytes()


@pytest.mark.parametrize("bad", [[0, 1, -1, 3], [0, 1, 4, 2], [[0, 1], [2, 3]], [0.0, 1.0, 2, 3]])
def test_channel_rejects_maps_that_are_not_columns_of_the_bits(monkeypatch, bad):
    calls = []
    monkeypatch.setattr(kernels, "_channel", lambda *args: calls.append(args))
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        out = np.zeros((2, 4))
        with pytest.raises(ValueError, match="source map"):
            channel(out, np.ones((2, 4), dtype=np.uint8), 0.8, np.array(bad))
        assert not out.any()
    assert not calls  # rejected before C was called


@pytest.mark.parametrize("bad", [np.uint8(2), np.uint8(255), 0.5, 3.0])
@pytest.mark.parametrize("scheme", [None, SchemeId.M2_REDUCED])
def test_channel_backends_reject_bits_that_are_not_zero_or_one(scheme, bad):
    columns = None if scheme is None else sources(_CHAINS[scheme].interleave)
    width = 456 if columns is None else columns.size
    bits = np.zeros((3, width), dtype=np.asarray(bad).dtype)
    bits[2, width - 1] = bad
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        with pytest.raises(ValueError, match="only contain 0 and 1"):
            channel(np.zeros((3, width)), bits, 0.8, columns)


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


def _read_only(arr):
    arr.flags.writeable = False
    return arr


@pytest.mark.parametrize("out, bits", [
    (np.zeros((2, 5)), np.ones((2, 4), dtype=np.uint8)),  # wider than the map
    (np.zeros((3, 4)), np.ones((2, 4), dtype=np.uint8)),  # more rows than bits
    (np.zeros((2, 4), dtype=np.float32), np.ones((2, 4), dtype=np.uint8)),
    (np.zeros((4, 2)).T, np.ones((2, 4), dtype=np.uint8)),  # not C-ordered
    (_read_only(np.zeros((2, 4))), np.ones((2, 4), dtype=np.uint8)),
    (np.zeros(4), np.ones(4, dtype=np.uint8)),  # not a batch
])
def test_channel_rejects_buffers_that_do_not_fit_the_bits(monkeypatch, out, bits):
    calls = []
    monkeypatch.setattr(kernels, "_channel", lambda *args: calls.append(args))
    for channel in filter(None, [kernels.channel_np, kernels.channel_c]):
        with pytest.raises(ValueError, match="the channel fills"):
            channel(out, bits, 0.8)
    assert not calls


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


_SWEEP_SCRIPT = (
    "import sys\n"
    "from hrcc import kernels\n"
    "from hrcc.schemes import SchemeId\n"
    "from hrcc.simulation import reports_to_csv, sweep\n"
    "reports = sweep([SchemeId.STANDARD_456, SchemeId.M2_REDUCED], [3.0],"
    " min_frames=300, min_errors=60, seed=778)\n"
    "sys.stdout.write(kernels.BACKEND + '\\n' + reports_to_csv(reports))\n"
)


def _sweep_in_fresh_interpreter(cache: Path, path: str):
    pkg_root = str(Path(hrcc.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PATH=path, PYTHONPATH=pythonpath)
    result = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    backend, csv = result.stdout.split("\n", 1)
    return backend, csv


def _sweep_here():
    reports = sweep(
        [SchemeId.STANDARD_456, SchemeId.M2_REDUCED], [3.0], min_frames=300, min_errors=60, seed=778
    )
    return reports_to_csv(reports)


def test_without_a_compiler_falls_back_to_numpy(tmp_path):
    cache = tmp_path / "cache"
    no_cc = tmp_path / "bin"
    no_cc.mkdir()
    backend, csv = _sweep_in_fresh_interpreter(cache, str(no_cc))
    assert backend == "numpy"
    assert csv == _sweep_here()
    assert not any(cache.rglob("*.so")) and not any(cache.rglob("*.tmp"))


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_cold_cache_builds_the_kernel_once(tmp_path):
    cache = tmp_path / "cache"
    backend, csv = _sweep_in_fresh_interpreter(cache, os.environ["PATH"])
    assert backend == "c"
    assert csv == _sweep_here()
    built = sorted(p.name for p in (cache / "hrcc").iterdir())
    assert len(built) == 1 and built[0].startswith("_viterbi-") and built[0].endswith(".so")


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")
def test_build_deletes_kernels_of_other_sources(tmp_path):
    cache = tmp_path / "cache"
    (cache / "hrcc").mkdir(parents=True)
    stale = cache / "hrcc" / "_viterbi-0000.so"
    stale.write_bytes(b"built from an older source")
    partial = cache / "hrcc" / "_viterbi-1111-abcd.tmp"
    partial.write_bytes(b"")
    backend, _ = _sweep_in_fresh_interpreter(cache, os.environ["PATH"])
    assert backend == "c"
    assert not stale.exists() and partial.exists()
    assert len(list((cache / "hrcc").glob("_viterbi-*.so"))) == 1
