"""Hot inner loops: a chain's encoder and decoder, the channel and its noise, Viterbi decoding.

The Viterbi decoder has two interchangeable kernels.  The fast one is the
plain C file ``_viterbi.c`` next to this module: on first import the system
``cc`` compiles it with ``-O2 -ffp-contract=off -fPIC -shared``, linked
with ``-lm``, into
``${XDG_CACHE_HOME:-~/.cache}/hrcc/_viterbi-<sha256 of source and flags>.so``
(written to a temporary file, then renamed into place; kernels built from
other sources or flags are then deleted), and later imports load that file
through ``ctypes``.  If there is no compiler, or the build or the load
fails, ``viterbi_batch`` is the numpy kernel ``viterbi_batch_np``.
``BACKEND`` says which one runs: ``"c"`` or ``"numpy"``.

The library also holds the channel, ``hrcc_channel`` (``channel_c``): one
loop that adds each bit, in coded order, to a normal read through a noise
map, with the operations of ``channel_np``, its numpy reference and
fallback, in their order.  ``channel`` is the one that runs.  The normals
it reads come from ``hrcc_normals`` (``normals_c``), numpy's own ziggurat
and tables drawing through the generator's ``bitgen_t``, with a branch-free
sign: the same doubles as ``Generator.standard_normal`` (``normals_np``),
and the generator left in the same state.  ``normals`` draws through
``normals_c`` only if it equals ``normals_np`` on a fixed seed at import
(``NORMALS`` says which passed), so the random stream never depends on the
backend, and hands fills of fewer than 256 values to ``normals_np``, which
draws them faster.  And the library holds
a chain's encoder, ``hrcc_encode``, which ``ChainKernel`` calls with one
chain's tables: the block parity by a byte-table LFSR, the tail, the conv
code by a 32-entry table of register windows and the puncture through the
chain's source map, in one pass.  ``ChainKernel`` decodes through the same
map in one ``hrcc_viterbi`` call, which also runs the LFSR over each decoded
word: its remainder is zero exactly when its parity matches; the chains reach
it through ``viterbi_batch``, the one decoder entry.  Their numpy references
and fallbacks are ``BlockCode``'s parity and check, ``conv_encode_batch_np``,
then the map's kept columns, and ``viterbi_batch_np``.
Constant tables are ``frozen``: read-only copies nothing can write to.

The library exports one decoder, ``hrcc_viterbi`` (``viterbi_batch_c``),
which picks the body for each frame itself: where the CPU has AVX2, whole
groups of four frames run on the AVX2 body, and every other frame, the one
to three left over or every frame on other CPUs, runs on the scalar body,
which decodes one frame at a time.  The AVX2 body copies a group's four rows
into a small scratch buffer with the frames interleaved, carries one frame
through the trellis in each lane of an AVX2 vector, stores decisions as one
byte per (step, state) with a bit per lane, and traces each frame back on
its own.  It is compiled by a function attribute, not by ``-mavx2``, so the
cached library loads on any x86-64 CPU.  ``LANES`` says how many frames a
group holds: 4 (AVX2), 1 (scalar C) or 0 (numpy).

Every kernel takes an optional source map, which folds depuncturing into
the decoder: entry c is the column of the soft batch that holds
mother-code bit c, or -1 where puncturing deleted it, which reads as the
erasure +0.0.  The map has one entry per mother-code column, so a punctured
batch is decoded without first being widened with zeros.  Without a map the
columns are read in order.  Maps are bounds-checked here, before any
pointer reaches C, and both decoders reject a soft batch that is not one
row per frame or holds a NaN or infinite value, with a ValueError.

All decoders give bit-identical outputs.  The C kernel works one
butterfly at a time: destinations i and i+8 share the predecessors 2i and
2i+1, and since every generator has its D^0 and D^4 terms, the four branches
of a butterfly carry the metrics +m, -m, -m and +m of one metric m.  It sums
m in the same output order as the numpy kernel, and IEEE negation is exact,
so every candidate path metric equals the numpy one and every comparison,
ties included, goes the same way; the AVX2 lanes run the same operations in
the same order, with an ordered greater-than for the tie rule.
``-ffp-contract=off`` stops the compiler from fusing a multiply and an add
into one FMA, which rounds once where numpy rounds twice; with branch
outputs of exactly +-1 the products are exact anyway, but the equality
should not rest on the table's values.

Trellis state packs the last four encoder inputs with the newest bit in
bit 3: state s at time t is x[t-1]<<3 | x[t-2]<<2 | x[t-3]<<1 | x[t-4],
and the successor under input b is (b<<3) | (s>>1).  The input bit that
leads into destination state ns is therefore always ns>>3, and the two
possible predecessors are (ns&7)<<1 and ((ns&7)<<1)|1.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import numbers
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from .bits import NOT_BINARY, antipodal, binary_uint8, check_type, finite, rows

# Stand-in for -inf that survives repeated branch-metric additions without
# overflow; real metrics stay many orders of magnitude above it.
NEG_METRIC = -1.0e30

_C_SOURCE = Path(__file__).with_name("_viterbi.c")
_C_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_C_LIBS = ("-lm",)  # after the source, which calls exp and log1p


def conv_encode_batch_np(msgs: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Encode a (frames, nbits) batch with a rate-1/n feedforward code.

    ``taps[j, k]`` is the coefficient multiplying x[t-k] in output j; the
    shift register starts all-zero.  Output columns interleave the n
    streams: y0[0], y1[0], ..., y0[1], ...  Values other than 0 and 1 raise
    ValueError.
    """
    msgs = np.ascontiguousarray(binary_uint8(rows(msgs, None, "the convolutional encoder takes")))
    nframes, nbits = msgs.shape
    n_out = taps.shape[0]
    out = np.zeros((nframes, nbits * n_out), dtype=np.uint8)
    for j in range(n_out):
        acc = np.zeros_like(msgs)
        for k in range(taps.shape[1]):
            if taps[j, k]:
                acc[:, k:] ^= msgs[:, : nbits - k if k else nbits]
        out[:, j::n_out] = acc
    return out


def viterbi_batch_np(soft: np.ndarray, syms: np.ndarray, source=None) -> np.ndarray:
    """Max-likelihood decode a (frames, n*steps) batch of soft values.

    ``syms[s, b, j]`` is the antipodal (+1 for coded 0) output j emitted on
    the transition from state s under input b.  The trellis is forced to
    start and end in state zero; metric ties keep the branch whose oldest
    register bit is 0 so all-erasure input decodes to the all-zero word.

    ``source``, if given, is the source map of a punctured batch: entry c
    is the column of ``soft`` holding coded bit c, or -1 for a deleted bit,
    which is decoded as an erasure (+0.0).  The map's length is then the
    mother code's width, n*steps.  The identity map reads the columns in place.
    """
    soft = _soft_rows(soft)
    if source is not None:
        source, _ = _checked_map(source, soft.shape[1])
        if not np.array_equal(source, _identity_map(soft.shape[1])[0]):  # columns in order
            # -1 picks the appended column of zeros.
            soft = np.pad(soft, ((0, 0), (0, 1)))[:, source]
    nframes, width = soft.shape
    n_out = syms.shape[2]
    nsteps = _steps(width, n_out)

    dest = np.arange(16)
    b_in = dest >> 3
    pred0 = (dest & 7) << 1
    pred1 = pred0 | 1
    sym0 = syms[pred0, b_in, :]  # (16, n_out)
    sym1 = syms[pred1, b_in, :]

    pm = np.full((nframes, 16), NEG_METRIC)
    pm[:, 0] = 0.0
    back = np.empty((nsteps, nframes, 16), dtype=np.uint8)
    for t in range(nsteps):
        seg = soft[:, t * n_out : (t + 1) * n_out]
        m0 = seg[:, 0:1] * sym0[np.newaxis, :, 0]
        m1 = seg[:, 0:1] * sym1[np.newaxis, :, 0]
        for j in range(1, n_out):
            m0 = m0 + seg[:, j : j + 1] * sym0[np.newaxis, :, j]
            m1 = m1 + seg[:, j : j + 1] * sym1[np.newaxis, :, j]
        c0 = pm[:, pred0] + m0
        c1 = pm[:, pred1] + m1
        pick1 = c1 > c0
        pm = np.where(pick1, c1, c0)
        back[t] = pick1

    bits = np.empty((nframes, nsteps), dtype=np.uint8)
    state = np.zeros(nframes, dtype=np.int64)
    frames = np.arange(nframes)
    for t in range(nsteps - 1, -1, -1):
        bits[:, t] = state >> 3
        state = ((state & 7) << 1) | back[t, frames, state]
    return bits


def _soft_rows(soft, width: int | None = None) -> np.ndarray:
    """A decoder's soft batch as C-ordered float64 rows; ValueError unless all finite."""
    return finite(np.ascontiguousarray(rows(soft, width, "the Viterbi decoder reads"), np.float64))


def _steps(width: int, n_out: int) -> int:
    if width % n_out:
        raise ValueError(f"soft length {width} is not a multiple of {n_out}")
    return width // n_out


def _cache_dir() -> Path:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(root) / "hrcc"


def _build(source: bytes, target: Path) -> None:
    """Compile ``source`` into ``target``, which appears whole or not at all."""
    import subprocess
    import tempfile

    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.stem + "-", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        result = subprocess.run(
            ["cc", *_C_FLAGS, "-x", "c", "-o", tmp, "-", *_C_LIBS], input=source,
            capture_output=True,
        )
        if result.returncode:
            raise OSError(f"cc failed: {result.stderr.decode(errors='replace')}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # Kernels built from earlier sources or flags are never loaded again.
    for stale in target.parent.glob("_viterbi-*.so"):
        if stale != target:
            with contextlib.suppress(OSError):
                stale.unlink()


def _load_c_library():
    """(decoder, channel, encoder, normals, lanes): the library's functions, bound, built if
    needed.

    On failure, five Nones.
    """
    try:
        source = _C_SOURCE.read_bytes()
        digest = hashlib.sha256(source + " ".join(_C_FLAGS + _C_LIBS).encode()).hexdigest()
        target = _cache_dir() / f"_viterbi-{digest}.so"
        if not target.exists():
            _build(source, target)
        lib = ctypes.CDLL(str(target))
        functions = (lib.hrcc_viterbi, lib.hrcc_channel, lib.hrcc_encode, lib.hrcc_normals,
                     lib.hrcc_viterbi_lanes)
    except (OSError, AttributeError):  # no cc, failed build or load, missing symbol
        return None, None, None, None, None
    ptr, size, c_int = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int
    for function, argtypes in zip(functions, (
        # soft, nframes, in_width, source, width (map entries), n_out, sym, bits, table, n, ok
        (ptr, size, size, ptr, size, c_int, ptr, ptr, ptr, size, ptr),
        # out, nframes, width, bits, columns, sigma, power
        (ptr, size, size, ptr, ptr, ctypes.c_double, ctypes.c_double),
        # msgs, nframes, k, table, outputs, n_out, source, map entries, width, out
        (ptr, size, size, ptr, ptr, c_int, ptr, size, size, ptr),
        # bitgen, n, out
        (ptr, size, ptr),
        (),
    )):
        function.restype, function.argtypes = c_int, argtypes
    functions[3].restype = None  # hrcc_normals returns nothing
    return functions


def _pinned(table: np.ndarray) -> tuple[np.ndarray, int]:
    """A table made read-only, and its address.

    A table kept across calls has its address read once: ``ndarray.ctypes``
    costs about a microsecond per access, a tenth of a one-frame decode.
    """
    table.flags.writeable = False
    return table, table.ctypes.data


def _address(arr: np.ndarray) -> int:
    """An array's address; the buffer protocol costs a third of ``ndarray.ctypes``."""
    if arr.flags.writeable and arr.flags.c_contiguous and arr.size:  # as the protocol needs
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def frozen(values, dtype=None) -> np.ndarray:
    """A read-only copy of ``values`` over a ``bytes`` object, which nothing can write to."""
    arr = np.ascontiguousarray(values, dtype)
    return np.frombuffer(arr.tobytes(), arr.dtype).reshape(arr.shape)


def _checked_map(source, in_width: int, lowest: int = -1) -> tuple[np.ndarray, int]:
    """``source`` as a pinned int32 map whose entries are columns of a row, or ``lowest``."""
    source = np.asarray(source)
    if source.ndim != 1 or source.dtype.kind not in "iu":
        raise ValueError("a source map is a 1-D integer array")
    if source.size and (source.min() < lowest or source.max() >= in_width):
        raise ValueError(f"source map entries must lie in [{lowest}, {in_width})")
    return _pinned(source.astype(np.int32))


@lru_cache(maxsize=8)
def _identity_map(width: int) -> tuple[np.ndarray, int]:
    return _pinned(np.arange(width, dtype=np.int32))


def _butterfly_syms(syms) -> tuple[np.ndarray, int]:
    """The (8, n_out) outputs of a branch table's branches from state 2i under input 0, pinned."""
    syms = np.asarray(syms, np.float64)
    if syms.shape[-1] not in (2, 3):
        raise ValueError(f"the compiled kernel decodes rates 1/2 and 1/3, not 1/{syms.shape[-1]}")
    syms = syms.reshape(16, 2, -1)
    if not (np.array_equal(syms[1::2], -syms[0::2]) and np.array_equal(syms[:, 1], -syms[:, 0])):
        raise ValueError("branch outputs lack the butterfly symmetry of D^0 and D^4 taps")
    return _pinned(np.ascontiguousarray(syms[0::2, 0]))


def _bit_rows(bits) -> np.ndarray:
    """``bits`` as C-ordered uint8; the kernels check uint8 values as they read them."""
    bits = np.asarray(bits)
    return np.ascontiguousarray(bits if bits.dtype == np.uint8 else binary_uint8(bits))  # >= 1-D


def check_sigma(sigma, width: int):
    """``sigma`` if it is a real number > 0 with sigma^2 finite and nonzero and 2/sigma^2 x
    ``width`` finite, the one noise-level rule; else a TypeError or ValueError naming sigma.

    The receiver scales each value by 2/sigma^2 and the decoder sums a block's ``width`` values:
    a smaller sigma overflows the path metrics, a larger one sigma^2 (erasing every value)."""
    if not isinstance(sigma, float):  # isinstance on numbers.Real alone takes about 1 us
        check_type(sigma, numbers.Real, "sigma")
    power = sigma * sigma  # 0.0 if it underflows, so it is tested before the division
    if not (sigma > 0.0 and 0.0 < power < math.inf and math.isfinite(2.0 / power * width)):
        raise ValueError(f"sigma must be finite and positive, sigma^2 finite and nonzero and "
                         f"2/sigma^2 x {width} finite; got {sigma!r}")
    return sigma


def _channel_operands(out, bits, sigma, columns) -> tuple[np.ndarray, np.ndarray, int]:
    """(bits as C-ordered uint8, pinned noise map, its address), checked against ``out``,
    and ``sigma`` by :func:`check_sigma` at their width."""
    bits = _bit_rows(bits)
    width = bits.shape[-1]
    check_sigma(sigma, width)
    columns, at = _identity_map(width) if columns is None else _checked_map(columns, width, 0)
    if not (bits.ndim == 2 and out.shape == bits.shape and columns.size == width
            and out.dtype == np.float64 and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"the channel fills a writable C-ordered float64 (frames, {width}) buffer "
                         f"from (frames, {width}) bits, not {out.shape} {out.dtype}")
    return bits, columns, at


def channel_np(out: np.ndarray, bits, sigma: float, columns=None) -> np.ndarray:
    """Turn the standard normals z in ``out`` into 2y/sigma^2 for y = sigma*z + 1-2b; returns it.

    Column j of ``out`` gets bit j of its row of ``bits`` (0/1, else ValueError) and
    the normal drawn at column ``columns[j]``, a column of ``out``, or at j without a map.
    """
    bits, columns, _ = _channel_operands(out, bits, sigma, columns)
    out[...] = np.take(out, columns, axis=1)
    out *= sigma
    out += antipodal(binary_uint8(bits))
    out *= 2.0
    out /= sigma * sigma
    return out


def normals_np(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``rng``'s next standard normals, by numpy's own fill; returns it."""
    return rng.standard_normal(out=out)


_decoder, _channel, _encoder, _normals, _lanes = _load_c_library()
BACKEND = "numpy" if _decoder is None else "c"
LANES = _lanes() if _lanes else 0


def viterbi_batch_c(soft: np.ndarray, syms: np.ndarray, source=None, chain=None):
    """Rates 1/2 and 1/3 of ``viterbi_batch_np`` in compiled C (``hrcc_viterbi``); the same bits.

    With ``chain``, a ``ChainKernel`` of the code of ``syms``, returns ``chain.decode(soft)``."""
    if chain is not None:
        if syms is not chain.branches or source is not None:
            raise ValueError("a chain kernel decodes with its code's branch table and its own map")
        return chain.decode(soft)
    soft = _soft_rows(soft)
    nframes, in_width = soft.shape
    source, source_at = (
        _identity_map(in_width) if source is None else _checked_map(source, in_width)
    )
    sym, sym_at = _butterfly_syms(syms)
    n_out = sym.shape[1]
    bits = np.empty((nframes, _steps(source.size, n_out)), dtype=np.uint8)
    # source and sym stay referenced here, so their addresses stay valid.
    if _decoder(_address(soft), nframes, in_width, source_at, source.size, n_out, sym_at,
                _address(bits), None, 0, None):
        raise MemoryError("no memory for the Viterbi scratch buffer")
    return bits


def normals_c(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``normals_np`` in compiled C (``hrcc_normals``): the same doubles, and ``rng`` left in
    the same state, for any numpy BitGenerator.

    ``out`` must be a writable C-ordered float64 array, else ValueError."""
    if not (isinstance(out, np.ndarray) and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError("the normal fill writes a writable C-ordered float64 array")
    bitgen = rng.bit_generator
    with bitgen.lock:  # as numpy's own fill holds it
        _normals(bitgen.ctypes.bit_generator.value, out.size, _address(out))
    return out


def _checked_fill(fill):
    """``fill`` if it draws ``normals_np``'s doubles and leaves the same generator state
    on a fixed seed, else ``normals_np``.

    2**16 normals reach the tail beyond the ziggurat's last strip about 20 times.  They
    are drawn in pieces of 64 KB: a 512 KB buffer, once freed, raised the process's peak
    RSS by about 0.4 MB."""
    ours, numpys = np.random.default_rng(2000), np.random.default_rng(2000)
    drawn, expect = np.empty(1 << 13), np.empty(1 << 13)
    for _ in range(8):
        if fill(ours, drawn).tobytes() != normals_np(numpys, expect).tobytes():
            return normals_np
    return fill if ours.bit_generator.state == numpys.bit_generator.state else normals_np


def normals(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the array ``out`` with ``rng``'s next standard normals; returns it.

    Through the fill that passed the import check, ``normals_c`` where ``NORMALS`` is
    ``"c"``, but below 256 values through ``normals_np``: there the ctypes call costs
    more than the C saves (3.9 against 3.1 µs for a 114-value burst on the machine of
    ``BENCH_13.json``).  Both give the
    same doubles and leave the same state, so the stream does not depend on the choice."""
    return (_fill if out.size >= 256 else normals_np)(rng, out)


def channel_c(out: np.ndarray, bits, sigma: float, columns=None) -> np.ndarray:
    """``channel_np`` in one compiled loop (``hrcc_channel``); the same doubles."""
    bits, columns, columns_at = _channel_operands(out, bits, sigma, columns)
    # columns stays referenced here, so its address stays valid.
    status = _channel(_address(out), *out.shape, _address(bits), columns_at, sigma, sigma * sigma)
    if status:
        raise (MemoryError("no memory for the channel's row copy") if status == -2
               else ValueError(NOT_BINARY))
    return out


class ChainKernel:
    """One chain's compiled encoder and decoder, their operands pinned and checked once.

    ``block`` and ``code`` are the chain's ``BlockCode`` and ``ConvCode``, whose
    ``remainders``, ``outputs`` and ``branches`` tables the C reads; ``source``
    maps each mother-code column, the 4 tail bits' included, to its column of
    the coded block, or -1, for the encoder to write and the decoder to read
    through; ``width``, the coded block's, is the number of columns it keeps.
    The encoder reads each value once and raises ValueError on any but 0 and 1.
    """

    def __init__(self, block, code, source):
        self.k, self.r, self.n_out = block.k, block.r, code.n_out
        self.branches = code.branches
        remainders, outputs, source = (frozen(table, dtype) for table, dtype in (
            (block.remainders, np.uint64), (code.outputs, np.uint8), (source, np.int32)))
        self.width = int(np.count_nonzero(source >= 0))
        self._mother = (self.k + self.r + 4) * self.n_out  # the 4 zero tail bits included
        # hrcc_encode writes each column of its uncleared output through the map, so once each.
        if (self.n_out not in (2, 3)
                or (remainders.size, outputs.size, source.size) != (256, 32, self._mother)
                or not np.array_equal(np.sort(source[source >= 0]), np.arange(self.width))):
            raise ValueError("a chain kernel takes rate 1/2 or 1/3, 256 remainders, 32 outputs "
                             "and a source map that holds each coded column once")
        # Kept referenced here, so that their addresses stay valid.
        self._tables = [*map(_pinned, (remainders, outputs, source)),
                        _butterfly_syms(self.branches)]
        self._table_at, self._outputs_at, self._source_at, self._branches_at = (
            at for _, at in self._tables)

    def encode(self, msgs) -> np.ndarray:
        """(frames, k) messages -> (frames, width) coded blocks, in one ``hrcc_encode`` call."""
        msgs = _bit_rows(rows(msgs, self.k, "the chain encodes"))
        out = np.empty((msgs.shape[0], self.width), np.uint8)
        if _encoder(_address(msgs), msgs.shape[0], self.k, self._table_at, self._outputs_at,
                    self.n_out, self._source_at, self._mother, self.width, _address(out)):
            raise ValueError(NOT_BINARY)
        return out

    def decode(self, softs) -> tuple[np.ndarray, np.ndarray]:
        """(frames, width) soft values -> ((frames, k) messages, ``BlockCode.check_batch`` of
        each decoded k + r bits), in one ``hrcc_viterbi`` call."""
        soft = _soft_rows(softs, self.width)
        bits = np.empty((soft.shape[0], self._mother // self.n_out), np.uint8)
        ok = np.empty(soft.shape[0], np.bool_)
        if _decoder(_address(soft), soft.shape[0], self.width, self._source_at, self._mother,
                    self.n_out, self._branches_at, _address(bits), self._table_at,
                    self.k + self.r, _address(ok)):
            raise MemoryError("no memory for the Viterbi scratch buffer")
        return bits[:, : self.k], ok


if _decoder is None:
    viterbi_batch_c = channel_c = normals_c = ChainKernel = None

conv_encode_batch = conv_encode_batch_np
viterbi_batch = viterbi_batch_c or viterbi_batch_np
channel = channel_c or channel_np
_fill = _checked_fill(normals_c) if normals_c else normals_np
NORMALS = "c" if _fill is normals_c else "numpy"
