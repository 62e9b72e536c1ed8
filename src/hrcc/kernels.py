"""Hot inner loops: convolutional encoding, the channel and Viterbi decoding.

The Viterbi decoder has two interchangeable kernels.  The fast one is the
plain C file ``_viterbi.c`` next to this module: on first import the system
``cc`` compiles it with ``-O2 -ffp-contract=off -fPIC -shared`` into
``${XDG_CACHE_HOME:-~/.cache}/hrcc/_viterbi-<sha256 of source and flags>.so``
(written to a temporary file, then renamed into place; kernels built from
other sources or flags are then deleted), and later imports load that file
through ``ctypes``.  If there is no compiler, or the build or the load
fails, ``viterbi_batch`` is the numpy kernel ``viterbi_batch_np``.
``BACKEND`` says which one runs: ``"c"`` or ``"numpy"``.  The numpy encoder
is the only encoder.

The library also holds the channel, ``hrcc_channel`` (``channel_c``): one
loop that turns standard normals into soft values, each bit read through a
column map, with the operations of ``channel_np``, its numpy reference and
fallback, in their order.  ``channel`` is the one that runs.

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
batch is decoded without first being widened with zeros.  A map may also
read the columns in any order: a chain's stream map reads a block in burst
order, so the decoder deinterleaves as it reads.  Without a map the
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
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from .bits import antipodal, binary_uint8, rows

# Stand-in for -inf that survives repeated branch-metric additions without
# overflow; real metrics stay many orders of magnitude above it.
NEG_METRIC = -1.0e30

_C_SOURCE = Path(__file__).with_name("_viterbi.c")
_C_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def conv_encode_batch_np(msgs: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Encode a (frames, nbits) batch with a rate-1/n feedforward code.

    ``taps[j, k]`` is the coefficient multiplying x[t-k] in output j; the
    shift register starts all-zero.  Output columns interleave the n
    streams: y0[0], y1[0], ..., y0[1], ...
    """
    msgs = np.ascontiguousarray(rows(msgs, None, "the convolutional encoder takes", np.uint8))
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
    mother code's width, n*steps.
    """
    soft = _soft_rows(soft)
    if source is not None:
        source, _ = _checked_map(source, soft.shape[1])
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


def _soft_rows(soft) -> np.ndarray:
    """A decoder's soft batch as C-ordered float64 rows; ValueError unless all finite."""
    soft = np.ascontiguousarray(rows(soft, None, "the Viterbi decoder reads", np.float64))
    if not np.isfinite(soft).all():
        raise ValueError("soft values must be finite")
    return soft


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
            ["cc", *_C_FLAGS, "-x", "c", "-o", tmp, "-"], input=source, capture_output=True
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
    """(decoder, channel, lanes) of the library, built if needed; (None, None, 0) on failure."""
    try:
        source = _C_SOURCE.read_bytes()
        digest = hashlib.sha256(source + " ".join(_C_FLAGS).encode()).hexdigest()
        target = _cache_dir() / f"_viterbi-{digest}.so"
        if not target.exists():
            _build(source, target)
        lib = ctypes.CDLL(str(target))
        decoder, channel, lanes = lib.hrcc_viterbi, lib.hrcc_channel, lib.hrcc_viterbi_lanes
    except (OSError, AttributeError):  # no cc, failed build or load, missing symbol
        return None, None, 0
    lanes.restype = ctypes.c_int
    lanes.argtypes = ()
    decoder.restype = ctypes.c_int
    decoder.argtypes = (
        ctypes.c_void_p,  # soft
        ctypes.c_ssize_t,  # nframes
        ctypes.c_ssize_t,  # in_width: values per soft row
        ctypes.c_void_p,  # source: int32 map, one entry per mother-code column
        ctypes.c_ssize_t,  # width: entries in the map
        ctypes.c_int,  # n_out
        ctypes.c_void_p,  # sym
        ctypes.c_void_p,  # bits
    )
    channel.restype = ctypes.c_int
    channel.argtypes = (  # out, nframes, width, bits, in_width, columns, sigma, power
        ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_ssize_t, ctypes.c_void_p,
        ctypes.c_ssize_t, ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
    )
    return decoder, channel, lanes()


def _pinned(table: np.ndarray) -> tuple[np.ndarray, int]:
    """A table cached across calls, made read-only, and its address.

    The address is read once: ``ndarray.ctypes`` costs about a microsecond
    per access, a tenth of a one-frame decode.
    """
    table.flags.writeable = False
    return table, table.ctypes.data


def _address(arr: np.ndarray) -> int:
    """A C-ordered array's address; the buffer protocol costs a third of ``ndarray.ctypes``."""
    if arr.flags.writeable and arr.size:  # the buffer protocol needs both
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


def _checked_map(source, in_width: int, lowest: int = -1) -> tuple[np.ndarray, int]:
    """``source`` as a pinned int32 map whose entries are columns of a row, or ``lowest``."""
    source = np.asarray(source)
    if source.ndim != 1 or source.dtype.kind not in "iu":
        raise ValueError("a source map is a 1-D integer array")
    return _valid_map(source.tobytes(), source.dtype.str, in_width, lowest)


@lru_cache(maxsize=16)
def _valid_map(raw: bytes, dtype: str, in_width: int, lowest: int) -> tuple[np.ndarray, int]:
    # Cached on the bytes: a chain decodes every batch through the same map.
    source = np.frombuffer(raw, dtype=dtype)
    if source.size and (source.min() < lowest or source.max() >= in_width):
        raise ValueError(f"source map entries must lie in [{lowest}, {in_width})")
    return _pinned(source.astype(np.int32))


@lru_cache(maxsize=8)
def _identity_map(width: int) -> tuple[np.ndarray, int]:
    return _pinned(np.arange(width, dtype=np.int32))


@lru_cache(maxsize=8)
def _butterfly_syms(raw: bytes, n_out: int) -> tuple[np.ndarray, int]:
    """(8, n_out) outputs of the branch from state 2i under input 0, pinned."""
    if n_out not in (2, 3):
        raise ValueError(f"the compiled kernel decodes rates 1/2 and 1/3, not 1/{n_out}")
    syms = np.frombuffer(raw, dtype=np.float64).reshape(16, 2, n_out)
    if not (np.array_equal(syms[1::2], -syms[0::2]) and np.array_equal(syms[:, 1], -syms[:, 0])):
        raise ValueError("branch outputs lack the butterfly symmetry of D^0 and D^4 taps")
    return _pinned(np.ascontiguousarray(syms[0::2, 0]))


def _channel_operands(out: np.ndarray, bits, columns) -> tuple[np.ndarray, np.ndarray, int]:
    """(bits as C-ordered uint8, pinned column map, its address), checked against ``out``."""
    bits = np.asarray(bits)  # uint8 bits are checked by each backend as it reads them
    bits = np.ascontiguousarray(bits if bits.dtype == np.uint8 else binary_uint8(bits))  # >= 1-D
    width = bits.shape[-1]
    columns, at = _identity_map(width) if columns is None else _checked_map(columns, width, 0)
    if not (bits.ndim == 2 and out.shape == (len(bits), columns.size) and out.dtype == np.float64
            and out.flags.c_contiguous and out.flags.writeable):
        raise ValueError(f"the channel fills a writable C-ordered float64 (frames, {columns.size}) "
                         f"buffer from (frames, {width}) bits, not {out.shape} {out.dtype}")
    return bits, columns, at


def channel_np(out: np.ndarray, bits, sigma: float, columns=None) -> np.ndarray:
    """Turn the standard normals z in ``out`` into 2y/sigma^2 for y = sigma*z + 1-2b; returns it.

    Column j of ``out`` carries bit ``columns[j]`` of its row of ``bits``
    (0/1 values, else ValueError), or bit j without a map; every entry must be a column.
    """
    bits, columns, _ = _channel_operands(out, bits, columns)
    out *= sigma
    out += antipodal(binary_uint8(np.take(bits, columns, axis=1)))
    out *= 2.0
    out /= sigma * sigma
    return out


_decoder, _channel, LANES = _load_c_library()
BACKEND = "numpy" if _decoder is None else "c"


def viterbi_batch_c(soft: np.ndarray, syms: np.ndarray, source=None) -> np.ndarray:
    """Rates 1/2 and 1/3 of ``viterbi_batch_np`` in compiled C (``hrcc_viterbi``); the same bits."""
    soft = _soft_rows(soft)
    nframes, in_width = soft.shape
    source, source_at = (
        _identity_map(in_width) if source is None else _checked_map(source, in_width)
    )
    n_out = syms.shape[2]
    sym, sym_at = _butterfly_syms(np.ascontiguousarray(syms, dtype=np.float64).tobytes(), n_out)
    bits = np.empty((nframes, _steps(source.size, n_out)), dtype=np.uint8)
    # source and sym stay referenced here, so their addresses stay valid.
    if _decoder(_address(soft), nframes, in_width, source_at, source.size, n_out, sym_at,
                _address(bits)):
        raise MemoryError("no memory for the Viterbi scratch buffer")
    return bits


def channel_c(out: np.ndarray, bits, sigma: float, columns=None) -> np.ndarray:
    """``channel_np`` in one compiled loop (``hrcc_channel``); the same doubles."""
    bits, columns, columns_at = _channel_operands(out, bits, columns)
    # columns stays referenced here, so its address stays valid.
    if _channel(_address(out), out.shape[0], out.shape[1], _address(bits), bits.shape[1],
                columns_at, sigma, sigma * sigma):
        raise ValueError("bit block may only contain 0 and 1")
    return out


if _decoder is None:
    viterbi_batch_c = channel_c = None

conv_encode_batch = conv_encode_batch_np
viterbi_batch = viterbi_batch_c or viterbi_batch_np
channel = channel_c or channel_np
