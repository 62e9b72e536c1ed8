"""Hot inner loops: the message draw, a chain's encoder and decoder, the channel with its noise,
Viterbi decoding.

Each loop has a numpy kernel, the reference and the fallback, and a compiled one in the plain
C file ``_viterbi.c`` next to this module.  On first import the system ``cc`` compiles it with
``-O2 -ffp-contract=off -fPIC -shared``, linked with ``-lm``, into
``${XDG_CACHE_HOME:-~/.cache}/hrcc/_viterbi-<sha256 of source and flags>.so`` (written to a
temporary file, then renamed into place; kernels built from other sources or flags stay, so
checkouts of different sources that share a cache each keep theirs), and later imports load it
through ``ctypes``.  If there is no compiler, or the build or the load fails, the numpy kernels
run.  ``BACKEND`` says which: ``"c"`` or ``"numpy"``.

* ``hrcc_viterbi`` (``viterbi_batch_c``; ``viterbi_batch_np``) is the one decoder.  One body,
  expanded at three widths, decodes a group of frames one per lane: where the CPU has AVX-512F
  and DQ, every whole group of eight; where it has AVX2, a whole group of four left over (or,
  without AVX-512, every whole group of four); one lane of plain C decodes every other frame,
  so a single block always.  The vector widths trace every lane back in one 128-bit register,
  one byte shuffle per step.  ``LANES``, the widest group, is 8, 4, 1 (one lane, scalar C) or 0
  (numpy).  ``_viterbi.c`` sets out how every width gives numpy's bits, ties included.
* ``hrcc_encode``, with one chain's tables from ``ChainKernel``, encodes a batch in one pass:
  the block parity by a byte-table LFSR, the tail, and the conv code 8 trellis steps per lookup
  of a kept-bit table (4096 entries, one per 12-input window: the bits of ``ConvCode.eight_steps``
  that the chain's source map keeps of that group of 8 steps, ``eight_steps`` itself where it
  keeps them all): the message is packed 8 bits at a time, and each lookup's kept bits expand 8
  at a time straight into the bytes of the coded row.  ``ChainKernel`` decodes through that
  map in one ``hrcc_viterbi`` call, which runs the LFSR over each decoded word too: its
  remainder is zero exactly when its parity matches.  The LFSR runs eight frames side by side
  where eight are left, so that their table lookups overlap.  The numpy references are
  ``BlockCode``'s parity and check, ``conv_encode_batch_np`` and ``viterbi_batch_np``.
* ``hrcc_errors`` (``bit_errors_c``; ``bit_errors_np``) counts each frame's bit errors, the
  columns where its decoded row differs from its sent row, 8 bytes at a time, reading the
  decoder's (frames, k) view of its output where it lies; ``bit_errors`` is the one that runs.
* ``hrcc_channel`` (``channel_c``; ``channel_np``) draws each row's normals by numpy's own
  ziggurat through the generator's ``bitgen_t``, with no branch on the sign or on the wedge
  test's outcome, and adds each bit, in coded order, to a normal read through a noise map, with
  ``channel_np``'s operations in their order: ``channel_np``'s doubles, which it draws by
  ``Generator.standard_normal``, and the same generator state after.  ``channel``, the one that
  runs, is ``channel_c`` only if that held on fixed seeds at import (``NORMALS`` says which).
* ``hrcc_bits`` (``draw_bits_c``; ``draw_bits_np``) draws message bits through the same
  ``bitgen_t``: bit 7 of each byte of successive ``next_uint32`` draws, low byte first, which is
  what ``Generator.integers(0, 2, shape, np.uint8)`` returns, and the same generator state after.
  ``draw_bits`` is ``draw_bits_c`` only if that held on fixed seeds at import (``BITS`` says
  which).  ``_checked`` is the one import check of both draws.

A source map folds depuncturing into the decoder: entry c is the column of the soft batch
that holds mother-code bit c, or -1 where puncturing deleted it, which reads as the erasure
+0.0; without a map the columns are read in order.  Constant tables are ``frozen``.

Each call crosses into C once, and ctypes converts each argument of a crossing on every call:
a code's constant operands (its tables, widths and rate) cross as one ``hrcc_code`` pointer
(``_Code``), filled once per ``ChainKernel``; a short array that C reads crosses as a
``bytes`` copy (``_readable``), and a buffer that C writes by its address (``_address``).

Each check runs once.  The public kernels check what they are handed before any pointer reaches
C: the batch shape (``bits.rows``), map bounds, buffer shape, dtype and layout, sigma
(``check_sigma``, whose float the channel uses), each draw's generator, and soft values,
which ``bits.real_float64`` makes float64 after the shape rule (refusing str, bytes, complex
and object values) and ``bits.finite`` scans.  ``ChainKernel.encode`` and ``decode`` take rows
whose shape ``schemes`` checked, as a batch or as one block; ``decode`` makes them float64 by
``bits.real_float64`` too, and both leave the values to C: ``hrcc_encode`` and
``hrcc_channel`` (before it draws) return ``HRCC_NOT_BINARY`` for a bit above 1 (other dtypes
are cast and checked by ``bits.binary_uint8``), and ``hrcc_viterbi`` ``HRCC_NOT_FINITE`` for a
frame whose final path metric is not finite.  Branch outputs are +-1 and a chain's map reads
every coded column, so a NaN or infinity flags its frame; only then is the batch scanned
(``bits.finite``), which passes finite values whose metrics overflowed.  The numpy backend
scans first.  These statuses, with ``HRCC_OK`` and ``HRCC_NO_MEMORY`` (which only the decoder's
and the channel's scratch buffers can return: the encoder allocates nothing), are
``_viterbi.c``'s, mirrored here, as ``NEG_METRIC`` is; only a nonzero status costs a Python
call, ``_raise_status``.  ``bit_errors`` checks its two arrays' shapes and dtype, and C counts
any bytes.

Trellis state packs the last four encoder inputs with the newest bit in
bit 3: state s at time t is x[t-1]<<3 | x[t-2]<<2 | x[t-3]<<1 | x[t-4],
and the successor under input b is (b<<3) | (s>>1).  The input bit that
leads into destination state ns is therefore always ns>>3, and the two
possible predecessors are (ns&7)<<1 and ((ns&7)<<1)|1.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import numbers
import os
from functools import lru_cache
from pathlib import Path

import numpy as np

from .bits import (NOT_BINARY, antipodal, binary_uint8, check_type, finite, real_float64, rows,
                   shown)

# Stand-in for -inf that survives repeated branch-metric additions without
# overflow; real metrics stay many orders of magnitude above it.
NEG_METRIC = -1.0e30

# The instances, which numpy takes faster than the types.
_FLOAT64, _UINT8, _BOOL = np.dtype(np.float64), np.dtype(np.uint8), np.dtype(np.bool_)
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

    ``source``, if given, is a source map, as the module describes, of the
    mother code's width, n*steps: a -1 entry is decoded as an erasure (+0.0).
    """
    soft = _soft_rows(soft)
    source, _ = _checked_map(source, soft.shape[1])
    if not np.array_equal(source, _identity_map(soft.shape[1])[0]):  # else read in place
        soft = np.pad(soft, ((0, 0), (0, 1)))[:, source]  # -1 picks the appended column of zeros
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
    with np.errstate(over="ignore", invalid="ignore"):  # as C, finite values may overflow
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
    return finite(real_float64(rows(soft, None, "the Viterbi decoder reads")))


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


def _load_c_library():
    """(decoder, channel, encoder, bits, lanes, errors): the library's functions, bound, built if
    needed; on failure, six Nones."""
    try:
        source = _C_SOURCE.read_bytes()
        digest = hashlib.sha256(source + " ".join(_C_FLAGS + _C_LIBS).encode()).hexdigest()
        target = _cache_dir() / f"_viterbi-{digest}.so"
        if not target.exists():
            _build(source, target)
        lib = ctypes.CDLL(str(target))
        functions = (lib.hrcc_viterbi, lib.hrcc_channel, lib.hrcc_encode, lib.hrcc_bits,
                     lib.hrcc_viterbi_lanes, lib.hrcc_errors)
    except (OSError, AttributeError):  # no cc, failed build or load, missing symbol
        return (None,) * 6
    ptr, size, c_int = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int
    for function, (restype, *argtypes) in zip(functions, (  # each: the result, the arguments
        # code, soft, nframes, bits, ok
        (c_int, ptr, ptr, size, ptr, ptr),
        # bitgen, out, nframes, width, bits, columns, sigma
        (c_int, ptr, ptr, size, size, ptr, ptr, ctypes.c_double),
        # code, msgs, nframes, out
        (c_int, ptr, ptr, size, ptr),
        # bitgen, out, n
        (None, ptr, ptr, size),
        (c_int,),
        # decoded, decoded_stride, sent, sent_stride, nframes, k, counts
        (None, ptr, size, ptr, size, size, size, ptr),
    )):
        function.restype, function.argtypes = restype, argtypes
    return functions


class _Code(ctypes.Structure):
    """``_viterbi.c``'s ``hrcc_code``, field by field: the operands of a code that stay the same
    from call to call.  A decode or an encode passes its address, one argument where there would
    be seven, each of which ctypes converts on every call at about the cost of a call that takes
    no argument."""

    _fields_ = [("source", ctypes.c_void_p), ("entries", ctypes.c_ssize_t),
                ("width", ctypes.c_ssize_t), ("n_out", ctypes.c_int),
                ("table", ctypes.c_void_p), ("sym", ctypes.c_void_p),
                ("kept", ctypes.c_void_p), ("groups", ctypes.c_void_p),
                ("k", ctypes.c_ssize_t), ("n", ctypes.c_ssize_t)]


def _pinned(table: np.ndarray) -> tuple[np.ndarray, int]:
    """A table made read-only, and its address, read once: ``ndarray.ctypes`` costs about a
    microsecond per access."""
    table.flags.writeable = False
    return table, table.ctypes.data


def _address(arr: np.ndarray) -> int:
    """An array's address; the buffer protocol costs a quarter of ``ndarray.ctypes``."""
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    except (TypeError, ValueError):  # read-only, empty or not C-ordered: the protocol refuses
        return arr.ctypes.data


def _readable(arr: np.ndarray):
    """A pointer for C to read a C-ordered array through: below 4 KB, which a block of 456 soft
    values fits, a ``bytes`` copy, which ctypes takes at an int's cost and which costs less than
    any address lookup, most of all a read-only array's (``ndarray.ctypes``); else the array's
    address."""
    return arr.tobytes() if arr.nbytes < 4096 else _address(arr)


def frozen(values, dtype=None) -> np.ndarray:
    """A read-only copy of ``values`` over a ``bytes`` object, which nothing can write to."""
    arr = np.ascontiguousarray(values, dtype)
    return np.frombuffer(arr.tobytes(), arr.dtype).reshape(arr.shape)


def _checked_map(source, in_width: int, lowest: int = -1) -> tuple[np.ndarray, int]:
    """``source`` as a pinned int32 map whose entries are columns of a row, or ``lowest``;
    ``None`` is the pinned identity."""
    if source is None:
        return _identity_map(in_width)
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
    syms = real_float64(np.asarray(syms))
    if syms.shape[-1] not in (2, 3):
        raise ValueError(f"the compiled kernel decodes rates 1/2 and 1/3, not 1/{syms.shape[-1]}")
    syms = syms.reshape(16, 2, -1)
    if not (np.array_equal(syms[1::2], -syms[0::2]) and np.array_equal(syms[:, 1], -syms[:, 0])):
        raise ValueError("branch outputs lack the butterfly symmetry of D^0 and D^4 taps")
    return _pinned(np.ascontiguousarray(syms[0::2, 0]))


def _bit_rows(bits) -> np.ndarray:
    """``bits`` as C-ordered uint8; the kernels check uint8 values themselves."""
    bits = np.asarray(bits)
    return np.ascontiguousarray(bits if bits.dtype == _UINT8 else binary_uint8(bits))  # >= 1-D


def check_sigma(sigma, width: int) -> float:
    """``sigma`` as a float if it is a real number > 0 with sigma^2 finite and nonzero and
    2/sigma^2 x ``width`` finite, the one noise-level rule; else a TypeError or ValueError
    naming sigma.  The channel computes with that float, so a float32, a ``Fraction`` or an
    int gives the doubles of its float.

    The receiver scales each value by 2/sigma^2 and the decoder sums a block's ``width`` values:
    a smaller sigma overflows the path metrics, a larger one sigma^2 (erasing every value)."""
    value = sigma
    # isinstance on numbers.Real alone takes about 1 us; numpy's float64, a float too, is
    # converted, as its product warns on overflow.
    if type(sigma) is not float:
        check_type(sigma, numbers.Real, "sigma")
        try:
            value = float(sigma)
        except OverflowError:  # an int beyond the floats, which the range test refuses
            value = math.inf
    power = value * value  # 0.0 if it underflows, so it is tested before the division
    if not (value > 0.0 and 0.0 < power < math.inf and math.isfinite(2.0 / power * width)):
        raise ValueError(f"sigma must be finite and positive, sigma^2 finite and nonzero and "
                         f"2/sigma^2 x {width} finite; got {shown(sigma)}")
    return value


def _channel_operands(rng, out, bits, sigma,
                      columns) -> tuple[np.ndarray, float, np.ndarray, int]:
    """(bits as C-ordered uint8, ``sigma`` as :func:`check_sigma`'s float at their width, pinned
    noise map, its address), checked against ``out`` and ``rng``, all before anything is drawn."""
    check_type(rng, np.random.Generator, "rng")  # a seed would fail deep in the draw
    bits = _bit_rows(bits)
    width = bits.shape[-1]
    sigma = check_sigma(sigma, width)
    columns, at = _checked_map(columns, width, 0)
    is_array = isinstance(out, np.ndarray)
    if not (is_array and bits.ndim == 2 and out.shape == bits.shape and columns.size == width
            and out.dtype == _FLOAT64 and (flags := out.flags).c_contiguous and flags.writeable):
        got = f"{out.shape} {out.dtype}" if is_array else type(out).__name__
        raise ValueError(f"the channel fills a writable C-ordered float64 (frames, {width}) buffer "
                         f"from (frames, {width}) bits, not {got}")
    return bits, sigma, columns, at


def channel_np(rng: np.random.Generator, out: np.ndarray, bits, sigma: float,
               columns=None) -> np.ndarray:
    """Fill ``out`` with 2y/sigma^2 for y = sigma*z + 1-2b, z ``rng``'s next standard normals,
    drawn into ``out`` in row-major order by numpy's own fill; returns it.

    Column j of ``out`` gets bit j of its row of ``bits`` (0/1, else ValueError) and
    the normal drawn at column ``columns[j]`` of its row, or at j without a map.  The values
    are those of ``2 * ((1-2b) + rng.normal(0, sigma)) / sigma**2``: ``normal`` returns
    0.0 + sigma*z, which differs from sigma*z only in the sign of a zero, lost once +-1 is added.
    """
    bits, sigma, columns, _ = _channel_operands(rng, out, bits, sigma, columns)
    bits = binary_uint8(bits)  # before the draw, so that a refused call leaves rng unmoved
    rng.standard_normal(out=out)
    out[...] = np.take(out, columns, axis=1)
    out *= sigma
    out += antipodal(bits)
    out *= 2.0
    out /= sigma * sigma
    return out


def _check_draw(rng, out) -> None:
    """Check a message draw's generator and buffer, before anything is drawn."""
    check_type(rng, np.random.Generator, "rng")
    is_array = isinstance(out, np.ndarray)
    if not (is_array and out.dtype == np.uint8 and out.flags.c_contiguous and out.flags.writeable):
        got = f"{out.shape} {out.dtype}" if is_array else type(out).__name__
        raise ValueError(f"the message draw fills a writable C-ordered uint8 array, not {got}")


def draw_bits_np(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``rng.integers(0, 2, out.shape, np.uint8)``: ``rng``'s next 0/1 bits in
    row-major order; returns it."""
    _check_draw(rng, out)
    out[...] = rng.integers(0, 2, out.shape, np.uint8)
    return out


def _check_error_rows(decoded, sent) -> None:
    """Check an error count's operands, two 2-D uint8 arrays of one shape."""
    if not (isinstance(decoded, np.ndarray) and isinstance(sent, np.ndarray) and decoded.ndim == 2
            and decoded.shape == sent.shape and decoded.dtype == sent.dtype == _UINT8):
        got = " and ".join(f"{a.shape} {a.dtype}" if isinstance(a, np.ndarray) else type(a).__name__
                           for a in (decoded, sent))
        raise ValueError(f"the error count compares two uint8 (frames, k) arrays of one shape, "
                         f"not {got}")


def bit_errors_np(decoded: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """Each frame's bit errors: for (frames, k) uint8 rows ``decoded`` and ``sent`` of one shape,
    the count of the columns where a row of one differs from its row of the other, as intp."""
    _check_error_rows(decoded, sent)
    return np.count_nonzero(decoded != sent, axis=1)


_decoder, _channel, _encoder, _bits, _lanes, _errors = _load_c_library()
BACKEND = "numpy" if _decoder is None else "c"
LANES = _lanes() if _lanes else 0

HRCC_OK, HRCC_NOT_BINARY, HRCC_NOT_FINITE, HRCC_NO_MEMORY = 0, 1, 2, 3  # as _viterbi.c has them


def _raise_status(status: int, soft=None) -> None:
    """Raise what a compiled call's nonzero ``status`` reports.  ``HRCC_NOT_FINITE`` scans
    ``soft`` (``bits.finite``), which passes finite values whose metrics overflowed."""
    if status == HRCC_NOT_FINITE:
        finite(soft)
    elif status == HRCC_NO_MEMORY:
        raise MemoryError("no memory for a compiled kernel's scratch buffer")
    else:
        raise ValueError(NOT_BINARY)


def viterbi_batch_c(soft: np.ndarray, syms: np.ndarray, source=None, chain=None):
    """Rates 1/2 and 1/3 of ``viterbi_batch_np`` in compiled C (``hrcc_viterbi``); the same bits.

    With ``chain``, a ``ChainKernel`` of the code of ``syms``, returns ``chain.decode(soft)``,
    on rows whose shape the caller checked."""
    if chain is not None:
        if syms is not chain.branches or source is not None:
            raise ValueError("a chain kernel decodes with its code's branch table and its own map")
        return chain.decode(soft)
    soft = _soft_rows(soft)
    nframes, in_width = soft.shape
    source, source_at = _checked_map(source, in_width)
    sym, sym_at = _butterfly_syms(syms)
    n_out = sym.shape[1]
    bits = np.empty((nframes, _steps(source.size, n_out)), dtype=np.uint8)
    # source and sym stay referenced here, so their addresses stay valid.
    code = _Code(source_at, source.size, in_width, n_out, None, sym_at)
    if status := _decoder(ctypes.addressof(code), _readable(soft), nframes, _address(bits), None):
        _raise_status(status, soft)
    return bits


def channel_c(rng: np.random.Generator, out: np.ndarray, bits, sigma: float,
              columns=None) -> np.ndarray:
    """``channel_np`` in one compiled call (``hrcc_channel``), which draws the normals too: the
    same doubles, and ``rng`` left in the same state, for any numpy BitGenerator."""
    bits, sigma, columns, columns_at = _channel_operands(rng, out, bits, sigma, columns)
    bitgen = rng.bit_generator
    with bitgen.lock:  # as numpy's own fill holds it
        # columns stays referenced here, so its address stays valid.
        status = _channel(bitgen.ctypes.bit_generator, _address(out), *out.shape,
                          _readable(bits), columns_at, sigma)
    if status:
        _raise_status(status)
    return out


def draw_bits_c(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """``draw_bits_np`` in one compiled call (``hrcc_bits``): the same bytes, and ``rng`` left in
    the same state, for any numpy BitGenerator."""
    _check_draw(rng, out)
    bitgen = rng.bit_generator
    with bitgen.lock:  # as numpy's own draw holds it
        _bits(bitgen.ctypes.bit_generator.value, _address(out), out.size)
    return out


def bit_errors_c(decoded: np.ndarray, sent: np.ndarray) -> np.ndarray:
    """``bit_errors_np`` in one compiled call (``hrcc_errors``), 8 bytes at a time: the same counts.
    Rows are read where they lie, at any stride, as the decoder's (frames, k) view of its
    (frames, steps) output, if each row's bytes are adjacent, else from a copy."""
    _check_error_rows(decoded, sent)
    if decoded.strides[1] != 1:
        decoded = np.ascontiguousarray(decoded)
    if sent.strides[1] != 1:
        sent = np.ascontiguousarray(sent)
    counts = np.empty(len(decoded), np.intp)
    _errors(_address(decoded), decoded.strides[0], _address(sent), sent.strides[0], *decoded.shape,
            _address(counts))
    return counts


def _checked(candidate, reference, calls):
    """``candidate`` if it gives ``reference``'s bytes and leaves the generator in step (the same
    next raw words) on fixed seeds, else ``reference``: the import check of each compiled draw.
    ``calls`` pairs each BitGenerator type with the calls made in turn on a generator of it, each
    a function of a draw and the generator that returns the array the draw filled."""
    for kind, pieces in calls:
        ours, numpys = (np.random.Generator(kind(2000)) for _ in range(2))
        for call in pieces:
            # The bytes are copied before the reference overwrites the shared buffer.
            if call(candidate, ours).tobytes() != call(reference, numpys).tobytes():
                return reference
        if ours.bit_generator.random_raw(2).tolist() != numpys.bit_generator.random_raw(2).tolist():
            return reference
    return candidate


def _channel_calls():
    """The channel's import check.  PCG64, ``default_rng``'s type, draws 2**16 normals, which
    reach the tail beyond the ziggurat's last strip about 20 times.  MT19937 builds each double
    from two 32-bit draws, where PCG64 takes one 64-bit word, so it draws 4,096 more, about 60 of
    them through a wedge or tail test.  The pieces share 64 KB: a 512 KB buffer, once freed,
    raised the process's peak RSS by about 0.4 MB."""
    out = np.empty((16, 512))
    bits = np.random.default_rng(2001).integers(0, 2, out.shape, np.uint8)
    columns = np.arange(512)[::-1]  # so that each row is read through a map

    def rows(n):
        return lambda channel, rng: channel(rng, out[:n], bits[:n], 0.8, columns)
    return (np.random.PCG64, [rows(16)] * 8), (np.random.MT19937, [rows(8)])


def _bits_calls():
    """The message draw's import check: 1, 183, 5,760 and 7 bits take 1, 46, 1,440 and 2
    ``next_uint32`` draws, so PCG64's pending 32-bit half is set by the first call and read by
    the next, and three calls end in a partial word.  MT19937 draws 32 bits natively."""
    out = np.empty(5760, np.uint8)

    def bits(n):
        return lambda draw, rng: draw(rng, out[:n])
    pcg64, mt19937 = [bits(1), bits(183), bits(5760), bits(7)], [bits(183), bits(7)]
    return (np.random.PCG64, pcg64), (np.random.MT19937, mt19937)


def _kept_bit_tables(eight_steps: np.ndarray, source: np.ndarray,
                     n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """A chain encoder's kept-bit tables, read-only and end to end, and, for each group of 8
    trellis steps, the offset of its table and how many of its columns ``source`` keeps: the
    ``kept`` and ``groups`` of ``_viterbi.c``'s ``hrcc_code``.

    There is one table per distinct keep mask of a whole group: entry i holds the bits of
    ``eight_steps[i]`` that the mask keeps, in column order from bit 0.  A mask that keeps every
    column reads ``eight_steps`` itself.  The last group, if the map ends inside it, reads a whole
    group's table whose mask starts with its own, since its count stops at the map's end, and
    else a table of its own."""
    span = 8 * n_out
    whole, present = divmod(source.size, span)
    keep = np.zeros(((whole + (present > 0)), span), np.int64)
    keep.reshape(-1)[: source.size] = source >= 0
    masks = keep @ (1 << np.arange(span))  # each group's keep mask, column c in bit c
    unique, groups = np.unique(masks[:whole], return_inverse=True)
    if present:
        fits = np.flatnonzero((unique & ((1 << present) - 1)) == masks[-1])
        if not fits.size:
            unique, fits = np.append(unique, masks[-1]), [unique.size]
        groups = np.append(groups, fits[0])
    if unique.tolist() == [(1 << span) - 1]:
        tables = eight_steps
    else:  # bit c of each entry is column c; kept bits weigh 1, 2, 4, ... in column order
        kept = unique[:, None] >> np.arange(span) & 1
        weights = np.where(kept, 2.0 ** (np.cumsum(kept, axis=1) - 1), 0.0).astype(np.float32)
        bits = np.unpackbits(eight_steps.astype("<u4", copy=False).view(np.uint8).reshape(-1, 4),
                             axis=1, count=span, bitorder="little")
        # Every sum is an integer below 2**24, exact in float32 in any order.
        tables = frozen((bits @ weights.T).T, np.uint32).reshape(-1)
    return tables, frozen(np.stack([groups * eight_steps.size, keep.sum(axis=1)], axis=1), np.int32)


class ChainKernel:
    """One chain's compiled encoder and decoder, their tables pinned and checked once.

    ``block`` and ``code`` are the chain's ``BlockCode`` and ``ConvCode``, whose ``remainders``
    and ``branches`` tables the C reads, with the kept-bit tables made from ``eight_steps``;
    ``source`` maps each mother-code column, the 4 tail bits' included, to its column of the
    coded block, or -1, keeping columns in order, for the decoder to read through; the encoder
    writes each group of 8 trellis steps' kept bits straight into the coded row from that
    group's kept-bit table (``_kept_bit_tables``), and ``width``, the coded block's, is the
    number of columns the map keeps.  Both take rows whose shape the caller checked; C checks
    the values.
    """

    def __init__(self, block, code, source):
        self.k, self.r, self.n_out = block.k, block.r, code.n_out
        self.branches = code.branches
        remainders, eight_steps, source = (frozen(table, dtype) for table, dtype in (
            (block.remainders, np.uint64), (code.eight_steps, np.uint32), (source, np.int32)))
        kept = np.flatnonzero(source >= 0)
        self.width = kept.size
        self._steps = self.k + self.r + 4  # trellis steps: the 4 zero tail bits included
        # hrcc_encode writes each coded column, in order, into its uncleared output.
        if (self.n_out not in (2, 3)
                or (remainders.size, eight_steps.size, source.size)
                != (256, 4096, self._steps * self.n_out)
                or not np.array_equal(source[kept], np.arange(self.width))):
            raise ValueError("a chain kernel takes rate 1/2 or 1/3, 256 remainders, 4096 "
                             "eight-step entries and a source map that holds each coded column "
                             "once, in order")
        # Kept referenced here, so that their addresses stay valid.
        self._tables = [*map(_pinned, (remainders, *_kept_bit_tables(eight_steps, source,
                                                                     self.n_out), source)),
                        _butterfly_syms(self.branches)]
        table_at, kept_at, groups_at, source_at, branches_at = (at for _, at in self._tables)
        self._code = _Code(source_at, source.size, self.width, self.n_out, table_at, branches_at,
                           kept_at, groups_at, self.k, self.k + self.r)
        self._code_at = ctypes.addressof(self._code)

    def encode(self, msgs: np.ndarray) -> np.ndarray:
        """(frames, k) message rows -> (frames, width) coded blocks, in one ``hrcc_encode`` call."""
        msgs = _bit_rows(msgs)
        if msgs.shape[1:] != (self.k,):  # what C reads must be there
            raise ValueError(f"a chain kernel encodes rows of {self.k}, not {msgs.shape}")
        nframes = msgs.shape[0]
        out = np.empty(nframes * self.width + 8, np.uint8)  # 8 spare bytes, which C may write
        if status := _encoder(self._code_at, _readable(msgs), nframes, _address(out)):
            _raise_status(status)
        return np.ndarray((nframes, self.width), _UINT8, out)

    def decode(self, softs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(frames, width) soft rows -> ((frames, k) messages, ``BlockCode.check_batch`` of each
        decoded k + r bits), in one ``hrcc_viterbi`` call; ValueError for a flagged NaN or inf."""
        soft = np.asarray(softs)
        if soft.shape[1:] != (self.width,):  # what C reads must be there
            raise ValueError(f"a chain kernel decodes rows of {self.width}, not {soft.shape}")
        soft = real_float64(soft)
        nframes, nsteps = soft.shape[0], self._steps
        bits = nframes * nsteps
        out = np.empty(bits + nframes, np.uint8)  # the bits, then each frame's ok
        at = _address(out)
        if status := _decoder(self._code_at, _readable(soft), nframes, at, at + bits):
            _raise_status(status, soft)
        # Two views of out, each made in one call: the first k bits of each row, and the flags.
        return (np.ndarray((nframes, self.k), _UINT8, out, 0, (nsteps, 1)),
                np.ndarray(nframes, _BOOL, out, bits))


if _decoder is None:
    viterbi_batch_c = channel_c = draw_bits_c = bit_errors_c = ChainKernel = None

conv_encode_batch = conv_encode_batch_np
viterbi_batch = viterbi_batch_c or viterbi_batch_np
bit_errors = bit_errors_c or bit_errors_np
channel = _checked(channel_c, channel_np, _channel_calls()) if channel_c else channel_np
NORMALS = "c" if channel is channel_c else "numpy"
draw_bits = _checked(draw_bits_c, draw_bits_np, _bits_calls()) if draw_bits_c else draw_bits_np
BITS = "c" if draw_bits is draw_bits_c else "numpy"
