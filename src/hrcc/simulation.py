"""AWGN link abstraction and Monte Carlo block-error measurement.

Modulation is antipodal (+1 for bit 0) and the receiver sees scaled
log-likelihood values 2y/sigma^2.  Noise power is normalized per
information bit: sigma^2 = 1 / (2 * R * 10^(ebno_db/10)) with R the
scheme's information rate, so schemes with different message sizes are
compared at equal energy per message bit.

Every measurement is a pure function of (scheme, points, limits, seed):
each (scheme, Eb/N0 point) owns a private generator derived from the
master seed, frames are consumed in a fixed chunked order, and the early
stop is evaluated as if frames were processed one at a time.

A point draws the messages of a chunk of up to 512 frames in one
``kernels.draw_bits`` call, into one message buffer per ``run_bler`` call
(the bits of ``Generator.integers(0, 2, shape, np.uint8)``, on either
backend), then sends and decodes the chunk in row pieces, drawing each
piece's noise as it goes.  A chunk's messages precede all of its noise in
the stream and piecewise normal draws continue one sequence, so the
reports do not depend on the piece sizes; the pieces only keep a point
from decoding frames past the one that meets its error quota.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import interleaving, kernels, schemes
from .bits import check_collection, check_int, check_type, one_row, shown
from .schemes import SchemeId

DEFAULT_SEED = 12345
DEFAULT_MIN_FRAMES = 5000
DEFAULT_MIN_ERRORS = 100

_CHUNK_FRAMES = 512


def check_seed(seed: int) -> int:
    """``seed`` as an int if it is an integer in [0, 2**64), the one domain of master seeds."""
    return check_int(seed, "seed", 0, 2**64)


def _float(value, name: str) -> float:
    """``value`` as a float; TypeError naming ``name`` unless it is a real number, ValueError for
    one beyond the floats, such as an int of 309 digits, whose float() raises OverflowError."""
    # float() alone would take "0.5", and a float32 point would run in float32.
    number = check_type(value, numbers.Real, name)
    try:
        return float(number)
    except OverflowError:
        raise ValueError(f"{name} must lie within the float range, got {shown(value)}") from None


def noise_sigma(ebno_db: float, info_rate: Fraction | float) -> float:
    """Noise standard deviation for unit-energy antipodal symbols.

    TypeError unless both are real numbers; ValueError unless both lie within the float range,
    Eb/N0 is finite, the rate in (0, 1] and sigma a positive float.
    """
    ebno_db, rate = _float(ebno_db, "ebno_db"), _float(info_rate, "info_rate")
    if math.isfinite(ebno_db) and 0.0 < rate <= 1.0:
        try:
            return 1.0 / math.sqrt(2.0 * rate * 10.0 ** (ebno_db / 10.0))
        except (OverflowError, ZeroDivisionError):
            pass
    raise ValueError(f"no noise level at {ebno_db} dB and rate {shown(info_rate)}: Eb/N0 must be "
                     "finite, the rate in (0, 1] and sigma a positive float")


def _channel_in_range(ebno_db: float, info_rate: Fraction, width: int) -> bool:
    """Whether ``kernels.check_sigma`` takes the noise level at ``ebno_db``.

    From about 3054 dB the path metrics overflow, and below about -3082 dB
    sigma^2 does; further out, or at an infinite or NaN point, ``noise_sigma`` fails.
    """
    try:
        kernels.check_sigma(noise_sigma(ebno_db, info_rate), width)
    except ValueError:
        return False
    return True


def transmit(bits, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """One block over the channel: y = (1-2b) + n, returned as 2y/sigma^2.

    Like :func:`run_bler`, it takes only a sigma that ``kernels.check_sigma`` takes at
    the block's length; ``kernels.channel`` checks it and ``rng`` before ``rng`` draws.
    """
    # The block's shape is checked here and its values by the channel, before it draws into
    # the row that it makes for no buffer.
    return kernels.channel(rng, None, one_row(bits, None, "expected"), sigma)[0]


@dataclass(frozen=True)
class BlerReport:
    scheme: SchemeId
    ebno_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    undetected_errors: int

    def __post_init__(self):
        check_type(self.scheme, SchemeId, "scheme")
        if not math.isfinite(_float(self.ebno_db, "ebno_db")):  # the CSV would read nan or inf
            raise ValueError(f"ebno_db must be finite, got {shown(self.ebno_db)}")
        frames = check_int(self.frames, "frames", 1)
        errors = check_int(self.frame_errors, "frame_errors", 0, frames + 1)
        check_int(self.bit_errors, "bit_errors", 0)
        check_int(self.undetected_errors, "undetected_errors", 0, errors + 1)

    @property
    def bler(self) -> float:
        return self.frame_errors / self.frames

    @property
    def ci95_halfwidth(self) -> float:
        p = self.bler
        return 1.96 * math.sqrt(p * (1.0 - p) / self.frames)


def _point_rng(seed: int, scheme: SchemeId, ebno_db: float) -> np.random.Generator:
    """Private stream per (scheme, operating point).

    Keyed on the point's value (via its float64 bit pattern), so a point's
    frames do not depend on where it sits in the sweep grid.
    """
    scheme_index = list(SchemeId).index(scheme)
    ebno_bits = int(np.float64(ebno_db).view(np.uint64))
    return np.random.default_rng(
        np.random.SeedSequence((seed, scheme_index, ebno_bits))
    )


def _checked_points(scheme_list, ebno_points) -> list[float]:
    """``ebno_points``, each a real number, as floats, -0.0 as 0.0; ValueError naming the first
    scheme a point fails."""
    check_collection(ebno_points, "ebno_points")  # "24" would be the points 2 and 4
    # -0.0 + 0.0 is 0.0, so equal points share a stream.
    points = [_float(p, "each Eb/N0 point") + 0.0 for p in ebno_points]
    for scheme in scheme_list:
        check_type(scheme, SchemeId, "scheme")
        rate, width = schemes.info_rate(scheme), schemes.coded_bits(scheme)
        bad = [p for p in points if not _channel_in_range(p, rate, width)]
        if bad:
            raise ValueError(
                "Eb/N0 points must be finite and keep the channel's values finite; "
                f"{bad} dB are out of range for {scheme.value}"
            )
    return points


def run_bler(
    scheme: SchemeId,
    ebno_points,
    min_frames: int = DEFAULT_MIN_FRAMES,
    min_errors: int = DEFAULT_MIN_ERRORS,
    seed: int = DEFAULT_SEED,
) -> list[BlerReport]:
    """Measure block error rate at each operating point.

    Frames run until ``min_frames`` are processed or ``min_errors`` frame
    errors are seen, whichever comes first; both limits must be integers.
    A frame error is any decoded message differing from the one sent,
    independent of the block check.
    """
    check_int(min_frames, "min_frames", 1)
    check_int(min_errors, "min_errors", 1)
    check_seed(seed)
    points = _checked_points([scheme], ebno_points)
    kbits = schemes.message_bits(scheme)
    nbits = schemes.coded_bits(scheme)
    rate = schemes.info_rate(scheme)
    # Coded bit k meets the normal drawn at its burst position.
    columns = interleaving.destinations(schemes.interleave_mode(scheme))
    # One message and one channel buffer for every chunk: each is decoded before the next
    # overwrites them.
    rows = min(_CHUNK_FRAMES, min_frames)
    msgs, channel = np.empty((rows, kbits), np.uint8), np.empty((rows, nbits))
    reports = []
    for ebno_db in points:
        sigma = noise_sigma(ebno_db, rate)
        rng = _point_rng(seed, scheme, ebno_db)
        frames = errors = bit_errors = undetected = 0
        while frames < min_frames and errors < min_errors:
            chunk = min(_CHUNK_FRAMES, min_frames - frames)
            kernels.draw_bits(rng, msgs[:chunk])
            start = 0
            while start < chunk and errors < min_errors:
                # Decode no further than the quota can need: at least the
                # errors still missing, else the rest of the chunk until an
                # error is seen, else the frames they take at the rate so far.
                need = min_errors - errors
                if not frames:
                    piece = need
                elif not errors:
                    piece = chunk
                else:
                    piece = max(need, -(-need * frames // errors))
                stop = min(chunk, start + piece)
                sent = msgs[start:stop]
                coded = schemes.encode_blocks(scheme, sent)
                soft = kernels.channel(rng, channel[start:stop], coded, sigma, columns)
                decoded, ok = schemes.decode_blocks(scheme, soft)
                counts = kernels.bit_errors(decoded, sent)  # each frame's bit errors
                err_flags = counts.astype(bool)
                # Honor the per-frame stopping rule even though frames are
                # processed in pieces: truncate at the first triggering frame.
                take = stop - start
                cum_err = np.cumsum(err_flags)
                if errors + int(cum_err[-1]) >= min_errors:
                    take = int(np.searchsorted(cum_err, need)) + 1
                frames += take
                errors += int(cum_err[take - 1])
                bit_errors += int(counts[:take].sum())
                undetected += int((err_flags[:take] & ok[:take]).sum())
                start = stop
        reports.append(
            BlerReport(scheme, ebno_db, frames, errors, bit_errors, undetected)
        )
    return reports


def sweep(
    scheme_list,
    ebno_points,
    min_frames: int = DEFAULT_MIN_FRAMES,
    min_errors: int = DEFAULT_MIN_ERRORS,
    seed: int = DEFAULT_SEED,
) -> list[BlerReport]:
    """run_bler over several schemes, reports grouped scheme-major.

    The seed and every (scheme, point) pair are checked before the first point runs.
    """
    check_seed(seed)
    scheme_list = list(check_collection(scheme_list, "scheme_list"))  # not "s", "t", ...
    points = _checked_points(scheme_list, ebno_points)
    reports: list[BlerReport] = []
    for scheme in scheme_list:
        reports.extend(run_bler(scheme, points, min_frames, min_errors, seed))
    return reports


CSV_HEADER = "scheme,ebno_db,frames,frame_errors,bit_errors,undetected_errors,bler,ci95"


def reports_to_csv(reports) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.scheme.value},{r.ebno_db:.6g},{r.frames},{r.frame_errors},"
            f"{r.bit_errors},{r.undetected_errors},{r.bler:.8g},{r.ci95_halfwidth:.8g}"
        )
    return "\n".join(lines) + "\n"
