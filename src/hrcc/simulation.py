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
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import interleaving, kernels, schemes
from .bits import as_bit_array
from .schemes import SchemeId

DEFAULT_SEED = 12345
DEFAULT_MIN_FRAMES = 5000
DEFAULT_MIN_ERRORS = 100

_CHUNK_FRAMES = 512


def check_seed(seed: int) -> int:
    """``seed`` if it is an integer in [0, 2**64), the one domain of master seeds."""
    if not 0 <= operator.index(seed) < 2**64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def noise_sigma(ebno_db: float, info_rate: Fraction | float) -> float:
    """Noise standard deviation for unit-energy antipodal symbols."""
    ebno = 10.0 ** (ebno_db / 10.0)
    return 1.0 / math.sqrt(2.0 * float(info_rate) * ebno)


def _sigma_in_range(sigma: float, width: int) -> bool:
    """Whether sigma is positive, sigma^2 a finite nonzero float and 2/sigma^2 x ``width`` finite.

    The receiver scales each value by 2/sigma^2 and the decoder sums a
    block's ``width`` values, so a smaller sigma overflows the path metrics;
    a larger one overflows sigma^2, which erases every value, or sigma*z.
    """
    sigma = float(sigma)
    power = sigma * sigma  # 0.0 if it underflows, so it is tested before the division
    return sigma > 0.0 and 0.0 < power < math.inf and math.isfinite(2.0 / power * width)


def _channel_in_range(ebno_db: float, info_rate: Fraction, width: int) -> bool:
    """Whether :func:`_sigma_in_range` holds at ``ebno_db``.

    From about 3054 dB the path metrics overflow, and below about -3082 dB
    sigma^2 does; further out ``noise_sigma`` overflows or divides by zero.
    """
    try:
        return _sigma_in_range(noise_sigma(ebno_db, info_rate), width)
    except (OverflowError, ZeroDivisionError):
        return False


def _awgn(bits: np.ndarray, sigma: float, rng: np.random.Generator, out: np.ndarray,
          columns=None) -> np.ndarray:
    """Fill ``out`` with 2y/sigma^2 for y = (1-2b) + n; returns it.

    ``bits`` and ``out`` hold a row per frame.  Column j of ``out`` carries
    bit ``columns[j]`` of its row, or bit j without a map.

    Same values as ``2.0 * ((1 - 2b) + rng.normal(0.0, sigma)) / sigma**2``:
    ``normal`` draws the same standard normals z and returns 0.0 + sigma*z,
    which differs from sigma*z only in the sign of a zero, and that sign is
    lost once +-1 is added.
    """
    rng.standard_normal(out=out)
    return kernels.channel(out, bits, sigma, columns)


def transmit(bits, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """One block over the channel: y = (1-2b) + n, returned as 2y/sigma^2.

    Like :func:`run_bler`, it takes only a sigma that is finite and positive
    and leaves sigma^2 and 2/sigma^2 times the block's length finite.
    """
    arr = as_bit_array(bits)
    if not _sigma_in_range(sigma, arr.size):
        raise ValueError(f"sigma must be finite and positive, sigma^2, 2/sigma^2 finite: {sigma}")
    return _awgn(arr[np.newaxis], sigma, rng, np.empty((1, arr.size)))[0]


@dataclass(frozen=True)
class BlerReport:
    scheme: SchemeId
    ebno_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    undetected_errors: int

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


def _checked_points(scheme: SchemeId, ebno_points) -> list[float]:
    """``ebno_points`` as floats; ValueError naming the scheme if any is out of range."""
    points = [float(p) for p in ebno_points]
    rate, width = schemes.info_rate(scheme), schemes.coded_bits(scheme)
    bad = [p for p in points if not _channel_in_range(p, rate, width)]
    if bad:
        raise ValueError(
            "Eb/N0 points must be finite and keep the channel's values finite; "
            f"{bad} dB are out of range for {scheme.cli_name}"
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
    errors are seen, whichever comes first.  A frame error is any decoded
    message differing from the one sent, independent of the block check.
    """
    if min_frames < 1:
        raise ValueError("min_frames must be at least 1")
    if min_errors < 1:
        raise ValueError("min_errors must be at least 1")
    check_seed(seed)
    points = _checked_points(scheme, ebno_points)
    kbits = schemes.message_bits(scheme)
    nbits = schemes.coded_bits(scheme)
    rate = schemes.info_rate(scheme)
    # The channel sends the encoder's blocks in burst order through this map.
    columns = interleaving.sources(schemes.interleave_mode(scheme))
    # One channel buffer for every chunk: decode reads it in burst order and
    # is done with it before the next chunk overwrites it.
    channel = np.empty((min(_CHUNK_FRAMES, min_frames), nbits))
    reports = []
    for ebno_db in points:
        sigma = noise_sigma(ebno_db, rate)
        rng = _point_rng(seed, scheme, ebno_db)
        frames = errors = bit_errors = undetected = 0
        while frames < min_frames and errors < min_errors:
            chunk = min(_CHUNK_FRAMES, min_frames - frames)
            msgs = rng.integers(0, 2, size=(chunk, kbits), dtype=np.uint8)
            coded = schemes.encode_blocks(scheme, msgs)
            soft = _awgn(coded, sigma, rng, channel[:chunk], columns)
            decoded, ok = schemes.decode_blocks(scheme, soft, interleaved=True)
            wrong = decoded != msgs
            err_flags = wrong.any(axis=1)
            # Honor the per-frame stopping rule even though frames are
            # processed in chunks: truncate at the first triggering frame.
            take = chunk
            cum_err = np.cumsum(err_flags)
            if errors + int(cum_err[-1]) >= min_errors:
                take = int(np.searchsorted(cum_err, min_errors - errors)) + 1
            frames += take
            errors += int(cum_err[take - 1])
            bit_errors += int(wrong[:take].sum())
            undetected += int((err_flags[:take] & ok[:take]).sum())
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
    scheme_list, points = list(scheme_list), list(ebno_points)
    for scheme in scheme_list:
        _checked_points(scheme, points)
    reports: list[BlerReport] = []
    for scheme in scheme_list:
        reports.extend(run_bler(scheme, points, min_frames, min_errors, seed))
    return reports


CSV_HEADER = "scheme,ebno_db,frames,frame_errors,bit_errors,undetected_errors,bler,ci95"


def reports_to_csv(reports) -> str:
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(
            f"{r.scheme.cli_name},{r.ebno_db:.6g},{r.frames},{r.frame_errors},"
            f"{r.bit_errors},{r.undetected_errors},{r.bler:.8g},{r.ci95_halfwidth:.8g}"
        )
    return "\n".join(lines) + "\n"
