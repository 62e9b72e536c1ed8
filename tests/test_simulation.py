import math
import warnings

import numpy as np
import pytest

from hrcc import kernels, schemes, simulation
from hrcc.schemes import SchemeId
from hrcc.simulation import (
    BlerReport,
    CSV_HEADER,
    noise_sigma,
    reports_to_csv,
    run_bler,
    sweep,
    transmit,
)


def test_noise_sigma_normalizes_per_information_bit():
    # sigma^2 = 1 / (2 * R * 10^(ebno/10))
    assert noise_sigma(0.0, 0.5) == pytest.approx(1.0)
    assert noise_sigma(10.0, 0.5) == pytest.approx(1.0 / math.sqrt(10.0))
    assert noise_sigma(0.0, 184 / 456) == pytest.approx(math.sqrt(456 / 368))


def test_transmit_rejects_nonpositive_sigma():
    with pytest.raises(ValueError):
        transmit([0, 1], 0.0, np.random.default_rng(0))


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 1e-200, 1e155, 1e308])
def test_transmit_rejects_sigma_outside_the_channel_range(sigma):
    # Unchecked, these gave all-NaN, NaN and +-inf soft values with a warning;
    # 1e155 overflowed sigma^2 into all +-0 values without one, and 1e308
    # overflowed sigma*z into NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            transmit([0, 1], sigma, np.random.default_rng(0))


def test_transmit_sign_recovers_bits_in_the_low_noise_limit():
    rng = np.random.default_rng(61)
    bits = rng.integers(0, 2, size=500, dtype=np.uint8)
    soft = transmit(bits, 1e-3, np.random.default_rng(1))
    assert np.array_equal((soft < 0).astype(np.uint8), bits)


def test_transmit_is_deterministic_for_a_fixed_stream():
    bits = np.ones(64, dtype=np.uint8)
    a = transmit(bits, 0.7, np.random.default_rng(42))
    b = transmit(bits, 0.7, np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_transmit_noise_variance_matches_sigma():
    sigma = 0.8
    soft = transmit(np.zeros(1_000_000, dtype=np.uint8), sigma, np.random.default_rng(2))
    noise = soft * sigma * sigma / 2.0 - 1.0
    assert abs(noise.var() - sigma * sigma) / (sigma * sigma) < 0.01


def test_run_bler_validates_limits():
    with pytest.raises(ValueError):
        run_bler(SchemeId.M2_REDUCED, [4.0], min_frames=0)
    with pytest.raises(ValueError):
        run_bler(SchemeId.M2_REDUCED, [4.0], min_errors=0)


@pytest.mark.parametrize("ebno", [math.inf, -math.inf, math.nan])
def test_run_bler_rejects_non_finite_ebno(ebno):
    with pytest.raises(ValueError, match="finite"):
        run_bler(SchemeId.M2_REDUCED, [4.0, ebno], min_frames=10)


@pytest.mark.parametrize("ebno", [3060.0, 3078.0, 3085.0, -3200.0, -3300.0])
def test_run_bler_rejects_ebno_outside_the_float_range(monkeypatch, ebno):
    # Unchecked, 3060 dB overflowed the decoder's path metrics (BLER 1),
    # 3078 dB the soft values, 3085 dB noise_sigma itself, -3200 dB sigma^2
    # (every soft value +-0), and -3300 dB divided by zero in noise_sigma.
    encoded = []
    monkeypatch.setattr(schemes, "encode_blocks", lambda *args: encoded.append(args))
    with pytest.raises(ValueError, match="out of range"):
        run_bler(SchemeId.M2_REDUCED, [4.0, ebno], min_frames=10)
    assert not encoded  # rejected before the 4 dB point ran


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_run_bler_decodes_soundly_just_below_the_overflow(scheme):
    (r,) = run_bler(scheme, [3050.0], min_frames=20, seed=1)
    assert (r.frames, r.frame_errors, r.bit_errors) == (20, 0, 0)


def test_run_bler_noiseless_operating_point():
    reports = run_bler(SchemeId.M2_REDUCED, [40.0], min_frames=1000, min_errors=100, seed=7)
    (r,) = reports
    assert r.frames == 1000
    assert r.frame_errors == 0
    assert r.bit_errors == 0
    assert r.bler == 0.0
    assert r.ci95_halfwidth == 0.0


def test_run_bler_is_reproducible():
    args = (SchemeId.STANDARD_456, [2.0, 4.0])
    a = run_bler(*args, min_frames=400, min_errors=50, seed=3)
    b = run_bler(*args, min_frames=400, min_errors=50, seed=3)
    assert a == b
    c = run_bler(*args, min_frames=400, min_errors=50, seed=4)
    assert a != c


def test_points_are_independently_reproducible():
    # a point's stream is keyed on its value, not its grid position
    pair = run_bler(SchemeId.M2_REDUCED, [2.0, 4.0], min_frames=300, min_errors=40, seed=8)
    alone = run_bler(SchemeId.M2_REDUCED, [4.0], min_frames=300, min_errors=40, seed=8)
    assert pair[1] == alone[0]


def test_run_bler_early_stop_on_error_quota():
    (r,) = run_bler(SchemeId.STANDARD_456, [0.0], min_frames=5000, min_errors=25, seed=5)
    assert r.frame_errors == 25  # stops on the frame that reaches the quota
    assert r.frames < 5000


def _reference_channel(bits, sigma, rng, out, columns=None):
    # The channel as first written: fresh arrays and Generator.normal.
    if columns is not None:
        bits = bits[:, columns]
    symbols = 1.0 - 2.0 * bits.astype(np.float64)
    noisy = symbols + rng.normal(0.0, sigma, size=symbols.shape)
    return 2.0 * noisy / (sigma * sigma)


def test_in_place_channel_matches_the_reference_expression(monkeypatch):
    decode = schemes.decode_blocks

    def run():
        seen = []

        def recording(scheme, softs, *, interleaved=False):
            seen.append(np.array(softs))
            return decode(scheme, softs, interleaved=interleaved)

        monkeypatch.setattr(schemes, "decode_blocks", recording)
        reports = run_bler(SchemeId.M2_REDUCED, [3.0, 6.0], min_frames=700, min_errors=110, seed=31)
        return reports, seen

    reports, softs = run()
    # 700 frames are a 512-frame chunk and a short one; at 3 dB the quota
    # is reached inside the short chunk, at 6 dB it is not reached.
    assert 512 < reports[0].frames < 700 and reports[0].frame_errors == 110
    assert reports[1].frames == 700 and reports[1].frame_errors < 110
    monkeypatch.setattr(simulation, "_awgn", _reference_channel)
    ref_reports, ref_softs = run()
    assert reports == ref_reports
    assert len(softs) == len(ref_softs) == 4
    assert all(a.tobytes() == b.tobytes() for a, b in zip(softs, ref_softs))

    bits = np.random.default_rng(4).integers(0, 2, size=114, dtype=np.uint8)
    got = transmit(bits, 0.7, np.random.default_rng(5))
    expect = _reference_channel(bits, 0.7, np.random.default_rng(5), None)
    assert got.tobytes() == expect.tobytes()


def test_run_bler_report_invariants():
    reports = run_bler(
        SchemeId.M2_REDUCED, [1.0, 3.0, 5.0], min_frames=300, min_errors=40, seed=6
    )
    assert [r.ebno_db for r in reports] == [1.0, 3.0, 5.0]
    for r in reports:
        assert isinstance(r, BlerReport)
        assert r.frame_errors <= r.frames
        assert r.undetected_errors <= r.frame_errors
        assert r.bler == r.frame_errors / r.frames
        p = r.bler
        assert r.ci95_halfwidth == pytest.approx(1.96 * math.sqrt(p * (1 - p) / r.frames))


def test_sweep_orders_reports_scheme_major():
    reports = sweep(
        [SchemeId.M2_REDUCED, SchemeId.STANDARD_456],
        [30.0, 40.0],
        min_frames=10,
        min_errors=5,
        seed=1,
    )
    assert [(r.scheme, r.ebno_db) for r in reports] == [
        (SchemeId.M2_REDUCED, 30.0),
        (SchemeId.M2_REDUCED, 40.0),
        (SchemeId.STANDARD_456, 30.0),
        (SchemeId.STANDARD_456, 40.0),
    ]


def test_sweep_checks_every_point_before_any_runs(monkeypatch):
    # 3055 dB is in range for m2-reduced's 228 values but not standard's 456.
    decoded = []
    monkeypatch.setattr(schemes, "decode_blocks", lambda *args, **kwargs: decoded.append(args))
    with pytest.raises(ValueError, match="out of range for standard"):
        sweep([SchemeId.M2_REDUCED, SchemeId.STANDARD_456], [4.0, 3055.0], min_frames=10)
    assert not decoded


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_0_to_2_pow_64_are_rejected_before_any_point_runs(monkeypatch, seed):
    # Masked to 64 bits, -1 ran as 2**64 - 1 and 2**64 as 0.
    decoded = []
    monkeypatch.setattr(schemes, "decode_blocks", lambda *args, **kwargs: decoded.append(args))
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        run_bler(SchemeId.M2_REDUCED, [4.0], min_frames=10, seed=seed)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
        sweep([SchemeId.M2_REDUCED, SchemeId.STANDARD_456], [4.0], min_frames=10, seed=seed)
    assert not decoded


def test_the_largest_seed_runs():
    (report,) = run_bler(SchemeId.M2_REDUCED, [40.0], min_frames=10, seed=2**64 - 1)
    assert report.frames == 10


def test_sweep_csv_identical_across_backends(monkeypatch):
    # The compiled kernel must reproduce the numpy reference bit for bit,
    # so a sweep must not depend on which one is active.
    def run():
        reports = sweep(
            [SchemeId.STANDARD_456, SchemeId.M1_CS13_P23, SchemeId.M2_REDUCED],
            [3.0],
            min_frames=400,
            min_errors=60,
            seed=777,
        )
        return reports_to_csv(reports)

    active = run()
    monkeypatch.setattr(kernels, "viterbi_batch", kernels.viterbi_batch_np)
    assert run() == active


def test_csv_shape_and_determinism():
    reports = sweep(
        [SchemeId.STANDARD_456, SchemeId.M1_CS12_P12],
        [2.0, 4.0],
        min_frames=200,
        min_errors=30,
        seed=9,
    )
    text = reports_to_csv(reports)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 5
    assert lines[1].startswith("standard,2,")
    again = reports_to_csv(
        sweep(
            [SchemeId.STANDARD_456, SchemeId.M1_CS12_P12],
            [2.0, 4.0],
            min_frames=200,
            min_errors=30,
            seed=9,
        )
    )
    assert again == text
