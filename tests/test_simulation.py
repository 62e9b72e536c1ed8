import math
import re
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
from oracles import run_bler_whole_chunks


def test_noise_sigma_normalizes_per_information_bit():
    # sigma^2 = 1 / (2 * R * 10^(ebno/10))
    assert noise_sigma(0.0, 0.5) == pytest.approx(1.0)
    assert noise_sigma(10.0, 0.5) == pytest.approx(1.0 / math.sqrt(10.0))
    assert noise_sigma(0.0, 184 / 456) == pytest.approx(math.sqrt(456 / 368))


@pytest.mark.parametrize("bad", [3, None, np.random.RandomState(3)])
def test_transmit_takes_only_a_generator(bad):
    # A seed where the Generator belongs raised AttributeError in the draw.
    with pytest.raises(TypeError, match="rng must be a Generator, got"):
        transmit([0, 1], 0.8, bad)


@pytest.mark.parametrize("sigma", ["1.0", None, np.array(1.0), [1.0]])
def test_transmit_takes_only_a_real_sigma_before_the_generator_draws(sigma):
    # "1.0" passed float(sigma), then failed in the channel with "'<' not supported".
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(TypeError, match=re.escape(f"sigma must be a Real, got {sigma!r}")):
        transmit([0, 1], sigma, rng)
    assert rng.bit_generator.state == state
    assert np.array_equal(transmit([0, 1], np.float32(0.5), np.random.default_rng(0)),
                          transmit([0, 1], float(np.float32(0.5)), np.random.default_rng(0)))


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


@pytest.mark.parametrize(
    "limits",
    [{"min_errors": math.nan}, {"min_frames": math.nan}, {"min_frames": 600.0}, {"min_errors": 2.5}],
    ids=["errors-nan", "frames-nan", "frames-600.0", "errors-2.5"],
)
def test_run_bler_takes_only_integer_limits(monkeypatch, limits):
    # Unchecked, min_errors=nan gave a 0-frame report whose bler divided by
    # zero, and min_frames=600.0 failed only on the second chunk.
    (report,) = run_bler(SchemeId.M2_REDUCED, [40.0], min_frames=np.int64(3), min_errors=np.int64(1))
    assert report.frames == 3  # numpy integers still pass
    encoded = []
    monkeypatch.setattr(schemes, "encode_blocks", lambda *args: encoded.append(args))
    with pytest.raises(TypeError):
        run_bler(SchemeId.M2_REDUCED, [4.0], **limits)
    assert not encoded


@pytest.mark.parametrize("ebno, rate", [(math.nan, 0.5), (math.inf, 0.5), (-math.inf, 0.5),
                                         (3.0, 0), (3.0, -0.5), (3.0, 1.5), (3.0, math.nan),
                                         (3085.0, 0.5), (-3300.0, 0.5)])
def test_noise_sigma_rejects_points_without_a_positive_float_sigma(ebno, rate):
    # nan gave nan, rate 0 ZeroDivisionError, 3085 dB OverflowError.
    with pytest.raises(ValueError):
        noise_sigma(ebno, rate)
    assert not simulation._channel_in_range(ebno, rate, 228)


def test_noise_sigma_takes_rate_one():
    assert noise_sigma(0.0, 1) == pytest.approx(math.sqrt(0.5))


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


def test_run_bler_decodes_no_frame_past_the_quota(monkeypatch):
    decode, rows = schemes.decode_blocks, []

    def recording(scheme, softs):
        rows.append(len(softs))
        return decode(scheme, softs)

    monkeypatch.setattr(schemes, "decode_blocks", recording)
    # Every frame fails at 0 dB, so the first piece, sized to the quota, meets it.
    (r,) = run_bler(SchemeId.M1_CS12_P12, [0.0], min_frames=4096, min_errors=100)
    assert (r.frames, r.frame_errors) == (100, 100)
    assert rows == [100]
    # A quota above the floor cannot be met early: the chunks stay whole.
    rows.clear()
    (r,) = run_bler(SchemeId.M1_CS12_P12, [0.0], min_frames=1024, min_errors=1025)
    assert r.frames == 1024
    assert rows == [512, 512]


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_run_bler_matches_the_whole_chunk_oracle(scheme):
    cases = [
        ([0.0, 2.0, 4.0, 6.0], 700, 40, 1),  # floor- and quota-stopped points
        ([1.0, 4.0], 513, 60, 2),
        ([1.0, 4.0], 1537, 60, 3),
        ([0.0, 3.0], 600, 1, 4),
        ([1.0, 3.0], 300, 500, 5),  # a quota above the floor
    ]
    stops = set()
    for points, min_frames, min_errors, seed in cases:
        got = run_bler(scheme, points, min_frames, min_errors, seed)
        assert got == run_bler_whole_chunks(scheme, points, min_frames, min_errors, seed)
        stops |= {"quota" if r.frame_errors == min_errors else "floor" for r in got}
    assert stops == {"quota", "floor"}


def _reference_channel(bits, sigma, rng, out, columns=None):
    # The channel as first written: fresh arrays and Generator.normal, the
    # noise drawn in burst order and read back through the map in coded order.
    noise = rng.normal(0.0, sigma, size=bits.shape)
    if columns is not None:
        noise = noise[:, columns]
    symbols = 1.0 - 2.0 * bits.astype(np.float64)
    return 2.0 * (symbols + noise) / (sigma * sigma)


def test_in_place_channel_matches_the_reference_expression(monkeypatch):
    decode = schemes.decode_blocks

    def run():
        seen = []

        def recording(scheme, softs):
            seen.append(np.array(softs))
            return decode(scheme, softs)

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
    # 3 dB: pieces of 110, 395 and 7 rows fill the first chunk and 46, 6
    # and 6 meet the quota in the second; 6 dB: 110, then the rest of each chunk.
    assert len(softs) == len(ref_softs) == 9
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
    # A string is not a list of points: "24" ran as the points 2 and 4 dB.
    for points in ("24", b"24"):
        with pytest.raises(TypeError, match="ebno_points must be a collection, not one (str|bytes)"):
            run_bler(SchemeId.M2_REDUCED, points, 10)
        with pytest.raises(TypeError, match="ebno_points must be a collection, not one (str|bytes)"):
            sweep([SchemeId.M2_REDUCED], points, min_frames=10)
    # A number raised "'int' object is not iterable", which names no argument.
    with pytest.raises(TypeError, match="ebno_points must be a collection, not one int: 5"):
        run_bler(SchemeId.M2_REDUCED, 5, 10)
    assert not decoded


def test_points_and_schemes_may_come_from_an_iterator_read_once():
    points, scheme_list = [4.0, 6.0], [SchemeId.M2_REDUCED, SchemeId.STANDARD_456]
    want = sweep(scheme_list, points, 10)
    assert sweep(iter(scheme_list), (p for p in points), 10) == want
    assert run_bler(SchemeId.M2_REDUCED, iter(points), 10) == want[:2]


def test_schemes_that_are_not_scheme_ids_are_rejected_before_any_point_runs(monkeypatch):
    # A name iterated as its letters raised KeyError: 'm'; a name alone, KeyError.
    decoded = []
    monkeypatch.setattr(schemes, "decode_blocks", lambda *args: decoded.append(args))
    for scheme_list in ("m2-reduced", b"m2-reduced"):
        with pytest.raises(TypeError, match="scheme_list must be a collection, not one (str|bytes)"):
            sweep(scheme_list, [5.0], 10)
    with pytest.raises(TypeError, match="scheme_list must be a collection, not one int: 5"):
        sweep(5, [1.0], 10)
    with pytest.raises(TypeError, match="scheme must be a SchemeId, got 'standard'"):
        sweep([SchemeId.M2_REDUCED, "standard"], [5.0], 10)
    with pytest.raises(TypeError, match="scheme must be a SchemeId, got 'm2-reduced'"):
        run_bler("m2-reduced", [5.0], 10)
    assert not decoded


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70])
def test_seeds_outside_0_to_2_pow_64_are_rejected_before_any_point_runs(monkeypatch, seed):
    # Masked to 64 bits, -1 ran as 2**64 - 1 and 2**64 as 0.
    decoded = []
    monkeypatch.setattr(schemes, "decode_blocks", lambda *args, **kwargs: decoded.append(args))
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, {2**64}\)"):
        run_bler(SchemeId.M2_REDUCED, [4.0], min_frames=10, seed=seed)
    with pytest.raises(ValueError, match=rf"seed must lie in \[0, {2**64}\)"):
        sweep([SchemeId.M2_REDUCED, SchemeId.STANDARD_456], [4.0], min_frames=10, seed=seed)
    assert not decoded


def test_the_largest_seed_runs():
    (report,) = run_bler(SchemeId.M2_REDUCED, [40.0], min_frames=10, seed=2**64 - 1)
    assert report.frames == 10


def test_sweep_csv_identical_across_backends(monkeypatch):
    # The compiled chains must reproduce the numpy stages bit for bit, so a
    # sweep must not depend on which one is active.
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
    monkeypatch.setattr(kernels, "BACKEND", "numpy")  # so the chains get no compiled kernel
    numpy_chains = {scheme: schemes._Chain(chain.code, chain.punctures, chain.block)
                    for scheme, chain in schemes._CHAINS.items()}
    monkeypatch.undo()
    assert all(chain.kernel is None for chain in numpy_chains.values())
    monkeypatch.setattr(schemes, "_CHAINS", numpy_chains)
    monkeypatch.setattr(kernels, "viterbi_batch", kernels.viterbi_batch_np)
    monkeypatch.setattr(kernels, "channel", kernels.channel_np)
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
