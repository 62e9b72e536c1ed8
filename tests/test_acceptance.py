"""Release acceptance suite: one test per criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The Monte Carlo criteria use the package default seed; every number they
assert is reproducible bit for bit.
"""

import numpy as np
import pytest

from hrcc import interleaving
from hrcc.bits import SubAllocation
from hrcc.coding import (
    CONV_RATE_12,
    CONV_RATE_13,
    PUNCTURE_CS23,
    PUNCTURE_P12,
    PUNCTURE_P13,
    PUNCTURE_P23,
    TAIL_BITS,
    conv_encode_batch,
    fire_encode,
    parity20_check,
    parity20_encode,
    puncture_batch,
    viterbi_decode,
)
from hrcc.coding import fire_check
from hrcc.interleaving import InterleaveMode
from hrcc.messages import (
    ChannelAssignment,
    decode_immediate_assignment,
    decode_lapdm_tailored,
    encode_immediate_assignment,
    encode_lapdm_tailored,
)
from hrcc.multiframe import (
    ChannelConfig,
    ChannelKind,
    FrameMode,
    LogicalChannelId,
    MultiframeConfig,
    bursts_for,
    capacity_report,
)
from hrcc.schemes import SchemeId, decode_block, encode_block, message_bits
from hrcc.simulation import DEFAULT_SEED, reports_to_csv, run_bler, sweep

from oracles import build_rate12_codebook, ml_decode_bruteforce

GRID_EBNO = [float(e) for e in range(9)]
GRID_MIN_FRAMES = 5000
GRID_MIN_ERRORS = 100
UNDETECTED_BOUND = 2.0**-20


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def bler_grid():
    return sweep(
        list(SchemeId),
        GRID_EBNO,
        min_frames=GRID_MIN_FRAMES,
        min_errors=GRID_MIN_ERRORS,
        seed=DEFAULT_SEED,
    )


def test_criterion_1_stage_size_ledger():
    rng = np.random.default_rng(101)
    msg184 = rng.integers(0, 2, size=184, dtype=np.uint8)
    msg90 = rng.integers(0, 2, size=90, dtype=np.uint8)

    # One-row batches: each stage's output is its second dimension.
    cw = fire_encode(msg184)
    tailed = np.concatenate([cw, np.zeros(TAIL_BITS, np.uint8)])[np.newaxis]
    mother12 = conv_encode_batch(CONV_RATE_12, tailed)
    mother13 = conv_encode_batch(CONV_RATE_13, tailed)
    stage342 = puncture_batch(PUNCTURE_CS23, mother12)
    sizes_ok = (
        cw.size == 224
        and tailed.size == 228
        and mother12.size == 456
        and mother13.size == 684
        and stage342.size == 342
        and puncture_batch(PUNCTURE_P13, stage342).size == 228
        and puncture_batch(PUNCTURE_P12, mother12).size == 228
        and puncture_batch(PUNCTURE_P23, mother13).size == 228
    )

    cw90 = parity20_encode(msg90)
    tailed90 = np.concatenate([cw90, np.zeros(TAIL_BITS, np.uint8)])[np.newaxis]
    sizes_ok = sizes_ok and cw90.size == 110 and tailed90.size == 114
    sizes_ok = sizes_ok and conv_encode_batch(CONV_RATE_12, tailed90).size == 228

    outputs = {
        SchemeId.STANDARD_456: 456,
        SchemeId.M1_CS23_P13: 228,
        SchemeId.M1_CS12_P12: 228,
        SchemeId.M1_CS13_P23: 228,
        SchemeId.M2_REDUCED: 228,
    }
    for scheme, expect in outputs.items():
        msg = msg90 if scheme is SchemeId.M2_REDUCED else msg184
        sizes_ok = sizes_ok and encode_block(scheme, msg).size == expect

    _verdict("criterion 1: stage-size ledger", sizes_ok)


def test_criterion_2_zero_noise_identity():
    rng = np.random.default_rng(102)
    failures = 0
    for scheme in SchemeId:
        mode = (
            InterleaveMode.STD4
            if scheme is SchemeId.STANDARD_456
            else InterleaveMode.MOD2
        )
        k = message_bits(scheme)
        msgs = rng.integers(0, 2, size=(1000, k), dtype=np.uint8)
        for msg in msgs:
            subs = interleaving.interleave(mode, encode_block(scheme, msg))
            bursts = [interleaving.map_to_burst(sub) for sub in subs]
            soft = interleaving.deinterleave(
                mode, [interleaving.demap_burst(b) for b in bursts]
            )
            outcome = decode_block(scheme, soft)
            if not outcome.ok or not np.array_equal(outcome.message, msg):
                failures += 1
    _verdict(
        "criterion 2: zero-noise identity, 1000 frames x 5 schemes",
        failures == 0,
        f"{failures} failures",
    )


def test_criterion_3_capacity_doubling():
    ok = True
    for config, doubled in ((ChannelConfig.SDCCH8, 16), (ChannelConfig.SDCCH4, 8)):
        std = capacity_report(MultiframeConfig(config, FrameMode.STANDARD))
        mod = capacity_report(MultiframeConfig(config, FrameMode.MODIFIED))
        ok = ok and mod.sdcch_count == doubled == 2 * std.sdcch_count
        ok = ok and mod.sacch_count == 2 * std.sacch_count

        # EVEN and ODD claims must partition every 4-frame group
        cfg = MultiframeConfig(config, FrameMode.MODIFIED)
        for kind in ChannelKind:
            for sub in range(config.subchannels):
                even = bursts_for(cfg, LogicalChannelId(kind, sub, SubAllocation.EVEN))
                odd = bursts_for(cfg, LogicalChannelId(kind, sub, SubAllocation.ODD))
                ok = ok and not set(even) & set(odd)
                ok = ok and {b for _, b in even} == {0, 2}
                ok = ok and {b for _, b in odd} == {1, 3}
                starts = sorted({f - b for f, b in even + odd})
                for start in starts:
                    group = {(f, b) for f, b in even + odd if f - b == start}
                    ok = ok and sorted(b for _, b in group) == [0, 1, 2, 3]
    _verdict("criterion 3: capacity doubling without burst collisions", ok)


def test_criterion_4_decoder_optimality():
    msgs, cws = build_rate12_codebook(12)
    rng = np.random.default_rng(104)
    matches = 0
    cases = 200
    for _ in range(cases):
        index = int(rng.integers(0, msgs.shape[0]))
        received = cws[index].copy()
        nflips = int(rng.integers(0, 3))
        for pos in rng.choice(received.size, size=nflips, replace=False):
            received[pos] ^= 1
        soft = 1.0 - 2.0 * received.astype(np.float64)
        decoded = viterbi_decode(CONV_RATE_12, soft)[:12]
        if np.array_equal(decoded, ml_decode_bruteforce(soft, msgs, cws)):
            matches += 1
    _verdict(
        "criterion 4: Viterbi matches exhaustive ML on 200 cases",
        matches == cases,
        f"{matches}/{cases}",
    )


def test_criterion_5_block_check_strength():
    rng = np.random.default_rng(105)
    trials = 10_000

    missed = 0
    for codeword_bits, max_burst, encode, check, k in (
        (224, 40, fire_encode, fire_check, 184),
        (110, 20, parity20_encode, parity20_check, 90),
    ):
        for _ in range(trials):
            cw = encode(rng.integers(0, 2, size=k, dtype=np.uint8))
            length = int(rng.integers(1, max_burst + 1))
            start = int(rng.integers(0, codeword_bits - length + 1))
            pattern = rng.integers(0, 2, size=length, dtype=np.uint8)
            pattern[0] = 1
            cw[start : start + length] ^= pattern
            if check(cw):
                missed += 1
    _verdict(
        "criterion 5: 10^4 random bursts detected per block code",
        missed == 0,
        f"{missed} missed",
    )


def test_criterion_6a_bler_monotone_within_ci(bler_grid):
    ok = True
    worst = ""
    for scheme in SchemeId:
        points = [r for r in bler_grid if r.scheme is scheme]
        for lo, hi in zip(points, points[1:]):
            slack = lo.ci95_halfwidth + hi.ci95_halfwidth
            if hi.bler > lo.bler + slack:
                ok = False
                worst = f"{scheme.value} {lo.ebno_db}->{hi.ebno_db} dB"
    _verdict("criterion 6a: BLER monotone non-increasing within 95% CI", ok, worst)


def test_criterion_6b_method1_needs_good_channel(bler_grid):
    standard = {r.ebno_db: r for r in bler_grid if r.scheme is SchemeId.STANDARD_456}
    ok = True
    worst = ""
    for scheme in (SchemeId.M1_CS23_P13, SchemeId.M1_CS12_P12, SchemeId.M1_CS13_P23):
        for r in (x for x in bler_grid if x.scheme is scheme):
            ref = standard[r.ebno_db]
            slack = r.ci95_halfwidth + ref.ci95_halfwidth
            if r.bler < ref.bler - slack:
                ok = False
                worst = f"{scheme.value} at {r.ebno_db} dB"
    _verdict("criterion 6b: every M1 scheme at or above the standard BLER", ok, worst)


def test_criterion_6c_method2_tracks_standard(bler_grid):
    standard = [r for r in bler_grid if r.scheme is SchemeId.STANDARD_456]
    crossing = next((r.ebno_db for r in standard if r.bler < 1e-2), None)
    assert crossing is not None, "standard scheme never dropped below 1e-2 on the grid"

    # Re-measure both schemes at the crossing point with a deeper error
    # budget (the grid floor stays satisfied) so the two-sided factor-2
    # band is judged against estimates with ~4% relative CI.
    deep_std = run_bler(
        SchemeId.STANDARD_456,
        [crossing],
        min_frames=1_500_000,
        min_errors=800,
        seed=DEFAULT_SEED,
    )[0]
    deep_m2 = run_bler(
        SchemeId.M2_REDUCED,
        [crossing],
        min_frames=1_500_000,
        min_errors=800,
        seed=DEFAULT_SEED,
    )[0]
    assert deep_std.frame_errors > 0, "no reference errors at the crossing point"
    ratio = deep_m2.bler / deep_std.bler
    _verdict(
        "criterion 6c: reduced-message BLER within 2x of standard at its 1e-2 point",
        0.5 <= ratio <= 2.0,
        f"crossing {crossing} dB, ratio {ratio:.3f}",
    )


def test_criterion_6_undetected_error_bound(bler_grid):
    ok = all(r.undetected_errors / r.frames <= UNDETECTED_BOUND for r in bler_grid)
    _verdict("criterion 6: undetected-error rate within the block-check bound", ok)


def test_criterion_7_codec_bit_exactness():
    rng = np.random.default_rng(107)
    mismatches = 0
    suballoc_bit = 2 * 8 + 4

    for _ in range(10_000):
        a = ChannelAssignment(
            channel_type=int(rng.integers(0, 32)),
            timeslot=int(rng.integers(0, 8)),
            training_seq=int(rng.integers(0, 8)),
            arfcn=int(rng.integers(0, 1024)),
            suballoc=SubAllocation.EVEN if rng.integers(0, 2) == 0 else SubAllocation.ODD,
        )
        block = encode_immediate_assignment(a)
        expect_bit = 0 if a.suballoc is SubAllocation.EVEN else 1
        if block[suballoc_bit] != expect_bit or decode_immediate_assignment(block) != a:
            mismatches += 1

    for _ in range(10_000):
        payload = bytes(
            rng.integers(0, 256, size=int(rng.integers(0, 9)), dtype=np.uint8)
        )
        address = int(rng.integers(0, 256))
        control = int(rng.integers(0, 256))
        frame = encode_lapdm_tailored(payload, address, control)
        if decode_lapdm_tailored(frame) != (payload, address, control):
            mismatches += 1

    _verdict(
        "criterion 7: 10^4 assignment and 10^4 data-link roundtrips bit-exact",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def test_criterion_8_reproducibility(tmp_path):
    paths = []
    for name in ("first.csv", "second.csv"):
        reports = sweep(
            list(SchemeId),
            GRID_EBNO,
            min_frames=GRID_MIN_FRAMES,
            min_errors=GRID_MIN_ERRORS,
            seed=DEFAULT_SEED,
        )
        path = tmp_path / name
        path.write_bytes(reports_to_csv(reports).encode())
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    _verdict("criterion 8: identical seeds give byte-identical CSV files", identical)
