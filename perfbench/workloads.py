"""The benchmark's workloads and the checks on their outputs.

Each workload builds its inputs from a seed in ``__init__`` and then runs the
same iteration as often as asked.  ``run`` calls hrcc only through module
attributes (``schemes.encode_block``, ``simulation.sweep``, ...), so a
:class:`spans.Tracer` installed around it sees every layer.  An iteration
returns an :class:`Outcome`: the bytes that must repeat exactly across
iterations and between the traced and untraced runs, the operations it checked,
the checks that failed, and its timings.  With ``paced=True`` it also runs a
:mod:`yardstick` every few milliseconds (before each batch decode of a sweep,
after each exchange) and scales its timings to the yardstick's reference speed.

* ``sweep-floor``: batch throughput.  ``simulation.sweep`` over all five
  schemes, with an error quota above the frame floor so every point runs the
  same whole batches and time is spent in the batch kernels.
* ``cli-sweep-quota``: ``hrcc bler`` as users run it, through ``cli.main``,
  with the default error quota and the CSV written to a file.  Most points stop
  on the quota, so per-point overhead and frames decoded past the stopping
  frame count here.
* ``block-session``: one closed-loop client sending one signaling exchange at a
  time through the single-block API, 3 M2M terminals to 1 legacy one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from hrcc import cli, coding, interleaving, kernels, messages, multiframe, schemes, simulation
from hrcc.bits import SubAllocation
from hrcc.interleaving import InterleaveMode
from hrcc.multiframe import ChannelConfig, ChannelKind, FrameMode, LogicalChannelId, MultiframeConfig
from hrcc.schemes import SchemeId

import spans
import yardstick

DEFAULT_SEED = 7
DIGESTS = Path(__file__).with_name("digests.json")
ALL_SCHEMES = tuple(SchemeId)


@dataclass
class Outcome:
    output: bytes
    wall_s: float  # as measured
    scaled_wall_s: float  # at the yardstick's reference speed; wall_s when not paced
    attempted: int
    failures: list[str] = field(default_factory=list)
    frames: int = 0  # frames (or blocks) counted
    # Per scheme: frames and seconds; per operation: seconds.  Both scaled when paced.
    schemes: dict[str, tuple[int, float]] = field(default_factory=dict)
    samples: dict[str, list[float]] = field(default_factory=dict)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def recorded_digest(workload: str) -> str:
    return json.loads(DIGESTS.read_text())[workload]


def _run_sweep(call, tracer: spans.Tracer | None, paced: bool):
    """Run ``call``, a sweep, and time it.

    Traced, everything runs under ``tracer``.  Otherwise ``simulation.run_bler``,
    which the sweep calls once per scheme, gets a clock so that each scheme's
    time is known.  When ``paced``, ``schemes.decode_blocks`` also runs the
    yardstick before each batch, and every time is scaled to the reference
    speed with the yardstick runs left out.  Returns the result, the wall time,
    the scaled wall time and, per scheme, frames counted and scaled seconds.
    """
    if tracer is not None:
        with tracer.installed(), tracer.span(spans.ROOT):
            start = perf_counter()
            result = call()
            wall = perf_counter() - start
        return result, wall, wall, {}
    pacer = yardstick.Pacer(yardstick.BATCH)
    segments = []  # scheme, frames counted, start, end
    run_bler, decode_blocks = simulation.run_bler, schemes.decode_blocks

    def clocked(scheme, *args, **kwargs):
        start = perf_counter()
        reports = run_bler(scheme, *args, **kwargs)
        segments.append((scheme.value, sum(r.frames for r in reports), start, perf_counter()))
        return reports

    def paced_decode(*args, **kwargs):
        pacer.tick()
        return decode_blocks(*args, **kwargs)

    simulation.run_bler = clocked
    if paced:
        schemes.decode_blocks = paced_decode
    try:
        start = perf_counter()
        result = call()
        end = perf_counter()
    finally:
        simulation.run_bler, schemes.decode_blocks = run_bler, decode_blocks
    if paced:
        pacer.tick()
    per_scheme: dict[str, tuple[int, float]] = {}
    for scheme, frames, a, b in segments:
        counted, seconds = per_scheme.get(scheme, (0, 0.0))
        per_scheme[scheme] = (counted + frames, seconds + pacer.scaled(a, b))
    return result, pacer.raw(start, end), pacer.scaled(start, end), per_scheme


def _check_reports(reports, min_frames: int, min_errors: int, points: int) -> list[str]:
    """Stopping rule and count invariants every BLER report must satisfy."""
    failures = []
    if len(reports) != len(ALL_SCHEMES) * points:
        failures.append(f"expected {len(ALL_SCHEMES) * points} reports, got {len(reports)}")
    for r in reports:
        where = f"{r.scheme.value}@{r.ebno_db:g}dB"
        stopped = r.frames == min_frames or (r.frame_errors == min_errors and r.frames <= min_frames)
        if not stopped or r.frame_errors > min_errors:
            failures.append(f"{where}: stopped at {r.frames} frames, {r.frame_errors} errors")
        if not 0 <= r.undetected_errors <= r.frame_errors <= r.bit_errors:
            failures.append(f"{where}: inconsistent error counts")
        if r.bit_errors > r.frames * schemes.message_bits(r.scheme):
            failures.append(f"{where}: more bit errors than bits")
    return failures


class SweepFloor:
    name = "sweep-floor"
    EBNO_DB = (2.0, 4.0)

    def __init__(self, seed: int, min_frames: int = 1024):
        self.seed = seed
        self.min_frames = min_frames
        self.min_errors = min_frames + 1  # above the floor: no point stops early

    def warm_up(self) -> None:
        simulation.sweep(ALL_SCHEMES, self.EBNO_DB[:1], 1, 1, self.seed)

    def run(self, tracer: spans.Tracer | None = None, paced: bool = False) -> Outcome:
        reports, wall, scaled_wall, per_scheme = _run_sweep(
            lambda: simulation.sweep(
                ALL_SCHEMES, self.EBNO_DB, self.min_frames, self.min_errors, self.seed
            ),
            tracer,
            paced,
        )
        return Outcome(
            output=simulation.reports_to_csv(reports).encode(),
            wall_s=wall,
            scaled_wall_s=scaled_wall,
            attempted=len(reports),
            failures=_check_reports(reports, self.min_frames, self.min_errors, len(self.EBNO_DB)),
            frames=sum(r.frames for r in reports),
            schemes=per_scheme,
        )


class CliSweepQuota:
    name = "cli-sweep-quota"
    EBNO_SPEC = "0:2:8"
    POINTS = 5

    def __init__(self, seed: int, out_dir: Path, min_frames: int = 4096):
        self.seed = seed
        self.min_frames = min_frames
        self.out_dir = out_dir
        self.path = out_dir / f"cli-sweep-quota-{seed}.csv"
        self.schemes = ",".join(s.value for s in ALL_SCHEMES)

    def _argv(self, ebno: str, frames: int, path: Path) -> list[str]:
        return ["bler", "--scheme", self.schemes, "--ebno", ebno, "--frames", str(frames),
                "--seed", str(self.seed), "--output", str(path)]

    def warm_up(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        cli.main(self._argv("0", 1, self.out_dir / f"warm-up-{self.seed}.csv"))

    def run(self, tracer: spans.Tracer | None = None, paced: bool = False) -> Outcome:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.path.unlink(missing_ok=True)
        argv = self._argv(self.EBNO_SPEC, self.min_frames, self.path)
        code, wall, scaled_wall, per_scheme = _run_sweep(lambda: cli.main(argv), tracer, paced)
        data = self.path.read_bytes() if self.path.exists() else b""
        failures = [] if code == 0 else [f"hrcc bler exited with {code}"]
        lines = data.decode().splitlines()
        if not lines or lines[0] != simulation.CSV_HEADER:
            failures.append("CSV header missing or changed")
        reports = []
        for line in lines[1:]:
            try:
                name, ebno, frames, errors, bits, undetected, _bler, _ci = line.split(",")
                reports.append(simulation.BlerReport(
                    schemes.scheme_from_name(name), float(ebno), int(frames), int(errors),
                    int(bits), int(undetected)))
            except ValueError:
                failures.append(f"malformed CSV row {line!r}")
        failures += _check_reports(reports, self.min_frames, simulation.DEFAULT_MIN_ERRORS,
                                   self.POINTS)
        return Outcome(
            output=data,
            wall_s=wall,
            scaled_wall_s=scaled_wall,
            attempted=max(len(reports), 1),
            failures=failures,
            frames=sum(r.frames for r in reports),
            schemes=per_scheme,
        )


M2M_MNCS = ("901", "902", "903")
LEGACY_MNCS = ("001", "010", "260")
SDCCH8 = 0b01000  # channel-type field: SDCCH/8, sub-channel in the low 3 bits


@dataclass(frozen=True)
class Request:
    imsi: str
    m2m: bool
    assignment: messages.ChannelAssignment
    payload: bytes = b""
    address: int = 0
    control: int = 0
    bits: np.ndarray | None = None  # legacy terminals: the 184-bit message


def expected_bursts(subchannel: int, suballoc: SubAllocation | None) -> list[tuple[int, int]]:
    """The (cycle_frame, group_burst) pairs an SDCCH/8 sub-channel owns."""
    return [
        (parity * multiframe.FRAMES_PER_MULTIFRAME + 4 * subchannel + r, r)
        for parity in (0, 1)
        for r in range(4)
        if suballoc is None or r in suballoc.burst_positions
    ]


class BlockSession:
    name = "block-session"
    EBNO_DB = 10.0  # clean enough that a block error never happens in practice

    def __init__(self, seed: int, exchanges: int = 200):
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        m2m_flags = np.arange(exchanges) % 4 != 0  # exactly 3 M2M : 1 legacy
        rng.shuffle(m2m_flags)
        self.requests = [self._request(rng, bool(m2m)) for m2m in m2m_flags]
        self.sigma = {
            s: simulation.noise_sigma(self.EBNO_DB, schemes.info_rate(s))
            for s in (SchemeId.M2_REDUCED, SchemeId.STANDARD_456)
        }

    @staticmethod
    def _request(rng: np.random.Generator, m2m: bool) -> Request:
        mnc = str(rng.choice(M2M_MNCS if m2m else LEGACY_MNCS))
        digits = "".join(str(d) for d in rng.integers(0, 10, size=12))
        assignment = messages.ChannelAssignment(
            channel_type=SDCCH8 | int(rng.integers(0, 8)),
            timeslot=int(rng.integers(0, 8)),
            training_seq=int(rng.integers(0, 8)),
            arfcn=int(rng.integers(0, 1024)),
            suballoc=SubAllocation.ODD if m2m and rng.integers(0, 2) else SubAllocation.EVEN,
        )
        imsi = digits[:2] + mnc + digits[2:]
        if not m2m:
            bits = rng.integers(0, 2, size=schemes.message_bits(SchemeId.STANDARD_456),
                                dtype=np.uint8)
            return Request(imsi, False, assignment, bits=bits)
        payload = rng.integers(0, 256, size=int(rng.integers(0, 9)), dtype=np.uint8).tobytes()
        return Request(imsi, True, assignment, payload,
                       int(rng.integers(0, 256)), int(rng.integers(0, 256)))

    def exchange(self, req: Request, rng: np.random.Generator):
        """One terminal's signaling exchange; returns its outputs and timestamps."""
        t0 = perf_counter()
        imsi = messages.parse_imsi(req.imsi, 3)
        m2m = messages.is_halfrate_capable(imsi, M2M_MNCS)
        scheme = SchemeId.M2_REDUCED if m2m else SchemeId.STANDARD_456
        image = messages.encode_immediate_assignment(req.assignment)
        assignment = messages.decode_immediate_assignment(image)
        cfg = MultiframeConfig(ChannelConfig.SDCCH8,
                               FrameMode.MODIFIED if m2m else FrameMode.STANDARD)
        chan = LogicalChannelId(ChannelKind.SDCCH, assignment.channel_type & 0b111,
                                assignment.suballoc if m2m else None)
        bursts = multiframe.bursts_for(cfg, chan)
        if m2m:
            msg = messages.encode_lapdm_tailored(req.payload, req.address, req.control)
        else:
            msg = req.bits
        t1 = perf_counter()
        coded = schemes.encode_block(scheme, msg)
        t2 = perf_counter()
        mode = InterleaveMode.MOD2 if m2m else InterleaveMode.STD4
        received = [
            simulation.transmit(interleaving.map_to_burst(sub).payload, self.sigma[scheme], rng)
            for sub in interleaving.interleave(mode, coded)
        ]
        soft = interleaving.deinterleave(mode, [interleaving.demap_burst(r) for r in received])
        t3 = perf_counter()
        outcome = schemes.decode_block(scheme, soft)
        t4 = perf_counter()
        frame = messages.decode_lapdm_tailored(outcome.message) if m2m else None
        t5 = perf_counter()
        return (m2m, assignment, bursts, outcome, frame), (t0, t1, t2, t3, t4, t5)

    def check(self, req: Request, result) -> list[str]:
        m2m, assignment, bursts, outcome, frame = result
        where = f"exchange {req.imsi}"
        failures = []
        if m2m != req.m2m:
            failures.append(f"{where}: classified as {'M2M' if m2m else 'legacy'}")
        if assignment != req.assignment:
            failures.append(f"{where}: assignment did not round-trip")
        want = expected_bursts(req.assignment.channel_type & 0b111,
                               req.assignment.suballoc if req.m2m else None)
        if bursts != want:
            failures.append(f"{where}: bursts {bursts}, expected {want}")
        if not outcome.ok:
            failures.append(f"{where}: block check failed")
        if req.m2m and frame != (req.payload, req.address, req.control):
            failures.append(f"{where}: LAPDm frame did not round-trip")
        if not req.m2m and not np.array_equal(outcome.message, req.bits):
            failures.append(f"{where}: message bits differ")
        return failures

    def _channel_rng(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, 1])

    def warm_up(self) -> None:
        rng = self._channel_rng()
        for m2m in (True, False):
            self.exchange(next(r for r in self.requests if r.m2m is m2m), rng)

    def run(self, tracer: spans.Tracer | None = None, paced: bool = False) -> Outcome:
        """One session.  Its ``wall_s`` is the time spent inside exchanges."""
        rng = self._channel_rng()
        pacer = yardstick.Pacer(yardstick.SINGLE)
        results, stamps = [], []
        tracer = tracer or spans.Tracer({})
        with tracer.installed(), tracer.span(spans.ROOT):
            for req in self.requests:
                if paced:
                    pacer.tick()
                try:
                    result, times = self.exchange(req, rng)
                except ValueError as exc:
                    result, times = exc, None
                results.append(result)
                stamps.append(times)
            if paced:
                pacer.tick()
        failures, transcript = [], hashlib.sha256()
        per_scheme = {SchemeId.M2_REDUCED.value: [0, 0.0], SchemeId.STANDARD_456.value: [0, 0.0]}
        samples = {"exchange": [], "encode": [], "decode": []}
        wall = 0.0
        for req, result, times in zip(self.requests, results, stamps):
            if times is None:
                failures.append(f"exchange {req.imsi}: raised {result!r}")
                continue
            failures += self.check(req, result)
            outcome = result[3]
            transcript.update(outcome.message.tobytes() + bytes([outcome.ok]))
            t0, t1, t2, t3, t4, t5 = times
            wall += pacer.raw(t0, t5)
            samples["exchange"].append(pacer.scaled(t0, t5))
            samples["encode"].append(pacer.scaled(t1, t2))
            samples["decode"].append(pacer.scaled(t3, t4))
            key = (SchemeId.M2_REDUCED if req.m2m else SchemeId.STANDARD_456).value
            per_scheme[key][0] += 1
            per_scheme[key][1] += samples["exchange"][-1]
        return Outcome(
            output=transcript.digest(),
            wall_s=wall,
            scaled_wall_s=sum(samples["exchange"]),
            attempted=len(self.requests),
            failures=failures,
            frames=len(samples["exchange"]),
            schemes={k: tuple(v) for k, v in per_scheme.items()},
            samples=samples,
        )


def make(name: str, seed: int, out_dir: Path):
    if name == SweepFloor.name:
        return SweepFloor(seed)
    if name == CliSweepQuota.name:
        return CliSweepQuota(seed, out_dir)
    if name == BlockSession.name:
        return BlockSession(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = (SweepFloor.name, CliSweepQuota.name, BlockSession.name)


def kernel_gate(seed: int) -> tuple[int, list[str]]:
    """The active kernel backend against the plain numpy reference kernels.

    A seeded batch for each convolutional code, with some all-zero (erasure)
    rows, which must also decode to the all-zero word.
    """
    rng = np.random.default_rng([seed, 2])
    attempted, failures = 0, []
    for code in (coding.CONV_RATE_12, coding.CONV_RATE_13):
        taps = coding._tap_table(code.generators)
        syms = coding._sym_table(code.generators)
        steps = 228
        msgs = rng.integers(0, 2, size=(64, steps), dtype=np.uint8)
        soft = rng.normal(0.0, 2.0, size=(64, steps * code.n_out))
        soft[::8] = 0.0
        checks = {
            "conv_encode_batch": (kernels.conv_encode_batch(msgs, taps),
                                  kernels.conv_encode_batch_np(msgs, taps)),
            "viterbi_batch": (kernels.viterbi_batch(soft, syms),
                              kernels.viterbi_batch_np(soft, syms)),
        }
        for name, (active, reference) in checks.items():
            attempted += 1
            if not np.array_equal(active, reference):
                failures.append(f"{kernels.BACKEND} {name} differs from numpy, rate 1/{code.n_out}")
        attempted += 1
        if checks["viterbi_batch"][0][::8].any():
            failures.append(f"erasure rows did not decode to zeros, rate 1/{code.n_out}")
    return attempted, failures


def single_block_gate(seed: int, blocks: int = 8) -> tuple[int, list[str]]:
    """decode_block on each soft block against decode_blocks on the whole batch."""
    rng = np.random.default_rng([seed, 3])
    attempted, failures = 0, []
    for scheme in ALL_SCHEMES:
        msgs = rng.integers(0, 2, size=(blocks, schemes.message_bits(scheme)), dtype=np.uint8)
        coded = schemes.encode_blocks(scheme, msgs)
        sigma = simulation.noise_sigma(1.0, schemes.info_rate(scheme))
        soft = 2.0 * (1.0 - 2.0 * coded + rng.normal(0.0, sigma, coded.shape)) / sigma**2
        batch_msgs, batch_ok = schemes.decode_blocks(scheme, soft)
        for i in range(blocks):
            attempted += 1
            single = schemes.decode_block(scheme, soft[i])
            if single.ok != bool(batch_ok[i]) or not np.array_equal(single.message, batch_msgs[i]):
                failures.append(f"{scheme.value} block {i}: single-block decode differs from batch")
    return attempted, failures
