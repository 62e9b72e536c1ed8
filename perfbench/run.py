"""hrcc benchmark: batch BLER sweeps and single-block signaling, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-digests

Workloads are ``sweep-floor``, ``cli-sweep-quota`` and ``block-session`` (see
workloads.py).  Run from the repository root; hrcc is imported from ``src/``.
The load comes from this one process on one thread, one iteration at a time.

A run:

1. times ``setup_s`` in fresh interpreters (setup_probe.py), median of several;
2. runs the correctness gate: the active kernel backend against the numpy
   reference kernels, single-block against batch decode, and the workload's
   output at the default seed against its digest in digests.json (the BLER
   CSV for the sweeps, the decoded transcript for block-session);
3. repeats the workload's iteration for ``--seconds`` and checks every output,
   which must also repeat byte for byte across iterations.

Timings are scaled to a reference machine speed with yardstick.py: a short
fixed computation is timed every few milliseconds between the samples, because
this box's speed drifts by tens of percent within seconds.  The gated metrics
(END_TO_END) are the scaled ones; the table also prints the raw times as
``raw.*``.

With ``--trace 1`` the timed phase alternates untraced and traced iterations
(spans.py wraps every public function of the pipeline) and reports per-layer
metrics instead; traced outputs must equal the untraced ones, and the extra
wall time is reported as ``trace.overhead_frac``.

Every metric is printed as "name value unit samples"; the last line is the JSON
result.  Exit status is 0 when every check passed, 1 when an output check
failed, 2 when the benchmark cannot run (for example without ``src/hrcc``).

``--record-digests`` rewrites digests.json from the current code.  Use it only
for a deliberate, documented change of the program's output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import yardstick
from metrics import percentile, percentile_label, tail_permille

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60

# Gated end-to-end metrics: every workload reports each of them.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("frames_per_s", "1/s"),
    ("frames_per_s.standard", "1/s"),
    ("frames_per_s.m2-reduced", "1/s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def probe_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled cold-start times, each probe between two yardstick runs."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        pacer = yardstick.Pacer(yardstick.COLD)
        pacer.tick()
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(OUT_DIR)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        end = perf_counter()
        pacer.tick()
        seconds = json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        raw.append(seconds)
        scaled.append(seconds * pacer.scaled(start, end) / (end - start))
    return raw, scaled


def gate(workloads, workload) -> tuple[int, list[str]]:
    attempted, failures = 0, []
    for check in (workloads.kernel_gate, workloads.single_block_gate):
        n, f = check(workload.seed)
        attempted += n
        failures += f
    reference = workloads.make(workload.name, workloads.DEFAULT_SEED, OUT_DIR).run()
    attempted += reference.attempted + 1
    failures += reference.failures
    if workloads.digest(reference.output) != workloads.recorded_digest(workload.name):
        failures.append(f"{workload.name} output at seed {workloads.DEFAULT_SEED} "
                        "differs from the recorded digest")
    return attempted, failures


def timed_phase(spans, workload, seconds: float, traced: bool):
    """Iterations until ``seconds`` have passed; traced ones interleave when asked."""
    plain, with_spans = [], []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        plain.append(workload.run(paced=not traced))
        if traced:
            tracer = spans.Tracer()
            with_spans.append((workload.run(tracer), tracer))
    return plain, with_spans


def output_checks(plain, with_spans) -> tuple[int, list[str]]:
    """Every output must repeat the first untraced one exactly."""
    reference = plain[0].output
    failures = [f"untraced iteration {i} output differs from iteration 0"
                for i, o in enumerate(plain[1:], 1) if o.output != reference]
    failures += [f"traced iteration {i} output differs from the untraced run"
                 for i, (o, _) in enumerate(with_spans) if o.output != reference]
    return len(plain) - 1 + len(with_spans), failures


def end_to_end_metrics(plain, setup) -> list[tuple[str, float, str, int]]:
    """(name, value, unit, samples): the gated ones, then workload-specific ones.

    Times are scaled to the yardstick's reference speed; ``raw.*`` rows give
    the same medians as measured.
    """
    raw_setup, scaled_setup = setup
    n = len(plain)
    rows = [
        ("setup_s", median(scaled_setup), "s", len(scaled_setup)),
        ("wall_s", median(o.scaled_wall_s for o in plain), "s", n),
        ("frames_per_s", median(o.frames / o.scaled_wall_s for o in plain), "1/s", n),
    ]
    extra = []
    for scheme in plain[0].schemes:
        rate = median(o.schemes[scheme][0] / o.schemes[scheme][1] for o in plain)
        row = (f"frames_per_s.{scheme}", rate, "1/s", n)
        (rows if scheme in ("standard", "m2-reduced") else extra).append(row)
    rows.append(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                 "MB", 1))
    if plain[0].samples:
        exchange = [t for o in plain for t in o.samples["exchange"]]
        extra.append(("exchange_p50_ms", percentile(exchange, 500) * 1e3, "ms", len(exchange)))
        tail = tail_permille(len(exchange))
        if tail is not None and tail > 500:
            label = percentile_label(tail)
            extra.append((f"exchange_{label}_ms", percentile(exchange, tail) * 1e3, "ms",
                          len(exchange)))
        for op in ("encode", "decode"):
            values = [t for o in plain for t in o.samples[op]]
            extra.append((f"{op}_p50_us", percentile(values, 500) * 1e6, "us", len(values)))
    extra += [
        ("raw.setup_s", median(raw_setup), "s", len(raw_setup)),
        ("raw.wall_s", median(o.wall_s for o in plain), "s", n),
        ("raw.frames_per_s", median(o.frames / o.wall_s for o in plain), "1/s", n),
        ("speed_factor", median(o.scaled_wall_s / o.wall_s for o in plain), "x", n),
    ]
    order = {name: i for i, (name, _) in enumerate(END_TO_END)}
    rows.sort(key=lambda row: order[row[0]])
    return rows + extra


def per_layer_metrics(spans, plain, with_spans) -> tuple[list[tuple[str, float, str, int]],
                                                         list[str]]:
    per_iteration, failures = [], []
    for i, (outcome, tracer) in enumerate(with_spans):
        per_iteration.append(spans.layer_metrics(tracer.spans, outcome.wall_s))
        points, leftover = spans.frame_accounting(tracer.spans)
        failures += [f"traced iteration {i}: {p.scheme}@{p.ebno_db:g}dB counts {p.counted} "
                     f"frames of {p.decoded} decoded" for p in points if not p.consistent]
        if leftover:
            failures.append(f"traced iteration {i}: {leftover} decode calls outside any point")
    overhead = (median(o.wall_s for o, _ in with_spans) / median(o.wall_s for o in plain)) - 1
    rows = []
    for name, unit, _ in spans.per_layer_specs():
        if name == "trace.overhead_frac":
            rows.append((name, overhead, unit, len(with_spans)))
        else:
            rows.append((name, median(v[name] for v in per_iteration), unit, len(with_spans)))
    return rows, failures


def environment(workloads, args) -> dict:
    import numpy

    from hrcc import kernels, simulation

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "chunk_frames": getattr(simulation, "_CHUNK_FRAMES", None),
        "default_seed": workloads.DEFAULT_SEED,
    }


def record_digests(workloads) -> int:
    recorded = {}
    for name in workloads.WORKLOADS:
        outcome = workloads.make(name, workloads.DEFAULT_SEED, OUT_DIR).run()
        if outcome.failures:
            print("\n".join(outcome.failures), file=sys.stderr)
            return 1
        recorded[name] = workloads.digest(outcome.output)
    workloads.DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n")
    print(f"wrote {workloads.DIGESTS}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hrcc" / "__init__.py").is_file():
        print(f"error: hrcc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    if args.record_digests:
        return record_digests(workloads)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    print("# env " + json.dumps(environment(workloads, args)), flush=True)

    setup = ([], []) if args.trace else probe_setup(args.workload, args.seed)
    workload = workloads.make(args.workload, args.seed, OUT_DIR)
    workload.warm_up()
    attempted, failures = gate(workloads, workload)
    plain, with_spans = timed_phase(spans, workload, args.seconds, bool(args.trace))
    n, f = output_checks(plain, with_spans)
    attempted += n + sum(o.attempted for o in plain) + sum(o.attempted for o, _ in with_spans)
    failures += f + [x for o in plain for x in o.failures]
    failures += [x for o, _ in with_spans for x in o.failures]
    if args.trace:
        rows, f = per_layer_metrics(spans, plain, with_spans)
        failures += f
        reported = {name for name, _, _ in spans.per_layer_specs()}
    else:
        rows = end_to_end_metrics(plain, setup)
        reported = {name for name, _ in END_TO_END}

    for failure in failures:
        print(f"FAIL {failure}")
    print(f"{'metric':<48} {'value':>16} {'unit':<6} samples")
    for name, value, unit, count in rows:
        print(f"{name:<48} {value:>16.6g} {unit:<6} {count}")
    failed = min(len(failures), attempted)
    print(f"{'failed_frac':<48} {failed / attempted:>16.6g} {'frac':<6} {attempted}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows if name in reported},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
