"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_valid():
    names = [n for n, _ in run.END_TO_END] + [n for n, _, _ in spans.per_layer_specs()]
    assert len(names) == len(set(names))
    assert all(metrics.valid_metric_name(n) for n in names)
    for bad in ("", "-lead", ".lead", "has space", "slash/", "x" * 65, "µs"):
        assert not metrics.valid_metric_name(bad)
    assert metrics.valid_metric_name("frames_per_s.m1-cs23-p13")
    assert metrics.valid_metric_name("x" * 64)


def test_benchmark_json_matches_the_code():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(s) for s in spans.per_layer_specs()
    ]
    assert len(spec["per_layer"]) <= 128


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 500), (39, 500), (40, 750), (100, 900), (199, 900), (200, 950),
     (999, 950), (1000, 990), (9999, 990), (10000, 999)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert metrics.tail_permille(n) == expected
    if expected is not None:
        assert metrics.samples_beyond(n, expected) >= 10


def test_percentile_is_nearest_rank():
    values = list(range(1000, 0, -1))
    assert metrics.percentile(values, 500) == 500
    assert metrics.percentile(values, 990) == 990
    assert metrics.percentile(values, 999) == 999
    assert metrics.percentile([4.0], 990) == 4.0
    assert metrics.percentile_label(990) == "p99"
    assert metrics.percentile_label(999) == "p99.9"


def _span(name, parent, start, end, frames=0):
    return spans.Span(name, parent, float(start), float(end), frames=frames)


def test_self_time_subtracts_children():
    nest = [
        _span("root", -1, 0, 10),
        _span("a", 0, 1, 4),
        _span("b", 1, 2, 3),
        _span("a", 0, 5, 9),
    ]
    stats = spans.self_times(nest)
    assert stats["root"].self_s == pytest.approx(3.0)
    assert stats["a"].self_s == pytest.approx(6.0)
    assert stats["a"].calls == 2
    assert stats["b"].self_s == pytest.approx(1.0)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_and_exceptions():
    tracer = spans.Tracer({})

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tracer.wrap("m.inner", inner)
    outer_t = tracer.wrap("m.outer", lambda x: inner_t(x) + inner_t(x))
    with tracer.span("root"):
        assert outer_t(2) == 4
        with pytest.raises(ValueError):
            inner_t(-1)
    names = [(s.name, s.parent, s.failed) for s in tracer.spans]
    assert names == [("root", -1, False), ("m.outer", 0, False), ("m.inner", 1, False),
                     ("m.inner", 1, False), ("m.inner", 0, True)]
    assert spans.self_times(tracer.spans)["m.inner"].exceptions == 1


def test_frame_accounting_splits_decode_calls_by_report():
    from hrcc.schemes import SchemeId
    from hrcc.simulation import BlerReport

    reports = [BlerReport(SchemeId.STANDARD_456, 0.0, 600, 100, 900, 0),
               BlerReport(SchemeId.STANDARD_456, 2.0, 1024, 3, 20, 0)]
    nest = [_span(spans.RUN_BLER, -1, 0, 10)]
    nest[0].result = reports
    nest += [_span(spans.DECODE_BLOCKS, 0, i, i + 1, frames=512) for i in range(4)]
    points, leftover = spans.frame_accounting(nest)
    assert leftover == 0
    assert [(p.decoded, p.counted) for p in points] == [(1024, 600), (1024, 1024)]
    assert all(p.consistent for p in points)
    nest.append(_span(spans.DECODE_BLOCKS, 0, 5, 6, frames=512))
    assert spans.frame_accounting(nest)[1] == 1


def test_pacer_scales_the_time_between_yardstick_runs():
    assert yardstick.Pacer(yardstick.SINGLE).scaled(0.0, 3.0) == pytest.approx(3.0)
    pacer = yardstick.Pacer(yardstick.SINGLE)
    pacer.marks = [(1.0, 2.0, 2.0), (5.0, 6.0, 4.0)]  # start, end, factor
    assert pacer.raw(0.0, 7.0) == pytest.approx(5.0)
    assert pacer.scaled(0.0, 7.0) == pytest.approx(1 * 2.0 + 3 * 3.0 + 1 * 4.0)
    assert pacer.scaled(2.5, 3.5) == pytest.approx(3.0)
    pacer.tick()
    assert len(pacer.marks) == 3 and pacer.marks[-1][2] > 0


@pytest.mark.parametrize("make", [
    lambda tmp: workloads.SweepFloor(11, min_frames=64),
    lambda tmp: workloads.CliSweepQuota(11, tmp, min_frames=64),
    lambda tmp: workloads.BlockSession(11, exchanges=8),
])
def test_traced_and_paced_runs_reproduce_untraced_outputs(make, tmp_path):
    workload = make(tmp_path)
    plain = workload.run()
    paced = workload.run(paced=True)
    tracer = spans.Tracer()
    traced = workload.run(tracer)
    assert plain.failures == [] and traced.failures == [] and paced.failures == []
    assert traced.output == plain.output == paced.output
    assert paced.scaled_wall_s > 0 and plain.scaled_wall_s == plain.wall_s
    layers = spans.layer_metrics(tracer.spans, traced.wall_s)
    assert layers["kernels.viterbi_batch.calls"] > 0
    assert set(layers) == {n for n, _, _ in spans.per_layer_specs()} - {"trace.overhead_frac"}
    points, leftover = spans.frame_accounting(tracer.spans)
    assert leftover == 0 and all(p.consistent for p in points)


def test_gates_pass_on_the_current_code():
    assert workloads.kernel_gate(5)[1] == []
    assert workloads.single_block_gate(5, blocks=2)[1] == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-floor", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
