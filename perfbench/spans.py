"""Spans around hrcc's public functions, and the per-layer metrics made from them.

A :class:`Tracer` rebinds module attributes at run time (``schemes.encode_blocks``
and so on) to wrappers that record a span per call: name, enclosing span, start,
end, frames in the batch and whether the call raised.  hrcc calls its own layers
through module attributes, so nested calls are recorded as child spans.  Spans
stay in memory; :func:`layer_metrics` turns them into per-layer numbers once an
iteration ends.  A stage without a public function of its own shows up as the
self time of the public call around it: block parity in
``schemes.encode_blocks``, the parity check in ``schemes.decode_blocks``, the
AWGN channel and error accounting in ``simulation.run_bler``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

# Every public function of the pipeline that the traced run wraps, by module.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "simulation": ("sweep", "run_bler", "transmit"),
    "schemes": ("encode_blocks", "decode_blocks", "encode_block", "decode_block"),
    "coding": ("conv_encode_batch", "viterbi_decode_batch", "puncture_batch", "depuncture_batch"),
    "kernels": ("conv_encode_batch", "viterbi_batch"),
    "interleaving": (
        "interleave_batch",
        "deinterleave_batch",
        "interleave",
        "deinterleave",
        "map_to_burst",
        "demap_burst",
    ),
    "multiframe": ("bursts_for",),
    "messages": (
        "parse_imsi",
        "is_halfrate_capable",
        "encode_immediate_assignment",
        "decode_immediate_assignment",
        "encode_lapdm_tailored",
        "decode_lapdm_tailored",
    ),
}

# Only run_bler's reports are needed afterwards, for the frame accounting.
_KEEP_RESULT = frozenset({"simulation.run_bler"})

# Layers that take a (frames, bits) batch; they also report frames per call.
BATCH_LAYERS = (
    "kernels.conv_encode_batch",
    "kernels.viterbi_batch",
    "coding.conv_encode_batch",
    "coding.viterbi_decode_batch",
    "coding.puncture_batch",
    "coding.depuncture_batch",
    "schemes.encode_blocks",
    "schemes.decode_blocks",
    "interleaving.interleave_batch",
    "interleaving.deinterleave_batch",
)

VITERBI = "kernels.viterbi_batch"
DECODE_BLOCKS = "schemes.decode_blocks"
RUN_BLER = "simulation.run_bler"
ROOT = "bench.iteration"
TRELLIS_STATES = 16


def layer_names() -> list[str]:
    return [f"{module}.{func}" for module, funcs in LAYERS.items() for func in funcs]


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the root
    start: float
    end: float = 0.0
    frames: int = 0
    width: int = 0  # values per frame in the batch
    steps: int = 0  # trellis steps per frame, recorded for the Viterbi kernel only
    failed: bool = False
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _batch_shape(args) -> tuple[int, int]:
    for arg in args:
        if isinstance(arg, np.ndarray) and arg.ndim == 2:
            return arg.shape
    return (0, 0)


class Tracer:
    """Collects spans for the layers it wraps while :meth:`installed` is active."""

    def __init__(self, layers: dict[str, tuple[str, ...]] = LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, func):
        spans, stack = self.spans, self._stack
        keep_result = name in _KEEP_RESULT
        is_viterbi = name == VITERBI

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frames, width = _batch_shape(args)
            span = Span(name, stack[-1] if stack else -1, 0.0, frames=frames, width=width)
            if is_viterbi:
                span.steps = width // args[1].shape[2]
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if keep_result:
                span.result = result
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span for code of the benchmark's own, such as one whole iteration."""
        span = Span(name, self._stack[-1] if self._stack else -1, 0.0)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def installed(self):
        """Rebind every wrapped function on its hrcc module; restore on exit."""
        saved = []
        try:
            for module_name, funcs in self.layers.items():
                module = importlib.import_module(f"hrcc.{module_name}")
                for func in funcs:
                    original = getattr(module, func)
                    saved.append((module, func, original))
                    setattr(module, func, self.wrap(f"{module_name}.{func}", original))
            yield self
        finally:
            for module, func, original in reversed(saved):
                setattr(module, func, original)


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0
    frames: int = 0
    exceptions: int = 0


def self_times(spans: list[Span]) -> dict[str, LayerStat]:
    """Per span name: calls, frames and self time (own duration minus children's).

    Calls are sequential on one thread, so a span's children never overlap and
    the part of its interval they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.duration
    stats: dict[str, LayerStat] = {}
    for span, child_s in zip(spans, covered):
        stat = stats.setdefault(span.name, LayerStat())
        stat.calls += 1
        stat.self_s += span.duration - child_s
        stat.frames += span.frames
        stat.exceptions += span.failed
    return stats


@dataclass
class PointFrames:
    scheme: str
    ebno_db: float
    decoded: int  # frames that entered schemes.decode_blocks for this point
    counted: int  # frames the report counts
    last_call: int  # frames in the point's final decode_blocks call

    @property
    def consistent(self) -> bool:
        """The point stopped inside its final batch: counted is in (decoded - last, decoded]."""
        return self.decoded - self.last_call < self.counted <= self.decoded


def frame_accounting(spans: list[Span]) -> tuple[list[PointFrames], int]:
    """Split decode_blocks calls under each run_bler span across its reports.

    run_bler measures its points one after another, and a point ends with the
    batch in which it reached its frame floor or error quota.  So walking the
    decode calls in order, a point owns calls until their frames reach the
    report's frame count.  Returns the points and the number of decode calls
    left over, which is 0 when every call was accounted to a point.
    """
    calls: dict[int, list[int]] = {}
    for span in spans:
        if span.name == DECODE_BLOCKS and span.parent >= 0:
            calls.setdefault(span.parent, []).append(span.frames)
    points: list[PointFrames] = []
    leftover = 0
    for index, span in enumerate(spans):
        if span.name != RUN_BLER or span.result is None:
            continue
        sizes = calls.get(index, [])
        k = 0
        for report in span.result:
            decoded = last = 0
            while decoded < report.frames and k < len(sizes):
                last = sizes[k]
                decoded += last
                k += 1
            points.append(
                PointFrames(report.scheme.value, report.ebno_db, decoded, report.frames, last)
            )
        leftover += len(sizes) - k
    return points, leftover


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for layer in layer_names():
        specs += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_ms", "ms", "lower"),
            (f"{layer}.share", "frac", "lower"),
            (f"{layer}.exceptions", "count", "lower"),
        ]
        if layer in BATCH_LAYERS:
            specs.append((f"{layer}.frames_per_call", "count", "higher"))
    specs += [
        (f"{VITERBI}.acs_per_s", "1/s", "higher"),
        (f"{VITERBI}.acs_per_call_computed", "count", "lower"),
        (f"{VITERBI}.bytes_per_call_computed", "B", "lower"),
        ("simulation.frames_decoded", "count", "lower"),
        ("simulation.frames_counted", "count", "higher"),
        ("simulation.useful_frame_ratio", "frac", "higher"),
        ("trace.overhead_frac", "frac", "lower"),
    ]
    return specs


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; layers that did not run read 0.

    ``wall_s`` is the traced iteration's wall time, the base of every share.
    The Viterbi operation and byte counts are computed from the batch shapes
    (frames x steps x 16 add-compare-selects; float64 soft input plus the uint8
    backpointer array), not measured.
    """
    stats = self_times(spans)
    values: dict[str, float] = {}
    for layer in layer_names():
        stat = stats.get(layer, LayerStat())
        values[f"{layer}.calls"] = stat.calls
        values[f"{layer}.self_ms"] = stat.self_s * 1e3
        values[f"{layer}.share"] = stat.self_s / wall_s
        values[f"{layer}.exceptions"] = stat.exceptions
        if layer in BATCH_LAYERS:
            values[f"{layer}.frames_per_call"] = stat.frames / stat.calls if stat.calls else 0
    viterbi = [s for s in spans if s.name == VITERBI]
    acs = sum(s.frames * s.steps * TRELLIS_STATES for s in viterbi)
    soft_bytes = sum(s.frames * s.width * 8 for s in viterbi)
    calls = len(viterbi)
    viterbi_s = stats[VITERBI].self_s if VITERBI in stats else 0.0
    values[f"{VITERBI}.acs_per_s"] = acs / viterbi_s if viterbi_s else 0
    values[f"{VITERBI}.acs_per_call_computed"] = acs / calls if calls else 0
    # One uint8 backpointer per add-compare-select.
    values[f"{VITERBI}.bytes_per_call_computed"] = (soft_bytes + acs) / calls if calls else 0
    points, _ = frame_accounting(spans)
    decoded = sum(p.decoded for p in points)
    counted = sum(p.counted for p in points)
    values["simulation.frames_decoded"] = decoded
    values["simulation.frames_counted"] = counted
    values["simulation.useful_frame_ratio"] = counted / decoded if decoded else 0
    return values
