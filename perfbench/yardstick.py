"""A fixed reference computation that tells how fast the machine runs right now.

On a shared 2-vCPU box the same code can take half as long again a few seconds
later: other tenants share the cores, and process CPU time slows with wall
time.  Samples measured at different moments are therefore not comparable.  So
the benchmark times a short :class:`Yardstick` every few milliseconds (before
each batch decode, after each exchange) and a :class:`Pacer` scales the time in
between by ``reference_s / yardstick time``: how long it would have taken at the
reference speed.  Both slow down together, so the ratio stays put while the raw
times drift.

The yardstick is a 16-state add-compare-select loop in numpy, the kind of work
hrcc's decoder does, written here so that no change to hrcc can move it.  It
runs on the benchmark's own thread between hrcc calls, so it assumes hrcc
leaves no work running in the background while it is timed.
"""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter

import numpy as np

STATES = 16


class Yardstick:
    """``frames`` x ``steps`` trellis updates, repeated ``repeats`` times per call.

    ``reference_s`` is the call's typical time on the box the benchmark was
    written on (a 2-vCPU Intel Xeon VM, numpy 2.4); it only fixes the unit of
    the scaled results.
    """

    def __init__(self, frames: int, steps: int, repeats: int, reference_s: float):
        rng = np.random.default_rng(0)
        self.soft = rng.normal(size=(frames, 2 * steps))
        self.weights = rng.normal(size=STATES)
        self.pred = (np.arange(STATES) & 7) << 1
        self.steps = steps
        self.repeats = repeats
        self.reference_s = reference_s

    def _trellis(self) -> np.ndarray:
        soft, w, pred = self.soft, self.weights, self.pred
        metrics = np.zeros((soft.shape[0], STATES))
        back = np.empty((self.steps,) + metrics.shape, dtype=np.uint8)
        for t in range(self.steps):
            branch = soft[:, 2 * t : 2 * t + 1] * w + soft[:, 2 * t + 1 : 2 * t + 2] * w
            stay = metrics[:, pred] + branch
            move = metrics[:, pred | 1] - branch
            pick = move > stay
            metrics = np.where(pick, move, stay)
            back[t] = pick
        return back

    def __call__(self) -> float:
        """Seconds one call took."""
        start = perf_counter()
        for _ in range(self.repeats):
            self._trellis()
        return perf_counter() - start

    def factor(self, seconds: float) -> float:
        """Scale that takes a time measured beside a ``seconds`` call to the reference speed."""
        return self.reference_s / seconds


class Pacer:
    """Runs a yardstick when told to and scales the wall-clock time around it.

    Each stretch between two yardstick runs is scaled by the mean of their
    factors, time before the first run or after the last by that run's factor,
    and the yardstick runs themselves are left out.  Without any run, times
    pass through unscaled.
    """

    def __init__(self, stick: Yardstick):
        self.stick = stick
        self.marks: list[tuple[float, float, float]] = []  # start, end, factor
        self._stretches: list[tuple[float, float, float]] | None = None

    def tick(self) -> None:
        start = perf_counter()
        seconds = self.stick()
        self.marks.append((start, start + seconds, self.stick.factor(seconds)))
        self._stretches = None

    def _build(self) -> list[tuple[float, float, float]]:
        marks = self.marks or [(0.0, 0.0, 1.0)]
        stretches = [(float("-inf"), marks[0][0], marks[0][2])]
        stretches += [(a[1], b[0], (a[2] + b[2]) / 2) for a, b in zip(marks, marks[1:])]
        stretches.append((marks[-1][1], float("inf"), marks[-1][2]))
        return stretches

    def _overlaps(self, a: float, b: float):
        if self._stretches is None:
            self._stretches = self._build()
        stretches = self._stretches
        i = max(0, bisect_right([lo for lo, _, _ in stretches], a) - 1)
        while i < len(stretches) and stretches[i][0] < b:
            lo, hi, factor = stretches[i]
            yield max(0.0, min(b, hi) - max(a, lo)), factor
            i += 1

    def raw(self, a: float, b: float) -> float:
        """Seconds from ``a`` to ``b`` outside yardstick runs."""
        return sum(seconds for seconds, _ in self._overlaps(a, b))

    def scaled(self, a: float, b: float) -> float:
        """Seconds from ``a`` to ``b`` outside yardstick runs, at the reference speed."""
        return sum(seconds * factor for seconds, factor in self._overlaps(a, b))


# Before each batch decode of a sweep: the array shapes of a 512-frame decode.
BATCH = Yardstick(frames=512, steps=57, repeats=1, reference_s=0.0084)
# After each exchange: one frame, as in a single-block decode.
SINGLE = Yardstick(frames=1, steps=114, repeats=1, reference_s=0.0018)
# Around each cold start measured for setup_s.
COLD = Yardstick(frames=1, steps=114, repeats=25, reference_s=0.045)
