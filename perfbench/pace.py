"""Host-speed normalisation of the end-to-end timings.

On a shared host the speed of a pure-Python loop swings by 20-35% within
tens of seconds, with the neighbours' load, and without any steal time
the guest could subtract.  A timing taken in one run and a timing taken
in the next can therefore differ by more than any regression worth
catching.  The benchmark measures that swing as it goes: between short
slices of work it runs a fixed probe -- a pure-Python tree fold that
does not touch the compiler -- and scales every time measured in a slice
by how fast the probe ran around it::

    scaled = measured * REFERENCE_PROBE_S / probe_s

A scaled time is what the measurement would have read with the host at
the reference speed, ``REFERENCE_PROBE_S`` per probe.  The compiler's
own speed is not in the factor, so a change that makes the compiler
faster or slower moves the scaled time by the same share as the raw one.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List, Optional

#: Seconds one probe takes at the reference speed, near the probe's time
#: in a process of its own on a 2-vCPU Intel Xeon container (Python 3.11).
#: Between compiles the probe runs slower on that host (about 1.7 ms), so
#: scaled times there read about a quarter below raw ones.
REFERENCE_PROBE_S = 0.00125

#: Seconds of work between two probes.
SLICE_S = 0.1

#: Probe repeats per probe point; the median is taken.
PROBE_REPEATS = 3

#: Probe points on each side that smooth a speed factor (a running
#: median): the host's speed holds for seconds, a probe's jitter does not.
SMOOTHING = 2


class _Node:
    __slots__ = ("op", "kids", "value")

    def __init__(self, op, kids=(), value=0):
        self.op = op
        self.kids = kids
        self.value = value


def _build(rng: random.Random, depth: int) -> _Node:
    if depth == 0 or rng.random() < 0.2:
        op = "const" if rng.random() < 0.5 else "var"
        return _Node(op, (), rng.randrange(100))
    return _Node(rng.choice(("add", "mul", "sub")),
                 tuple(_build(rng, depth - 1) for _ in range(2)))


def _fold(node: _Node, memo: dict):
    if not node.kids:
        return ("c" if node.op == "const" else "v", node.value)
    kids = tuple(_fold(kid, memo) for kid in node.kids)
    key = (node.op,) + kids
    known = memo.get(key)
    if known is not None:
        return known
    if kids[0][0] == "c" and kids[1][0] == "c":
        a, b = kids[0][1], kids[1][1]
        value = a + b if node.op == "add" else a * b if node.op == "mul" else a - b
        folded = ("c", value & 0xFFFF)
    else:
        folded = ("e", node.op, kids)
    memo[key] = folded
    return folded


_TREES = [_build(random.Random(index), 9) for index in range(8)]


def probe_s() -> float:
    """Seconds one probe takes now (median of ``PROBE_REPEATS``).  The
    collector is off during the probe, so the size of the heap the
    workload left does not reach the figure."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(PROBE_REPEATS):
            started = time.perf_counter()
            for tree in _TREES:
                _fold(tree, {})
            samples.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def speed_factor() -> float:
    """``REFERENCE_PROBE_S`` over the probe time now."""
    return REFERENCE_PROBE_S / probe_s()


class Pacer:
    """Cuts a timed window into slices with a probe between each two,
    and scales every time recorded in a slice by the mean of the
    (smoothed) speed factors at its two ends."""

    def __init__(self):
        self._factors: List[float] = []
        self._slices: List[List[float]] = []
        self._opened: Optional[float] = None
        #: Seconds spent probing, to take out of the window's wall time.
        self.probing_s = 0.0

    def tick(self) -> None:
        """Call between two items: probes and opens a new slice when the
        current one is ``SLICE_S`` old (or none is open yet)."""
        now = time.perf_counter()
        if self._opened is None or now - self._opened >= SLICE_S:
            self._probe()

    def add(self, seconds: float) -> None:
        """One time measured in the current slice."""
        self._slices[-1].append(seconds)

    def scaled(self) -> List[float]:
        """Every recorded time, in order, scaled.  Closes the window with
        a last probe."""
        if self._opened is not None:
            self._probe()
            self._opened = None
        raw = self._factors
        smooth = [
            statistics.median(raw[max(0, index - SMOOTHING):index + SMOOTHING + 1])
            for index in range(len(raw))
        ]
        out = []
        for index, samples in enumerate(self._slices[:-1]):
            factor = (smooth[index] + smooth[index + 1]) / 2.0
            out.extend(sample * factor for sample in samples)
        return out

    def factors(self) -> List[float]:
        return list(self._factors)

    def _probe(self) -> None:
        started = time.perf_counter()
        self._factors.append(speed_factor())
        self._slices.append([])
        self._opened = time.perf_counter()
        self.probing_s += self._opened - started


def scaled_call(function, *args, **kwargs):
    """``(result, scaled seconds)`` of one call: probes before and after
    it and scales by the mean factor.  For set-up, which is timed as a
    whole."""
    before = speed_factor()
    started = time.perf_counter()
    result = function(*args, **kwargs)
    elapsed = time.perf_counter() - started
    after = speed_factor()
    return result, elapsed * (before + after) / 2.0
