"""Speed-normalised timing: every timed interval is bracketed by a reference loop.

The machines this benchmark runs on change speed while a run is in
progress (shared cores: the same pure-Python work can take 1.6-2x longer
for a few hundred milliseconds, and the process is not descheduled while
it does).  A wall-clock median then depends on how much of the run fell
into slow phases.  So each timed interval is bracketed by a fixed,
allocating pure-Python reference loop, and the interval's busy part
is reported scaled to a nominal reference speed::

    scaled = busy * NOMINAL_REF_S / mean(ref_before, ref_after) + (raw - busy)

where ``busy`` is the process's CPU time over the interval.

The loop imports nothing from the program under test and runs with the
cyclic collector paused, so the program's heap size cannot change its
speed.  ``NOMINAL_REF_S`` is a constant: a scaled time reads as "the
time this interval would have taken on a machine that runs the reference
loop in exactly ``NOMINAL_REF_S``".  It is close to the loop's time on
the fast phase of a 2-vCPU x86 cloud VM, so scaled and raw figures are of
the same size there.
"""

from __future__ import annotations

import gc
import time

__all__ = ["NOMINAL_REF_S", "RefClock", "Tally", "ref_sample"]

#: Iterations of one reference pass.
REF_ITERATIONS = 2000

#: Passes per reference sample; the sample is their median, so one
#: interrupt inside a pass does not move it.
REF_PASSES = 3

#: The reference sample's time at nominal speed, in seconds.
NOMINAL_REF_S = 0.5e-3


def _ref_pass() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(REF_ITERATIONS):
        key = (i, i & 15)
        table[key] = [key, i * 3]
    total = 0
    for key, row in table.items():
        total += row[1] - key[0]
    elapsed = time.perf_counter() - start
    if total != REF_ITERATIONS * (REF_ITERATIONS - 1):
        raise AssertionError("reference loop miscomputed")
    return elapsed


def ref_sample() -> float:
    """One reference reading in seconds: the median of a few passes,
    taken with the cyclic collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        passes = sorted(_ref_pass() for _ in range(REF_PASSES))
    finally:
        if enabled:
            gc.enable()
    return passes[REF_PASSES // 2]


class RefClock:
    """Times calls and scales each to the nominal reference speed.

    Every reference reading is kept in ``refs`` (raw seconds), so a run
    can report the machine speed it saw.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []

    def _reading(self) -> float:
        value = ref_sample()
        self.refs.append(value)
        return value

    def call(self, fn, *args):
        """Run ``fn(*args)``; returns ``(result, raw_s, scaled_s)``.

        Only the busy part of the interval is scaled: the process's CPU
        time over it (every thread; the process runs on one CPU).  The
        rest is the process waiting idle, on a socket or a timer, which
        the CPU's speed does not change, so it is kept as measured.
        """
        before = self._reading()
        cpu_start = time.process_time()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        busy = min(time.process_time() - cpu_start, raw)
        after = self._reading()
        return result, raw, busy * NOMINAL_REF_S * 2.0 / (before + after) + raw - busy


class Tally:
    """Sums the raw and scaled times of several calls (set-up stages)."""

    def __init__(self, clock: RefClock) -> None:
        self.clock = clock
        self.raw = 0.0
        self.scaled = 0.0

    def __call__(self, fn, *args):
        result, raw, scaled = self.clock.call(fn, *args)
        self.raw += raw
        self.scaled += scaled
        return result
