"""Reference-speed normalisation.

The host this benchmark runs on is shared: a fixed pure-Python loop can
take twice as long from one second to the next, and CPU time tracks wall
time, so neither clock alone separates a slower program from a slower
machine.  Every timing metric is therefore reported *at reference speed*:
around each timed unit (one operation, or one segment of operations or
traffic) the frozen loop below is timed, and the unit's wall time is
multiplied by ``NOMINAL_S / mean(before, after)``.  A unit that took 10%
longer because the machine ran 10% slower reads the same as before.

The loop calls no repository code.  Changing it, its size or
``NOMINAL_S`` redefines every timing metric of the benchmark, so any such
edit is a benchmark change and needs a fresh baseline.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: Reference-loop duration that defines "reference speed": a unit whose
#: adjacent reference loops took exactly this long is reported at its
#: wall time.
NOMINAL_S = 0.010
#: Interpreter-bound iterations and bulk (C-level hashing and list copy)
#: iterations of one reference loop: about equal halves, together about
#: NOMINAL_S on a 2020s x86 core running CPython 3.11.
LOOP_ITERS = 4800
BULK_ITERS = 15
#: Loop repetitions per reference measurement; the median is kept, so one
#: preempted repetition does not move the scale.
REPEATS = 3

_BUFFER = bytes(range(256)) * 1024
_LIST = list(range(3000))


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 0xFFFF


def reference_loop() -> int:
    """Frozen work in two parts, the two kinds the program is made of:
    interpreter-bound dict and list traffic, small sorts, float and
    integer arithmetic and calls; and bulk C-level work (hashing a 256 KB
    buffer, copying and scanning lists of thousands of items).

    Measured on a shared 2-vCPU host over three minutes, the two parts
    drift differently (the interpreter-bound part between 1.4 and 3.0 ms,
    the bulk part between 2.6 and 3.7 ms).  Regressing the program's
    times on both, scheduler work (a MemMinMin call, a graph's sweep, an
    online replay, a service miss) followed the interpreter-bound part
    with exponents 0.45-0.68 and the bulk part hardly at all, while the
    service's cache-hit path followed the bulk part (0.85).  Equal halves
    scaled both kinds of work about as well as the best single mix."""
    acc = 0
    table: dict = {}
    items: list = []
    x = 1.0
    for i in range(LOOP_ITERS):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + i
        items.append((k, i))
        x = x * 1.0000001 + (i & 7) * 0.5
        if len(items) > 48:
            items.sort()
            acc += items[0][1] - items[-1][0]
            items.clear()
        acc ^= _mix(k, i)
    for i in range(BULK_ITERS):
        acc ^= hashlib.sha256(_BUFFER[i:]).digest()[0]
        joined = _LIST[:1500] + [i] + _LIST[1500:]
        acc += len(joined) + max(joined[100:400])
    return acc + int(x) + len(table)


def measure_reference() -> float:
    """Seconds one reference loop takes right now (median of REPEATS)."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def steal_seconds() -> float:
    """Cumulative steal time of all CPUs from ``/proc/stat`` (0.0 where the
    file or field is missing)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / 100.0


class Scaler:
    """Brackets timed units with reference measurements.

    ``begin()`` before a unit reuses the last measurement when it was
    taken just now (back-to-back units share the measurement between
    them) and measures afresh otherwise; ``end()`` measures again and
    returns the unit's scale factor: ``NOMINAL_S`` over the mean of the
    two, times the share of the unit the CPU was not stolen.

    Steal is time the hypervisor gave this virtual CPU's turn to another
    guest.  It arrives in bursts the reference loops, run between units,
    mostly miss, so it is taken out of the unit directly.  /proc/stat
    sums it over all CPUs; the benchmark is single-threaded, and an idle
    CPU accrues none.  Raw reference times, factors and stolen seconds
    are kept as run context.
    """

    #: A measurement older than this is not "just before" the next unit.
    FRESH_S = 0.02
    #: Floor of the unstolen share (steal is counted in 10 ms ticks).
    MIN_RUNNING = 0.5

    def __init__(self) -> None:
        self.refs: list[float] = []
        self.factors: list[float] = []
        self.stolen_in_units = 0.0
        self.steal_start = steal_seconds()
        # The interpreter specialises the loop's bytecode on its first
        # runs; measure only the specialised loop.
        reference_loop()
        self._measure()

    def _measure(self) -> float:
        self._last = measure_reference()
        self._last_at = time.perf_counter()
        self.refs.append(self._last)
        return self._last

    def begin(self) -> None:
        if time.perf_counter() - self._last_at > self.FRESH_S:
            self._measure()
        self._steal_begin = steal_seconds()
        self._begun_at = time.perf_counter()

    def end(self) -> float:
        elapsed = time.perf_counter() - self._begun_at
        stolen = steal_seconds() - self._steal_begin
        running = max(1.0 - stolen / elapsed, self.MIN_RUNNING) \
            if elapsed > 0 else 1.0
        before = self._last
        after = self._measure()
        factor = running * NOMINAL_S / ((before + after) / 2.0)
        self.factors.append(factor)
        self.stolen_in_units += stolen
        return factor

    def context(self) -> dict:
        """Raw figures printed beside the metrics (not metrics)."""
        refs, factors = self.refs, self.factors or [float("nan")]
        return {
            "ref_loop_ms_median": statistics.median(refs) * 1e3,
            "ref_loop_ms_min": min(refs) * 1e3,
            "ref_loop_ms_max": max(refs) * 1e3,
            "scale_factor_median": statistics.median(factors),
            "scale_factor_min": min(factors),
            "scale_factor_max": max(factors),
            "n_reference_measurements": len(refs),
            "steal_s_delta": steal_seconds() - self.steal_start,
            "steal_s_in_units": self.stolen_in_units,
        }
