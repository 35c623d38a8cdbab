"""Reference oracle for :class:`MemoryProfile` mutations.

:class:`MergePassProfile` applies every batch the way the profile did
before commits became in place: it rebuilds the whole breakpoint list in
one merge pass over the old staircase and the sorted new times, then adds
each event's amount over its index range in event order.  That costs
Θ(l) per commit, but it is simple enough to trust; the in-place path must
reproduce its lists, block maxima and answers bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.memory_profile import MemoryProfile


class MergePassProfile(MemoryProfile):
    """A :class:`MemoryProfile` whose mutations rebuild the lists."""

    __slots__ = ()

    def _apply(self, events) -> None:
        live = []
        for amount, start, end in events:
            if amount == 0.0:
                continue
            start = max(0.0, start)
            if end is not None and end <= start:
                continue
            live.append((amount, start, end))
        if not live:
            return

        # Every breakpoint time is >= 0 == xs[0], and each event's end
        # exceeds its start, so the earliest time is always some start.
        times = sorted({t for _, s, e in live
                        for t in ((s,) if e is None else (s, e))})
        new_xs: list[float] = []
        new_vals: list[float] = []
        ti = 0
        nt = len(times)
        for x, v in zip(self._xs, self._vals):
            while ti < nt and times[ti] < x:
                t = times[ti]
                ti += 1
                if t != new_xs[-1]:
                    new_xs.append(t)
                    new_vals.append(new_vals[-1])
            if ti < nt and times[ti] == x:
                ti += 1
            new_xs.append(x)
            new_vals.append(v)
        while ti < nt:  # breakpoints inside the final to-infinity segment
            t = times[ti]
            ti += 1
            if t != new_xs[-1]:
                new_xs.append(t)
                new_vals.append(new_vals[-1])

        n = len(new_xs)
        for amount, start, end in live:
            i1 = n if end is None else bisect_left(new_xs, end)
            for k in range(bisect_left(new_xs, start), i1):
                new_vals[k] += amount

        self._xs, self._vals = new_xs, new_vals
        self._mark_dirty(bisect_left(new_xs, times[0]))
        self.version += 1
        if n > max(self._COMPACT_MIN, 2 * self._compact_floor):
            self.compact()
