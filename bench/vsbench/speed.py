"""Machine speed, read from a fixed calibration loop run between ops.

The CPU speed a process gets on a shared host drifts by up to a factor
of two over seconds to minutes.  Every timing is therefore taken with
the calibration loop run just before and just after it, and scaled to
REF_MS, the loop's time at the reference speed:

    scaled = measured * REF_MS / mean(loop time before, loop time after)

A scaled time reads the same whichever speed the machine ran at, while
a change to valsem moves it as much as the measured time.

The loop has two halves: integer and dict work, and a method that makes
a new small object from two others, as valsem's exact arithmetic does.
Loops were compared by running expand and semigroup ops for 150 seconds
with each loop read around every op, and taking each end-to-end metric
over 10-second windows.  The ops' measured metrics moved by 18 to 37 %
between windows (distance between quartiles over the median); the
scaled ones by 2 to 7 % with this loop, by 4 to 11 % with either half
alone, and by no less with a recursive search added.  Each object the
loop makes frees the one before, so the collector's count does not
grow and the loop never starts a collection of valsem's objects.
"""

from __future__ import annotations

from time import perf_counter

REF_MS = 0.175  # the loop's time on a 2-vCPU VM with Python 3.11, in its fast spells
LOOP_N = 400  # iterations of each half
REPEATS = 3  # the fastest of these is taken, so one interrupt does not count


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def add(self, other):
        return _Pair(self.a + other.a, self.b ^ other.b)


_TABLE = {i: (i * 7919) & 1023 for i in range(64)}


def _loop(n: int) -> int:
    table, s = _TABLE, 0
    for i in range(n):
        s = (s * 31 + table[i & 63]) & 0xFFFFFFFF
    x, y = _Pair(1, 2), _Pair(3, 5)
    for _ in range(n):
        x = x.add(y)
    return s ^ x.a


def loop_ms() -> float:
    """The calibration loop's time now, in ms."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        _loop(LOOP_N)
        best = min(best, perf_counter() - start)
    return best * 1000


def scale(seconds: float, before_ms: float, after_ms: float) -> float:
    """A time measured between two loop readings, at the reference speed."""
    return seconds * REF_MS * 2 / (before_ms + after_ms)
