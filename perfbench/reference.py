"""A fixed reference loop that gauges how fast the host runs at the moment.

Shared hosts drift in speed.  On a shared 2-core host with Python 3.11.7,
a plain Python loop's rate swings by up to +-25% over seconds to minutes,
and whole 15-second runs differ by as much.  CPU time drifts just like
wall time there, because the host slows the CPU rather than taking it
away.  The benchmark therefore runs this loop before and after every op and
scales the op's wall time by REFERENCE_S over the loop's median time: a
figure then reads in seconds on a host where the loop takes REFERENCE_S.
Over 35 passes of six analyze ops on that host, pass times had a quartile
spread of 22% of their median in wall time, 21% in CPU time and 4% once
scaled.

The loop does the kind of work the tristar kernels do (big-integer bit
operations, list indexing, small dicts) but never calls the package, so a
change to the package cannot move it.
"""
from __future__ import annotations

import random
import statistics
import time

REFERENCE_S = 0.002

_rng = random.Random(5)
_MASKS = [_rng.getrandbits(150) for _ in range(300)]
del _rng


def loop() -> int:
    total = 0
    seen: dict[int, int] = {}
    for a in _MASKS:
        for b in _MASKS[:40]:
            total += ((a | b) & ~a).bit_count()
        seen[total & 255] = seen.get(total & 255, 0) + 1
    return total + len(seen)


def sample(times: int = 3) -> list[float]:
    """Wall times of `times` runs of the loop."""
    out = []
    for _ in range(times):
        start = time.perf_counter()
        loop()
        out.append(time.perf_counter() - start)
    return out


def scale(samples: list[float]) -> float:
    """The factor that turns seconds measured next to `samples` into reference seconds."""
    return REFERENCE_S / statistics.median(samples)
