"""Machine-speed calibration for timings taken on a shared host.

Neighbours on a shared host slow this machine's CPU by up to about 2x for
seconds at a time; neither process CPU time nor steal time shows it.  So
every timed job is bracketed by a short fixed calibration loop, and each
time is reported at the reference speed: measured seconds x REFERENCE_S / calibration seconds.
On a quiet host the two agree; the raw times go into the metadata line.
"""

from __future__ import annotations

from time import perf_counter

# about the fastest time of the calibration loop on a 2-vCPU Intel Xeon
# host under Python 3.11, so that reference-speed seconds read close to the
# seconds of a quiet host of that kind
REFERENCE_S = 0.0028


class Calibration:
    """A fixed loop whose time tracks the host's current speed.

    Like the package, the loop reads and rewrites a dict of big integers, so
    it feels the same cache and memory contention.  The dict is built once
    and every run rewrites it in place: a run allocates no new memory and
    creates nothing the garbage collector tracks, so the heap a job leaves
    behind does not change its time, only the host's speed does.
    """

    def __init__(self, size: int = 50_000) -> None:
        self.table = {i * 7919: (i * 0x9E3779B97F4A7C15) << 64 for i in range(size)}
        for _ in range(3):  # the first runs also warm caches and allocator pools
            self.run()

    def run(self) -> float:
        """Seconds for one run of the calibration loop."""
        table = self.table
        start = perf_counter()
        for key, value in table.items():
            table[key] = value ^ key
        return perf_counter() - start


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """``seconds`` scaled to the reference speed, from calibrations bracketing it."""
    return seconds * REFERENCE_S / ((before + after) / 2)
