"""Machine-speed calibration for the benchmark's timings.

The host shares its cores, and pure-Python code on it runs up to 1.6x
slower for seconds to minutes at a time, which no run length averages
out. So every timed job and set-up is bracketed by a fixed piece of the
benchmark's own pure-Python work, and its times are scaled by
REFERENCE_S over that work's mean time around it. The work mixes what
posetdual spends its time on: memoised bitmask counting, a stack search,
and building and freeing dicts of tuples.
The dicts stay small (about 0.3 MiB) so that the calibration never sets
a run's peak memory.
"""

import random
import time

from fixtures import UpsetCounter, closure, random_pairs, search_nodes

UP = closure(26, random_pairs(26, 0.12, random.Random(7)))
SEARCH_LEAVES = 4000
TUPLES = 3000
ROUNDS = 12

# About the calibration's median wall time on the 2-vCPU Xeon the
# baseline was recorded on, so scaled times read as seconds there.
REFERENCE_S = 0.025


def calibrate():
    """Wall and CPU time of the fixed calibration work."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    UpsetCounter(UP).members()
    search_nodes(UP, SEARCH_LEAVES)
    for _ in range(ROUNDS):
        index = {(m, m >> 3): m for m in range(TUPLES)}
        del index
    return time.perf_counter() - wall0, time.process_time() - cpu0


def scales(before, after):
    """Wall and CPU scale factors for work done between two calibrations."""
    return (
        2 * REFERENCE_S / (before[0] + after[0]),
        2 * REFERENCE_S / (before[1] + after[1]),
    )
