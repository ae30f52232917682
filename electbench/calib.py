"""Machine-speed calibration for a shared, noisy machine.

Imports nothing of the program, so the set-up timing can start after it.
"""

from __future__ import annotations

import random
import time
from typing import Dict, List

#: Calibration-loop time on an uncontended core of a 2-vCPU Xeon @ 2.1 GHz
#: with Python 3.11.7.  Reported timings are scaled to this speed.
CAL_REF_MS = 1.70


class Calibrator:
    """A fixed pure-Python loop, timed between ops.

    On a shared machine the core this process runs on changes speed for
    seconds at a time (on the Xeon above this loop took 1.7 ms or 2.65 ms
    depending on the period, in CPU time as much as in wall time).  Timed
    next to each op, the loop measures the speed the op ran at, and each
    op's latency is scaled by ``CAL_REF_MS`` over that time.  The loop
    touches nothing of the program, so a change to the program moves the
    scaled figures in the same proportion as the raw ones.
    """

    def __init__(self) -> None:
        rng = random.Random(7)
        self.adj: Dict[int, List[int]] = {i: [] for i in range(300)}
        for _ in range(900):
            a, b = rng.randrange(300), rng.randrange(300)
            self.adj[a].append(b)
            self.adj[b].append(a)

    def sample(self) -> float:
        """One timing of the loop, in ms."""
        adj = self.adj
        t0 = time.perf_counter()
        for root in range(0, 300, 30):
            dist = {root: 0}
            queue = [root]
            for u in queue:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
            sorted(dist.items())
        return (time.perf_counter() - t0) * 1000.0
