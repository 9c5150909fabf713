"""Machine-speed probe: rescales measured times to a reference speed.

The benchmark shares a 2-core machine with other tenants, and the speed of
the same Python code drifts by about 10% over seconds and between processes.
A fixed kernel of the benchmark's own (reachability over a fixed DAG plus set
work, the instruction mix of a d-separation query) is timed between ops, at
most every ``PERIOD_S`` of op time and at both ends of a pass. Each op's
latency is rescaled by REFERENCE_S over the mean of the probes on either side
of it: the time the op would have taken on a machine where the probe takes
REFERENCE_S. The kernel calls nothing in the library, so a change to the
library moves the rescaled times as much as the raw ones.

On 2 shared vCPUs with Python 3.11.7 this cut the spread (interquartile
range over median) of paper-scale throughput between runs from about 12% to
2-7%.
"""

from __future__ import annotations

import random
import time
from collections import deque

REFERENCE_S = 0.005  # the probe's time on the machine the benchmark was defined on
PERIOD_S = 0.05
_ROUNDS = 4

_rng = random.Random(20130405)
_N = 48
_PARENTS = [frozenset(_rng.sample(range(v), min(v, _rng.randint(0, 3)))) for v in range(_N)]
_CHILDREN = [frozenset(c for c in range(_N) if v in _PARENTS[c]) for v in range(_N)]


def _kernel() -> int:
    total = 0
    seen_sets = set()
    for start in range(_N):
        seen = bytearray(2 * _N)
        queue = deque((2 * start,))
        reached = []
        while queue:
            state = queue.popleft()
            if seen[state]:
                continue
            seen[state] = 1
            v = state >> 1
            reached.append(v)
            for p in _PARENTS[v]:
                queue.append(2 * p)
            for c in _CHILDREN[v]:
                queue.append(2 * c + 1)
        key = frozenset(reached)
        seen_sets.add(key)
        total += len(key & _PARENTS[start]) + len(key)
    return total


def probe_s() -> float:
    """Time one probe: a few rounds of the kernel."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        _kernel()
    return time.perf_counter() - start


class SpeedProbe:
    """Probe samples taken between the ops of one pass."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list[tuple[int, float]] = []  # (ops done before it, seconds)
        self._due = 0.0

    def between_ops(self, ops_done: int, force: bool = False) -> None:
        """Probe if ``period_s`` has passed since the last probe, or if forced."""
        if force or time.perf_counter() >= self._due:
            self.samples.append((ops_done, probe_s()))
            self._due = time.perf_counter() + self.period_s

    def rescale(self, latencies: list[float]) -> list[float]:
        """Each op's latency at reference speed, from the probes around it."""
        out = []
        at = 0  # index of the last probe taken before the op
        for i, latency in enumerate(latencies):
            while at + 1 < len(self.samples) and self.samples[at + 1][0] <= i:
                at += 1
            around = (self.samples[at][1] + self.samples[at + 1][1]) / 2
            out.append(latency * REFERENCE_S / around)
        return out
