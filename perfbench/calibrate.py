"""Speed probe, and the clock that scales measured times by it.

The benchmark runs on a few cores of a shared host, whose speed drifts by
tens of percent within seconds and for minutes at a time; the slowdown shows
in CPU time as well as in wall time.  The probe is a fixed piece of
pure-Python work of the same kind as realstrata's (small integer matrices,
tuples hashed into dicts and sets) that runs none of its code, so its time
follows the host's speed and not the program's.

``Clock.call`` runs the probe ``BETWEEN`` times before and after each
measured call and, when sampling, every ``SAMPLE_S`` seconds during the call
from a timer signal; time spent in probes is taken out of the call's.  The
call's time is then scaled by ``REF_S`` over the mean probe time from the
probes before it to the probes after it.  The result reads in seconds on a
host where the probe takes ``REF_S``: a change to the program moves it, a
change in the host's speed does not.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, List, NamedTuple, Optional

# The probe's wall time on the reference host: about the median probe of the
# benchmark's baseline runs (see README.md).  A constant, so that scaled
# times of different runs and commits compare.
REF_S = 0.015

ROUNDS = 80            # matrices eliminated per probe
SIZE = 10              # their order
CHECKSUM = 42517374    # what the fixed work must return

BETWEEN = 3            # probes between two measured calls
SAMPLE_S = 0.25        # probe interval during a measured call


class Probe(NamedTuple):
    wall: float
    cpu: float


def work() -> int:
    """Bareiss elimination of ROUNDS seeded integer matrices, each row then
    reduced mod small primes and counted in a dict and a set.  Each round
    frees what it built, so the probe adds little to peak memory."""
    x = 12345
    total = 0
    for _ in range(ROUNDS):
        counts: dict = {}
        seen: set = set()
        m = []
        for _ in range(SIZE):
            row = []
            for _ in range(SIZE):
                x = (x * 1103515245 + 12345) % 2147483648
                row.append((x >> 16) % 19 - 9)
            m.append(row)
        prev = 1
        for k in range(SIZE - 1):
            if m[k][k] == 0:
                for i in range(k + 1, SIZE):
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
                        break
                else:
                    continue
            pivot = m[k][k]
            for i in range(k + 1, SIZE):
                mik = m[i][k]
                row_i, row_k = m[i], m[k]
                for j in range(k + 1, SIZE):
                    row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            prev = pivot
        total += m[-1][-1] % 1000003
        for p in (3, 5, 7, 11, 13):
            for row in m:
                key = tuple(v % p for v in row)
                counts[key] = counts.get(key, 0) + 1
                seen.add((p, key[:4]))
        total += len(counts) + len(seen)
    return total


def probe() -> Probe:
    """Times one run of the fixed work; fails if it computed otherwise."""
    w0, c0 = time.perf_counter(), time.process_time()
    got = work()
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    if got != CHECKSUM:
        raise RuntimeError(f"speed probe returned {got}, not {CHECKSUM}")
    return Probe(wall, cpu)


class Timing(NamedTuple):
    """One measured call: raw wall and CPU seconds without the probes run
    during it, the same scaled to the reference speed, and the wall-time
    scale."""
    wall: float
    cpu: float
    ref_wall: float
    ref_cpu: float
    scale: float


class Clock:
    """Times calls with probes around them, and during them when
    ``sample`` is set; ``probes`` keeps the wall time of every probe."""

    def __init__(self, sample: bool) -> None:
        self.sample = sample
        self.probes: List[float] = []
        self._during: Optional[List[Probe]] = None
        self._last = self._between()

    def _between(self) -> List[Probe]:
        out = [probe() for _ in range(BETWEEN)]
        self.probes.extend(p.wall for p in out)
        return out

    def _tick(self, signum, frame) -> None:
        during = self._during
        if during is not None:
            self._during = None      # no nested probe from a late signal
            during.append(probe())
            self._during = during

    def call(self, fn: Callable, sample: bool = True):
        """Runs ``fn`` and returns (its Timing, its result).  ``sample``
        False keeps the probe out of the call even on a sampling clock."""
        during: List[Probe] = []
        sample = sample and self.sample
        if sample:
            old = signal.signal(signal.SIGALRM, self._tick)
            self._during = during
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            result = fn()
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                self._during = None
                signal.signal(signal.SIGALRM, old)
        self.probes.extend(p.wall for p in during)
        wall -= sum(p.wall for p in during)
        cpu -= sum(p.cpu for p in during)
        before, self._last = self._last, self._between()
        around = before + during + self._last
        scale = REF_S * len(around) / sum(p.wall for p in around)
        scale_cpu = REF_S * len(around) / sum(p.cpu for p in around)
        return Timing(wall, cpu, wall * scale, cpu * scale_cpu, scale), result
