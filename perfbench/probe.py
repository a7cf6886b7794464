"""Machine-speed probe.

A shared 2-core host changes speed by up to 2x for a second or for
minutes at a time, as other tenants load it.  Every timing the
benchmark reports is therefore scaled to a nominal machine: a raw time t,
measured beside a probe that took p ms, is reported as t * NOMINAL_MS / p.
The probe is a fixed pure-Python kernel that shares nothing with the
library, built from the kinds of loop the workloads spend their time in.
A change to the library cannot move it.

The speed changes within a second, so a probe timed before and after a
multi-second op says little about the op.  `Sampler` therefore times the
probe from a timer signal, during ops as well as between them, and
scales each op by the probes taken while it ran.
"""

import bisect
import signal
import time
from fractions import Fraction

NOMINAL_MS = 0.6  # the probe's time on a quiet 2.1 GHz Xeon core
PROBE_EVERY_S = 0.1  # the sampler's timer period, in wall time
PROBE_WINDOW = 3  # probes on each side of an op that count towards its scale

_A = {(i % 5, i // 5, i * 7 % 3): i * 2654435761 % 1000003 - 500001 for i in range(24)}
_B = {(i % 4, i * 5 % 7, i // 6): i * 40503 % 65537 - 32768 for i in range(24)}
_N = 1000000007 * 998244353  # a 60-bit integer for trial division


def _kernel():
    """Sparse dict products, trial division and Fraction sums: the three
    kinds of inner loop the workloads spend their time in."""
    out = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            out[e] = out.get(e, 0) + c1 * c2
    hits = 0
    for d in range(2, 900):
        if _N % d == 0:
            hits += 1
    f = Fraction(0)
    for i in range(1, 40):
        f = f * Fraction(i, i + 1) + Fraction(1, i)
    return len(out) + hits + f.denominator % 7


def probe_ms():
    """Best of three timings of the probe kernel, in ms."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def scale(raw, probe):
    """A raw time expressed at the nominal machine speed."""
    return raw * NOMINAL_MS / probe


class Sampler:
    """Times the probe every PROBE_EVERY_S of wall time, from SIGALRM.

    The handler runs between two bytecodes of whatever runs, library code
    included, and records its own start and end, so `op` can take the
    probe time out of an op's time.  Use as a context manager, around a
    single-threaded loop of ops.
    """

    def __init__(self):
        self.starts, self.ends, self.probes = [], [], []
        self.busy = False

    def tick(self, *_):
        if self.busy:  # the timer fired inside a probe
            return
        self.busy = True
        t0 = time.perf_counter()
        ms = probe_ms()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self.probes.append(ms)
        self.busy = False

    def __enter__(self):
        self.tick()
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def op(self, t0, t1):
        """An op that ran from t0 to t1: (seconds without probe time, probe ms).

        The probe ms is the harmonic mean of the probes taken during the op
        and the PROBE_WINDOW on each side of it, so that `scale` integrates
        the machine's speed over the op.  Call it only once a probe after
        t1 has been taken.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        near = self.probes[max(0, lo - PROBE_WINDOW):hi + PROBE_WINDOW]
        return t1 - t0 - inside, len(near) / sum(1.0 / ms for ms in near)
