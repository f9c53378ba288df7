"""Host speed, measured with a fixed reference computation timed between ops.

On a shared host, other tenants' load slows every computation of the
benchmark process, often by half or more, for seconds to minutes at a time;
a thread's CPU time slows with it, so it is not a way round.  The benchmark
therefore times a small computation of its own, independent of semistab,
after every op of each pass, more of them after a longer op.  A measured time
`t` is reported as ``t * REFERENCE_S / r``, where ``r`` is the median
reference time over the same stretch of the run: seconds on this host at the
speed at which the reference takes REFERENCE_S.  The reference mixes the kinds of work semistab's ops
are made of (Python loops, numpy on short and on long arrays, small matrix
products, random draws), so a slow stretch slows both by a similar factor.  A change to semistab leaves the reference alone, so it moves the
adjusted times as much as the raw ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# A round constant near the reference's time on the 2-vCPU Xeon the
# benchmark was written on (1.0 to 1.5 ms); it only sets the scale.
REFERENCE_S = 1.0e-3
STRIDE_S = 0.1  # one more reference sample per this much op time
MAX_BURST = 20   # reference samples after one op, at most
WARMUP = 20

_V = np.linspace(0.0, 1.0, 64)
_W = np.linspace(0.0, 1.0, 10_000)
_M = np.random.default_rng(0).random((64, 64))


def reference(rng: np.random.Generator) -> float:
    """A fixed computation of about a millisecond, in five near-equal parts:
    a Python loop, numpy on 64 and on 10^4 entries, 64x64 products and
    random draws.  Returns a number so that no part is optimised away."""
    s = 0
    for i in range(3000):
        s += i * i
    a = _V
    for _ in range(30):
        a = np.sqrt(a * a + 1.0) - a.mean()
    b = _W
    for _ in range(6):
        b = np.sqrt(b * b + 1.0) - 0.5 * b
    for _ in range(12):
        c = _M @ _M
    d = rng.standard_normal(10_000) + rng.random(10_000)
    return s + float(a[0] + b[0] + c[0, 0] + d[0])


class SpeedProbe:
    """Reference samples, taken on request, grouped into stretches."""

    def __init__(self):
        self._rng = np.random.default_rng(1)
        for _ in range(WARMUP):
            reference(self._rng)
        self._samples = []
        self.spent = 0.0  # seconds spent in reference samples

    def sample(self, n=1):
        for _ in range(n):
            t0 = time.perf_counter()
            reference(self._rng)
            dt = time.perf_counter() - t0
            self._samples.append(dt)
            self.spent += dt

    def after_op(self, seconds):
        """Samples after an op that took `seconds`: one, plus one per
        STRIDE_S, so a slow stretch weighs as much as it lasted."""
        self.sample(1 + min(int(seconds / STRIDE_S), MAX_BURST - 1))

    def factor(self) -> float:
        """REFERENCE_S over the median reference time of the samples since
        the last call; the stretch then starts afresh."""
        r = statistics.median(self._samples)
        self._samples = []
        return REFERENCE_S / r
