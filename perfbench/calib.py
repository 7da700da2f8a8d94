"""Host-speed calibration: a fixed pure-Python loop timed next to the ops.

On a shared host the speed of a core changes by up to 2x, in phases of
tens of milliseconds to minutes, under load from outside the benchmark;
the process's CPU time grows with its wall time, so neither clock removes
it.  Every timed stretch of ops is therefore bracketed by runs of this
loop, and the ops' wall times are scaled by ``REF_S / loop time``: the
result is what the ops would have taken at the speed at which the loop
takes ``REF_S``.  The loop does the library's kind of work (scalar
complex arithmetic and cmath calls in the interpreter), so a change of
host speed moves both alike, while a change to the library moves only
the ops.

Nothing here imports the library; set-up interpreters import this module
before their clock starts.
"""

from __future__ import annotations

import cmath
import time

# the loop's typical wall time on the 2-vCPU Intel Xeon VM the benchmark
# was tuned on, so that there calibrated times read about as wall times
REF_S = 1.0e-3
_ROUNDS = 2600
_Q = cmath.exp(-0.5 + 0.2j)


def _loop() -> complex:
    acc = 0j
    w2 = cmath.exp(0.6j - 0.2)
    qn = 1.0 + 0j
    for n in range(1, _ROUNDS):
        qn *= _Q
        w = 1.0 - qn * qn * w2
        acc += w * w / (1.0 + abs(w)) + cmath.sqrt(w)
    return acc


def calibrate() -> float:
    """Wall seconds of one run of the calibration loop."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
