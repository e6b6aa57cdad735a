"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same call can run 20-30 % slower for tens of
seconds at a time, so raw wall times of two runs of one program differ by
more than the regressions the benchmark must catch.  Each timed call is
therefore bracketed by a fixed calibration that does not involve the
package, and its normalized time is

    wall time / mean(slowdown before, slowdown after),

the time it would have taken at the speed where the calibration runs in its
reference time.  Two calibrations cover the two kinds of work measured:

* ``compute``: a pure-Python kernel shaped like the package's inner loops
  (short float lists advanced in a recurrence, a compensated running sum),
  for calls made inside the benchmark process;
* ``startup``: a fresh interpreter that imports numpy, for anything that
  starts a process (CLI calls, set-up probes), whose cost is interpreter
  start and module loading rather than arithmetic.  It tracks such calls
  only in part (correlation about 0.7 on a 2-vCPU sandbox, and between
  batches of runs its own time drifted 20 % against theirs), so only the
  square root of its slowdown is taken out: within a batch that removes
  nearly all the noise the full ratio removes, and the calibration's drift
  moves results half as much.

The raw wall times are kept alongside the normalized ones.
"""
from __future__ import annotations

import subprocess
import sys
import time

COMPUTE_REFERENCE_S = 0.0065
STARTUP_REFERENCE_S = 0.2


def _kernel() -> float:
    vals = [0.0] * 4
    total = carry = 0.0
    for n in range(1, 6000):
        new = [0.0] * 4
        for j in range(1, 4):
            new[j] = vals[j] + vals[j - 1] * 0.5 + n ** 0.5
        vals = new
        x = vals[3]
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry


def compute() -> float:
    """Slowdown of in-process arithmetic against the reference (1.0 = at it)."""
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) / COMPUTE_REFERENCE_S


def startup() -> float:
    """Slowdown of process start-up work: the square root of how much slower
    than the reference an interpreter that imports numpy starts."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                   timeout=120, check=True)
    return ((time.perf_counter() - t0) / STARTUP_REFERENCE_S) ** 0.5

