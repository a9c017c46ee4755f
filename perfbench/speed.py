"""Timings at one reference machine speed.

The shared two-core VM this benchmark was built on runs the same code up
to 1.5x slower for seconds to minutes at a time while its neighbours are
busy, and the slowdown hits everything in the VM.  Raw median operation
times spread by 0.09 to 0.34 (quartile distance over median) across ten
runs of a workload, too much for any useful bound.

So every timed step is bracketed by a fixed reference computation, the
probe, and its time is scaled by ``REFERENCE_PROBE_S / probe time``,
with the probe time averaged over the probes just before and just after
the step.  A program change moves the scaled time exactly as it moves
the raw one, since the probe runs none of the program.  Across ten runs
the scaled times spread by 0.02 to 0.09.  Raw times are reported beside
the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# Roughly the probe's median time on the box the baseline was measured on;
# any fixed value works, this one keeps scaled seconds close to raw ones.
REFERENCE_PROBE_S = 0.05


def probe_s() -> float:
    """Seconds taken by the fixed reference computation.

    An interpreter loop, float-to-text formatting and numpy arithmetic,
    in about equal parts: the kinds of work the workloads do.  It
    allocates about 3 MB, too little to raise a workload's peak memory.
    """
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    values = (np.arange(30_000) * 0.37).tolist()
    "".join(f"{v!r},{v!r}\n" for v in values)
    x = np.arange(100_000, dtype=float)
    for _ in range(30):
        x = np.sqrt(x * x + 1.0)
    return time.perf_counter() - start


def factor(probe_before: float, probe_after: float) -> float:
    """Scale from raw seconds to reference-speed seconds for a step between two probes."""
    return REFERENCE_PROBE_S / ((probe_before + probe_after) / 2.0)
