"""Reference kernel of the symcov benchmark: a fixed piece of work that runs
no symcov code, timed next to each timed operation.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
drifts by up to half from one half-minute to the next as neighbours come
and go; a run of a few seconds lands inside one such phase, and the drift
shows in CPU time as much as in wall time. Timing this kernel right after
each operation measures the host's speed at that moment, and an
operation's CPU time divided by the kernel's is the operation's cost in
host-independent units (``ref``). CPU time rather than wall time, so that
time the hypervisor steals from the virtual CPU counts in neither. The
kernel mixes what a selection call is made of: symmetric
eigendecompositions of a 100x100 matrix (LAPACK, one BLAS thread in the
benchmark's processes) and dict-heavy interpreter work.
"""

from __future__ import annotations

import time

import numpy as np

_A = np.random.Generator(np.random.PCG64(0)).standard_normal((100, 100))
_A = _A @ _A.T


def reference_cpu_s() -> float:
    """Process CPU time of one pass of the reference kernel (about 40 ms)."""
    t0 = time.process_time()
    for _ in range(30):
        np.linalg.eigh(_A)
    d: dict = {}
    for i in range(60000):
        k = i * 7919 % 10007
        d[k] = d.get(k, 0) + i
    return time.process_time() - t0
