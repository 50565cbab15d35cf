"""A fixed reference computation that tells how fast the host runs right now.

On a shared virtual machine the CPUs' speed changes by up to a factor of two
within minutes, for all code alike: the wall time of a fixed bjaudit op
moved between 0.65 and 1.2 times its median from one 10-second stretch to
the next.  Medians over a run cannot average that away, so whole runs read
fast or slow.

The benchmark therefore times this kernel right before and right after every
op, on the same CPU, and scales the op's wall time by REFERENCE_S over the
mean of the two kernel times: op times are reported as seconds on a host on
which the kernel takes REFERENCE_S.  The kernel uses the standard library and
numpy only, never bjaudit, so a change to bjaudit cannot move it.  Its parts
mirror what the workloads do: a Python loop over a dict, numpy calls on
8-element arrays, a sort and cumulative sum of 10^5 floats, and repr of 10^4
floats.  On the 2-vCPU machine where the bounds were set, the medians of
the in-process ops over 26-second stretches spread (between quartiles)
19-26 % of their median unscaled and 3-6 % scaled.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.025  # about the kernel's median time on that machine

_BULK = np.random.default_rng(0).random(100_000)
_SMALL = [np.random.default_rng(k).random(8) for k in range(16)]


def _kernel() -> float:
    d: dict[int, int] = {}
    s = 0
    for i in range(30_000):
        s += i * i % 7
        d[i & 1023] = s
    acc = float(s)
    for _ in range(150):
        for a in _SMALL:
            acc += float(np.cumsum(np.sort(a))[-1])
    acc += float(np.cumsum(np.sort(_BULK))[-1])
    acc += len(",".join(repr(x) for x in _BULK[:10_000].tolist()))
    return acc


def reference_s() -> float:
    """Wall time of one run of the kernel."""
    t = time.perf_counter()
    _kernel()
    return time.perf_counter() - t


_kernel()  # first call pays for allocation and caches, not the measurement
