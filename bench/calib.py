"""Calibration kernel: a fixed piece of work timed next to every measurement.

The host the benchmark was built on (2 vCPUs of a shared Xeon) runs the same
code up to ~2x slower for stretches of a second to minutes, with thread CPU
time moving with wall time, so the slowdown is in the processor, not in
scheduling. A latency divided by the time this kernel took right before and
after it no longer carries that host speed. Multiplied by REFERENCE_S, the
kernel's time on the same host when it is quiet, it reads in seconds at that
speed. The kernel mixes what floqtools spends its time on: interpreted
Python, batched 2x2 LAPACK calls on numpy stacks and float formatting. It
never calls floqtools, so a change to the package does not move it.
"""
from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.003    # the kernel's best time on the quiet host (see README.md)
REPEATS = 3            # a calibration is the best of this many kernel runs

_LOOP = 6000
_rng = np.random.default_rng(12345)
_MATS = _rng.normal(size=(5000, 2, 2))
_MATS = _MATS + _MATS.transpose(0, 2, 1)
_VALUES = _rng.normal(size=500).tolist()


def _kernel():
    s = 0
    for i in range(_LOOP):
        s += i * i
    np.linalg.eigh(_MATS)
    return ",".join(map(repr, _VALUES)), s


def kernel_seconds(repeats=REPEATS):
    """Best time of `repeats` runs of the kernel, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        _kernel()
        best = min(best, perf_counter() - start)
    return best


def calibrated(seconds, before, after):
    """`seconds` measured between calibrations `before` and `after`, scaled
    to the quiet host's speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
