"""Machine-speed reference for the end-to-end timings.

The benchmark's host is shared: the same deterministic instance takes 0.35 s
in one ten-second stretch and 0.55 s in the next, as other tenants come and
go, so raw wall times of runs made a few minutes apart spread by 15-30%.
Each run therefore times a fixed
kernel that does the kind of work the workload does REPEATS times before
every instance and once more after the last, and rescales each instance's
wall time by

    factor = reference / (mean kernel time just before and just after it)

that is, expresses it in seconds of a machine on which the kernel takes its
reference time.  Pairing each instance with the kernel samples next to it in
time follows the host's speed changes, which a run-wide median does not.
The kernel has to resemble the work: interpreter-bound code and numpy calls
on small arrays speed up and slow down differently with the host's load, and
a pure-Python kernel left the spread of the numpy-bound lintest-tables
workload as it was.  The kernels are the benchmark's own code and no change
to the program can speed them up or slow them down, so a change in the
program moves the rescaled timings exactly as it moves the raw ones.  The
raw timings are written to the result file in bench/out/.
"""

from __future__ import annotations

import time
from typing import Callable, NamedTuple

import numpy as np

# kernel runs per sample; a sample is their mean
REPEATS = 2


def python_kernel() -> float:
    """Interpreter-bound work: dict updates with tuple keys and modular
    integer arithmetic.  Returns its wall time."""
    t0 = time.perf_counter()
    s = 0
    table = {}
    for i in range(100_000):
        s = (s * 31 + i) % 1_000_003
        table[(i & 1023, s & 7)] = s
    seconds = time.perf_counter() - t0
    if s != 933_429 or len(table) != 8192:
        raise RuntimeError(f"python reference kernel computed {s}, {len(table)}")
    return seconds


# fixed pseudo-random tables over F_7 (no numpy.random: its modules would add
# to the workload's peak RSS)
_DIGITS = np.arange(2048 * 4, dtype=np.int64).reshape(2048, 4) * 2_654_435_761 % 7_919 % 7
_PLACE = 7 ** np.arange(3, -1, -1)
_VALUES = np.arange(2401 * 2, dtype=np.int64).reshape(2401, 2) * 97 % 211 % 7
_NUMPY_CHECK = 4546  # the kernel's result, so a broken kernel cannot pass unnoticed


def numpy_kernel() -> float:
    """numpy calls on small arrays, row by row, as lintest's exact pair
    enumeration makes them.  Returns its wall time."""
    t0 = time.perf_counter()
    accepted = 0
    for i in range(150):
        rank = ((_DIGITS[i] + _DIGITS) % 7) @ _PLACE
        accepted += int(((_VALUES[i] + _VALUES[:2048]) % 7 == _VALUES[rank]).all(axis=1).sum())
    seconds = time.perf_counter() - t0
    if accepted != _NUMPY_CHECK:
        raise RuntimeError(f"numpy reference kernel computed {accepted}")
    return seconds


class Kernel(NamedTuple):
    run: Callable[[], float]
    reference_s: float  # its time on a 2-vCPU 2.0 GHz Xeon VM under typical load


KERNELS = {"python": Kernel(python_kernel, 0.040), "numpy": Kernel(numpy_kernel, 0.035)}


def warm_up(kind: str):
    """The first kernel run in a process pays for fresh memory; run it untimed."""
    KERNELS[kind].run()


def sample(kind: str) -> float:
    run = KERNELS[kind].run
    return sum(run() for _ in range(REPEATS)) / REPEATS


def factors(samples: list[float], kind: str) -> list[float]:
    """Per-instance factors from the samples taken before each instance and
    after the last one (len(samples) = instances + 1)."""
    ref = KERNELS[kind].reference_s
    return [2 * ref / (a + b) for a, b in zip(samples, samples[1:])]
