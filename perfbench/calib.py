"""Host-speed calibration: a fixed kernel timed between the jobs.

On a shared host the CPU runs at about its full speed or at one half to two
thirds of it, switching every few seconds to every few minutes.  The library's
jobs slow down with it, and a run that spends its whole time in a slow state
would read up to twice as slow as one that does not.

So the benchmark times a kernel between the jobs and reports each job's time
divided by the kernel's time around it, times the kernel's reference time: the
job's time on a host where the kernel takes that long.  Each workload's kernel
mixes kinds of work like those its jobs do (Python loops, operations on tiny
arrays, small or large dense solves, float formatting), because these do not
all slow down by the same factor.  No part calls ``mrgark``, so a change to the
library shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((33, 33)) + 8.0j * np.eye(33)
_LARGE = _RNG.standard_normal((512, 512)) + 32.0 * np.eye(512)
_PAIR = np.ones(2)


def _python() -> float:
    acc, table = 0.0, {}
    for i in range(40000):
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
    return acc


def _small_solves() -> float:
    return sum(float(np.linalg.solve(_SMALL, _SMALL[:, 0])[0].real) for _ in range(60))


def _small_arrays() -> float:
    """Python calls on one- and two-element arrays, as in the steps of a scalar ODE."""
    f = lambda y: -10.0 * y + np.sin(y)
    y, h = np.array([1.0]), 1e-3
    for _ in range(300):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    x = np.zeros(2)
    for _ in range(1500):
        x = 0.5 * x + _PAIR
    return float(y[0] + np.dot(x, x))


def _dense_solve() -> float:
    return float(np.linalg.solve(_LARGE, _LARGE[:, 0])[0])


def _formatting() -> float:
    return float(len(",".join(["%.12g" % (i * 0.1234567) for i in range(6000)])))


#: per workload, and for the set-up of every workload (imports and building
#: the job list, mostly interpreter work): the kernel's parts, and its fastest
#: time on the reference host (Intel Xeon vCPU, 2.1 GHz, Python 3.11, one
#: OpenBLAS thread), which only sets the scale of the figures
KERNELS = {
    "setup": ((_python, _small_solves, _formatting), 0.0070),
    "scalar-adaptive": ((_small_arrays, _small_solves, _formatting), 0.0075),
    "gray-scott-explicit": ((_python, _small_solves, _formatting), 0.0070),
    "gray-scott-implicit": ((_python, _dense_solve), 0.0076),
    "analysis-cli": ((_python, _small_solves, _formatting), 0.0070),
}


class Kernel:
    """The calibration kernel of one workload, or of the set-up."""

    def __init__(self, name: str):
        self.parts, self.ref_s = KERNELS[name]

    def sample(self) -> float:
        """Seconds one run of the kernel takes now."""
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def speed_scale(self, repeats: int = 5) -> float:
        """Reference time over the kernel's median time: multiply a time just measured by this."""
        self.sample()  # the first run pays for lazy initialisation
        return self.ref_s / statistics.median(self.sample() for _ in range(repeats))
