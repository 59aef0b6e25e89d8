"""Machine speed, measured beside the program, for scaling its timings.

The shared VM the benchmark was built on changes speed by up to a third
within minutes, and every kind of work slows alike: numpy kernels, the
interpreter and page faults (see README, *Noise*).  Runs minutes apart
then differ more than any regression worth catching.  So the harness
times a fixed kernel, which never calls the program, between ops about
four times a second, and scales the run's timings by `REFERENCE_MS` over
the median kernel time of the run.  A scaled timing reads what the op
would take on the machine when the kernel takes `REFERENCE_MS`; the raw
timings stay in the run's record.

The kernel allocates nothing and runs with the cyclic garbage collector
paused, so the program's heap and garbage do not change its time: only
the machine does.  It mixes the two kinds of work the workloads do: a
large matmul with element-wise maps over a few MB (as one attention layer
of a crowded scan) and a loop of small matrix ops (as the float64 tape).
"""

from __future__ import annotations

import gc
import time

import numpy as np

# median kernel time on the baseline VM (2-vCPU Intel Xeon, 1 BLAS thread)
REFERENCE_MS = 10.0


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.big_in = rng.standard_normal((2400, 64))
        self.big_w = rng.standard_normal((64, 256)) / 8.0
        self.big_out = np.empty((2400, 256))
        self.big_sum = np.empty(256)
        self.small_in = rng.standard_normal((40, 64))
        self.small_w = rng.standard_normal((64, 64)) / 8.0
        self.small_x = np.empty((40, 64))
        self.small_y = np.empty((40, 64))

    def kernel(self) -> None:
        np.matmul(self.big_in, self.big_w, out=self.big_out)
        np.tanh(self.big_out, out=self.big_out)
        np.exp(self.big_out, out=self.big_out)
        np.sum(self.big_out, axis=0, out=self.big_sum)
        x, y = self.small_x, self.small_y
        np.copyto(x, self.small_in)
        for _ in range(250):
            np.matmul(x, self.small_w, out=y)
            np.add(y, self.small_in, out=y)
            np.tanh(y, out=x)

    def measure_ms(self) -> float:
        """Time of one kernel run, in ms."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self.kernel()
            return 1e3 * (time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
