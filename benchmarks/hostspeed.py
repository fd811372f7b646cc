"""How fast the host runs right now, from a fixed kernel in a helper process.

The reference box is a 2-vCPU guest on a shared host.  Other guests load
its cores, caches and memory, and its speed changes by up to about 2x in
phases that last from seconds to minutes, on a pure-Python loop as much as
on the package.  The timed figures are therefore scaled by how fast a
fixed kernel ran in the same run, timed many times between the workload's
operations.  There are two kernels:

- ``big``: elementwise complex64 arithmetic over an 8 MiB array, the size
  of an n=20 fp32 state; it moves with cache and memory contention;
- ``small``: a Python loop of operations on a 4096-amplitude array, the
  per-gate overhead regime of a 12-qubit state; it moves with core speed.

The kernels belong to the benchmark and do not change with the package.
They run in a helper process of their own, so their time does not depend
on what the workload's process has allocated or left in its caches; the
helper blocks on its input between samples and uses no CPU while the
workload runs.

    python3 benchmarks/hostspeed.py big     # one time per input line
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Median kernel seconds on the reference box in a quiet phase.  Scaling a
# time by REFERENCE_S[kernel] / measured gives seconds at that speed.
REFERENCE_S = {"big": 0.015, "small": 0.012}

SAMPLE_TIMEOUT_S = 30


def big_kernel():
    src = np.ones(1 << 20, np.complex64)
    dst = np.empty_like(src)

    def run() -> None:
        for _ in range(8):
            np.multiply(src, np.complex64(1.0001), out=dst)
            np.add(src, dst, out=dst)

    return run


def small_kernel():
    src = np.ones(1 << 12, np.complex64)
    dst = np.empty_like(src)

    def run() -> None:
        for k in range(5000):
            np.multiply(src, src, out=dst)
            dst[k & 4095] = k

    return run


KERNELS = {"big": big_kernel, "small": small_kernel}


def serve(kernel: str) -> None:
    run = KERNELS[kernel]()
    run()
    for _ in sys.stdin:
        t0 = time.perf_counter()
        run()
        print(time.perf_counter() - t0, flush=True)


class HostSpeed:
    """The helper process timing one kernel; ``sample()`` times one pass."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self.proc = subprocess.Popen(
            [sys.executable, __file__, kernel], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.samples: list[float] = []

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed helper exited with {self.proc.wait(SAMPLE_TIMEOUT_S)}")
        self.samples.append(float(line))
        return self.samples[-1]

    def factor(self, samples: list[float]) -> float:
        """Reference kernel time over the median of ``samples``: below 1
        when the host ran slower than the reference box in a quiet phase."""
        return REFERENCE_S[self.kernel] / statistics.median(samples)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve(sys.argv[1])
