"""A fixed kernel timed next to every op, to correct timings for host speed.

The shared 2-core machine the bounds were set on drifts in speed by up to
1.6x over minutes: within three minutes, one process took from 0.75 s to
1.26 s (median of five ops) for the same allocate op on the same input.
Dividing each op's latency by the time this kernel took around it cancels
most of that drift.  The kernel mixes the program's two kinds of hot loop:
a Tyler sweep (LU solve and quadratic forms over 100 assets x 1000
samples) and a projected-gradient loop of 100 x 100 matrix-vector
products.

The kernel runs in a helper process of its own, started with a fixed BLAS
environment (one thread), which never imports the package.  Whatever the
program does to its own process (its BLAS thread pool, its heap) thus
slows the op but not the reference, and shows in the corrected time.

    python3 perfbench/hostspeed.py   # times the kernel once per input line
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

# The kernel's median time on the machine the bounds were set on, so that a
# corrected timing reads as the raw one would there at its usual speed.
NOMINAL_S = 0.03


class Kernel:
    """The reference kernel and its fixed inputs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.panel = rng.standard_normal((100, 1000))
        self.scatter = np.cov(self.panel)
        self.corr = np.corrcoef(rng.standard_normal((100, 300)))

    def seconds(self) -> float:
        """Run the kernel once and return its wall time."""
        start = time.perf_counter()
        for _ in range(3):
            solved = np.linalg.solve(self.scatter, self.panel)
            quad = np.einsum("ij,ij->j", self.panel, solved)
            (self.panel / quad) @ self.panel.T
        z = np.full(100, 0.01)
        for _ in range(1500):
            z = np.maximum(z - 0.01 * (self.corr @ z), 0.0)
            z /= z.sum()
        return time.perf_counter() - start


class Reference:
    """Times the kernel in a helper process, one run per ``seconds()``.

    The helper idles, blocked on its input, while the op runs.  It uses one
    BLAS thread: the op process's BLAS threads spin for a while after the
    op, and a second helper thread would contend with them for the two
    cores; with one, the reference read the same right after an op as
    after a pause.
    """

    def __init__(self):
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = "1"
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env)

    def seconds(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"reference helper exited {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        """Stop the helper and wait until it has ended."""
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> Reference:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    kernel = Kernel()
    for _ in sys.stdin:
        print(repr(kernel.seconds()), flush=True)


if __name__ == "__main__":
    serve()
