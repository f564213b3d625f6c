"""Speed of the host at the moment, from a fixed reference kernel.

Other tenants of a shared host slow every process, CPU time included, by
up to a factor of two for a minute or more, longer than a benchmark run,
so no statistic taken within a run removes it. A worker (child.py)
therefore has this kernel timed right after its set-up and right before
and after every pass, and each sample is scaled by ``NOMINAL_S`` over the
mean time of the kernel runs around it: a sample taken while the host
was at its usual quiet speed keeps its value, one taken while the host
was slow is scaled down by as much as the kernel was slowed.

The kernel runs in a helper process of its own (this file run as a
script) that waits on a pipe while a pass runs, never in the worker, so
the worker's memory, page faults, allocator state and lazily initialised
libraries stay the program's own.

The kernel is the benchmark's own code and mixes the work the program
does: interpreter-bound scalar steps on small numpy arrays, a BLAS-2
triangular solve, a small Cholesky factor and a copy of a few MB, like
the factor copy of an append. Its inputs are fixed; nothing of the
program runs in it, so a change to the program cannot change it.
"""

import subprocess
import sys
import time

# the kernel's time on a quiet 2-vCPU Xeon host (Python 3.11, numpy 2.4,
# scipy 1.17, one BLAS thread): about the 10th percentile of its times
NOMINAL_S = 0.12
REPEATS = 200
CLOSE_TIMEOUT_S = 30


class HostSpeed:
    """Client of the kernel's helper process; use it as a context manager."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def run(self):
        """Time one pass of the kernel in the helper, in seconds."""
        self._proc.stdin.write("run\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"host-speed helper exited {self._proc.wait()}")
        return float(line)

    @staticmethod
    def factor(*kernel_s):
        """Scale for a sample taken between kernel runs of these durations."""
        return NOMINAL_S / (sum(kernel_s) / len(kernel_s))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        return False


def serve():
    """Time the kernel once per line read from stdin and print each time."""
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(20110511)
    a = rng.standard_normal((300, 300))
    spd = a @ a.T + 300.0 * np.eye(300)
    lower = np.linalg.cholesky(spd)
    rhs = rng.standard_normal(300)
    block = rng.standard_normal((700, 700))
    small = rng.standard_normal(50)

    def run():
        start = time.perf_counter()
        acc = 0.0
        for _ in range(REPEATS):
            scipy.linalg.solve_triangular(lower, rhs, lower=True)
            acc += block.copy()[0, 0]
            np.linalg.cholesky(spd[:120, :120])
            for _ in range(20):
                acc += float(np.exp(-0.5 * small @ small)) + sum(range(30))
        return time.perf_counter() - start

    run()  # the first pass pays page faults and lazy set-up: untimed
    for _ in sys.stdin:
        print(f"{run():.9f}", flush=True)


if __name__ == "__main__":
    serve()
