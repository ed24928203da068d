"""Host-speed calibration: the benchmark's own fixed computation, timed
between the workload's steps, by which every end-to-end time is scaled.

The reference machine of README.md, a shared 2-core virtual machine, runs
the same code at speeds up to about twice apart, switching within tens of milliseconds and
holding a speed for seconds to minutes, with process time equal to wall
time and no steal reported. A median or a best time over a 20 s run then
takes whatever speed that run mostly had, and two sets of ten runs of the
same code spread by 12-38 % (see README.md). The slowdown hits the
calibration kernel below in about the same proportion as the library, so
the ratio of a workload's time to the kernel's time repeats where the
times themselves do not.

The kernel mixes what the library spends its time on: batched 3x3 SVDs,
determinants and products (the Lie-group maps), a sparse LU factorization
and solve (the Poisson system) and a Python loop with JSON encoding (the
file I/O and the per-edge loops). It uses numpy and scipy only, never
shapeforms, so a change to the library cannot move the kernel's time.
Its inputs are fixed, not drawn from the workload seed.
"""

import json
import time

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

#: Seconds of calibration run per second of measured work. The kernel
#: runs after each step and each preparation for this share of its
#: duration, so its samples are spread over the run in proportion to time.
SHARE = 0.25

#: About the kernel's duration on the reference machine of README.md in
#: its fast state; scaled times are seconds at that speed.
REFERENCE_S = 0.010


def _grid_laplacian(n):
    line = scipy.sparse.diags([-np.ones(n - 1), 2.0 * np.ones(n), -np.ones(n - 1)],
                              [-1, 0, 1])
    eye = scipy.sparse.identity(n)
    return (scipy.sparse.kron(line, eye) + scipy.sparse.kron(eye, line)
            + 1e-3 * scipy.sparse.identity(n * n)).tocoo()


class HostSpeed:
    """Runs the calibration kernel for a share of each measured span of
    work and scales measured times by the kernel's mean duration."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        rng = np.random.default_rng(12345)
        self.matrices = rng.standard_normal((1500, 3, 3))
        self.laplacian = _grid_laplacian(30)
        self.rhs = rng.standard_normal((self.laplacian.shape[0], 3))
        self.values = [float(x) for x in rng.standard_normal(3000)]
        self.samples = []
        self._owed = 0.0

    def kernel(self):
        """One run of the fixed computation; returns its duration."""
        start = self.clock()
        W, _, Vt = np.linalg.svd(self.matrices)
        R = W @ Vt
        np.linalg.det(R)
        np.einsum("nij,nkj->nik", R, self.matrices)
        scipy.sparse.linalg.splu(self.laplacian.tocsc()).solve(self.rhs)
        total = 0.0
        for x in self.values:
            total += x * x
        json.loads(json.dumps({"values": self.values, "total": total}))
        return self.clock() - start

    def follow(self, seconds):
        """Run the kernel for ``SHARE`` of ``seconds`` of measured work,
        carrying the remainder over to the next call."""
        self._owed += SHARE * seconds
        while self._owed > 0.0:
            elapsed = self.kernel()
            self.samples.append(elapsed)
            self._owed -= elapsed

    def scale(self):
        """Factor from measured seconds to seconds at the reference speed."""
        if not self.samples:
            raise RuntimeError("no calibration sample taken")
        return REFERENCE_S / (sum(self.samples) / len(self.samples))
