"""Time the jump sampler on collective resonance fluorescence.

    python3 tools/sampler_cost.py [D] [RUNS]

The family is K = omega J_x, R = J_- / sqrt(N) for a spin N / 2 with
D = N + 1 levels (D = 32 by default), in the thermodynamic geometry.  At
D = 32 and omega = 1 the no-jump generator's eigenbasis is certified and
the sampler propagates in its eigenmodes; at omega = 0.25 it is not, and
every step takes an expm (the `path` column).  For each omega the script draws records of length 40 from
master seed 1 (100 records at omega = 1, 20 at omega = 0.25) RUNS times
(3 by default) in this process, with BLAS pinned to one thread, and prints
the jump count and the best time per jump in microseconds.  It imports the
package from this checkout's `src`; `main` runs it in the calling process,
with that process's BLAS threads.
"""

import os
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # before NumPy loads BLAS
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmps_lab import new_cmps, sample_ensemble  # noqa: E402
from cmps_lab.trajectories import _NoJumpFlow  # noqa: E402

LENGTH = 40.0
MASTER_SEED = 1
# (omega, records)
CASES = ((1.0, 100), (0.25, 20))


def fluorescence(d, omega):
    """The parameter set K = omega J_x, R = J_- / sqrt(N), D = N + 1."""
    j = (d - 1) / 2
    m = j - np.arange(d - 1)
    lower = np.diag(np.sqrt(j * (j + 1) - m * (m - 1)), -1)
    return new_cmps(d, omega * (lower + lower.T) / 2, lower / np.sqrt(d - 1))


def cost(params, n_traj, runs):
    """(jumps, best seconds per jump) of sample_ensemble over `runs` runs."""
    best = np.inf
    for _ in range(runs):
        start = time.perf_counter()
        records = sample_ensemble(params, n_traj, LENGTH, MASTER_SEED)
        best = min(best, time.perf_counter() - start)
    jumps = sum(rec.positions.size for rec in records)
    return jumps, best / max(jumps, 1)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    d = int(argv[0]) if argv else 32
    runs = int(argv[1]) if len(argv) > 1 else 3
    print(f"D = {d}, length {LENGTH:g}, master seed {MASTER_SEED}, best of {runs} runs")
    print(f"{'omega':>6} {'path':>6} {'records':>8} {'jumps':>7} {'us/jump':>9}")
    for omega, n_traj in CASES:
        params = fluorescence(d, omega)
        path = "expm" if _NoJumpFlow(params, LENGTH).lam is None else "modes"
        jumps, seconds = cost(params, n_traj, runs)
        print(f"{omega:>6g} {path:>6} {n_traj:>8} {jumps:>7} {seconds * 1e6:>9.1f}")


if __name__ == "__main__":
    main()
