"""Compare the jump records two source trees sample on the same models.

    python3 tools/compare_records.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository (directories holding
`src/cmps_lab`).  Each case is `sample_ensemble(p, 30, 6.0, seed)` for
master seeds 0, 1 and 2 on one model:

- a random instance at each D of 1 to 16 and 32 (K Hermitian, R complex
  Gaussian scaled by 0.7 / sqrt(D)), in the thermodynamic geometry and in
  a finite window of length 6 opening on a random density matrix;
- collective resonance fluorescence, K = omega J_x and R = J_- / sqrt(N)
  at D = 32 for omega = 1 and 0.25, whose no-jump generator is
  propagated in its eigenmodes and by expm respectively;
- the driven emitter at the exceptional point of its no-jump generator
  (K = sigma_x / 4, R = sigma_-), in both geometries.

The models are built here and the records of each tree sampled in one
fresh process with BLAS pinned to one thread.  Each case gets one line:
"bit-identical" when every record's positions and final state are, else
whether the jump counts are equal and the largest change of a position
relative to it over the records whose counts are.  A total line follows.
The exit status is 1 when a tree fails to sample, else 0.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DIMS = (*range(1, 17), 32)
FAMILY_DIM = 32
OMEGAS = (1.0, 0.25)
SEEDS = (0, 1, 2)
N_TRAJ = 30
LENGTH = 6.0

# run in a fresh interpreter per tree: argv[1] is the tree's src, argv[2]
# the models, argv[3] the file the records go to
RUNNER = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from cmps_lab import Finite, new_cmps, sample_ensemble
models = np.load(sys.argv[2])
out = {}
for i in range(int(models["count"])):
    rho = models[f"rho{i}"]
    geometry = Finite(float(models["length"]), rho) if rho.size else None
    k = models[f"K{i}"]
    p = new_cmps(k.shape[0], k, models[f"R{i}"], geometry)
    for seed in models["seeds"]:
        records = sample_ensemble(p, int(models["n_traj"]), float(models["length"]), int(seed))
        out[f"counts{i}-{seed}"] = [rec.positions.size for rec in records]
        out[f"positions{i}-{seed}"] = np.concatenate([rec.positions for rec in records])
        out[f"states{i}-{seed}"] = np.array([rec.final_state for rec in records])
np.savez(sys.argv[3], **out)
"""


def random_instance(d, rng):
    """(K, R): K Hermitian, R complex Gaussian scaled by 0.7 / sqrt(d)."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    r = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * 0.7 / np.sqrt(d)
    return (a + a.conj().T) / 2, r


def random_density(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return (rho + rho.conj().T) / 2 / np.trace(rho).real


def fluorescence(d, omega):
    """K = omega J_x, R = J_- / sqrt(N) for a spin N / 2, D = N + 1."""
    j = (d - 1) / 2
    m = j - np.arange(d - 1)
    lower = np.diag(np.sqrt(j * (j + 1) - m * (m - 1)), -1)
    return omega * (lower + lower.T) / 2, lower / np.sqrt(d - 1)


def models():
    """[(label, K, R, boundary_rho or None for the thermodynamic geometry)]."""
    out = []
    for d in DIMS:
        rng = np.random.default_rng(d)
        k, r = random_instance(d, rng)
        out.append((f"random D={d} thermodynamic", k, r, None))
        out.append((f"random D={d} finite", k, r, random_density(d, rng)))
    for omega in OMEGAS:
        k, r = fluorescence(FAMILY_DIM, omega)
        out.append((f"fluorescence D={FAMILY_DIM} omega={omega:g}", k, r, None))
    ep_k, ep_r = np.array([[0.0, 0.25], [0.25, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    out.append(("exceptional point thermodynamic", ep_k, ep_r, None))
    out.append(("exceptional point finite", ep_k, ep_r, np.eye(2) / 2))
    return out


def sample_tree(tree, path, out):
    """Sample every model through the tree in one fresh process; return
    its records, or None with the error printed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUNNER, str(Path(tree).resolve() / "src"),
                           str(path), str(out)], env=env, capture_output=True, text=True)
    if done.returncode:
        print(f"{tree}: sampling failed\n{done.stderr}", end="")
        return None
    with np.load(out) as records:
        return dict(records)


def compare(before, after, key):
    """One line comparing the records of one case in two trees."""
    counts, other = before[f"counts{key}"], after[f"counts{key}"]
    if (np.array_equal(counts, other)
            and all(before[f"{name}{key}"].tobytes() == after[f"{name}{key}"].tobytes()
                    for name in ("positions", "states"))):
        return "bit-identical"
    # the positions of the records whose jump counts agree
    same = np.repeat(counts == other, counts)
    a = before[f"positions{key}"][same]
    b = after[f"positions{key}"][np.repeat(counts == other, other)]
    with np.errstate(divide="ignore", invalid="ignore"):
        change = np.max(np.abs(a - b) / np.abs(a), initial=0.0)
    equal = "equal" if np.array_equal(counts, other) else (
        f"differ in {np.count_nonzero(counts != other)} of {counts.size} records")
    return f"jump counts {equal}; max relative position change {change:.2e}"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/compare_records.py PARENT CHANGE", file=sys.stderr)
        return 2
    cases = models()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        arrays = {"count": len(cases), "seeds": SEEDS, "n_traj": N_TRAJ, "length": LENGTH}
        for i, (_, k, r, rho) in enumerate(cases):
            arrays.update({f"K{i}": k, f"R{i}": r, f"rho{i}": np.zeros(0) if rho is None else rho})
        np.savez(work / "models.npz", **arrays)
        records = [sample_tree(tree, work / "models.npz", work / f"{name}.npz")
                   for name, tree in zip(("parent", "change"), argv)]
        if any(rec is None for rec in records):
            return 1
        same = total = 0
        for i, (label, *_) in enumerate(cases):
            for seed in SEEDS:
                line = compare(*records, f"{i}-{seed}")
                same += line == "bit-identical"
                total += 1
                print(f"{label} seed {seed}: {line}")
    print(f"{same} of {total} cases bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
