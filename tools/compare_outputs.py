"""Compare the CLI outputs and the jump records of two source trees.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository (directories holding
`src/cmps_lab`).  Each tree runs in one fresh process with BLAS pinned to
one thread, which does two things:

- it runs every job of `perfbench/workloads.make_jobs` (every workload,
  seeds 1 to 3, full size and smoke) through the tree's `cmps_lab.cli.main`;
  the configs are written once, from this checkout's `perfbench`;
- it samples `sample_ensemble(p, 30, 6.0, seed)` for master seeds 0, 1 and
  2 on each record model: a random instance at each D of 1 to 16 and 32
  (K Hermitian, R complex Gaussian scaled by 0.7 / sqrt(D)), in the
  thermodynamic geometry and in a finite window of length 6 opening on a
  random density matrix; collective resonance fluorescence at D = 32
  (`tools/sampler_cost.py`) for omega = 1 and 0.25, whose no-jump
  generator is propagated in its eigenmodes and by expm respectively; and
  the driven emitter at the exceptional point of its no-jump generator
  (K = sigma_x / 4, R = sigma_-), in both geometries.  The models are built
  here, with this checkout's package.

The outputs section gives each output one line: "byte-identical"; for a
CSV separation scan the largest change of a value relative to the largest
|value| and whether its d = 0 rows are byte-identical; for a JSON output
with the same structure and the same non-numeric values the largest
|change| / |value| over its numbers, a {re, im} pair read as one complex
number, and the key path of that number; "differs" for any other output.
The records section gives each case one line: "bit-identical" when every
record's positions and final state are, else whether the jump counts are
equal and the largest change of a position relative to it over the
records whose counts are.  Each section ends with its total.  The exit
status is 1 when a job or a tree's process fails, else 0.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, make_jobs  # noqa: E402
from tools.sampler_cost import fluorescence  # noqa: E402

SEEDS = (1, 2, 3)
SMOKE = (False, True)
DIMS = (*range(1, 17), 32)
FAMILY_DIM = 32
OMEGAS = (1.0, 0.25)
RECORD_SEEDS = (0, 1, 2)
N_TRAJ = 30
LENGTH = 6.0

# run in a fresh interpreter per tree: argv[1] is the tree's src, argv[2]
# the job list, argv[3] the record models, argv[4] the file the records go
# to; prints one line per job that exits non-zero
RUNNER = """
import json, sys
from pathlib import Path
import numpy as np
sys.path.insert(0, sys.argv[1])
from cmps_lab import Finite, cli, new_cmps, sample_ensemble
for command, config, output in json.loads(Path(sys.argv[2]).read_text()):
    code = cli.main([command, "--config", config, "--output", output])
    if code:
        print(f"{output}: exit {code}")
models = np.load(sys.argv[3])
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
np.savez(sys.argv[4], **out)
"""


def write_jobs(work):
    """Write every config once; return [(label, command, config, output name)]."""
    jobs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for smoke in SMOKE:
                for job in make_jobs(workload, seed, smoke):
                    label = f"{workload} seed {seed} {'smoke' if smoke else 'full'} {job.command}"
                    stem = label.replace(" ", "-")
                    config = work / f"{stem}.config.json"
                    config.write_text(json.dumps(job.config), encoding="utf-8")
                    jobs.append((label, job.command, str(config), f"{stem}.out"))
    return jobs


def random_instance(d, rng):
    """(K, R): K Hermitian, R complex Gaussian scaled by 0.7 / sqrt(d)."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    r = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) * 0.7 / np.sqrt(d)
    return (a + a.conj().T) / 2, r


def random_density(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return (rho + rho.conj().T) / 2 / np.trace(rho).real


def models():
    """[(label, K, R, boundary_rho or None for the thermodynamic geometry)]."""
    out = []
    for d in DIMS:
        rng = np.random.default_rng(d)
        k, r = random_instance(d, rng)
        out.append((f"random D={d} thermodynamic", k, r, None))
        out.append((f"random D={d} finite", k, r, random_density(d, rng)))
    for omega in OMEGAS:
        p = fluorescence(FAMILY_DIM, omega)
        out.append((f"fluorescence D={FAMILY_DIM} omega={omega:g}", p.K, p.R, None))
    ep_k, ep_r = np.array([[0.0, 0.25], [0.25, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    out.append(("exceptional point thermodynamic", ep_k, ep_r, None))
    out.append(("exceptional point finite", ep_k, ep_r, np.eye(2) / 2))
    return out


def run_tree(tree, jobs, work, out):
    """Run every job and sample every record model through the tree in one
    fresh process; return the lines naming failures and the records (None
    when the process failed)."""
    out.mkdir()
    manifest = out / "jobs.json"
    manifest.write_text(json.dumps([(cmd, cfg, str(out / name)) for _, cmd, cfg, name in jobs]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUNNER, str(Path(tree).resolve() / "src"),
                           str(manifest), str(work / "models.npz"), str(out / "records.npz")],
                          env=env, capture_output=True, text=True)
    failed = done.stdout.splitlines()
    if done.returncode:
        return [*failed, f"process failed\n{done.stderr}"], None
    with np.load(out / "records.npz") as records:
        return failed, dict(records)


def csv_rows(text):
    """The (d, re, im) rows of a CSV scan, as floats."""
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def leaves(node, path=""):
    """(key path, leaf) for every leaf of a JSON tree: a number as a
    complex number, a {re, im} pair of numbers (or of lists nested alike)
    as complex numbers, anything else (a string, a bool, null, an empty
    list or dict) as itself."""
    if isinstance(node, dict) and set(node) == {"re", "im"}:
        re, im = list(leaves(node["re"], path)), list(leaves(node["im"], path))
        if [p for p, _ in re] == [p for p, _ in im] and all(
                isinstance(x, complex) for _, x in re + im):
            yield from ((p, complex(x.real, y.real)) for (p, x), (_, y) in zip(re, im))
            return
    if isinstance(node, dict) and node:
        for key in sorted(node):
            yield from leaves(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list) and node:
        for i, item in enumerate(node):
            yield from leaves(item, f"{path}[{i}]")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path, complex(node)
    else:
        yield path, node


def json_change(before, after):
    """The line for two JSON texts of the same structure and non-numeric
    values: the largest |change| / |value| over their numbers and its key
    path; None when they differ otherwise."""
    a, b = list(leaves(json.loads(before))), list(leaves(json.loads(after)))
    if [p for p, _ in a] != [p for p, _ in b]:
        return None
    worst, where = 0.0, None
    for (path, x), (_, y) in zip(a, b):
        if not (isinstance(x, complex) and isinstance(y, complex)):
            if x != y:
                return None
            continue
        change = 0.0 if x == y else abs(x - y) / abs(x) if x else math.inf
        if where is None or change > worst:
            worst, where = change, path
    return None if where is None else f"max |change| / |value| = {worst:.2e} at {where}"


def compare(before, after):
    """One line comparing two outputs' bytes (None for an output not written)."""
    if before is None or after is None:
        return "missing"
    if before == after:
        return "byte-identical"
    if before.startswith(b"# version"):
        a, b = csv_rows(before.decode()), csv_rows(after.decode())
        if len(a) == len(b) and all(x[0] == y[0] for x, y in zip(a, b)):
            scale = max(abs(complex(re, im)) for _, re, im in a)
            diff = max(abs(complex(x[1] - y[1], x[2] - y[2])) for x, y in zip(a, b))
            zero = all(x == y for x, y in zip(a, b) if x[0] == 0.0)
            return (f"max |change| / max |value| = {diff / scale if scale else diff:.2e};"
                    f" d = 0 rows {'byte-identical' if zero else 'differ'}")
        return "differs"
    try:
        return json_change(before, after) or "differs"
    except ValueError:
        return "differs"


def compare_records(before, after, key):
    """One line comparing the records of one case in two trees (None for
    a tree whose process failed)."""
    if before is None or after is None:
        return "missing"
    counts, other = before[f"counts{key}"], after[f"counts{key}"]
    if (np.array_equal(counts, other)
            and all(before[f"{name}{key}"].tobytes() == after[f"{name}{key}"].tobytes()
                    for name in ("positions", "states"))):
        return "bit-identical"
    # the positions of the records whose jump counts agree
    a = before[f"positions{key}"][np.repeat(counts == other, counts)]
    b = after[f"positions{key}"][np.repeat(counts == other, other)]
    with np.errstate(divide="ignore", invalid="ignore"):
        change = np.max(np.abs(a - b) / np.abs(a), initial=0.0)
    equal = "equal" if np.array_equal(counts, other) else (
        f"differ in {np.count_nonzero(counts != other)} of {counts.size} records")
    return f"jump counts {equal}; max relative position change {change:.2e}"


def read(path):
    return path.read_bytes() if path.exists() else None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    cases = models()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = write_jobs(work)
        arrays = {"count": len(cases), "seeds": RECORD_SEEDS, "n_traj": N_TRAJ, "length": LENGTH}
        for i, (_, k, r, rho) in enumerate(cases):
            arrays.update({f"K{i}": k, f"R{i}": r, f"rho{i}": np.zeros(0) if rho is None else rho})
        np.savez(work / "models.npz", **arrays)
        failed, records = [], []
        for name, tree in zip(("parent", "change"), argv):
            lines, tree_records = run_tree(tree, jobs, work, work / name)
            failed += [f"{name}: {line}" for line in lines]
            records.append(tree_records)
        same = 0
        for label, _, _, output in jobs:
            line = compare(read(work / "parent" / output), read(work / "change" / output))
            same += line == "byte-identical"
            print(f"{label}: {line}")
    print(f"{same} of {len(jobs)} outputs byte-identical")
    same = 0
    for i, (label, *_) in enumerate(cases):
        for seed in RECORD_SEEDS:
            line = compare_records(*records, f"{i}-{seed}")
            same += line == "bit-identical"
            print(f"{label} seed {seed}: {line}")
    print(f"{same} of {len(cases) * len(RECORD_SEEDS)} record cases bit-identical")
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
