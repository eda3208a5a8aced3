"""Compare the CLI outputs of two source trees on every benchmark config.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository (directories holding
`src/cmps_lab`).  Every job of `perfbench/workloads.make_jobs` (every
workload, seeds 1 to 3, full size and smoke) is written once as a config
file, from this checkout's `perfbench`, and run through each tree's
`cmps_lab.cli.main`, all jobs of one tree in one fresh process with BLAS
pinned to one thread.  Each output gets one line: "byte-identical"; for
a CSV separation scan the largest change of a value relative to the
largest |value| and whether its d = 0 rows are byte-identical; for a JSON
output with the same structure and the same non-numeric values the
largest |change| / |value| over its numbers, a {re, im} pair read as one
complex number, and the key path of that number; "differs" for any other
output.  The exit status is 1 when a job fails in either tree, else 0.
"""

import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import WORKLOADS, make_jobs  # noqa: E402

SEEDS = (1, 2, 3)

# run in a fresh interpreter per tree: argv[1] is the tree's src, argv[2] the
# job list; prints one line per job that exits non-zero
RUNNER = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from cmps_lab import cli
for command, config, output in json.loads(Path(sys.argv[2]).read_text()):
    code = cli.main([command, "--config", config, "--output", output])
    if code:
        print(f"{output}: exit {code}")
"""


def write_jobs(work):
    """Write every config once; return [(label, command, config, output name)]."""
    jobs = []
    for workload in WORKLOADS:
        for seed in SEEDS:
            for smoke in (False, True):
                for job in make_jobs(workload, seed, smoke):
                    label = f"{workload} seed {seed} {'smoke' if smoke else 'full'} {job.command}"
                    stem = label.replace(" ", "-")
                    config = work / f"{stem}.config.json"
                    config.write_text(json.dumps(job.config), encoding="utf-8")
                    ext = "csv" if job.command in ("correlate", "g2") else "json"
                    jobs.append((label, job.command, str(config), f"{stem}.{ext}"))
    return jobs


def run_tree(tree, jobs, out):
    """Run every job through the tree's CLI in one fresh process; return
    the lines naming failed jobs."""
    out.mkdir()
    manifest = out / "jobs.json"
    manifest.write_text(json.dumps([(cmd, cfg, str(out / name)) for _, cmd, cfg, name in jobs]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUNNER, str(Path(tree).resolve() / "src"), str(manifest)],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


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


def read(path):
    return path.read_bytes() if path.exists() else None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tools/compare_outputs.py PARENT CHANGE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        jobs = write_jobs(work)
        failed = []
        for name, tree in zip(("parent", "change"), argv):
            failed += [f"{name}: {line}" for line in run_tree(tree, jobs, work / name)]
        same = 0
        for label, _, _, output in jobs:
            line = compare(read(work / "parent" / output), read(work / "change" / output))
            same += line == "byte-identical"
            print(f"{label}: {line}")
    print(f"{same} of {len(jobs)} outputs byte-identical")
    for line in failed:
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
