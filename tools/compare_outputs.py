"""Compare the CLI outputs of two source trees on every benchmark config.

    python3 tools/compare_outputs.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository (directories holding
`src/cmps_lab`).  Every job of `perfbench/workloads.make_jobs` (every
workload, seeds 1 to 3, full size and smoke) is written once as a config
file, from this checkout's `perfbench`, and run through each tree's
`cmps_lab.cli.main`, all jobs of one tree in one fresh process with BLAS
pinned to one thread.  Each output gets one line: "byte-identical", or for
a CSV separation scan the largest change of a value relative to the
largest |value| and whether its d = 0 rows are byte-identical, or
"differs" for any other output.  The exit status is 1 when a job fails in
either tree, else 0.
"""

import json
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
