"""Benchmark self-test: every workload once, at probe size.

    python3 perfbench/selftest.py

For each workload it makes one untraced and one traced smoke run through
run.py and checks that
  1. every job passes its output check;
  2. every metric BENCHMARK.json names is printed, with its unit;
  3. the traced per-layer self times plus `cli.self_s` account for the job
     times the worker clocks around each job, outside the tracer;
  4. every traced layer is reached: each per-layer metric except
     `traced.overhead_s` is non-zero, `correlate` and `g2` make one `expm`
     per non-zero separation, and `zfunctional-check` rebuilds the fixed
     point more than once.
Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _run(workload, trace):
    """One smoke run; returns its result line and its full results file."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    record = HERE / "results" / f"{workload}-seed{SEED}-trace{trace}-smoke.json"
    return json.loads(lines[-1]), json.loads(record.read_text(encoding="utf-8"))


def _missing(line, specs):
    out = []
    for spec in specs:
        got = line["metrics"].get(spec["name"])
        if got is None or got.get("unit") != spec["unit"]:
            out.append(f"{spec['name']} [{spec['unit']}] -> {got}")
    return out


def _traced_problems(workload, metrics, worker):
    """Checks 3 and 4 on one traced smoke run."""
    problems = []
    self_s = sum(v["value"] for k, v in metrics.items() if k.endswith(".s"))
    self_s += metrics["cli.self_s"]["value"]
    clocked = sum(worker["traced_job_s"].values())
    if abs(self_s - clocked) > 0.01 * clocked:
        problems.append(f"self times sum to {self_s:.6f} s, the jobs took {clocked:.6f} s")
    problems += [f"{name} is {v['value']}" for name, v in metrics.items()
                 if name != "traced.overhead_s" and not v["value"] > 0]
    per_job = worker["per_job"]
    for job in workloads.make_jobs(workload, SEED, smoke=True):
        if job.command in ("correlate", "g2"):
            want = sum(1 for d in job.config["separations"] if d != 0)
            got = per_job.get(f"{job.command}/linalg.expm", {}).get("calls", 0)
            if got != want:
                problems.append(f"{job.command}: {got} expm calls for {want} separations")
    rebuilds = per_job.get("zfunctional-check/liouville.steady_state", {}).get("calls", 0)
    if rebuilds < 2:
        problems.append(f"zfunctional-check: steady_state called {rebuilds} times")
    return problems


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            line, record = _run(workload, trace)
            tag = f"{workload} trace={trace}"
            if line["failed"] or not line["correct"]:
                problems.append(f"{tag}: {line['failed']} of {line['attempted']} jobs failed")
            problems += [f"{tag}: missing metric {m}" for m in _missing(line, specs)]
            if trace:
                problems += [f"{tag}: {p}" for p in
                             _traced_problems(workload, line["metrics"], record["workers"][0])]
            print(f"{tag}: {line['attempted']} jobs, {line['failed']} failed", flush=True)
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
