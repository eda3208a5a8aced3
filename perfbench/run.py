"""cmps-lab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout (the directory holding `src/`).
Workloads are defined in workloads.py and described in README.md.  An
untraced run splits `--seconds` over `WORKERS` fresh worker processes
(worker.py), one after another, with BLAS pinned to `BLAS_THREADS`
threads.  Each worker reports every command's job time in calibrated
seconds (README.md, "Calibration"); the run reports, per command, the
median over workers.  `setup_s` (interpreter start, config generation,
`import cmps_lab`) is each worker's set-up time scaled by the same
calibration, median over the workers.  A traced run uses one worker and
reports raw times.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`.  The line before it records the
environment.  The full result (samples, failures, per-job layer totals and,
when traced, every span) goes to `perfbench/results/`.  `--smoke` runs
every job once at probe size; selftest.py uses it.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# One BLAS thread: with two, OpenBLAS made the D = 8 jobs about six times
# slower and three times noisier on a 2-core machine.
BLAS_THREADS = 1
WORKERS = 5
DEADLINE_S = 170.0  # every run must end within 180 s


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true", help="every job once, probe size")
    return p.parse_args(argv)


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _worker(args, seconds, work_dir, env, timeout):
    """Run one fresh worker; returns (its result, seconds from spawn to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if args.smoke:
        cmd.append("--smoke")
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def _combine(results, setups, cal_ref_s):
    """Median over workers of each metric; setup_s is the median calibrated set-up time."""
    metrics = {name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                      "unit": first["unit"]}
               for name, first in results[0]["metrics"].items()}
    if "peak_rss_mb" in metrics:
        metrics["peak_rss_mb"]["value"] = max(r["metrics"]["peak_rss_mb"]["value"] for r in results)
        times = [m for m in metrics if m.endswith("_s") and m != "setup_s"]
        metrics["wall_s"] = {"value": sum(metrics[m]["value"] for m in times), "unit": "s"}
        calibrated = [s * cal_ref_s / r["calibration_s"] for s, r in zip(setups, results)]
        metrics["setup_s"] = {"value": statistics.median(calibrated), "unit": "s"}
    return metrics


def main(argv=None):
    args = _parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "cmps_lab" / "__init__.py").is_file():
        print(f"error: no cmps_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from worker import CAL_REF_S
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    workers = 1 if args.trace or args.smoke else WORKERS
    RESULTS.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="work-", dir=RESULTS))
    results, setups = [], []
    try:
        for _ in range(workers):
            remaining = DEADLINE_S - (time.monotonic() - started)
            result, setup = _worker(args, args.seconds / workers, work_dir, env, remaining)
            results.append(result)
            setups.append(setup)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env_record = dict(results[0]["env"], git_commit=_git_commit(),
                      source_digest=_source_digest(), workers=workers, setup_samples_s=setups)
    failures = [f for r in results for f in r["failures"]]
    line = {"correct": not failures, "attempted": sum(r["attempted"] for r in results),
            "failed": len(failures), "metrics": dict(sorted(_combine(results, setups, CAL_REF_S).items()))}

    record = {"env": env_record, "args": vars(args), **line, "failures": failures,
              "workers": [{k: v for k, v in r.items() if k != "env"} for r in results]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for failure in failures:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps({"env": env_record}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
