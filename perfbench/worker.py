"""One workload in one fresh process: set up, run the jobs, check, report.

Started by run.py with BLAS threads already pinned in its environment.  It
imports the checkout's `src/cmps_lab`, writes the workload's configs, and
drives `cmps_lab.cli.main([...])` in-process as one closed-loop client: a
job starts only when the previous one has finished.

Untraced (`--trace 0`) it first runs every command once at probe size to
warm up, then repeats passes over the workload's jobs, each job once per
pass, while the next pass still fits in `--seconds`.  Every job runs right
after `calibrate()`, and each command reports `CAL_REF_S` times the median
of job time / calibration time (why: README.md, "Calibration").  Traced
(`--trace 1`) it warms up, runs one untraced pass and then one pass under
the tracer, so counts repeat exactly between runs.

Every execution's output is checked outside the timed region.  The last
line on stdout is one JSON object for run.py.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent

# calibrate()'s time in a worker on an unloaded 2-core Intel Xeon VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one thread); only sets the scale
# of the figures (README.md, "Calibration")
CAL_REF_S = 0.0036
_CAL_RNG = np.random.default_rng(0)
_CAL_MATMUL = _CAL_RNG.normal(size=(96, 96)) + 1j * _CAL_RNG.normal(size=(96, 96))
_CAL_EIG = _CAL_RNG.normal(size=(64, 64))

# Per-layer metrics (BENCHMARK.json) are `<layer>.<field>` of the traced
# layer totals, except these two and the DERIVED ones.
SPECIAL = {
    "trajectories.jumps": ("trajectories.sample_ensemble", "jumps"),
    "cli.self_s": (tracing.ROOT, "s"),
}
# computed from the whole traced pass rather than from one layer
DERIVED = ("trajectories.jumps_per_s", "cli.output_bytes", "traced.wall_s", "traced.overhead_s")


def _layer_field(name):
    """(layer, field) behind a per-layer metric, e.g. `linalg.expm.calls`."""
    return SPECIAL.get(name) or tuple(name.rsplit(".", 1))


def _per_layer_specs():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"]) for m in bench["per_layer"]]


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--work-dir", required=True)
    return p.parse_args(argv)


class Runner:
    """Runs jobs through the CLI, checks every output, keeps the tallies."""

    def __init__(self, cli, checks, work_dir):
        self.cli = cli
        self.checks = checks
        self.work_dir = work_dir
        self.attempted = 0
        self.failures = []
        self.output_bytes = 0
        self._refs = {}
        self._paths = {}

    def write_configs(self, jobs, tag):
        for job in jobs:
            cfg = self.work_dir / f"{tag}-{job.command}.config.json"
            ext = "csv" if job.command in ("correlate", "g2") else "json"
            out = self.work_dir / f"{tag}-{job.command}.{ext}"
            cfg.write_text(json.dumps(job.config), encoding="utf-8")
            self._paths[(tag, job.command)] = (str(cfg), str(out))

    def run(self, job, tag, tracer=None, tally=True):
        """One timed execution plus its (untimed) check; returns seconds.

        With tally=False (warm-up) the execution is neither counted nor checked.
        """
        cfg, out = self._paths[(tag, job.command)]
        Path(out).unlink(missing_ok=True)  # a run that writes nothing must not pass
        argv = [job.command, "--config", cfg, "--output", out]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.main(argv)
            else:
                code = tracer.job(job.command, self.cli.main, argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark abort
            traceback.print_exc()
            code = repr(exc)
        seconds = time.perf_counter() - t0
        if not tally:
            return seconds
        self.attempted += 1
        if code != 0:
            self.failures.append(f"{job.command}: exit {code}")
            return seconds
        key = (tag, job.command)

        def cache(fn):
            if key not in self._refs:
                self._refs[key] = fn()
            return self._refs[key]

        try:
            self.output_bytes += os.path.getsize(out)
            self.checks.CHECKS[job.command](job.config, out, cache)
        except Exception as exc:  # any bad output is a failed operation
            self.failures.append(f"{job.command}: {exc!r}")
        return seconds


def _layer_totals(spans, key=lambda s: s.name):
    totals = defaultdict(lambda: {"calls": 0, "s": 0.0, "max_n": 0, "bytes": 0, "jumps": 0})
    for span in spans:
        t = totals[key(span)]
        t["calls"] += 1
        t["s"] += span.self_s
        n = span.work.get("n")
        if n is not None:
            t["max_n"] = max(t["max_n"], n)
            t["bytes"] += 16 * n * n
        t["jumps"] += span.work.get("jumps", 0)
    return totals


def calibrate():
    """Fixed reference work: an interpreter loop, BLAS products and a LAPACK
    eigensolve, weighted as README.md, "Calibration" says.  Returns seconds."""
    t0 = time.perf_counter()
    x = 0
    for i in range(12000):
        x += i * i
    for _ in range(12):
        _CAL_MATMUL @ _CAL_MATMUL
    np.linalg.eigvals(_CAL_EIG)
    return time.perf_counter() - t0


def _pass(runner, jobs, tracer=None):
    """Every job once; returns {command: seconds}."""
    return {job.command: runner.run(job, "job", tracer) for job in jobs}


def _environment(workload, seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    kernels = sys.modules.get("cmps_lab._kernels")  # recorded only while it exists
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "process_threads": len(os.listdir("/proc/self/task")),
        "kernel_backend": kernels.backend_name() if kernels is not None else None,
    }


def main(argv=None):
    args = _parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work_dir = Path(args.work_dir)
    jobs = workloads.make_jobs(args.workload, args.seed, smoke=args.smoke)
    warm = workloads.make_jobs(args.workload, args.seed, smoke=True)
    import cmps_lab.cli
    import checks
    runner = Runner(cmps_lab.cli, checks, work_dir)
    runner.write_configs(jobs, "job")
    runner.write_configs(warm, "warm")
    ready = time.monotonic()
    env = _environment(args.workload, args.seed)
    for job in warm:  # first-call costs (lazy imports, caches) stay out of the figures
        runner.run(job, "warm", tally=False)
    payload = {"ready": ready, "env": env}

    if args.trace:
        specs = _per_layer_specs()
        layers = {_layer_field(name)[0] for name, _ in specs if name not in DERIVED}
        untraced = _pass(runner, jobs)
        runner.output_bytes = 0
        with tracing.Tracer(layers - {tracing.ROOT}) as tracer:
            traced = _pass(runner, jobs, tracer)
        totals = _layer_totals(tracer.spans)
        wall = sum(s.end - s.start for s in tracer.spans if s.parent is None)
        sampled = totals["trajectories.sample_ensemble"]
        jumps_per_s = sampled["jumps"] / sampled["s"] if sampled["s"] > 0 else 0.0
        derived = {
            "trajectories.jumps_per_s": jumps_per_s,
            "cli.output_bytes": runner.output_bytes,
            "traced.wall_s": wall,
            "traced.overhead_s": wall - sum(untraced.values()),
        }
        metrics = {}
        for name, unit in specs:
            if name in DERIVED:
                metrics[name] = (derived[name], unit)
            else:
                layer, fld = _layer_field(name)
                metrics[name] = (totals[layer][fld], unit)
        by_job = _layer_totals(tracer.spans, key=lambda s: (s.job, s.name))
        payload["per_job"] = {f"{job}/{name}": t for (job, name), t in sorted(by_job.items())}
        payload["traced_job_s"] = traced  # timed around each job, not by the tracer
        payload["spans"] = [[s.name, s.job, s.parent, s.start, s.end] for s in tracer.spans]
    else:
        deadline = time.perf_counter() + args.seconds
        samples, calibrations = defaultdict(list), defaultdict(list)
        while True:
            p0 = time.perf_counter()
            for job in jobs:
                calibrations[job.command].append(calibrate())
                samples[job.command].append(runner.run(job, "job"))
            last = time.perf_counter() - p0
            if args.smoke or time.perf_counter() + last > deadline:
                break
        metrics = {f"{c}_s": (CAL_REF_S * statistics.median(
            t / cal for t, cal in zip(ts, calibrations[c])), "s") for c, ts in samples.items()}
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        payload.update(samples=dict(samples), calibrations=dict(calibrations),
                       calibration_s=statistics.median(
                           c for cs in calibrations.values() for c in cs))

    payload.update(attempted=runner.attempted, failures=runner.failures,
                   metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
