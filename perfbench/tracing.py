"""Spans around the calls into each cmps_lab layer, recorded from outside.

The package itself carries no tracing.  A `Tracer` is given layer names:
`liouville.steady_state` names `cmps_lab.liouville.steady_state`, and
`linalg.expm` / `linalg.eig` name `scipy.linalg.expm` / `numpy.linalg.eig`,
which the package reaches by attribute lookup.  It replaces each function
by a wrapper on every module attribute the code resolves it through (for
example `steady_state` is bound in `liouville`, `correlators`,
`trajectories` and `cli`), and puts the originals back on exit.

A span records name, start, end, parent span and job.  Spans stay in memory
until the run ends.  A span's self time is its duration minus the time its
direct children cover; the root span of every job is `cli.main`, so the
self times of all spans add up to the summed job time.
"""

import functools
import sys
import time
from dataclasses import dataclass, field

# the two linear-algebra kernels the package reaches by attribute lookup
KERNELS = {
    "linalg.expm": ("scipy.linalg", "expm"),
    "linalg.eig": ("numpy.linalg", "eig"),
}
ROOT = "cli.main"


@dataclass
class Span:
    name: str
    job: str
    parent: int | None
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def self_s(self):
        return (self.end - self.start) - self.children_s


def _work(name, args, result):
    """Work counts taken at the boundary: matrix size, jumps sampled."""
    if name in ("linalg.expm", "linalg.eig"):
        return {"n": int(args[0].shape[0])}
    if name == "trajectories.sample_ensemble":
        return {"jumps": int(sum(r.positions.size for r in result))}
    return {}


def target(layer):
    """(module, attribute) that a layer name such as `liouville.steady_state` traces."""
    if layer in KERNELS:
        return KERNELS[layer]
    module, attr = layer.rsplit(".", 1)
    return f"cmps_lab.{module}", attr


class Tracer:
    """Context manager that wraps each named layer; `job(name)` runs a root span."""

    def __init__(self, layers):
        self.layers = sorted(layers)
        self.spans = []
        self._stack = []
        self._job = None
        self._patched = []

    def __enter__(self):
        for name in self.layers:
            module_name, attr = target(name)
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(name, original)
            homes = [sys.modules[module_name]] + [
                mod for key, mod in list(sys.modules.items())
                if key.split(".")[0] == "cmps_lab" and mod is not None]
            for mod in homes:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        return self

    def __exit__(self, *exc):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._job, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].children_s += span.end - span.start

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:  # outside a job, e.g. in an output check
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.work = _work(name, args, result)
            return result
        return traced

    def job(self, job_name, fn, *args):
        """Run fn(*args) as the root span of one job."""
        self._job = job_name
        span = self._open(ROOT)
        try:
            result = fn(*args)
        finally:
            self._close(span)
            self._job = None
        return result
