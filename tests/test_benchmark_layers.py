"""The benchmark's per-layer metric names point at attributes of the package.

The tracer in `perfbench/tracing.py` wraps `cmps_lab.<module>.<attr>` for
every per-layer metric `<module>.<attr>.<field>` in `BENCHMARK.json`; a
name that no longer resolves breaks every traced run.  The file is only
read here.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# kernels, the CLI's own figures and derived counts, not package attributes
NOT_TRACED = ("linalg.", "cli.", "traced.")
DERIVED = {"trajectories.jumps", "trajectories.jumps_per_s"}


def test_every_traced_layer_name_resolves():
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    layers = {name.rsplit(".", 1)[0] for name in names
              if not name.startswith(NOT_TRACED) and name not in DERIVED}
    assert layers  # the file still lists package layers
    missing = []
    for layer in sorted(layers):
        module, attr = layer.split(".")
        if not callable(getattr(importlib.import_module(f"cmps_lab.{module}"), attr, None)):
            missing.append(layer)
    assert not missing, f"BENCHMARK.json traces layers the package lacks: {missing}"
