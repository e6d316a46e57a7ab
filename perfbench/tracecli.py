"""Run one graphfp CLI command with timing wrappers, then write its spans.

Usage: python perfbench/tracecli.py SPANS.json <graphfp arguments...>

Each wrapper replaces a public name in the module that calls it (the name
``graphfp.cli.integrate``, not the function inside ``graphfp.dynamics``), so
the program runs unchanged and only calls that cross a module boundary are
timed. A span's self time is its duration minus the spans it encloses.
The JSON written holds, per layer name, the summed self
time and the call count, plus the summed duration of the root spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# module -> {name looked up there: layer name}
WRAPPED = {
    "graphfp.cli": {
        "integrate": "dynamics.integrate",
        "monitor": "dynamics.monitor",
        "gibbs": "simplex.gibbs",
        "invariant_constants": "simplex.invariant_constants",
        "geodesic_distance": "metric.geodesic_distance",
        "talagrand_constants": "inequalities.talagrand_constants",
        "w1_distance": "inequalities.w1_distance",
        "load_density": "serialize.load",
        "save_density": "serialize.write",
        "write_report": "serialize.write",
        "trajectory_to_csv": "serialize.write",
        "snapshots_to_csv": "serialize.write",
        "path_to_csv": "serialize.write",
    },
    "graphfp.dynamics": {
        "metric_inner": "metric.metric_inner",
        "free_energy": "simplex.free_energy",
        "gibbs": "simplex.gibbs",
    },
    "graphfp.inequalities": {
        "geodesic_distance": "metric.geodesic_distance",
        "w1_distance": "inequalities.w1_distance",
    },
    "graphfp.config": {
        "build_weights": "graph.build_weights",
        "gibbs": "simplex.gibbs",
    },
}
# methods of graphfp.config.ExperimentConfig, which graphfp.cli calls
WRAPPED_METHODS = {"load": "config.load", "build_spec": "config.build_spec"}


class Tracer:
    """Aggregates spans in memory. One span stack serves the whole process:
    no workload runs spans concurrently."""

    def __init__(self):
        self.self_s: dict = {}
        self.calls: dict = {}
        self.root_s = 0.0
        self.geodesic = {"iterations": 0, "converged": 0}
        self._stack: list = []   # per open span, the time covered by its child spans

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - child
                self.calls[layer] = self.calls.get(layer, 0) + 1
                if not stack:
                    self.root_s += dur
            if layer == "metric.geodesic_distance":
                self.geodesic["iterations"] += int(result.iterations)
                self.geodesic["converged"] += int(bool(result.converged))
            return result
        return timed

    def install(self) -> None:
        import importlib
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for name, layer in names.items():
                setattr(module, name, self.wrap(layer, getattr(module, name)))
        cls = importlib.import_module("graphfp.config").ExperimentConfig
        load = cls.__dict__["load"].__func__
        cls.load = classmethod(self.wrap(WRAPPED_METHODS["load"], load))
        cls.build_spec = self.wrap(WRAPPED_METHODS["build_spec"], cls.build_spec)

    def as_dict(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls, "root_s": self.root_s,
                "geodesic": self.geodesic}


def main(argv: list) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import graphfp.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = graphfp.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.as_dict(), fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
