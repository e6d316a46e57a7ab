"""Reproduce the ROADMAP "Baseline" table from one command.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py [--label NAME]

Prints the table as Markdown and writes ``.bench_results/BENCH_<label>.json``
with every figure, its samples and the machine metadata. Rows:

- ``import graphfp.cli``: wall of a bare import, and the import profile;
- fpe rhs time per evaluation at N = 40, 200, 1000, 2000;
- monitor against integrate at N = 40 and 200 on the decay horizon
  (t_end 4), with the rhs evaluations each makes;
- 32-knot geodesics at n = 6, 12, 20, 40 with iterations and segment solves;
- CLI wall time per subcommand on the shipped configs.

Timing one rhs evaluation as the integrator makes it, and counting rhs
evaluations and segment solves, use two private names
(``graphfp.dynamics._rhs_closure``, ``graphfp.metric._segment_solve``);
when a later version renames them those figures are missing or ``None``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402

SHIPPED = [  # (label, CLI arguments) on the shipped configs
    ("gibbs decay.yaml", ["gibbs", "--config", "configs/decay.yaml"]),
    ("simulate decay.yaml", ["simulate", "--config", "configs/decay.yaml"]),
    ("simulate master.yaml", ["simulate", "--config", "configs/master.yaml"]),
    ("sweep decay.yaml", ["sweep", "--config", "configs/decay.yaml"]),
    ("talagrand (10 samples)", ["talagrand", "--config", "configs/talagrand.yaml",
                                "--nu-inf", "0.5", "--nu-sup", "2.0", "--samples", "10"]),
]
REPEATS = 3   # CLI runs per row; the table reports their median
SEED = 0      # seed of the in-process instances


class Counter:
    """Counts calls of ``module.name`` (and of the closures it returns when
    ``closures`` is set) while installed."""

    def __init__(self, module, name: str, closures: bool = False):
        self.count = 0
        self.module, self.name = module, name
        self.original = getattr(module, name, None)
        if self.original is None:
            self.count = None
            return

        def counted(fn):
            def call(*args, **kwargs):
                self.count += 1
                return fn(*args, **kwargs)
            return call

        if closures:
            setattr(module, name, lambda *a, **k: counted(self.original(*a, **k)))
        else:
            setattr(module, name, counted(self.original))

    def restore(self) -> None:
        if self.original is not None:
            setattr(self.module, self.name, self.original)


def in_process(seed: int) -> dict:
    """Layer figures timed in this process."""
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import graphfp.dynamics as dynamics
    import graphfp.metric as metric
    from graphfp.simplex import invariant_constants

    out = {"rhs_fpe_us": {}, "rhs_closure_us": {}, "monitor_vs_integrate": {}, "geodesic": {}}
    for n in layers.N_GRID:
        spec, rho, _ = layers.instance(n, seed)
        # the public rhs rebuilds its masks on every call
        out["rhs_fpe_us"][n] = 1e6 * layers.per_call(
            lambda: dynamics.fokker_planck_rhs(rho, spec))
        if hasattr(dynamics, "_rhs_closure"):
            # one evaluation as the integrator makes it: masks built once per instance
            f = dynamics._rhs_closure("fpe", spec)
            out["rhs_closure_us"][n] = 1e6 * layers.per_call(lambda: f(rho.rho))
    decay = dynamics.IntegratorConfig(*layers.DECAY_HORIZON)
    for n in layers.MONITOR_GRID:
        spec, rho, _ = layers.instance(n, seed)
        rhs = Counter(dynamics, "_rhs_closure", closures=True)
        try:
            t_int, traj = layers.once(lambda: dynamics.integrate("fpe", rho, spec, decay))
            evals_int = rhs.count
            constants = invariant_constants(rho, spec)
            t_mon, _ = layers.once(lambda: dynamics.monitor(traj, constants))
            evals_mon = None if rhs.count is None else rhs.count - evals_int
        finally:
            rhs.restore()
        out["monitor_vs_integrate"][n] = {"integrate_s": t_int, "integrate_rhs_evals": evals_int,
                                          "monitor_s": t_mon, "monitor_rhs_evals": evals_mon}
    for n in layers.GEODESIC_GRID:
        spec, rho, other = layers.instance(n, seed)
        solves = Counter(metric, "_segment_solve")
        try:
            seconds, geo = layers.once(
                lambda: metric.geodesic_distance(rho, other, spec.phi, metric.GeodesicConfig()))
        finally:
            solves.restore()
        out["geodesic"][n] = {"seconds": seconds, "iterations": geo.iterations,
                              "segment_solves": solves.count, "converged": geo.converged,
                              "warnings": list(geo.warnings)}
    return out


def cli_walls() -> dict:
    env = run.child_env()
    log = os.path.join(run.ROOT, ".bench_results", "baseline_children.log")
    out_dir = os.path.join(run.ROOT, ".bench_work", "baseline")
    walls = {"import graphfp.cli": [run.run_child([sys.executable, "-c", run.BARE_IMPORT],
                                                  run.ROOT, env, log).wall
                                    for _ in range(REPEATS)]}
    codes = {}
    for label, args in SHIPPED:
        argv = [sys.executable, "-c", run.CLI, *args, "--out", os.path.join(out_dir, args[0])]
        children = [run.run_child(argv, run.ROOT, env, log) for _ in range(REPEATS)]
        walls[label] = [c.wall for c in children]
        codes[label] = sorted({c.code for c in children})
    return {"walls": walls, "exit_codes": codes}


def table(res: dict) -> str:
    imp = res["import_profile"]
    walls = {k: statistics.median(v) for k, v in res["cli"]["walls"].items()}
    rows = [
        ("`import graphfp.cli`",
         f"{walls['import graphfp.cli']:.2f} s wall; import profile {imp['import.total_s']:.2f} s: "
         f"scipy {imp['import.scipy_s']:.2f} s, numpy {imp['import.numpy_s']:.2f} s, "
         f"graphfp {imp['import.graphfp_s']:.2f} s"),
        ("CLI wall", ", ".join(f"`{k}` {v:.2f} s" for k, v in walls.items()
                               if k != "import graphfp.cli")),
        ("fpe rhs per eval", ", ".join(
            f"{v:.0f} µs (N={n})" for n, v in res["in_process"]["rhs_closure_us"].items())
         + "; public `fokker_planck_rhs`, masks rebuilt per call: " + ", ".join(
            f"{v:.0f} µs (N={n})" for n, v in res["in_process"]["rhs_fpe_us"].items())),
        ("Monitor vs integrate", "; ".join(
            f"N={n}: {v['monitor_s']:.2f} s / {v['monitor_rhs_evals']} rhs evals vs "
            f"{v['integrate_s']:.2f} s / {v['integrate_rhs_evals']}"
            for n, v in res["in_process"]["monitor_vs_integrate"].items())),
        ("Geodesic, 32 knots", "; ".join(
            f"n={n}: {v['seconds']:.2f} s, {v['iterations']} iterations, "
            f"{v['segment_solves']} segment solves, converged={v['converged']}"
            for n, v in res["in_process"]["geodesic"].items())),
    ]
    lines = ["| What | Number |", "|---|---|"] + [f"| {a} | {b} |" for a, b in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Reproduce the ROADMAP Baseline table.")
    ap.add_argument("--label", default="baseline")
    args = ap.parse_args(argv)
    os.makedirs(os.path.join(run.ROOT, ".bench_results"), exist_ok=True)
    started = time.time()
    res = {"label": args.label, "started_unix": started, "machine": run.machine_metadata(),
           "cli": cli_walls(),
           "import_profile": run.import_profile(run.child_env(), run.ROOT),
           "in_process": in_process(SEED)}
    path = os.path.join(run.ROOT, ".bench_results", f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    print(table(res))
    print(f"\nwritten to {os.path.relpath(path, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
