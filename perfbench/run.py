"""graphfp benchmark entry point.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload relax --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from the seed, then runs its graphfp CLI
commands as subprocesses in a closed loop with one client (one command at
a time, each started after the previous one ended) for ``--seconds``, and
checks every output. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes over the same commands and reports the
per-layer metrics (see NOTES.md). A result file with the machine metadata
and every sample goes to ``.bench_results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

DEFAULT_SEED = 1          # the seed whose outputs are compared with golden.json
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_REPEATS = 5         # bare imports per run for setup_s
IMPORTTIME_REPEATS = 3
COMMAND_TIMEOUT_S = 150.0
CLI = "from graphfp.cli import entry; entry()"   # what the graphfp console script runs
BARE_IMPORT = "import graphfp.cli"

END_TO_END = {            # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# Wrapped layers (see tracecli.py) reported as summed self time; the ones
# marked with calls also report their call count.
SPAN_LAYERS = {
    "config.load": False, "config.build_spec": False, "graph.build_weights": False,
    "simplex.gibbs": False, "simplex.invariant_constants": False, "simplex.free_energy": True,
    "dynamics.integrate": False, "dynamics.monitor": False,
    "metric.metric_inner": True, "metric.geodesic_distance": True,
    "inequalities.talagrand_constants": False, "inequalities.w1_distance": False,
}
SERIALIZE_LAYERS = {"serialize.write": "serialize.write_s", "serialize.load": "serialize.load_s"}
NO_SPANS = {"self_s": {}, "calls": {}, "root_s": 0.0, "geodesic": {"iterations": 0, "converged": 0}}


def _grid(prefix: str, sizes, tag: str = "N") -> list:
    return [f"{prefix}.{tag}{n}" for n in sizes]


def per_layer_names() -> list:
    """Every per-layer metric a traced run reports, in BENCHMARK.json order."""
    from layers import GEODESIC_GRID, INTEGRATE_GRID, MONITOR_GRID, N_GRID, W1_GRID
    names = ["import.total_s", "import.numpy_s", "import.scipy_s", "import.graphfp_s"]
    for layer, counted in SPAN_LAYERS.items():
        names.append(f"{layer}_s")
        if counted:
            names.append(f"{layer}.calls")
    names += ["metric.geodesic.iterations", "metric.geodesic.converged_frac"]
    names += list(SERIALIZE_LAYERS.values()) + ["cli.self_s", "trace.overhead_s"]
    names += _grid("simplex.free_energy_us", N_GRID)
    names += _grid("dynamics.rhs_fpe_us", N_GRID) + _grid("dynamics.rhs_phibar_us", N_GRID)
    names += _grid("dynamics.integrate_fpe_s", INTEGRATE_GRID)
    names += _grid("dynamics.monitor_s", MONITOR_GRID)
    names += _grid("metric.apply_mobility_us", N_GRID) + _grid("metric.invert_mobility_ms", N_GRID)
    names += _grid("metric.geodesic_s", GEODESIC_GRID, "n")
    names += _grid("metric.geodesic.iterations", GEODESIC_GRID, "n")
    names += _grid("inequalities.w1_distance_ms", W1_GRID)
    return names


def per_layer_unit(name: str) -> str:
    base = re.sub(r"\.[Nn]\d+$", "", name)   # drop a size tag such as .N200
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_frac", "ratio")):
        if base.endswith(suffix):
            return unit
    return "count"


# -- child processes ---------------------------------------------------------

class Child:
    """Wall time, CPU time, peak RSS and exit code of one finished child."""

    def __init__(self, wall: float, cpu: float, rss_mb: float, code: int):
        self.wall, self.cpu, self.rss_mb, self.code = wall, cpu, rss_mb, code


def run_child(argv: list, cwd: str, env: dict, log_path: str) -> Child:
    """Run one child to completion; its own rusage comes from os.wait4."""
    with open(log_path, "ab") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode)


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- metadata -----------------------------------------------------------------

def _blas_threads():
    """OpenBLAS thread count as numpy's bundled library reports it, or None."""
    import ctypes
    import glob
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        dll = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_metadata() -> dict:
    import numpy as np
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}},
    }


# -- import profile -------------------------------------------------------------

def parse_importtime(stderr: str) -> dict:
    """import.* seconds from ``python -X importtime -c 'import graphfp.cli'``.

    Only lines after interpreter start-up (the ``site`` entry) count. The
    package figures sum the self time of every module of that package.
    """
    rows = []   # (self us, cumulative us, nesting depth, module)
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        module = name.strip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((int(self_us), int(cum_us), depth, module))
    starts = [i for i, r in enumerate(rows) if r[2] == 0 and r[3] == "site"]
    rows = rows[starts[-1] + 1:] if starts else rows
    out = {"import.total_s": sum(r[1] for r in rows if r[2] == 0) / 1e6}
    for pkg in ("numpy", "scipy", "graphfp"):
        out[f"import.{pkg}_s"] = sum(r[0] for r in rows if r[3].split(".")[0] == pkg) / 1e6
    return out


def import_profile(env: dict, scratch: str) -> dict:
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", BARE_IMPORT],
                              cwd=scratch, env=env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"bare import failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


# -- one pass over a workload's commands -------------------------------------------

class Runner:
    def __init__(self, workload: str, seed: int, workdir: str, golden: dict | None):
        self.workdir = workdir
        self.env = child_env()
        self.log = os.path.join(workdir, "children.log")
        self.commands = generate(workload, seed, workdir)
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.observed: dict = {}

    def run_command(self, cmd, traced: bool = False) -> tuple:
        shutil.rmtree(os.path.join(self.workdir, cmd.out), ignore_errors=True)
        spans_path = os.path.join(self.workdir, f"spans_{cmd.name}.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        if traced:
            prefix = [sys.executable, os.path.join(HERE, "tracecli.py"), spans_path]
        else:
            prefix = [sys.executable, "-c", CLI]
        child = run_child(prefix + list(cmd.args), self.workdir, self.env, self.log)
        problems, observed = checks.check(cmd, self.workdir, child.code)
        if self.golden is not None and cmd.name in self.golden:
            problems += checks.compare_golden(cmd.name, observed, self.golden[cmd.name])
        self.attempted += 1
        self.problems += [f"{cmd.name}: {p}" for p in problems]
        self.failed += bool(problems)
        self.observed[cmd.name] = observed
        spans = None
        if traced:
            spans = NO_SPANS
            if os.path.exists(spans_path):   # absent when the command died early
                with open(spans_path, "r", encoding="utf-8") as fh:
                    spans = json.load(fh)
        return child, spans

    def bare_import(self) -> float:
        return run_child([sys.executable, "-c", BARE_IMPORT], self.workdir, self.env,
                         self.log).wall

    def run_pass(self, traced: bool = False) -> tuple:
        """(per-command children, per-command spans) of one pass."""
        children, spans = {}, {}
        for cmd in self.commands:
            children[cmd.name], spans[cmd.name] = self.run_command(cmd, traced)
        return children, spans


def repeat_for(seconds: float, fn, min_count: int = 2) -> list:
    """Call ``fn`` at least ``min_count`` times, then while another call,
    at the mean duration so far, would still end within ``seconds``."""
    results = []
    t0 = time.perf_counter()
    while True:
        results.append(fn())
        elapsed = time.perf_counter() - t0
        if len(results) >= min_count and elapsed * (1 + 1 / len(results)) > seconds:
            return results


def _sum_of_medians(passes: list, attr: str) -> float:
    names = passes[0].keys()
    return sum(statistics.median(getattr(p[n], attr) for p in passes) for n in names)


def end_to_end(runner: Runner, seconds: float) -> tuple:
    runner.bare_import()   # warm-up: byte-compiles the package on a fresh checkout
    setup = [runner.bare_import() for _ in range(SETUP_REPEATS)]
    passes = [p[0] for p in repeat_for(seconds, runner.run_pass)]
    metrics = {
        # medians per command, summed over the sequence
        "wall_s": _sum_of_medians(passes, "wall"),
        "setup_s": statistics.median(setup),
        "cpu_s": _sum_of_medians(passes, "cpu"),
        "peak_rss_mb": max(c.rss_mb for p in passes for c in p.values()),
        "ok_frac": 1.0 - runner.failed / runner.attempted,
    }
    samples = {"setup_s": setup,
               "passes": [{n: vars(c) for n, c in p.items()} for p in passes]}
    return metrics, samples


def _layer_totals(spans: dict) -> dict:
    """Per-layer sums over one traced pass (all commands)."""
    self_s, calls = {}, {}
    root = iterations = converged = 0.0
    for s in spans.values():
        for k, v in s["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in s["calls"].items():
            calls[k] = calls.get(k, 0) + v
        root += s["root_s"]
        iterations += s["geodesic"]["iterations"]
        converged += s["geodesic"]["converged"]
    geo_calls = calls.get("metric.geodesic_distance", 0)
    out = {}
    for layer, counted in SPAN_LAYERS.items():
        out[f"{layer}_s"] = self_s.get(layer, 0.0)
        if counted:
            out[f"{layer}.calls"] = calls.get(layer, 0)
    for layer, name in SERIALIZE_LAYERS.items():
        out[name] = self_s.get(layer, 0.0)
    out["metric.geodesic.iterations"] = iterations
    out["metric.geodesic.converged_frac"] = converged / geo_calls if geo_calls else 0.0
    out["_root_s"] = root
    return out


def traced(runner: Runner, seconds: float, seed: int) -> tuple:
    scratch = runner.workdir
    metrics = import_profile(runner.env, scratch)
    pairs = repeat_for(seconds, lambda: (runner.run_pass()[0], runner.run_pass(traced=True)),
                       min_count=1)
    plain = [p[0] for p in pairs]
    traced_passes = [p[1][0] for p in pairs]
    totals = [_layer_totals(p[1][1]) for p in pairs]
    for name in totals[0]:
        if not name.startswith("_"):
            metrics[name] = statistics.median(t[name] for t in totals)
    walls = [sum(c.wall for c in p.values()) for p in traced_passes]
    metrics["cli.self_s"] = statistics.median(w - t["_root_s"] for w, t in zip(walls, totals))
    metrics["trace.overhead_s"] = (statistics.median(walls)
                                   - statistics.median(sum(c.wall for c in p.values())
                                                       for p in plain))
    layers_json = os.path.join(scratch, "layers.json")
    child = run_child([sys.executable, os.path.join(HERE, "layers.py"), layers_json,
                       "--seed", str(seed)], scratch, runner.env, runner.log)
    if child.code != 0:
        raise RuntimeError(f"layers.py exited with {child.code}; see {runner.log}")
    with open(layers_json, "r", encoding="utf-8") as fh:
        metrics.update(json.load(fh))
    samples = {"plain": [{n: vars(c) for n, c in p.items()} for p in plain],
               "traced": [{n: vars(c) for n, c in p.items()} for p in traced_passes],
               "layer_totals": totals}
    return metrics, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's observed values as golden.json (default seed only)")
    args = ap.parse_args(argv)
    if args.write_golden and args.seed != DEFAULT_SEED:
        ap.error("--write-golden records the default seed only")
    if not os.path.isfile(os.path.join(ROOT, "src", "graphfp", "cli.py")):
        print(f"perfbench: no graphfp sources under {ROOT}/src", file=sys.stderr)
        return 2
    golden = None
    if args.seed == DEFAULT_SEED and not args.write_golden:
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            golden = json.load(fh).get(args.workload, {})

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(args.workload, args.seed, workdir, golden)
    started = time.time()
    if args.trace:
        values, samples = traced(runner, args.seconds, args.seed)
        names = per_layer_names()
        metrics = {n: {"value": values[n], "unit": per_layer_unit(n)} for n in names}
    else:
        values, samples = end_to_end(runner, args.seconds)
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}

    failed = runner.failed
    for problem in runner.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)

    if args.write_golden:
        recorded = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, "r", encoding="utf-8") as fh:
                recorded = json.load(fh)
        recorded[args.workload] = {k: v for k, v in runner.observed.items() if v}
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(recorded, fh, indent=1, sort_keys=True)
            fh.write("\n")

    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    results_dir = os.path.join(ROOT, ".bench_results")
    os.makedirs(results_dir, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "started_unix": started, "machine": machine_metadata(),
              "commands": [list(c.args) for c in runner.commands],
              "problems": runner.problems, "result": result, "samples": samples}
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
