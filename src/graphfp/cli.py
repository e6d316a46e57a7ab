"""Experiment command line.

Subcommands: gibbs, simulate, metric, talagrand, w1, sweep. Every command
reads one config file (``--config``), applies key overrides (``--set``),
and writes machine-readable outputs that embed the resolved config and
seed. Exit codes: 0 success, 2 config/usage error, 3 runtime or numerical
failure (including failed verifications). The library checks its inputs
and raises; ``main`` maps the exception class to the exit code. Importing
this module loads no numpy: a command loads the library modules it runs
when it is dispatched.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import os
import sys

# The commands call BLAS only on vectors and on the small Q x Q systems of
# the tie-group quadrature, where a thread pool gains nothing while its
# start-up and spinning workers cost CPU time in every short process. Set
# before numpy loads; a value the user set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import _EXPORTS, _MODULE_OF
from .errors import (ConvergenceError, InsufficientDataError, InvariantBreachError,
                     StiffnessError, TruncationError)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# exit 3, or an error row of a sweep
NUMERICAL_FAILURES = (StiffnessError, ConvergenceError, InvariantBreachError)

# Most samples one talagrand run may take: each is one geodesic and one
# entry of the report.
MAX_SAMPLES = 10 ** 4

# Every command reads its config and writes a report, and config loads simplex.
_COMMON = ("config", "serialize", "simplex")


def _load(module: str) -> None:
    """Load library ``module`` and bind the names the package exports from
    it as globals here, unless one is bound already: what a test or a
    tracer puts in its place, before or after the load, is what the
    commands call. A module is loaded when a command that runs it is
    dispatched, so importing this module, --help and usage errors load
    neither numpy nor the library."""
    package = sys.modules[__package__]   # its first name loads the module
    for name in _EXPORTS[module]:
        globals().setdefault(name, getattr(package, name))


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


def _add_common(sub):
    sub.add_argument("--config", default=None, help="experiment config file (YAML or JSON)")
    sub.add_argument("--out", default=None, help="output directory (overrides config)")
    sub.add_argument("--seed", type=int, default=None, help="seed override")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override one config key, e.g. graph.N=50")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphfp", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gibbs", help="write the stationary density and constants")
    _add_common(p)
    p.set_defaults(func=cmd_gibbs, modules=())

    p = subs.add_parser("simulate", help="integrate one trajectory and monitor it")
    _add_common(p)
    p.set_defaults(func=cmd_simulate, modules=("dynamics",))

    p = subs.add_parser("metric", help="geodesic distance between two density files")
    _add_common(p)
    p.add_argument("--a", required=True, help="first endpoint density file")
    p.add_argument("--b", required=True, help="second endpoint density file")
    p.set_defaults(func=cmd_metric, modules=("metric",))

    p = subs.add_parser("talagrand", help="transport-entropy inequality on class samples")
    _add_common(p)
    p.add_argument("--nu-inf", type=float, required=True)
    p.add_argument("--nu-sup", type=float, required=True)
    p.add_argument("--samples", type=int, default=10)
    p.set_defaults(func=cmd_talagrand, modules=("inequalities",))

    p = subs.add_parser("w1", help="closed-form W1 against sqrt(2) times the geodesic "
                                   "distance for a density pair")
    _add_common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_w1, modules=("inequalities",))

    p = subs.add_parser("sweep", help="run the simulate pipeline over a parameter grid")
    _add_common(p)
    p.set_defaults(func=cmd_sweep, modules=("dynamics",))

    return parser


def _parse(argv):
    """The parsed arguments; the modules their command runs are loaded."""
    args = build_parser().parse_args(argv)
    for module in (*_COMMON, *args.modules):
        _load(module)
    return args


def _run(args) -> int:
    try:
        return args.func(args, _load_config(args))
    except NUMERICAL_FAILURES as exc:
        print(f"graphfp: numerical failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:   # ConfigError and TruncationError among them
        print(f"graphfp: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("graphfp: out of memory: the run needs more memory than is available",
              file=sys.stderr)
        return EXIT_RUNTIME


def main(argv=None) -> int:
    return _run(_parse(argv))


def entry():
    args = _parse(None)
    # The heap built by the imports lives until exit: freezing it keeps every
    # collection, the one at interpreter shutdown included, from traversing
    # it again. So the freeze follows the command's imports, and it is made
    # only here, since tests and tracers call main() in-process.
    gc.freeze()
    sys.exit(_run(args))


def _load_config(args) -> ExperimentConfig:
    values = {}
    if args.out is not None:
        values["outputs"] = args.out
    if args.seed is not None:
        values["seed"] = args.seed
    return ExperimentConfig.load(args.config, args.set, values)


def _out(cfg, name: str = "") -> str:
    """Path of output file ``name``; the output directory is made here, at
    write time, so a run that fails first leaves none behind."""
    os.makedirs(cfg.outputs, exist_ok=True)
    return os.path.join(cfg.outputs, name)


def _meta(cfg) -> dict:
    return {"config": cfg.resolved(), "seed": cfg.seed}


def _report(cfg, name: str, payload: dict) -> None:
    """JSON report ``name`` in the output directory, with the resolved config
    and seed."""
    write_report(_out(cfg, name), {**_meta(cfg), **payload})


def cmd_gibbs(args, cfg) -> int:
    spec = cfg.build_spec()
    star = gibbs(spec)
    rho0 = cfg.build_initial(spec)
    constants = invariant_constants(rho0, spec)
    save_density(_out(cfg, "gibbs.txt"), star, spec)
    _report(cfg, "constants.json", {"constants": constants, "gibbs_file": "gibbs.txt"})
    return EXIT_OK


def _run_simulation(cfg, on_records=None):
    spec = cfg.build_spec()
    kind = cfg.dynamics.kind
    rho0 = cfg.build_initial(spec)
    constants = invariant_constants(rho0, spec) if is_gradient_flow(kind, spec.beta) else None
    traj = integrate(kind, rho0, spec, cfg.integrator, cfg.dynamics.sign, on_records)
    report = monitor(traj, constants)
    try:
        fitted = decay_rate_fit(traj)
    except InsufficientDataError:
        fitted = None
    return traj, constants, report, fitted


def cmd_simulate(args, cfg) -> int:
    meta = _meta(cfg)

    def write(first, states):   # each span of records, as integrate reduces it
        snapshots_to_csv(_out(cfg), first, states, meta)

    traj, constants, report, fitted = _run_simulation(cfg, write if cfg.write_states else None)
    trajectory_to_csv(_out(cfg, "trajectory.csv"), traj, meta)
    _report(cfg, "simulate.json", {
        "kind": traj.kind,
        "constants": constants,
        "monitor": report.checks,
        "monitor_all_passed": report.all_passed,
        "decay_rate_fit": fitted,
        "theoretical_rate": constants.decay_rate if constants is not None else None,
        "integrator": traj.stats,
    })
    return EXIT_OK if report.all_passed else EXIT_RUNTIME


def _load_pair(args):
    """The endpoint densities of ``--a`` and ``--b`` and their common
    potential; the library checks that they share a weight vector."""
    import numpy as np
    rho_a, spec_a = load_density(args.a)
    rho_b, spec_b = load_density(args.b)
    if not np.array_equal(spec_a.phi, spec_b.phi):   # also when their sizes differ
        raise ConfigError(f"endpoint files carry different potentials, on N={spec_a.N} "
                          f"and N={spec_b.N} vertices")
    return rho_a, rho_b, spec_a.phi


def cmd_metric(args, cfg) -> int:
    rho_a, rho_b, phi = _load_pair(args)
    geo = geodesic_distance(rho_a, rho_b, phi, cfg.geodesic)
    path_to_csv(_out(cfg, "path.csv"), geo.path, _meta(cfg))
    _report(cfg, "metric.json", {
        "distance": geo.distance,
        "diagnostics": geo,
        "action_history": list(geo.action_history),
        "endpoints": [os.path.basename(args.a), os.path.basename(args.b)],
    })
    return EXIT_OK


def cmd_talagrand(args, cfg) -> int:
    import numpy as np
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ConfigError(f"--samples must lie in [1, {MAX_SAMPLES}]")
    cls = TalagrandClass(nu_inf=args.nu_inf, nu_sup=args.nu_sup)
    spec = cfg.build_spec()
    if spec.beta != 1.0:
        raise ConfigError("transport-entropy constants are normalized to beta = 1")
    # before the samples, whose ValueErrors are recorded as violations
    cfg.geodesic.check_size(spec.N)
    mu = gibbs(spec)
    constants = talagrand_constants(mu, cls)
    rng = np.random.default_rng(cfg.seed)
    entries = []
    all_passed = True
    for k in range(args.samples):
        nu = sample_in_class(rng, spec.weights, cls)
        try:
            rep = verify_talagrand(mu, nu, cls, cfg.geodesic, constants=constants)
            entries.append({"sample": k, **vars(rep)})
            all_passed &= rep.passed
        except ValueError as exc:
            entries.append({"sample": k, "passed": False, "violation": str(exc)})
            all_passed = False
    _report(cfg, "talagrand.json", {
        "class": cls,
        "constants": constants,
        "samples": entries,
        "all_passed": all_passed,
    })
    return EXIT_OK if all_passed else EXIT_RUNTIME


def cmd_w1(args, cfg) -> int:
    mu, nu, phi = _load_pair(args)
    if mu.interior and nu.interior:
        rep = verify_w1_bound(mu, nu, phi, cfg.geodesic)
        passed, payload = rep.passed, {**vars(rep), "bound_checked": True}
    else:
        # boundary densities are valid W1 inputs, but the transport bound
        # needs interior endpoints; report the distance alone
        passed, payload = True, {"w1": w1_distance(mu, nu), "distance_bound": None,
                                 "bound_checked": False}
    _report(cfg, "w1.json", payload)
    return EXIT_OK if passed else EXIT_RUNTIME


def cmd_sweep(args, cfg) -> int:
    grid = cfg.sweep
    if not grid:
        raise ConfigError("sweep grid is empty; add a 'sweep:' section")
    keys = list(grid.keys())
    values = [grid[k] if isinstance(grid[k], list) else [grid[k]] for k in keys]
    combos = list(itertools.product(*values))
    if not combos:
        raise ConfigError("sweep grid is empty")

    # every grid point and its weights and potential are built before any
    # runs, so a config mistake exits 2; a point's spec is built again when
    # it runs, so the sweep holds one at a time, and it keeps no states
    from .config import _set_dotted   # loaded with every command
    points = []
    for combo in combos:
        tree = {**cfg.resolved(), "sweep": {}}
        for key, val in zip(keys, combo):
            _set_dotted(tree, key, val)
        points.append(ExperimentConfig.load(values=tree))
        points[-1].build_spec()

    rows = []
    for idx, (combo, point) in enumerate(zip(combos, points)):
        row = {"index": idx, **dict(zip(keys, combo)),
               "fitted_rate": None, "theory_rate": None, "monitor_pass": False}
        try:
            constants, report, fitted = _run_simulation(point)[1:]   # the run is not held
            row.update(fitted_rate=fitted, monitor_pass=report.all_passed, status="ok",
                       theory_rate=constants.decay_rate if constants is not None else None)
        except (*NUMERICAL_FAILURES, TruncationError) as exc:   # recorded, the run continues
            row["status"] = f"error: {exc}"
        rows.append(row)

    columns = ["index", *keys, "fitted_rate", "theory_rate", "monitor_pass", "status"]
    table_to_csv(_out(cfg, "sweep.csv"), columns,
                 [[row[col] for col in columns] for row in rows], _meta(cfg))
    _report(cfg, "sweep.json", {"rows": rows})
    any_ok = any(r["status"] == "ok" for r in rows)
    return EXIT_OK if any_ok else EXIT_RUNTIME


if __name__ == "__main__":
    entry()
