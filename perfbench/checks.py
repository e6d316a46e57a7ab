"""Output checks for the benchmark's CLI commands.

``check(cmd, workdir, exit_code)`` returns ``(problems, observed)``:
``problems`` lists every way the command's outputs are wrong (empty when
they are right) and ``observed`` holds the values compared against the
recorded golden file for the default seed. Every check holds for any seed.
"""

from __future__ import annotations

import csv
import json
import math
import os

MASS_TOL = 1e-10     # trajectory mass stays within this of 1
W1_TOL = 1e-12       # LP result against the closed form 1/2 sum m_i |mu_i - nu_i|
GOLDEN_REL = 1e-6    # admits last-bit summation changes, catches real drift
GOLDEN_ABS = 1e-9


def _json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _num(x) -> float:
    # the CLI writes non-finite floats as their repr strings
    return float(x)


def read_density(path: str) -> tuple:
    """(m, rho) lists from a density file (``N beta`` header, ``i m phi rho`` rows)."""
    with open(path, "r", encoding="utf-8") as fh:
        n = int(fh.readline().split()[0])
        rows = [fh.readline().split() for _ in range(n)]
    return [float(r[1]) for r in rows], [float(r[3]) for r in rows]


def w1_closed_form(path_a: str, path_b: str) -> float:
    """W1 under the unit ground distance: 1/2 sum_i m_i |mu_i - nu_i|."""
    m, mu = read_density(path_a)
    _, nu = read_density(path_b)
    return 0.5 * math.fsum(mi * abs(a - b) for mi, a, b in zip(m, mu, nu))


def read_trajectory(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def _check_trajectory(out: str, problems: list) -> list:
    rows = read_trajectory(os.path.join(out, "trajectory.csv"))
    if not rows:
        problems.append("trajectory.csv has no rows")
        return []
    for row in rows:
        if not abs(row["mass"] - 1.0) <= MASS_TOL:
            problems.append(f"mass {row['mass']!r} at t={row['t']!r} is off 1 by more than {MASS_TOL}")
            break
    for prev, cur in zip(rows, rows[1:]):
        if not cur["F"] <= prev["F"]:
            problems.append(f"F increases at t={cur['t']!r}: {prev['F']!r} -> {cur['F']!r}")
            break
    return rows


def _check_simulate(cmd, workdir, out, problems, observed):
    report = _json(os.path.join(out, "simulate.json"))
    if report.get("monitor_all_passed") is not True:
        problems.append("simulate.json: monitor_all_passed is not true")
    rows = _check_trajectory(out, problems)
    if rows:
        observed["final_row"] = [rows[-1][k] for k in ("t", "mass", "F", "L", "inf_rho", "sup_rho")]
    cfg = report.get("config", {})
    if cfg.get("write_states"):
        missing = [k for k in range(len(rows))
                   if not os.path.exists(os.path.join(out, f"state_{k}.csv"))]
        if missing:
            problems.append(f"{len(missing)} of {len(rows)} state snapshots missing")


def _check_sweep(cmd, workdir, out, problems, observed):
    rows = _json(os.path.join(out, "sweep.json")).get("rows") or []
    if not rows:
        problems.append("sweep.json has no rows")
    for row in rows:
        if row.get("status") != "ok" or row.get("monitor_pass") is not True:
            problems.append(f"sweep row {row.get('index')}: status {row.get('status')!r}, "
                            f"monitor_pass {row.get('monitor_pass')!r}")


def _check_gibbs(cmd, workdir, out, problems, observed):
    m, rho = read_density(os.path.join(out, "gibbs.txt"))
    mass = math.fsum(a * b for a, b in zip(m, rho))
    if not abs(mass - 1.0) <= MASS_TOL or min(rho) <= 0.0:
        problems.append(f"gibbs.txt is not an interior unit-mass density (mass {mass!r})")
    if "constants" not in _json(os.path.join(out, "constants.json")):
        problems.append("constants.json has no constants")


def _check_talagrand(cmd, workdir, out, problems, observed):
    report = _json(os.path.join(out, "talagrand.json"))
    if report.get("all_passed") is not True:
        problems.append("talagrand.json: all_passed is not true")
    observed["distances"] = [_num(s.get("distance_bound", "nan")) for s in report.get("samples", [])]


def _check_metric(cmd, workdir, out, problems, observed):
    d = _num(_json(os.path.join(out, "metric.json")).get("distance", "nan"))
    if not (math.isfinite(d) and d > 0.0):
        problems.append(f"metric.json: distance {d!r} is not finite and positive")
    observed["distance"] = d


def _check_w1(cmd, workdir, out, problems, observed):
    report = _json(os.path.join(out, "w1.json"))
    w1 = _num(report.get("w1", "nan"))
    exact = w1_closed_form(*(os.path.join(workdir, p) for p in cmd.pair))
    if not abs(w1 - exact) <= W1_TOL * max(1.0, exact):
        problems.append(f"w1.json: w1 {w1!r} differs from the closed form {exact!r}")
    if report.get("bound_checked"):
        if report.get("passed") is not True:
            problems.append("w1.json: the sqrt(2) transport bound did not pass")
        observed["distance"] = _num(report.get("distance_bound", "nan"))


_CHECKS = {
    "simulate": _check_simulate,
    "sweep": _check_sweep,
    "gibbs": _check_gibbs,
    "talagrand": _check_talagrand,
    "metric": _check_metric,
    "w1": _check_w1,
}


def check(cmd, workdir: str, exit_code: int, expected_exit: int = 0) -> tuple:
    """Check one finished command; see the module docstring."""
    problems: list = []
    observed: dict = {}
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, expected {expected_exit}")
    try:
        _CHECKS[cmd.subcommand](cmd, workdir, os.path.join(workdir, cmd.out), problems, observed)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems, observed


def _close(a, b) -> bool:
    if isinstance(a, list) or isinstance(b, list):
        return (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
                and all(_close(x, y) for x, y in zip(a, b)))
    return math.isclose(a, b, rel_tol=GOLDEN_REL, abs_tol=GOLDEN_ABS)


def compare_golden(name: str, observed: dict, golden: dict) -> list:
    """Problems where ``observed`` strays from the recorded values of one command."""
    problems = []
    for key, want in golden.items():
        got = observed.get(key)
        if got is None or not _close(got, want):
            problems.append(f"{name}.{key}: {got!r} differs from the recorded {want!r}")
    return problems
