"""Each layer's public entry point timed alone across problem sizes.

Usage: python perfbench/layers.py OUT.json [--seed N]

Writes one JSON object of per-layer metrics (names as in BENCHMARK.json).
Fast calls are repeated and their median is reported; calls that take
seconds run once. Instances are explicit-weight sender networks built
from the seed, so every size is well conditioned in float64.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

N_GRID = (40, 200, 1000, 2000)
INTEGRATE_GRID = (40, 200, 1000)   # integrate at N=2000 takes tens of seconds
MONITOR_GRID = (40, 200)           # the finite-difference monitor grows fastest
W1_GRID = (40, 200, 400)           # the dual LP refuses N > W1_BUDGET = 500
GEODESIC_GRID = (6, 12, 20, 40)

# (t_end, record_every): the decay experiment's horizon for the monitor, and
# a shorter one that keeps the N=1000 integration to a few seconds
DECAY_HORIZON = (4.0, 0.05)
INTEGRATE_HORIZON = (1.0, 0.05)

MIN_SAMPLE_S = 0.2   # repeat a fast call until this much time is spent
MAX_REPEATS = 200


def instance(n: int, seed: int):
    """(spec, rho, other) on one random explicit-weight network: ``rho`` is
    a perturbed Gibbs density and ``other`` a second interior density."""
    from graphfp.graph import GraphSpec, WeightFamily, build_weights
    from graphfp.simplex import Density
    rng = np.random.default_rng([n, seed])
    weights = build_weights(WeightFamily.explicit(rng.uniform(0.5, 1.5, n)), n)
    spec = GraphSpec(weights=weights, phi=rng.uniform(-1.0, 1.0, n), beta=1.0)
    star = np.exp(-spec.phi)
    rho = Density.normalized(star * np.exp(rng.uniform(-0.5, 0.5, n)), weights)
    other = Density.normalized(rng.uniform(0.5, 1.5, n), weights)
    return spec, rho, other


def per_call(fn) -> float:
    """Median seconds of one call of ``fn()``."""
    samples = []
    spent = 0.0
    while len(samples) < MAX_REPEATS and (spent < MIN_SAMPLE_S or len(samples) < 3):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        samples.append(dt)
        spent += dt
        if dt > MIN_SAMPLE_S:
            break
    return statistics.median(samples)


def once(fn) -> tuple:
    """(seconds, result) of a single call."""
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def measure(seed: int) -> dict:
    from graphfp.dynamics import (IntegratorConfig, effective_potential_rhs,
                                  fokker_planck_rhs, integrate, monitor)
    from graphfp.inequalities import w1_distance
    from graphfp.metric import (GeodesicConfig, apply_mobility, geodesic_distance,
                                invert_mobility)
    from graphfp.simplex import free_energy, invariant_constants

    decay = IntegratorConfig(*DECAY_HORIZON)
    short = IntegratorConfig(*INTEGRATE_HORIZON)
    out = {}
    for n in N_GRID:
        spec, rho, other = instance(n, seed)
        p = np.log(other.rho)
        sigma = apply_mobility(rho, spec.phi, p)
        out[f"simplex.free_energy_us.N{n}"] = 1e6 * per_call(lambda: free_energy(rho, spec))
        out[f"dynamics.rhs_fpe_us.N{n}"] = 1e6 * per_call(lambda: fokker_planck_rhs(rho, spec))
        out[f"dynamics.rhs_phibar_us.N{n}"] = 1e6 * per_call(
            lambda: effective_potential_rhs(rho, spec))
        out[f"metric.apply_mobility_us.N{n}"] = 1e6 * per_call(
            lambda: apply_mobility(rho, spec.phi, p))
        out[f"metric.invert_mobility_ms.N{n}"] = 1e3 * per_call(
            lambda: invert_mobility(rho, spec.phi, sigma))
    for n in INTEGRATE_GRID:
        spec, rho, _ = instance(n, seed)
        out[f"dynamics.integrate_fpe_s.N{n}"] = per_call(
            lambda: integrate("fpe", rho, spec, short))
    for n in MONITOR_GRID:
        spec, rho, _ = instance(n, seed)
        traj = integrate("fpe", rho, spec, decay)
        constants = invariant_constants(rho, spec)
        out[f"dynamics.monitor_s.N{n}"] = per_call(lambda: monitor(traj, constants))
    for n in W1_GRID:
        _, rho, other = instance(n, seed)
        out[f"inequalities.w1_distance_ms.N{n}"] = 1e3 * per_call(lambda: w1_distance(rho, other))
    for n in GEODESIC_GRID:
        spec, rho, other = instance(n, seed)
        seconds, geo = once(lambda: geodesic_distance(rho, other, spec.phi, GeodesicConfig()))
        out[f"metric.geodesic_s.n{n}"] = seconds
        out[f"metric.geodesic.iterations.n{n}"] = geo.iterations
    return out


def main(argv: list) -> int:
    seed = int(argv[argv.index("--seed") + 1]) if "--seed" in argv else 0
    result = measure(seed)
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
