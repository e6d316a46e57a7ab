"""Shared instance builders for the test suite."""

import os
import subprocess
import sys

import numpy as np

import graphfp as g


def explicit_weights(n, seed=None, low=0.5, high=2.0):
    """Zero-tail weight vector; random positive raw weights when seeded."""
    if seed is None:
        raw = [1.0] * n
    else:
        raw = np.random.default_rng(seed).uniform(low, high, n).tolist()
    return g.build_weights(g.WeightFamily.explicit(raw), n)


def half_weights():
    return explicit_weights(2)


def random_instance(seed, n, family="explicit", beta=1.0, phi_range=2.0):
    """One problem instance with seeded potential (and weights, if explicit)."""
    rng = np.random.default_rng(seed)
    if family == "explicit":
        w = explicit_weights(n, seed=seed + 1)
    elif family.startswith("geometric"):
        q = float(family.split(":")[1]) if ":" in family else 0.5
        w = g.build_weights(g.WeightFamily.geometric(q), n)
    elif family.startswith("power_law"):
        s = float(family.split(":")[1]) if ":" in family else 2.0
        w = g.build_weights(g.WeightFamily.power_law(s), n)
    else:
        raise ValueError(family)
    phi = rng.uniform(-phi_range, phi_range, n)
    return g.GraphSpec(weights=w, phi=phi, beta=beta)


def random_interior(seed, weights, spread=0.6):
    """Interior density: exponentiated uniform noise, renormalized."""
    rng = np.random.default_rng(seed)
    return g.Density.normalized(np.exp(rng.uniform(-spread, spread, len(weights))), weights)


def random_tangent(seed, weights):
    rng = np.random.default_rng(seed)
    return g.project_tangent(rng.normal(size=len(weights)), weights)


def perturbed_gibbs(spec, epsilon, seed):
    rng = np.random.default_rng(seed)
    star = g.gibbs(spec)
    return g.Density.normalized(star.rho * np.exp(rng.uniform(-epsilon, epsilon, spec.N)),
                                spec.weights)


def integrate_states(kind, rho0, spec, config, sign=-1.0):
    """``integrate``'s trajectory and its states, collected from the spans
    it hands on in order: one stacked Density whose row k is the state at
    ``times[k]``."""
    spans = []

    def collect(first, states):
        assert first == sum(len(s) for s in spans)
        spans.append(states.rho.copy())

    traj = g.integrate(kind, rho0, spec, config, sign, on_records=collect)
    return traj, g.Density(np.concatenate(spans), spec.weights, mass_tol=1e-10)


def run_python(code, **env):
    """stdout, stripped, of ``code`` run in a fresh interpreter that imports
    graphfp from this checkout. ``OPENBLAS_NUM_THREADS`` is removed from
    its environment; keyword arguments set variables (None removes one)."""
    src = os.path.dirname(os.path.dirname(g.__file__))
    child = {**os.environ,
             "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child.pop("OPENBLAS_NUM_THREADS", None)
    for key, value in env.items():
        if value is None:
            child.pop(key, None)
        else:
            child[key] = value
    return subprocess.run([sys.executable, "-c", code], env=child, check=True,
                          capture_output=True, text=True).stdout.strip()
