"""Finite-difference reference for the free-energy dissipation identity.

The library checks dF/dt = -g(sigma, sigma) by the chain rule. This oracle
measures dF/dt without it: it advances the state a little forward and back
along the flow with classical Runge-Kutta, differences the free energy, and
Richardson-extrapolates over halved probe widths.
"""

import math

import numpy as np

import graphfp as g
from graphfp.dynamics import _rhs_closure


def rk4_advance(f, y, h, substeps=4):
    hh = h / substeps
    for _ in range(substeps):
        k1 = f(y)
        k2 = f(y + 0.5 * hh * k1)
        k3 = f(y + 0.5 * hh * k2)
        k4 = f(y + hh * k3)
        y = y + (hh / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if y.min() <= 0.0:
            raise FloatingPointError("left the positive cone during probe")
    return y


def fd_slope(f, spec, y0, h0):
    """Centered finite-difference slope of the free energy along the flow,
    Richardson-extrapolated over successively halved probe widths."""
    weights = spec.weights

    def F_at(y):
        return g.free_energy(g.Density(y, weights, mass_tol=1e-8), spec)

    def slope(h):
        fp = F_at(rk4_advance(f, y0, h))
        fm = F_at(rk4_advance(f, y0, -h))
        return (fp - fm) / (2.0 * h)

    h = h0
    d_prev = slope(h)
    best, best_err = None, math.inf
    for _ in range(20):
        h *= 0.5
        d_cur = slope(h)
        rich = (4.0 * d_cur - d_prev) / 3.0
        err = abs(d_cur - d_prev)
        if err < best_err:
            best, best_err = rich, err
        if err <= 1e-7 * abs(rich):
            break
        if err > 4.0 * best_err:
            break  # halving has entered the roundoff regime
        d_prev = d_cur
    return best


def fd_dissipation(traj, samples=20):
    """Worst relative deviation |dF/dt + g| / g of the finite-difference
    slope over ``samples`` recorded times spread evenly across those above
    the monitor's noise floor, and the number of probes that completed."""
    spec = traj.spec
    f = _rhs_closure(traj.kind, spec, traj.sign)
    candidates = []
    for k in np.flatnonzero(traj.states.interior):
        state = g.Density(traj.states.rho[k], spec.weights, mass_tol=1e-10)
        tv = g.TangentVector(f(state.rho), spec.weights, mean_tol=1e-9)
        gk = g.metric_inner(state, spec.phi, tv, tv)
        if gk >= 1e-8 * (1.0 + abs(traj.F_values[k])):
            candidates.append((k, gk))
    if len(candidates) > samples:
        pick = np.linspace(0, len(candidates) - 1, samples).round().astype(int)
        candidates = [candidates[int(i)] for i in pick]
    dt_rec = float(traj.times[1] - traj.times[0]) if len(traj) > 1 else 0.1
    h0 = min(0.1, dt_rec if dt_rec > 0 else 0.1)
    worst, completed = 0.0, 0
    for k, gk in candidates:
        try:
            slope = fd_slope(f, spec, traj.states.rho[k], h0)
        except FloatingPointError:
            continue
        completed += 1
        worst = max(worst, abs(slope + gk) / gk)
    return worst, completed
