"""Densities on the weighted simplex and the scalar functionals driving the
flow: free energy, relative entropy, relative energy, the Gibbs state, and
the explicit invariant-set constants.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, asdict, dataclass

import numpy as np

from .graph import GraphSpec, WeightSequence, estimate_tail_cutoff, min_weight_prefix

DENSITY_MASS_TOL = 1e-12
TANGENT_MEAN_TOL = 1e-12
# Tail-mass level of the cutoff estimate behind the explicit constants.
TAIL_DELTA = 0.5


def _saturate(f, *args) -> float:
    """f(*args), saturated to inf instead of raising on overflow."""
    try:
        return f(*args)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Density:
    """Nonnegative vector rho with sum_i m_i rho_i = 1.

    The actual probability measure on vertices is rho_i * m_i; interior
    densities (min rho_i > 0) are the domain of every beta > 0 operation.
    """

    rho: np.ndarray
    weights: WeightSequence
    mass_tol: InitVar[float] = DENSITY_MASS_TOL

    def __post_init__(self, mass_tol):
        r = np.asarray(self.rho, dtype=float)
        if r.shape != self.weights.m.shape:
            raise ValueError("density length must match the weight vector")
        if np.any(~np.isfinite(r)) or np.any(r < 0.0):
            raise ValueError("density values must be finite and >= 0")
        mass = float(np.dot(self.weights.m, r))
        if abs(mass - 1.0) > mass_tol:
            raise ValueError(f"density mass {mass!r} deviates from 1 beyond {mass_tol:g}")
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)

    @classmethod
    def normalized(cls, values, weights: WeightSequence) -> "Density":
        """Scale a nonnegative vector onto the unit-mass slice."""
        v = np.asarray(values, dtype=float)
        total = float(np.dot(weights.m, v))
        if not (total > 0.0 and math.isfinite(total)):
            raise ValueError("cannot normalize: nonpositive or non-finite mass")
        return cls(v / total, weights)

    @property
    def interior(self) -> bool:
        return float(self.rho.min()) > 0.0

    @property
    def inf(self) -> float:
        return float(self.rho.min())

    @property
    def sup(self) -> float:
        return float(self.rho.max())

    def mass(self) -> float:
        return float(np.dot(self.weights.m, self.rho))

    def require_interior(self, what: str = "operation") -> None:
        if not self.interior:
            raise ValueError(f"{what} requires an interior density (min rho > 0)")


@dataclass(frozen=True)
class TangentVector:
    """Vector sigma with sum_i m_i sigma_i = 0 (a velocity on the simplex)."""

    sigma: np.ndarray
    weights: WeightSequence
    mean_tol: InitVar[float] = TANGENT_MEAN_TOL

    def __post_init__(self, mean_tol):
        s = np.asarray(self.sigma, dtype=float)
        if s.shape != self.weights.m.shape:
            raise ValueError("tangent length must match the weight vector")
        if np.any(~np.isfinite(s)):
            raise ValueError("tangent values must be finite")
        mean = float(np.dot(self.weights.m, s))
        scale = max(1.0, float(np.abs(s).max()))
        if abs(mean) > mean_tol * scale:
            raise ValueError(f"weighted mean {mean!r} deviates from 0 beyond {mean_tol:g}")
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)

    @property
    def norm_inf(self) -> float:
        return float(np.abs(self.sigma).max())


def project_tangent(x, weights: WeightSequence) -> TangentVector:
    """Remove the weighted mean: x minus (sum_i m_i x_i) times the ones vector."""
    v = np.asarray(x, dtype=float)
    if np.any(~np.isfinite(v)):
        raise ValueError("input must be finite")
    c = float(np.dot(weights.m, v))
    return TangentVector(v - c, weights)


def l2m_norm_sq(values, weights: WeightSequence) -> float:
    """Squared weighted l2 norm sum_i m_i |x_i|^2."""
    v = np.asarray(values, dtype=float)
    return float(np.dot(weights.m, v * v))


def gibbs(spec: GraphSpec) -> Density:
    """The stationary state rho*_i = exp(-phi_i/beta) / sum_j m_j exp(-phi_j/beta).

    The exponent is shifted by its maximum before exponentiation so large
    potential ranges cannot overflow; a beta so small that -phi/beta itself
    overflows raises ValueError.
    """
    if spec.beta <= 0.0:
        raise ValueError("Gibbs state is undefined for beta = 0")
    with np.errstate(over="ignore"):
        a = -spec.phi / spec.beta
    if not np.isfinite(a).all():
        raise ValueError(f"beta={spec.beta!r} is too small for this potential: "
                         "the Gibbs state exponent -phi/beta overflows")
    a = a - a.max()
    w = np.exp(a)
    z = float(np.dot(spec.m, w))
    rho = w / z
    if np.any(rho <= 0.0):
        raise ValueError("potential range too large for this beta: Gibbs state underflows")
    return Density(rho, spec.weights)


def free_energy(rho: Density, spec: GraphSpec) -> float:
    """Potential energy plus beta times entropy:
    sum_i m_i phi_i rho_i + beta * sum_i m_i rho_i log rho_i.

    For beta > 0 the entropy term needs an interior density.
    """
    r = rho.rho
    pot = float(np.dot(spec.m, spec.phi * r))
    if spec.beta == 0.0:
        return pot
    rho.require_interior("free energy with beta > 0")
    return pot + spec.beta * float(np.dot(spec.m, r * np.log(r)))


def relative_entropy(nu: Density, mu: Density) -> float:
    """H(nu|mu) = sum_i m_i nu_i log(nu_i / mu_i); returns inf when some
    nu_i > 0 sits where mu_i = 0."""
    if nu.weights is not mu.weights and not np.array_equal(nu.weights.m, mu.weights.m):
        raise ValueError("densities must share a weight vector")
    n, u = nu.rho, mu.rho
    support = n > 0.0
    if np.any(support & (u == 0.0)):
        return math.inf
    ns, us, ms = n[support], u[support], nu.weights.m[support]
    return float(np.dot(ms, ns * np.log(ns / us)))


def relative_energy(rho: Density, rho_star: Density) -> float:
    """Weighted chi-square-type distance sum_i m_i (rho_i - rho*_i)^2 / rho*_i."""
    rho_star.require_interior("relative energy")
    d = rho.rho - rho_star.rho
    return float(np.dot(rho.weights.m, d * d / rho_star.rho))


@dataclass(frozen=True)
class ConstantsReport:
    """Explicit constants controlling one flow instance.

    ``lower_bound``/``upper_bound`` bracket the invariant set the solution
    never leaves; ``decay_rate`` is the guaranteed exponential rate for the
    relative energy. The constants are doubly exponential in the reciprocal
    prefix weight, so on harsh instances they round to 0 / inf in float64;
    every monitored inequality remains one-sided valid under that rounding.
    """

    norm_bound: float           # C0-type uniform bound on the squared l2_m norm
    tail_cutoff: int            # prefix length carrying mass >= 1 - TAIL_DELTA
    min_prefix_weight: float    # min weight within the cutoff prefix
    lower_bound: float
    upper_bound: float
    decay_rate: float

    def as_dict(self) -> dict:
        return asdict(self)


def _class_constants(star: Density, lower: float, upper: float,
                     phi_sup: float, beta: float) -> ConstantsReport:
    """Invariant-set bounds and decay rate of the flow with stationary state
    ``star``, potential sup-norm ``phi_sup`` and diffusion ``beta``, for
    every start density with range inside [``lower``, ``upper``]."""
    sup_s, inf_s = star.sup, star.inf
    norm_bound = (
        4.0 * (sup_s / inf_s) * _saturate(math.pow, upper, 2)
        + 4.0 * sup_s
        + 2.0 * l2m_norm_sq(star.rho, star.weights)
    )
    n0 = estimate_tail_cutoff(star.weights, norm_bound, TAIL_DELTA)
    mw = min_weight_prefix(star.weights, n0)

    c1 = min(
        0.5 * lower,
        0.25 * _saturate(math.exp, -4.0 * phi_sup / (mw * beta)),
        beta * mw / (4.0 * (2.0 * phi_sup + beta)),
    )
    if c1 > 0.0:
        exp_term = _saturate(math.exp, 2.0 * phi_sup / (beta * c1 * mw)) / (2.0 * mw)
    else:
        exp_term = math.inf
    c2 = max(
        2.0 * upper,
        exp_term,
        (2.0 * phi_sup + 2.0 * beta) / (beta * mw),
        2.0 / mw,
    )
    rate = beta * (c1 / c2) * (inf_s / sup_s) if math.isfinite(c2) else 0.0
    return ConstantsReport(
        norm_bound=float(norm_bound),
        tail_cutoff=n0,
        min_prefix_weight=mw,
        lower_bound=float(c1),
        upper_bound=float(c2),
        decay_rate=float(rate),
    )


def invariant_constants(rho0: Density, spec: GraphSpec) -> ConstantsReport:
    """Invariant-set bounds and decay rate for the flow started at ``rho0``."""
    if spec.beta <= 0.0:
        raise ValueError("invariant constants require beta > 0")
    rho0.require_interior("invariant constants")
    return _class_constants(gibbs(spec), rho0.inf, rho0.sup, spec.phi_sup, spec.beta)
