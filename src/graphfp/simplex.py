"""Densities on the weighted simplex and the scalar functionals driving the
flow: free energy, relative entropy, relative energy, the Gibbs state, and
the explicit invariant-set constants.

A :class:`Density` or :class:`TangentVector` holds one state, shape (N,),
or a stack of states on one weight vector, shape (..., N), checked row by
row; the functionals return one value per row, and a Python scalar for a
single state. Every weighted sum is one BLAS dot per row
(:func:`_m_dot`), so a row gives the same bits alone as in any stack.
"""

from __future__ import annotations

import math
import sys
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import InvalidRowError
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


def _quotient(a: float, *divisors: float) -> float:
    """a / (d_1 d_2 ...) for a >= 0 and positive d_k, saturated to inf
    instead of raising.

    While the product of the d_k is a normal float it is one rounding, and
    the quotient is a / product. Below that the product rounds coarsely and
    can underflow to 0, where the division raises ZeroDivisionError (a = 0
    on a constant potential at a denormal beta, say). Then a is divided by
    one factor at a time, the smallest first: nothing raises, 0 stays 0, the
    true value for positive d_k, an overflow is inf, and a rounding loss in
    the denormal range leaves a quotient below 2^-900, which no exponential
    in the constants can tell from 0.
    """
    d = math.prod(divisors)
    if d >= sys.float_info.min:
        return a / d
    for d in sorted(divisors):
        a = a / d
    return a


def _m_dot(m, x):
    """sum_i m_i x_i along the last axis of x, one BLAS dot per row.

    A row sums the same alone as in any stack, which a matrix-vector
    product does not promise, and no array of the stack's shape is made.
    """
    return np.matmul(x[..., None, :], m[:, None])[..., 0, 0]


def _scalar(x):
    """x, or a Python scalar when x holds the value of a single state."""
    return x.item() if np.ndim(x) == 0 else x


def _require(ok, message: str, value=None) -> None:
    """Raise InvalidRowError at the first row whose flag in ``ok`` is False,
    naming the row of a stack; ``ok`` holds one flag per row, a 0-d one for
    a single vector, and ``message`` is formatted with that row's entry of
    ``value`` when one is given."""
    if ok.all():
        return
    k = int(np.argmin(ok))
    if value is not None:
        message = message.format(float(np.ravel(value)[k]))
    raise InvalidRowError(message if np.ndim(ok) == 0 else f"row {k}: {message}", k)


@dataclass(frozen=True)
class Density:
    """Nonnegative vector rho with sum_i m_i rho_i = 1, or a stack of them,
    shape (..., N), every row checked.

    The actual probability measure on vertices is rho_i * m_i; interior
    densities (min rho_i > 0) are the domain of every beta > 0 operation.
    ``interior``, ``inf``, ``sup`` and ``mass()`` give one value per row. A
    row that fails a check raises :class:`InvalidRowError`, which names it.
    """

    rho: np.ndarray
    weights: WeightSequence
    mass_tol: InitVar[float] = DENSITY_MASS_TOL

    def __post_init__(self, mass_tol):
        r = np.asarray(self.rho, dtype=float)
        if r.shape[-1:] != self.weights.m.shape:
            raise ValueError("density length must match the weight vector")
        # a NaN fails both comparisons
        _require((r.min(-1) >= 0.0) & (r.max(-1) < math.inf),
                 "density values must be finite and >= 0")
        mass = _m_dot(self.weights.m, r)
        _require(np.abs(mass - 1.0) <= mass_tol,
                 f"density mass {{!r}} deviates from 1 beyond {mass_tol:g}", mass)
        r.setflags(write=False)
        object.__setattr__(self, "rho", r)

    @classmethod
    def normalized(cls, values, weights: WeightSequence) -> "Density":
        """Scale nonnegative vectors, row by row, onto the unit-mass slice."""
        v = np.asarray(values, dtype=float)
        total = _m_dot(weights.m, v)
        _require((total > 0.0) & (total < math.inf),
                 "cannot normalize: nonpositive or non-finite mass")
        return cls(v / total[..., None], weights)

    def rows(self, index) -> "Density":
        """The states at ``index`` on the leading axis of a stack, on the
        same weights; rows of a checked stack are not checked again."""
        r = self.rho[index]
        r.setflags(write=False)
        out = object.__new__(Density)
        object.__setattr__(out, "rho", r)
        object.__setattr__(out, "weights", self.weights)
        return out

    @property
    def interior(self):
        return _scalar(self.rho.min(-1) > 0.0)

    @property
    def inf(self):
        return _scalar(self.rho.min(-1))

    @property
    def sup(self):
        return _scalar(self.rho.max(-1))

    def mass(self):
        return _scalar(_m_dot(self.weights.m, self.rho))

    def require_interior(self, what: str = "operation") -> None:
        _require(self.rho.min(-1) > 0.0, f"{what} requires an interior density (min rho > 0)")


@dataclass(frozen=True)
class TangentVector:
    """Vector sigma with sum_i m_i sigma_i = 0 (a velocity on the simplex),
    or a stack of them, shape (..., N), every row checked."""

    sigma: np.ndarray
    weights: WeightSequence
    mean_tol: InitVar[float] = TANGENT_MEAN_TOL

    def __post_init__(self, mean_tol):
        s = np.asarray(self.sigma, dtype=float)
        if s.shape[-1:] != self.weights.m.shape:
            raise ValueError("tangent length must match the weight vector")
        top = np.maximum(s.max(-1), -s.min(-1))
        _require(top < math.inf, "tangent values must be finite")
        mean = _m_dot(self.weights.m, s)
        _require(np.abs(mean) <= mean_tol * np.maximum(1.0, top),
                 f"weighted mean {{!r}} deviates from 0 beyond {mean_tol:g}", mean)
        s.setflags(write=False)
        object.__setattr__(self, "sigma", s)


def project_tangent(x, weights: WeightSequence) -> TangentVector:
    """Remove the weighted mean, row by row: x minus (sum_i m_i x_i) times
    the ones vector."""
    v = np.asarray(x, dtype=float)
    return TangentVector(v - _m_dot(weights.m, v)[..., None], weights)


def l2m_norm_sq(values, weights: WeightSequence):
    """Squared weighted l2 norm sum_i m_i |x_i|^2, one value per row."""
    v = np.asarray(values, dtype=float)
    return _scalar(_m_dot(weights.m, v * v))


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


def free_energy(rho: Density, spec: GraphSpec):
    """Potential energy plus beta times entropy, one value per row:
    sum_i m_i phi_i rho_i + beta * sum_i m_i rho_i log rho_i.

    For beta > 0 the entropy term needs interior densities.
    """
    r = rho.rho
    pot = _m_dot(spec.m, spec.phi * r)
    if spec.beta == 0.0:
        return _scalar(pot)
    rho.require_interior("free energy with beta > 0")
    return _scalar(pot + spec.beta * _m_dot(spec.m, r * np.log(r)))


def relative_entropy(nu: Density, mu: Density) -> float:
    """H(nu|mu) = sum_i m_i nu_i log(nu_i / mu_i) of two single states;
    returns inf when some nu_i > 0 sits where mu_i = 0."""
    if nu.weights is not mu.weights and not np.array_equal(nu.weights.m, mu.weights.m):
        raise ValueError("densities must share a weight vector")
    n, u = nu.rho, mu.rho
    support = n > 0.0
    if np.any(support & (u == 0.0)):
        return math.inf
    ns, us, ms = n[support], u[support], nu.weights.m[support]
    return float(np.dot(ms, ns * np.log(ns / us)))


def relative_energy(rho: Density, rho_star: Density):
    """Weighted chi-square-type distance sum_i m_i (rho_i - rho*_i)^2 / rho*_i
    to one interior state ``rho_star``, one value per row of ``rho``."""
    rho_star.require_interior("relative energy")
    d = rho.rho - rho_star.rho
    return _scalar(_m_dot(rho.weights.m, d * d / rho_star.rho))


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


def _class_constants(star: Density, lower: float, upper: float,
                     phi_sup: float, beta: float) -> ConstantsReport:
    """Invariant-set bounds and decay rate of the flow with stationary state
    ``star``, potential sup-norm ``phi_sup`` and diffusion ``beta``, for
    every start density with range inside [``lower``, ``upper``].

    No input in the float range raises: the quotients go through
    :func:`_quotient` and the exponentials through :func:`_saturate`, so
    saturation only lowers ``lower_bound`` and ``decay_rate`` and only
    raises ``upper_bound``."""
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
        0.25 * _saturate(math.exp, -_quotient(4.0 * phi_sup, mw, beta)),
        # beta mw / (4 (2 phi_sup + beta)), with no product that can underflow
        mw / (4.0 * (2.0 * (phi_sup / beta) + 1.0)),
    )
    if c1 > 0.0:
        exp_term = _saturate(math.exp, _quotient(2.0 * phi_sup, beta, c1, mw)) / (2.0 * mw)
    else:
        exp_term = math.inf
    c2 = max(
        2.0 * upper,
        exp_term,
        _quotient(2.0 * phi_sup + 2.0 * beta, beta, mw),
        2.0 / mw,
    )
    # c1 <= 1/4, so beta c1 cannot overflow, and c1 / c2 alone could fall denormal
    rate = beta * c1 / c2 * (inf_s / sup_s) if math.isfinite(c2) else 0.0
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
