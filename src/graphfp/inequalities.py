"""Transport-entropy inequality verification.

The transport side is the geodesic distance from :mod:`graphfp.metric`,
the midpoint-rule action of the best path found. That value is not proven
to be an upper bound on the distance, so a reported pass is a numerical
check, not a certificate. The comparison distance W1 takes unit ground
distance between distinct vertices (the sender network carries no
intrinsic path metric; this choice is recorded in all report metadata),
where Kantorovich-Rubinstein duality gives it in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import WeightSequence
from .metric import GeodesicConfig, GeodesicResult, geodesic_distance
from .simplex import Density, _class_constants, relative_entropy

SQRT2 = math.sqrt(2.0)
TALAGRAND_SLACK = 1e-9
W1_BOUND_SLACK = 1e-6
# Largest fraction of the room to the class bounds a sampled member uses.
SAMPLE_SPREAD = 0.9

GROUND_METRIC_NOTE = "unit distance between all distinct vertex pairs"


@dataclass(frozen=True)
class TalagrandClass:
    """Uniform two-sided density bounds defining a verification class."""

    nu_inf: float
    nu_sup: float

    def __post_init__(self):
        if not (0.0 < self.nu_inf <= self.nu_sup < math.inf):
            raise ValueError(f"need 0 < nu_inf <= nu_sup < inf, got "
                             f"({self.nu_inf}, {self.nu_sup})")

    def contains(self, nu: Density) -> bool:
        return self.nu_inf <= nu.inf and nu.sup <= self.nu_sup


@dataclass(frozen=True)
class TalagrandConstants:
    """Constructive constants of the transport-entropy inequality.

    The class bounds, mixing rate, cutoff, prefix weight and norm bound are
    the invariant-set constants (:class:`graphfp.simplex.ConstantsReport`)
    of the flow with beta = 1 and phi = -log mu, started anywhere in the
    class: ``class_lower``/``class_upper`` are its ``lower_bound`` and
    ``upper_bound`` and ``mixing_rate`` its ``decay_rate``. On top of them
    ``kappa = 2 T (1 + 2 (class_upper/class_lower)^2)`` with the mixing time
    ``T = log(4 condition_ratio) / mixing_rate``. Like the invariant-set
    constants, these are doubly exponential in the reciprocal prefix weight
    and may round to 0 / inf in float64.
    """

    class_lower: float      # uniform-in-time lower density bound (C3 role)
    class_upper: float      # uniform-in-time upper density bound (C4 role)
    condition_ratio: float  # sup(mu)/inf(mu), >= 1
    mixing_rate: float
    mixing_time: float
    kappa: float
    tail_cutoff: int
    min_prefix_weight: float
    norm_bound: float


def talagrand_constants(mu: Density, cls: TalagrandClass) -> TalagrandConstants:
    """Constants for the class around the reference density ``mu``.

    The diffusion constant is normalized to one and the potential is tied
    to the reference by phi_i = -log mu_i, making mu the stationary state;
    the class range [nu_inf, nu_sup] takes the place of the start density's
    range in the invariant-set constants. ``mu`` itself is passed as the
    stationary state, since the Gibbs state of -log mu need not equal mu
    bitwise. The constants depend only on (class bounds, mu, weights);
    every member of the class yields the same values bitwise.
    """
    mu.require_interior("transport-entropy constants")
    phi_sup = float(np.abs(np.log(mu.rho)).max())
    base = _class_constants(mu, cls.nu_inf, cls.nu_sup, phi_sup, 1.0)
    lower, upper, rate = base.lower_bound, base.upper_bound, base.decay_rate

    condition = mu.sup / mu.inf
    big_t = math.log(4.0 * condition) / rate if rate > 0.0 else math.inf
    ratio = upper / lower if lower > 0.0 else math.inf
    kappa = 2.0 * big_t * (1.0 + 2.0 * ratio * ratio)
    return TalagrandConstants(
        class_lower=lower,
        class_upper=upper,
        condition_ratio=condition,
        mixing_rate=rate,
        mixing_time=big_t,
        kappa=kappa,
        tail_cutoff=base.tail_cutoff,
        min_prefix_weight=base.min_prefix_weight,
        norm_bound=base.norm_bound,
    )


@dataclass
class TalagrandReport:
    """Outcome of one transport-entropy check, distance^2 <= kappa * H."""

    passed: bool
    distance_bound: float     # midpoint-rule geodesic distance, the transport side
    entropy: float
    lhs: float                # distance_bound squared
    rhs: float                # kappa * entropy (0 when entropy is 0)
    ratio: float              # lhs / entropy, the informative observable
    constants: TalagrandConstants
    geodesic: GeodesicResult
    ground_metric: str = GROUND_METRIC_NOTE


def verify_talagrand(mu: Density, nu: Density, cls: TalagrandClass,
                     geo_config: GeodesicConfig = GeodesicConfig(),
                     constants: TalagrandConstants | None = None) -> TalagrandReport:
    """Check distance(mu, nu)^2 <= kappa * H(nu|mu) for one class member.

    The left side uses the geodesic distance, a midpoint-rule action that
    is not proven to bound the true distance from above, so a pass is a
    numerical check rather than a certificate; the observed ratio is
    reported because kappa is far from tight by construction.
    """
    mu.require_interior("transport-entropy verification")
    if not cls.contains(nu):
        raise ValueError(
            f"density with range [{nu.inf:.6g}, {nu.sup:.6g}] violates the class "
            f"bounds [{cls.nu_inf:.6g}, {cls.nu_sup:.6g}]"
        )
    if constants is None:
        constants = talagrand_constants(mu, cls)
    phi = -np.log(mu.rho)
    geo = geodesic_distance(mu, nu, phi, geo_config)
    entropy = relative_entropy(nu, mu)
    lhs = geo.distance**2
    # kappa is mathematically finite, so zero entropy forces a zero bound
    # even when kappa itself overflowed.
    rhs = constants.kappa * entropy if entropy > 0.0 else 0.0
    ratio = lhs / entropy if entropy > 0.0 else 0.0
    return TalagrandReport(
        passed=bool(lhs <= rhs + TALAGRAND_SLACK),
        distance_bound=geo.distance,
        entropy=entropy,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        constants=constants,
        geodesic=geo,
    )


def sample_in_class(rng: np.random.Generator, weights: WeightSequence,
                    cls: TalagrandClass) -> Density:
    """Random class member: a mean-free direction added to the uniform
    density, scaled to stay strictly inside the class bounds."""
    if not (cls.nu_inf <= 1.0 <= cls.nu_sup):
        raise ValueError("class excludes the uniform density and is empty "
                         "(unit-mass densities always straddle 1)")
    m = weights.m
    d = rng.uniform(-1.0, 1.0, m.size)
    d = d - float(np.dot(m, d))
    with np.errstate(over="ignore"):   # a huge bound over a tiny entry: inf, mapped below
        scale = min(np.min((cls.nu_sup - 1.0) / d[d > 0.0], initial=math.inf),
                    np.min((cls.nu_inf - 1.0) / d[d < 0.0], initial=math.inf))
    if not math.isfinite(scale):
        scale = 0.0
    a = rng.uniform(0.2, SAMPLE_SPREAD) * scale
    return Density(1.0 + a * d, weights)


def w1_distance(mu: Density, nu: Density) -> float:
    """W1 under the unit ground distance: (1/2) sum_i m_i |mu_i - nu_i|.

    By Kantorovich-Rubinstein duality W1 is the largest
    sum_i m_i psi_i (mu_i - nu_i) over test functions with
    |psi_i - psi_j| <= 1; the sup-norm bound of one adds nothing once psi is
    shifted to [-1/2, 1/2], and psi = sign(mu - nu) / 2 attains the maximum.
    """
    m = mu.weights.m
    if not np.array_equal(m, nu.weights.m):
        raise ValueError("densities must share a weight vector")
    return 0.5 * float(np.dot(m, np.abs(mu.rho - nu.rho)))


@dataclass
class W1Report:
    """Outcome of one comparison check, W1 <= sqrt(2) * distance."""

    passed: bool
    w1: float
    distance_bound: float
    bound: float              # sqrt(2) * distance_bound + slack
    geodesic: GeodesicResult
    ground_metric: str = GROUND_METRIC_NOTE


def verify_w1_bound(mu: Density, nu: Density, phi,
                    geo_config: GeodesicConfig = GeodesicConfig()) -> W1Report:
    """Check the closed-form W1 (see :func:`w1_distance`) against
    sqrt(2) * geodesic distance (+ slack).

    The check cannot fail: W1 <= d for the midpoint-rule distance d of
    every discrete path with unit-mass interior knots, converged or not.
    Take psi = sign(mu - nu) / 2, so W1 = |sum_k <psi, V_k>_m| over the
    path increments V_k. On segment k the pressure P_k solves
    L(mid_k) P_k = V_k, and with the Dirichlet form
    Q(p) = (1/2) sum_ij m_i m_j tau_ij (p_i - p_j)^2 of the midpoint,
    Cauchy-Schwarz gives |<psi, V_k>_m| <= sqrt(Q(psi)) sqrt(E_k),
    E_k = <P_k, V_k>_m. Since |psi_i - psi_j| <= 1 and
    tau_ij <= max(rho_i, rho_j) <= rho_i + rho_j with sum_j m_j = 1,
    Q(psi) <= sum_i m_i rho_i = 1. Hence
    W1 <= sum_k sqrt(E_k) <= sqrt(K sum_k E_k) = d.
    """
    mu.require_interior("comparison bound")
    nu.require_interior("comparison bound")
    w1 = w1_distance(mu, nu)
    geo = geodesic_distance(mu, nu, phi, geo_config)
    bound = SQRT2 * geo.distance + W1_BOUND_SLACK
    return W1Report(
        passed=bool(w1 <= bound),
        w1=w1,
        distance_bound=geo.distance,
        bound=bound,
        geodesic=geo,
    )
