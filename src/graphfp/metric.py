"""Transport metric on the weighted simplex: geodesic distances and the
checks of the mobility operator.

The operator L(rho) and its inverse, the metric tensor, live in
:mod:`graphfp.mobility`, which the dynamics load without this module.
Geodesic distances are estimated by minimizing a midpoint-rule path action
by projected steepest descent in the metric: the m-gradient is
preconditioned by the inverse discrete time Laplacian of the path, applied
in closed form, and then mapped by L(rho) at every knot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# The geodesic's settings live in config, which loads no solver.
from .config import GeodesicConfig
from .errors import ConvergenceError
from .mobility import MobilityOperator, invert_mobility
from .simplex import Density, TangentVector, _m_dot, l2m_norm_sq

# Eigenvalues below this fraction of the largest count as kernel.
KERNEL_RTOL = 1e-10
# Lanczos steps of the kernel check, each one operator call; the basis
# holds KRYLOV_DIM + 1 vectors of length N.
KRYLOV_DIM = 64


def apply_mobility(rho: Density, phi, p) -> TangentVector:
    """Map a pressure-like vector p to the tangent sigma_i =
    sum_j m_j tau_ij (p_i - p_j); constants map to zero."""
    rho.require_interior("mobility application")
    p = np.asarray(p, dtype=float)
    op = MobilityOperator(phi, rho.weights.m)
    return TangentVector(op.apply(rho.rho, p), rho.weights, mean_tol=1e-10)


@dataclass(frozen=True)
class NormEquivalenceReport:
    """Margins of the four norm-equivalence inequalities (all >= 0 when they hold)."""

    g: float
    p_norm_sq: float
    sigma_norm_sq: float
    lower_g: float        # g - inf(rho) ||p||^2
    upper_g: float        # sup(rho) ||p||^2 - g
    lower_sigma: float    # ||sigma||^2 - inf(rho)^2/sup(rho) g
    upper_sigma: float    # 2 sup(rho) g - ||sigma||^2


def norm_equivalence_check(rho: Density, phi, sigma: TangentVector) -> NormEquivalenceReport:
    """Evaluate the two-sided comparisons between g, ||p||, and ||sigma||."""
    p = invert_mobility(rho, phi, sigma)
    g = float(_m_dot(rho.weights.m, p * sigma.sigma))
    pn = l2m_norm_sq(p, rho.weights)
    sn = l2m_norm_sq(sigma.sigma, rho.weights)
    lo, hi = rho.inf, rho.sup
    return NormEquivalenceReport(
        g=g,
        p_norm_sq=pn,
        sigma_norm_sq=sn,
        lower_g=g - lo * pn,
        upper_g=hi * pn - g,
        lower_sigma=sn - (lo * lo / hi) * g,
        upper_sigma=2.0 * hi * g - sn,
    )


def _ritz_values(op: MobilityOperator, rho):
    """Ritz values, ascending, of L(rho) on the mean-free vectors, from
    ``KRYLOV_DIM`` Lanczos steps in <., .>_m, or N - 1 when fewer span them.

    The basis starts with the constants, a unit vector in <., .>_m, and
    every new vector is orthogonalized against all before it twice, so it
    is mean-free; the start is cos(0), cos(1), ..., cos(N - 1). When the
    second pass halves the norm, the vector lay in the span of the basis to
    rounding (Kahan's "twice is enough", Parlett, *The Symmetric Eigenvalue
    Problem*): L maps that span into itself, and the run goes on with a
    zero coupling from the unit vector the basis covers least, whose share
    outside the span is at least 1/N. The Ritz values are the eigenvalues
    of the tridiagonal matrix of the run.
    """
    m, k = op.m, min(KRYLOV_DIM, op.n - 1)
    basis, tri = np.ones((k + 1, op.n)), np.zeros((k + 1, k + 1))
    w = np.cos(np.arange(op.n, dtype=float))
    for j in range(1, k + 1):
        for fresh in (False, True):
            size = []
            for _ in range(2):
                w = w - (basis[:j] @ (m * w)) @ basis[:j]
                size.append(math.sqrt(_m_dot(m, w * w)))
            if size[1] > 0.5 * size[0]:
                break
            w = np.eye(1, op.n, int(np.argmin(m * (basis[:j] ** 2).sum(0))))[0]
        tri[j, j - 1] = 0.0 if fresh else size[1]   # row 1 couples to the constants: unused
        basis[j] = w / size[1]
        w = op.apply(rho, basis[j])
        tri[j, j] = _m_dot(m, basis[j] * w)
    return np.linalg.eigvalsh(tri[1:, 1:])        # reads the lower triangle


def kernel_dimension_check(rho: Density, phi) -> int:
    """Dimension of the numerical kernel of the mobility Laplacian; exactly
    one -- the constants direction -- is expected.

    The constants are in the kernel by construction (every term of L(rho) p
    is a difference p_i - p_j). On the mean-free vectors the spectrum of
    L(rho) lies in [inf rho, sup rho] (:class:`MobilityOperator`), so the
    kernel is exactly the constants. The check counts one for them plus the
    Ritz values of :func:`_ritz_values` below ``KERNEL_RTOL`` of the largest
    in magnitude: ``KRYLOV_DIM`` operator calls and (``KRYLOV_DIM`` + 1) x N
    entries at any N. When N - 1 <= ``KRYLOV_DIM`` the run spans the whole
    mean-free space and the count is that of a dense eigensolve. Ritz values
    always lie inside the true spectrum, so this is a test the operator can
    fail (a wrong tau shows as a Ritz value near zero or outside the
    bracket), not a certificate.
    """
    rho.require_interior("kernel check")
    ritz = np.abs(_ritz_values(MobilityOperator(phi, rho.weights.m), rho.rho))
    top = float(ritz.max(initial=0.0))
    if not math.isfinite(top) or top == 0.0:
        raise ConvergenceError("degenerate spectrum in kernel check")
    return 1 + int(np.sum(ritz < KERNEL_RTOL * top))


# ---------------------------------------------------------------------------
# Geodesic distance by discrete action minimization
# ---------------------------------------------------------------------------

@dataclass
class GeodesicResult:
    """Midpoint-rule estimate of the geodesic distance, the path that
    attains it as one (knots + 1, N) :class:`Density`, and why the descent
    stopped: ``stop_reason`` is ``"converged"`` (gradient norm at or below
    ``grad_tol``), ``"stall"`` (60 step halvings found no acceptable step)
    or ``"max_iters"``, and ``converged`` says whether it is the first;
    ``iterations`` counts accepted steps and ``segment_solves`` the batched
    mobility solves of the call. The report leaves out ``path`` and
    ``action_history`` (``report: False``); the CLI writes them apart."""

    distance: float
    path: Density = field(metadata={"report": False})
    action: float
    iterations: int
    grad_norm: float
    stop_reason: str
    converged: bool
    action_history: list = field(default_factory=list, metadata={"report": False})
    warnings: tuple = ()
    segment_solves: int = 0


def _segment_solve(path, op: MobilityOperator):
    """Mobility inversion on every segment midpoint, all segments at once.

    Returns (action, P, mids) where P[k] is the pressure of segment k and
    the action uses the midpoint metric with uniform time steps.
    """
    m = op.m
    K = path.shape[0] - 1
    mids = 0.5 * (path[:-1] + path[1:])
    V = path[1:] - path[:-1]
    V = V - (V @ m)[:, None]
    P = op.solve(mids, V)
    energies = K * ((m * P * V).sum(axis=1))
    return float(energies.sum()), P, mids


def _path_gradient(path, op: MobilityOperator, P, mids):
    """Euclidean gradient of the discrete action at the interior knots.

    G[k, l] = -m_l sum_j m_j (d tau_lj / d rho_l) (P_kl - P_kj)^2 is minus
    the rho_l-derivative of <P_k, L(rho) P_k>_m at the midpoint of segment k
    (:meth:`MobilityOperator.form_derivative`).
    """
    m = op.m
    K = path.shape[0] - 1
    G = -m * op.form_derivative(mids, P)
    return K * (2.0 * m[None, :] * (P[:-1] - P[1:]) + 0.5 * (G[:-1] + G[1:]))


def _time_laplacian_solve(g):
    """u = T^-1 g, column by column, for the time Laplacian
    T = K tridiag(-1, 2, -1) on the K - 1 interior knots (the rows of g)
    with both endpoints held fixed.

    (T^-1)_ij = min(i, j) (K - max(i, j)) / K^2 for knots i, j in 1..K-1, so

        u_j = ((K - j) sum_{i <= j} i g_i + j sum_{i > j} (K - i) g_i) / K^2,

    two running sums along the knot axis: O(K n), no (K-1)^2 matrix.
    """
    K = g.shape[0] + 1
    j = np.arange(1, K, dtype=float)[:, None]
    low = np.cumsum(j * g, axis=0)                                  # i <= j
    high = np.zeros_like(g)
    high[:-1] = np.cumsum(((K - j) * g)[:0:-1], axis=0)[::-1]       # i > j
    return ((K - j) * low + j * high) / (K * K)


def geodesic_distance(rho_a: Density, rho_b: Density, phi,
                      config: GeodesicConfig = GeodesicConfig()) -> GeodesicResult:
    """Midpoint-rule estimate of the geodesic distance between two interior
    densities.

    A path of ``knots`` segments with fixed endpoints, started on the
    straight line between them, is relaxed by projected descent with Armijo
    backtracking. The step is the steepest descent of the action in the
    metric itself, preconditioned in time: with g_m = grad / m - m-mean the
    m-weighted gradient and T = K tridiag(-1, 2, -1) the time Laplacian that
    couples the knots (:func:`_time_laplacian_solve`), the direction at knot
    k is d_k = L(x_k) (T^-1 g_m)_k, one stacked
    :meth:`MobilityOperator.apply` over all knots. L varies along the path,
    so should sum grad d fail to be positive the step falls back to
    T^-1 g_m, which always descends. A trial step is rejected if it takes
    any knot entry below half its current value (fraction to the boundary)
    or below the positivity floor; knots are pulled back to the unit-mass
    slice. Near ``grad_tol`` the Armijo decrease falls below half an ulp of
    the action, so a step that leaves the action unchanged must lower the
    gradient norm instead. The step length halves on every rejected trial
    and grows by 1.2 after every accepted step. Once the step is below the
    rounding of the path, the trials repeat one path; a trial equal to the
    last one solved reuses that solve.

    The call stops ``converged`` once the largest per-knot m-weighted norm
    of g_m is at most ``grad_tol`` (1 + action), ``stall`` when 60 halvings
    find no acceptable step, and ``max_iters`` after that many accepted
    steps. ``iterations`` counts the accepted steps, ``grad_norm`` is the
    gradient norm of the returned path and ``segment_solves`` counts the
    :func:`_segment_solve` calls. The returned distance is the square root
    of the minimized midpoint-rule action, which equals the arc length at
    the constant-speed minimizer; it is not proven to bound the true
    distance from either side.
    """
    rho_a.require_interior("geodesic endpoint")
    rho_b.require_interior("geodesic endpoint")
    weights = rho_a.weights
    if weights is not rho_b.weights and not np.array_equal(weights.m, rho_b.weights.m):
        raise ValueError("endpoints must share a weight vector")
    config.check_size(len(weights))
    phi = np.asarray(phi, dtype=float)
    m = weights.m
    K = config.knots

    if np.array_equal(rho_a.rho, rho_b.rho):
        path = Density(np.broadcast_to(rho_a.rho, (K + 1, m.size)), weights)
        return GeodesicResult(distance=0.0, path=path, action=0.0, iterations=0,
                              grad_norm=0.0, stop_reason="converged", converged=True,
                              action_history=[0.0])

    t = np.linspace(0.0, 1.0, K + 1)[:, None]
    x = (1.0 - t) * rho_a.rho[None, :] + t * rho_b.rho[None, :]
    op = MobilityOperator(phi, m)

    def gradient(path, P, mids):
        """Euclidean gradient, its m-weighted form g_m and the norm of g_m."""
        grad = _path_gradient(path, op, P, mids)
        g_m = grad / m[None, :]
        g_m = g_m - (g_m @ m)[:, None]
        return grad, g_m, math.sqrt(float(((g_m * g_m) @ m).max()))

    act, P, mids = _segment_solve(x, op)
    solves = 1
    grad, g_m, gnorm = gradient(x, P, mids)
    history = [act]
    stop = "converged"
    it = 0
    eta = 1.0
    solved = None
    while gnorm > config.grad_tol * (1.0 + abs(act)):
        if it == config.max_iters:
            stop = "max_iters"
            break
        u = _time_laplacian_solve(g_m)
        d = op.apply(x[1:-1], u)
        desc = float((grad * d).sum())
        if not desc > 0.0:
            d = u
            desc = float((grad * d).sum())
        for _ in range(60):
            cand = x.copy()
            cand[1:-1] -= eta * d
            cand[1:-1] += (1.0 - cand[1:-1] @ m)[:, None]
            if (cand[1:-1].min() < config.positivity_floor
                    or (cand[1:-1] < 0.5 * x[1:-1]).any()):
                eta *= 0.5
                continue
            if not np.array_equal(cand, solved):
                c_act, P, mids = _segment_solve(cand, op)
                solves += 1
                solved = cand
            if c_act <= act - 1e-4 * eta * desc:
                c_grad, c_gm, c_norm = gradient(cand, P, mids)
                if c_act < act or c_norm < gnorm:
                    break
            eta *= 0.5
        else:
            stop = "stall"
            break
        x, act = cand, c_act
        grad, g_m, gnorm = c_grad, c_gm, c_norm
        history.append(act)
        it += 1
        eta *= 1.2
    warn = [] if stop == "converged" else [stop]
    if x[1:-1].size and x[1:-1].min() <= 10.0 * config.positivity_floor:
        warn.append("boundary")
    return GeodesicResult(
        distance=math.sqrt(max(act, 0.0)),
        # x[0] and x[-1] are the endpoints bitwise: the straight line is
        # exact at t = 0 and t = 1, and the descent moves interior knots only
        path=Density(x, weights, mass_tol=1e-9),
        action=act,
        iterations=it,
        grad_norm=gnorm,
        stop_reason=stop,
        converged=stop == "converged",
        action_history=history,
        warnings=tuple(warn),
        segment_solves=solves,
    )
