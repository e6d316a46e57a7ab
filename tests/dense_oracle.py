"""Dense N x N reference formulas for the sorted-order mobility operator.

Every quantity is built from the full pairwise mobility matrix with
explicit potential-order masks and the closed-form logarithmic mean on
ties, one pair at a time, so it shares no summation order, log-mean rule
or tie bookkeeping with :mod:`graphfp.mobility`. The tests compare the
library against these formulas.
"""

import numpy as np

from graphfp.metric import KERNEL_RTOL
from graphfp.mobility import invert_mobility

# Relative spread below which the logarithmic mean switches to its series.
_LOG_MEAN_SWITCH = 1e-8
# |d| below which the log-mean partial switches to its series.
_PARTIAL_SWITCH = 1e-2


def _log_ratio(a, b):
    """log(a / b) as log1p of the gap relative to the smaller argument:
    a few ulp also when a and b nearly agree, where log a - log b cancels."""
    r = np.log1p(np.abs(a - b) / np.minimum(a, b))
    return np.where(a < b, -r, r)


def log_mean(a, b):
    """Logarithmic mean (a - b) / (log a - log b) for positive arguments,
    in closed form.

    Near a = b the quotient is 0/0, so a Taylor series in
    d = (a - b)/(a + b) takes over:  s * (1 - d^2/3 - 4 d^4/45) with
    s = (a + b)/2.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = 0.5 * (a + b)
    d = (a - b) / (a + b)
    near = np.abs(a - b) <= _LOG_MEAN_SWITCH * np.maximum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = (a - b) / _log_ratio(a, b)
    d2 = d * d
    series = s * (1.0 - d2 / 3.0 - 4.0 * d2 * d2 / 45.0)
    return np.where(near, series, direct)


def log_mean_partial(a, b):
    """Partial derivative of log_mean(a, b) with respect to a.

    The direct form (l - (a - b)/a) / l^2 with l = log(a / b) subtracts two
    terms of order d and loses about eps/|d| relative, so for |d| up to
    1e-2 the series takes over: log_mean = s f(d) with
    f(d) = d / atanh(d) = 1 - d^2/3 - 4 d^4/45 - 44 d^6/945 - 428 d^8/14175,
    and the partial is (f(d) + (1 - d) f'(d)) / 2.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lr = _log_ratio(a, b)
        direct = (lr - (a - b) / a) / (lr * lr)
    d = (a - b) / (a + b)
    d2 = d * d
    f = 1.0 - d2 * (1.0 / 3.0 + d2 * (4.0 / 45.0 + d2 * (44.0 / 945.0 + d2 * 428.0 / 14175.0)))
    df = -d * (2.0 / 3.0 + d2 * (16.0 / 45.0 + d2 * (88.0 / 315.0 + d2 * 3424.0 / 14175.0)))
    return np.where(np.abs(d) <= _PARTIAL_SWITCH, 0.5 * (f + (1.0 - d) * df), direct)


def tau(rho, phi):
    """Mobility matrix tau_ij (stacked over the leading axes of ``rho``):
    the higher-potential density off ties, the logarithmic mean on ties."""
    rho = np.asarray(rho, dtype=float)
    gt = phi[:, None] > phi[None, :]
    lt = phi[:, None] < phi[None, :]
    ri, rj = rho[..., :, None], rho[..., None, :]
    return np.where(gt, ri, np.where(lt, rj, log_mean(ri, rj)))


def kernel_dimension(rho, phi, m):
    """Eigenvalues of diag(tau m) - tau o sqrt(m) sqrt(m)^T, the mobility
    Laplacian in the weighted inner product, below ``KERNEL_RTOL`` of the
    largest in magnitude."""
    sq = np.sqrt(m)
    t = tau(rho, phi)
    evals = np.linalg.eigvalsh(np.diag(t @ m) - t * (sq[:, None] * sq[None, :]))
    return int(np.sum(np.abs(evals) < KERNEL_RTOL * np.abs(evals).max()))


def mobility_weights(rho, phi):
    """Read-only mobility matrix of an interior Density (on the diagonal the
    logarithmic mean equals rho_i)."""
    rho.require_interior("mobility weights")
    values = tau(rho.rho, np.asarray(phi, dtype=float))
    values.setflags(write=False)
    return values


def metric_inner_pairform(rho, phi, sigma1, sigma2):
    """Metric inner product through the symmetric double sum
    (1/2) sum_ij m_i m_j tau_ij (p1_i - p1_j)(p2_i - p2_j)."""
    m = rho.weights.m
    p1 = invert_mobility(rho, phi, sigma1)
    p2 = invert_mobility(rho, phi, sigma2)
    a = (m[:, None] * m[None, :]) * mobility_weights(rho, phi)
    return float(np.dot(a.sum(axis=1), p1 * p2) - p1 @ a @ p2)


def matvec(rho, phi, m, p):
    """(L p)_i = sum_j m_j tau_ij (p_i - p_j)."""
    t = tau(rho, phi)
    return p * (t @ m) - t @ (m * p)


def invert(rho, phi, m, sigma):
    """Mean-free p with L p = sigma, by the bordered symmetric system
    (M L) p + lambda m = M sigma, <m, p> = 0."""
    n = rho.size
    t = tau(rho, phi)
    A = np.empty((n + 1, n + 1))
    A[:n, :n] = -(m[:, None] * m[None, :]) * t
    A[np.arange(n), np.arange(n)] += m * (t @ m)
    A[:n, n] = m
    A[n, :n] = m
    A[n, n] = 0.0
    sol = np.linalg.solve(A, np.concatenate([m * sigma, [0.0]]))
    p = sol[:n]
    return p - float(np.dot(m, p))


def rhs(kind, spec, sign=-1.0):
    """Array-level right-hand sides with pairwise branch masks."""
    m, phi, beta = spec.m, spec.phi, spec.beta
    if kind == "beta_zero":
        gt = phi[None, :] > phi[:, None]
        lt = phi[None, :] < phi[:, None]
        dphi = phi[None, :] - phi[:, None]
        w_gt = np.where(gt, dphi, 0.0) * m[None, :]
        w_lt = (np.where(lt, dphi, 0.0) * m[None, :]).sum(axis=1)
        return lambda y: w_gt @ y + w_lt * y
    if kind == "fpe":
        gt = phi[None, :] > phi[:, None]
        lt = phi[None, :] < phi[:, None]
        eq_m = (phi[None, :] == phi[:, None]) * m[None, :]
        eq_deg = eq_m.sum(axis=1)

        def fpe(y):
            u = phi + beta * np.log(y) if beta > 0.0 else phi
            du = u[None, :] - u[:, None]
            t1 = np.where(gt, du, 0.0) @ (m * y)
            t2 = y * (np.where(lt, du, 0.0) @ m)
            t3 = beta * (eq_m @ y - eq_deg * y) if beta > 0.0 else 0.0
            return t1 + t2 + t3

        return fpe
    if kind == "phibar":
        def phibar(y):
            ly = np.log(y)
            u = phi + beta * ly
            ueff = phi + sign * beta * ly
            gt = ueff[None, :] > ueff[:, None]
            lt = ueff[None, :] < ueff[:, None]
            du = u[None, :] - u[:, None]
            return np.where(gt, du, 0.0) @ (m * y) + y * (np.where(lt, du, 0.0) @ m)

        return phibar
    raise ValueError(kind)


def segment_solve(path, phi, m):
    """(action, P, mids) of the midpoint-rule path action, by one bordered
    dense solve per segment."""
    K = path.shape[0] - 1
    mids = 0.5 * (path[:-1] + path[1:])
    V = path[1:] - path[:-1]
    V = V - (V @ m)[:, None]
    P = np.array([invert(mids[k], phi, m, V[k]) for k in range(K)])
    return float(K * (m * P * V).sum()), P, mids


def form_derivative(rho, phi, m, p):
    """sum_j m_j (d tau_ij / d rho_i) (p_i - p_j)^2, stacked over the
    leading axes of rho and p, from the pairwise derivative."""
    gt = phi[:, None] > phi[None, :]
    lt = phi[:, None] < phi[None, :]
    dlm = log_mean_partial(rho[..., :, None], rho[..., None, :])
    dtau = np.where(gt, 1.0, np.where(lt, 0.0, dlm))
    return (dtau * (p[..., :, None] - p[..., None, :]) ** 2) @ m


def path_gradient(path, phi, m, P, mids):
    """Gradient of the action at the interior knots, from the pairwise
    derivative d tau_lj / d rho_l."""
    K = path.shape[0] - 1
    G = -m[None, :] * form_derivative(mids, phi, m, P)
    return K * (2.0 * m[None, :] * (P[:-1] - P[1:]) + 0.5 * (G[:-1] + G[1:]))
