"""Transport metric on the weighted simplex.

The tangent identification works through pairwise mobility coefficients:
the upwind density on potential-ordered pairs and the logarithmic mean on
potential ties. They define the mobility Laplacian L(rho), applied in
potential-sorted order by sums below and above each tie group and, on
ties, by group sums under a Gauss-Legendre rule for the log mean
(:class:`MobilityOperator`); its inverse, by a recurrence over the sorted
groups, gives the metric tensor.
Geodesic distances are estimated by minimizing a midpoint-rule path action
by projected steepest descent in the metric: the m-gradient is
preconditioned by the inverse discrete time Laplacian of the path, applied
in closed form, and then mapped by L(rho) at every knot.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# The geodesic's settings live in config, which loads no solver.
from .config import GeodesicConfig
from .errors import ConvergenceError
from .simplex import Density, TangentVector, _m_dot, _scalar, l2m_norm_sq

INVERT_RTOL = 1e-10
# Eigenvalues below this fraction of the largest count as kernel.
KERNEL_RTOL = 1e-10
# Lanczos steps of the kernel check, each one operator call; the basis
# holds KRYLOV_DIM + 1 vectors of length N.
KRYLOV_DIM = 64

# Relative error bound of the Gauss-Legendre rule on tie groups: half an ulp.
_RULE_TOL = 2.0 ** -53


@functools.cache
def _gauss_legendre(q):
    """Nodes t and weights w of the q-point Gauss-Legendre rule on [0, 1].

    The nodes are the roots x of the Legendre polynomial P_q, by five
    Newton steps from cos(pi (k + 3/4) / (q + 1/2)), with P_q and P_q' from
    the three-term recurrence (the fifth step moves no node of any q up to
    600 by more than 1.2e-16); the weights are 1 / ((1 - x^2) P_q'(x)^2), half those on [-1, 1].
    Both are symmetrized: t reversed is 1 - t to rounding and w reversed is
    w, so r^(1-t) is r^t with the nodes reversed. The starting cosines are
    taken in single precision, where numpy has its own cos: the float64 one
    calls libm, whose cos pages add 0.1 MB to every process that builds a
    rule.
    """
    x = np.cos((np.pi * (np.arange(q) + 0.75) / (q + 0.5)).astype(np.float32)).astype(float)
    for _ in range(5):
        p0, p1 = 1.0, x
        for k in range(2, q + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = q * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    w = 1.0 / ((1.0 - x * x) * dp * dp)
    return 0.5 - 0.25 * (x - x[::-1]), 0.5 * (w + w[::-1])


@functools.cache
def _rule_spreads():
    """Entry Q - 1: the widest spread c = log(max / min) of the densities in
    one tie group that the Q-point rule covers, for Q = 1 .. 600.

    With K_Q = (Q!)^4 / ((2Q + 1) ((2Q)!)^3), the rule's relative error is
    at most K_Q c^(2Q) (1 + c) on the log mean and
    K_Q c^(2Q - 1) (c + 2Q) 2 (1 + c)^2 on its partial in the first
    argument. c_Q is where the second, larger bound reaches ``_RULE_TOL``;
    twelve fixed-point steps on log c find it to about 1e-10 relative.
    c_600 exceeds the spread of any two positive doubles.
    """
    q = np.arange(1.0, 601.0)
    log_fact = np.cumsum(np.log(np.arange(1.0, 1201.0)))             # log k!, k = 1 .. 1200
    rhs = math.log(_RULE_TOL) - 4.0 * log_fact[:600] + np.log(2.0 * q + 1.0) + 3.0 * log_fact[1::2]
    c = np.ones(600)
    for _ in range(12):
        c = np.exp((rhs - np.log(2.0 * (c + 2.0 * q)) - 2.0 * np.log1p(c)) / (2.0 * q - 1.0))
    return c


# Systems per pass of _gauss_solve. Each step's temporaries then stay in
# cache: 5e4 systems of order 8 took 210-220 ms in one pass, 110-125 ms in
# passes of this size (np.linalg.solve: 90-135 ms), on one thread.
_GAUSS_CHUNK = 2 ** 11


def _gauss_solve(ab):
    """Solutions x (..., n, k) of the stacked systems A x = b held augmented
    as ab = [A | b] (..., n, n + k), by Gaussian elimination with partial
    pivoting.

    Step j swaps in the row of largest magnitude in column j, at or below
    row j, and subtracts its multiples from the rows below; back-substitution
    on the upper triangle follows. This is the algorithm of LAPACK's dgesv
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM
    2002, ch. 9), with a division where dgesv multiplies by the pivot's
    reciprocal. The systems go through in passes of ``_GAUSS_CHUNK``, each
    copied with the system index last, so that every step is one vectorized
    loop over the systems of the pass.
    """
    n = ab.shape[-2]
    flat = ab.reshape(-1, n, ab.shape[-1])
    out = np.empty(flat.shape[:-1] + (ab.shape[-1] - n,))
    for lo in range(0, flat.shape[0], _GAUSS_CHUNK):
        a = flat[lo:lo + _GAUSS_CHUNK].transpose(1, 2, 0).copy()
        cols = np.arange(a.shape[-1])
        for j in range(n):
            piv = j + np.abs(a[j:, j]).argmax(0)
            top = a[piv, j:, cols].T
            a[piv, j:, cols] = a[j, j:].T
            a[j, j:] = top
            a[j + 1:, j + 1:] -= a[j + 1:, j, None] / top[0] * top[1:]
        x = a[:, n:]
        for j in range(n - 1, -1, -1):
            x[j] -= (a[j, j + 1:n, None] * x[j + 1:]).sum(0)
            x[j] /= a[j, j]
        out[lo:lo + _GAUSS_CHUNK] = x.transpose(2, 0, 1)
    return out.reshape(ab.shape[:-1] + out.shape[-1:])


class MobilityOperator:
    """Mobility Laplacian (L(rho) p)_i = sum_j m_j tau_ij (p_i - p_j) of one
    potential ordering, for any density rho.

    tau_ij is the density of the higher-potential endpoint, and the
    logarithmic mean of the two densities on potential ties. With the
    vertices stably sorted by potential, the strictly lower vertices of i
    contribute rho_i sum m_j (p_i - p_j) and the strictly higher ones
    sum m_j rho_j (p_i - p_j): sums over the sorted positions below and
    above the tie group of i (:meth:`_below`, :meth:`_above`), each one
    sequential accumulate and, when the potential has ties, a gather at
    the group's first or last position. On a tie,
    log_mean(a, b) = int_0^1 a^t b^(1-t) dt, taken by the Gauss-Legendre
    rule (t_q, w_q) that the densities need (:func:`_rule_spreads`), so the
    tie term of i is sum_q w_q rho_i^t_q times a group sum of
    m_j rho_j^(1-t_q) (p_i - p_j). Building costs one sort; every product
    is O(N Q). Work is done in sorted order.

    Spectral bracket: for rho > 0, L(rho) restricted to the mean-free
    vectors has its spectrum in [inf rho, sup rho]. Proof (a comparison of
    Dirichlet forms, Maas, J. Funct. Anal. 2011): L(rho) is self-adjoint in
    <x, y>_m = sum_i m_i x_i y_i, with
    <p, L(rho) p>_m = (1/2) sum_ij m_i m_j tau_ij (p_i - p_j)^2, and maps
    the mean-free vectors into themselves. Every tau_ij lies in
    [min(rho_i, rho_j), max(rho_i, rho_j)]: the upwind value is one of the
    two, and the log mean, exact or by the rule (a convex combination of
    rho_i^t rho_j^(1-t)), lies between them. Since sum_j m_j = 1,
    (1/2) sum_ij m_i m_j (p_i - p_j)^2 = ||p||_m^2 for mean-free p, so
    <p, L(rho) p>_m lies in [inf rho, sup rho] ||p||_m^2. Hence the kernel
    of L(rho) is exactly the constants, the injectivity on which the metric
    rests, and sup rho / inf rho bounds the condition number of L(rho) on
    the mean-free vectors.
    """

    def __init__(self, key, m):
        key = np.asarray(key, dtype=float)
        n = key.size
        self.n = n
        self.m = m
        self.order = key.argsort(kind="stable")
        self._unorder = np.empty_like(self.order)
        self._unorder[self.order] = np.arange(n)
        self._key = key[self.order]
        self._ms = m[self.order]
        new = np.empty(n, dtype=bool)
        new[:1] = True
        np.not_equal(self._key[1:], self._key[:-1], out=new[1:])
        self.has_ties = not new.all()
        self._one_group = n > 1 and not new[1:].any()   # a constant potential: no upwind pair
        self._upto_m = np.add.accumulate(self._ms)    # mass up to the end of the group
        if self.has_ties:
            self._starts = np.flatnonzero(new)
            self._group = np.cumsum(new) - 1          # tie group of each sorted position
            self._group_m = np.add.reduceat(self._ms, self._starts)[self._group]
            self._first = self._starts[self._group]   # first and last position of the group
            self._last = np.append(self._starts[1:], n)[self._group] - 1
            self._upto_m = self._upto_m[self._last]
            # the positions in groups of two or more, and where each group
            # starts among them
            self._tied = np.flatnonzero(self._last > self._first)
            self._tie_first = new[self._tied]
            self._tie_starts = np.flatnonzero(self._tie_first)
            self._tie_group = np.cumsum(self._tie_first) - 1
            # the tie groups batched by size: per size, a slice of the
            # groups in size order and their tied positions (groups, size)
            sizes = np.diff(np.append(self._tie_starts, self._tied.size))
            by_size = sizes.argsort(kind="stable")
            size, lo = np.unique(sizes[by_size], return_index=True)
            hi = np.append(lo[1:], by_size.size)
            self._tie_batches = [
                (slice(a, b), self._tie_starts[by_size[a:b], None] + np.arange(q))
                for q, a, b in zip(size.tolist(), lo.tolist(), hi.tolist())]
        self._low_m = self._below(self._ms)           # mass strictly below the group

    def _below(self, x):
        """Sums of x over the sorted positions strictly below the tie group
        of each position, along the last axis: one sequential accumulate."""
        out = np.zeros(x.shape)
        np.add.accumulate(x[..., :-1], axis=-1, out=out[..., 1:])
        return out[..., self._first] if self.has_ties else out

    def _above(self, x):
        """Sums of x over the sorted positions strictly above the tie group
        of each position, along the last axis: one sequential accumulate."""
        out = np.zeros(x.shape)
        np.add.accumulate(x[..., :0:-1], axis=-1, out=out[..., -2::-1])
        return out[..., self._last] if self.has_ties else out

    def _sort(self, x):
        """x in sorted order along the last axis; x.take(self._unorder, -1)
        puts a sorted x back. ``take``, unlike x[..., order] and its scatter
        inverse, costs a row of a stack no more than one vector, and halves
        the cost of either at N = 1e5."""
        return x.take(self.order, axis=-1)

    def _upwind(self, rs, mr, us):
        """Sorted-order sum over j outside the tie group of i of
        m_j tau_ij (u_i - u_j), given rho and m rho in sorted order."""
        if self._one_group:
            return np.zeros(np.broadcast_shapes(rs.shape, us.shape))
        us = us - us[..., 0, None]   # L annihilates constants; smaller cut sums lose less
        low = self._below(self._ms * us)
        high = self._above(mr * us)
        return rs * (us * self._low_m - low) + us * self._above(mr) - high

    def _sums(self, x):
        """Sums of x over each tie group, along the last axis of tied positions."""
        return np.add.reduceat(x, self._tie_starts, axis=-1)

    def _by_rule(self, kernel, rs, *xs):
        """kernel(w, t, E, mf, r, *x) on the tied positions of the sorted rs
        and xs (of one shape), stacked over their leading axes.

        r and x hold the rows that need one Gauss-Legendre rule (t, w),
        flattened to (rows, s); E[:, q] = r^t_q and mf[:, q] = m r^(1-t_q).
        Rows that need the same rule share one call, so a row gets the same
        result alone as in any stack.
        """
        lead, ts = rs.shape[:-1], self._tie_starts
        r, *xs = (x[..., self._tied].reshape(-1, self._tied.size) for x in (rs, *xs))
        with np.errstate(divide="ignore", invalid="ignore"):
            lr = np.log(r)
            spread = (np.maximum.reduceat(lr, ts, -1) - np.minimum.reduceat(lr, ts, -1)).max(-1)
        if not spread.max() <= _rule_spreads()[-1]:
            raise ValueError("tied densities must be positive and finite")
        size = np.searchsorted(_rule_spreads(), spread) + 1
        out = None
        for q in set(size.tolist()):
            rows = slice(None) if size.size == 1 else np.flatnonzero(size == q)
            t, w = _gauss_legendre(q)
            E = np.exp(t[:, None] * lr[rows, None, :])
            mf = self._ms[self._tied] * E[:, ::-1]
            part = kernel(w, t, E, mf, r[rows], *(x[rows] for x in xs))
            out = np.empty(r.shape[:1] + part.shape[1:]) if out is None else out
            out[rows] = part
        return out.reshape(lead + out.shape[1:])

    def _tie_flux(self, w, t, E, mf, r, p):
        """sum over the tie group of i of m_j log_mean(r_i, r_j) (p_i - p_j)."""
        g = self._tie_group
        d = (p - p[:, self._tie_starts][:, g])[:, None]   # differences within a group lose less
        return (w[:, None] * E * (d * self._sums(mf)[..., g] - self._sums(mf * d)[..., g])).sum(-2)

    def apply(self, rho, p):
        """L(rho) p, stacked over the leading axes of rho and p."""
        rs, ps = self._sort(rho), self._sort(p)
        out = self._upwind(rs, self._ms * rs, ps)
        if self.has_ties:
            out[..., self._tied] += self._by_rule(self._tie_flux, rs, ps)
        return out.take(self._unorder, -1)

    def upwind(self, rho, u):
        """sum over j outside the tie group of i of m_j tau_ij (u_i - u_j),
        stacked over the leading axes of rho and u."""
        rs = self._sort(rho)
        return self._upwind(rs, self._ms * rs, self._sort(u)).take(self._unorder, -1)

    def flow(self, rho, beta):
        """Right-hand side -L(rho) u of the flow, u = key + beta log rho,
        for the operator of the potential ``key``, stacked over the leading
        axes of rho.

        On a tie, log_mean(rho_i, rho_j) (u_i - u_j) = beta (rho_i - rho_j)
        exactly, so ties need only their group sums.
        """
        rs = self._sort(rho)
        mr = self._ms * rs
        us = self._key + beta * np.log(rs) if beta != 0.0 else self._key
        out = self._upwind(rs, mr, us)
        if beta != 0.0 and self.has_ties:
            group_mr = np.add.reduceat(mr, self._starts, axis=-1)[..., self._group]
            out += beta * (self._group_m * rs - group_mr)
        return -out.take(self._unorder, -1)

    def solve(self, rho, sigma):
        """Mean-free p with L(rho) p = sigma, exactly, stacked over the
        leading axes of rho and sigma (sigma mean-free on the last axis).

        Cut the sorted vertices above tie group g. The m-weighted flux of
        L(rho) p across the cut is A_g B_g - S_g C_g, where S_g and A_g sum
        m and m p up to g, and B_g and C_g sum m rho and m rho p above g. It
        equals the sum of m sigma up to g. Take <m, p> = 0, so A_g = -D_g with
        D_g the sum of m p above g. Eliminating C_g between two consecutive
        cuts leaves y_g = D_g / S_g with increments delta_g = y_{g-1} - y_g
        that involve group g alone. So y is a suffix sum of delta, and
        p = h_g - y_g on group g, with h_g from group g alone as well
        (:meth:`_tie_block` on a tie group). A single vertex k needs no
        solve: with W_k = rho_k S_k + B_k and v_k = sigma_k minus the m-mean
        of sigma below k,

            delta_k = m_k v_k / (S_k W_k),   h_k = (S_{k-1} / S_k) v_k / W_k.

        No difference of near-equal sums is formed, so tiny weights keep
        full accuracy.
        """
        ms, below, upto = self._ms, self._low_m, self._upto_m
        rs, ss = self._sort(rho), self._sort(sigma)
        inv_below = np.divide(1.0, below, out=np.zeros(self.n), where=below > 0.0)
        high = self._above(ms * rs)                             # B
        v = ss - self._below(ms * ss) * inv_below               # sigma - lower mean
        w = rs * upto + high
        delta = ms * v / (upto * w)
        h = (below / upto) * v / w
        if self.has_ties:
            tie = self._by_rule(self._tie_block, rs, high, v)
            h[..., self._tied], delta[..., self._tied] = tie[..., 0, :], tie[..., 1, :]
        p = h - self._above(delta)
        p = p - _m_dot(ms, p)[..., None]
        return p.take(self._unorder, -1)

    def _tie_block(self, w, t, E, mf, r, high, v):
        """h, and delta at each group's first position (zero at the others),
        on the tied positions, stacked as (rows, 2, s).

        A group's pressure solves its block M = diag(r S'_g + B_g) plus the
        tie Laplacian, S'_g = S_{g-1}, against three right-hand sides. Under
        the rule, M = D - E^T diag(w) mf on each group, D diagonal, plus
        1 m^T to pin the mean when one group holds every vertex: a diagonal
        plus left^T diag(c) right of rank Q + 1, the pin's weight zero where
        a cut bounds the group. By Woodbury, x = D^-1 (rhs - left^T z), where
        z = diag(c) right x solves the capacitance system
        (I + diag(c) right D^-1 left^T) z = diag(c) right D^-1 rhs of order
        Q + 1, one per group and row.

        The groups of one size share one batched ``matmul`` for their Gram
        matrices and right-hand sides, on a gather of (rows, groups, size,
        Q + 4), and one for the back-substitution; no array of (Q + 1)^2 or
        3 (Q + 1) entries per tied position is formed. All systems then go
        to :func:`_gauss_solve`, not ``np.linalg.solve``: no command calls
        LAPACK, whose dgesv alone lifted the peak memory of a
        ``configs/master.yaml`` run by 0.4 MB (38.4 against 38.0 MB, medians
        of 9 processes).
        """
        ts, g, mt = self._tie_starts, self._tie_group, self._ms[self._tied]
        first = self._tied[ts]
        below, upto, b_up = self._low_m[first], self._upto_m[first], high[:, ts]
        diag = r * below[g] + high + (w[:, None] * E * self._sums(mf)[..., g]).sum(-2)
        vbar = self._sums(mt * v) / self._sums(mt)
        # [left | y] = [E, 1 | v - vbar, 1, r] / diag, position-major
        # (rows, s, Q + 4), so that a gather of positions on axis 1 is
        # (rows, groups, size, Q + 4). The last rank of left and right is the
        # pin, with weight 1 only when no cut bounds the group.
        k = w.size + 1
        ly = np.empty(r.shape + (k + 3,))
        ly[..., :-4] = np.moveaxis(E, 1, -1)
        ly[..., -4], ly[..., -3], ly[..., -2], ly[..., -1] = 1.0, v - vbar[:, g], 1.0, r
        ly /= diag[..., None]
        c = np.append(-w, float(self._one_group))
        c_right = np.concatenate([mf, np.broadcast_to(mt, r.shape)[:, None]], 1) * c[:, None]
        aug = np.empty((r.shape[0], ts.size, k, k + 3))   # [I + c Gram | c right y^T]
        for groups, pos in self._tie_batches:
            np.matmul(c_right[..., pos].swapaxes(1, 2), ly[:, pos], out=aug[:, groups])
        aug[..., range(k), range(k)] += 1.0
        z = _gauss_solve(aug)
        y = ly[..., k:]
        for groups, pos in self._tie_batches:
            y[:, pos] -= ly[:, pos, :k] @ z[:, groups]
        a, cc, b = np.moveaxis(y, -1, 0)
        beta, gamma, ma = self._sums(mt * b), self._sums(mt * cc), self._sums(mt * a)
        # <m, a> / S'_g, through the identity m^T M = (m (rho S'_g + B_g))^T
        # whenever B_g dominates, where the direct quotient would cancel
        with np.errstate(divide="ignore", invalid="ignore"):
            lead = np.where(b_up > below, -self._sums(mt * r * a) / b_up, ma / below)
        dg = np.where(below > 0.0, (lead + vbar * gamma / upto) / (1.0 + beta), 0.0)
        h = a + (vbar * below / upto)[:, g] * cc - (below * dg)[:, g] * b
        return np.array([h, dg[:, g] * self._tie_first]).swapaxes(0, 1)

    def below_sq(self, p):
        """sum over j strictly below i of m_j (p_i - p_j)^2, along the last axis."""
        ps = self._sort(p)
        ps = ps - ps[..., :1]
        mp = self._ms * ps
        s1 = self._below(mp)
        s2 = self._below(mp * ps)
        return (ps * (ps * self._low_m - 2.0 * s1) + s2).take(self._unorder, -1)

    def tie_sq(self, rho, p):
        """sum over j in the tie group of i of
        m_j (d log_mean(rho_i, rho_j) / d rho_i) (p_i - p_j)^2, along the
        last axis, for an operator with ties. The partial is
        int_0^1 t rho_i^(t-1) rho_j^(1-t) dt, by the rule of the mean."""
        out = np.zeros(p.shape)
        out[..., self._tied] = self._by_rule(self._tie_partial, self._sort(rho), self._sort(p))
        return out.take(self._unorder, -1)

    def _tie_partial(self, w, t, E, mf, r, p):
        """:meth:`tie_sq` on the tied positions, under one rule."""
        g = self._tie_group
        d = (p - p[:, self._tie_starts][:, g])[:, None]
        a, b, c = (self._sums(mf * d ** k)[..., g] for k in range(3))
        return ((w * t)[:, None] * E * (d * (d * a - 2.0 * b) + c)).sum(-2) / r


def apply_mobility(rho: Density, phi, p) -> TangentVector:
    """Map a pressure-like vector p to the tangent sigma_i =
    sum_j m_j tau_ij (p_i - p_j); constants map to zero."""
    rho.require_interior("mobility application")
    p = np.asarray(p, dtype=float)
    op = MobilityOperator(phi, rho.weights.m)
    return TangentVector(op.apply(rho.rho, p), rho.weights, mean_tol=1e-10)


def invert_mobility(rho: Density, phi, sigma: TangentVector) -> np.ndarray:
    """Unique mean-free p with apply_mobility(rho, phi, p) = sigma, row by
    row of a stack (row k of sigma at row k of rho); the relative residual
    of every row in the m-weighted norm is checked against ``INVERT_RTOL``.

    ``phi`` is the potential, or a :class:`MobilityOperator` already built
    from it and the weights of ``rho``, so that callers inverting at many
    densities with one potential sort it once.
    """
    rho.require_interior("mobility inversion")
    m = rho.weights.m
    s = sigma.sigma
    op = phi if isinstance(phi, MobilityOperator) else MobilityOperator(phi, m)
    p = op.solve(rho.rho, s)
    res = op.apply(rho.rho, p) - s
    ok = np.sqrt(_m_dot(m, res * res)) <= INVERT_RTOL * np.sqrt(_m_dot(m, s * s))
    if not ok.all():
        k = int(np.argmin(ok))
        ratio = np.ravel(rho.sup)[k] / np.ravel(rho.inf)[k]
        raise ConvergenceError(f"mobility inversion residual above {INVERT_RTOL:.1e} "
                               f"(row {k}, sup rho / inf rho = {ratio:.3e}, which bounds "
                               "the condition number of L(rho))")
    return p


def metric_inner(rho: Density, phi, sigma1: TangentVector, sigma2: TangentVector):
    """Metric inner product g(sigma1, sigma2) = sum_i m_i p1_i sigma2_i, one
    value per row of a stack; ``phi`` as in :func:`invert_mobility`."""
    p1 = invert_mobility(rho, phi, sigma1)
    return _scalar(_m_dot(rho.weights.m, p1 * sigma2.sigma))


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

    G[k, l] = -m_l sum_j m_j (d tau_lj / d rho_l) (P_kl - P_kj)^2, where the
    derivative is 1 for j below l, 0 above it, and the log-mean partial on
    ties: sums below each tie group for the ordered pairs
    (:meth:`MobilityOperator.below_sq`), group sums under the quadrature for
    the ties (:meth:`MobilityOperator.tie_sq`).
    """
    m = op.m
    K = path.shape[0] - 1
    inner = op.below_sq(P)
    if op.has_ties:
        inner += op.tie_sq(mids, P)
    G = -m * inner
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
