"""Mobility operator of the transport metric on the weighted simplex.

The tangent identification works through pairwise mobility coefficients:
the upwind density on potential-ordered pairs and the logarithmic mean on
potential ties. They define the mobility Laplacian L(rho), applied in
potential-sorted order by sums below and above each tie group and, on
ties, by group sums under a Gauss-Legendre rule for the log mean
(:class:`MobilityOperator`); its inverse, by a recurrence over the sorted
groups, gives the metric tensor. The flow of :mod:`graphfp.dynamics` and
the geodesic of :mod:`graphfp.metric` run the same operator.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import ConvergenceError
from .simplex import Density, TangentVector, _m_dot, _scalar

INVERT_RTOL = 1e-10

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

    def form_derivative(self, rho, p):
        """(1/m_i) d<p, L(rho) p>_m / d rho_i
        = sum_j m_j (d tau_ij / d rho_i) (p_i - p_j)^2, along the last axis.
        The partial is 1 for j below i, 0 above it and, on a tie,
        int_0^1 t rho_i^(t-1) rho_j^(1-t) dt by the rule of the log mean."""
        ps = self._sort(p)
        d = ps - ps[..., :1]
        md = self._ms * d
        out = d * (d * self._low_m - 2.0 * self._below(md)) + self._below(md * d)
        if self.has_ties:
            out[..., self._tied] += self._by_rule(self._tie_partial, self._sort(rho), ps)
        return out.take(self._unorder, -1)

    def _tie_partial(self, w, t, E, mf, r, p):
        """The tie part of :meth:`form_derivative`, under one rule."""
        g = self._tie_group
        d = (p - p[:, self._tie_starts][:, g])[:, None]
        a, b, c = (self._sums(mf * d ** k)[..., g] for k in range(3))
        return ((w * t)[:, None] * E * (d * (d * a - 2.0 * b) + c)).sum(-2) / r


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
