"""Mobility weights, the tangent identification, the metric tensor, and
geodesic distances."""

import math
import re
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import graphfp as g
from graphfp import metric, mobility
from scipy.optimize import minimize

from graphfp.metric import _path_gradient, _segment_solve, _time_laplacian_solve
from graphfp.mobility import MobilityOperator
from graphfp.serialize import jsonify
import dense_oracle
from dense_oracle import log_mean
from helpers import explicit_weights, half_weights, random_interior, random_tangent

positive_floats = st.floats(min_value=1e-6, max_value=1e6)


class TestLogMean:
    def test_equal_arguments(self):
        assert log_mean(0.7, 0.7) == pytest.approx(0.7, rel=1e-15)

    def test_direct_quotient(self):
        assert log_mean(1.0, 2.0) == pytest.approx(1.0 / math.log(2.0), rel=1e-15)

    def test_series_keeps_full_precision(self):
        # direct evaluation loses ~7 digits at 1e-9 separation; frozen
        # against a 50-digit reference
        assert log_mean(1.0, 1.0 + 1e-9) == pytest.approx(
            1.0000000005, rel=1e-15)
        assert log_mean(1.0, 1.0 + 5e-9) == pytest.approx(
            1.0000000025, rel=1e-15)
        assert log_mean(0.37, 0.37 * (1 + 3e-9)) == pytest.approx(
            0.37000000055499997, rel=1e-15)

    @given(a=positive_floats, b=positive_floats)
    @settings(max_examples=200, deadline=None)
    def test_between_min_and_max(self, a, b):
        lm = float(log_mean(a, b))
        scale = max(a, b)
        assert min(a, b) - 1e-14 * scale <= lm <= max(a, b) + 1e-14 * scale

    def test_symmetric(self):
        assert log_mean(0.3, 2.9) == log_mean(2.9, 0.3)
        assert log_mean(1.0, 1.0 + 3e-9) == log_mean(1.0 + 3e-9, 1.0)

    @pytest.mark.parametrize("b", [1e-6, 1e-3, 3.7, 1e3])
    def test_against_decimal_oracle(self, b):
        """Log mean and its partial within 1e-12 relative of a 60-digit
        evaluation, for spreads from 1e-12 to 1 on either side of b."""
        def oracle(x, y):
            x, y = Decimal(x), Decimal(y)
            lg = x.ln() - y.ln()
            return (x - y) / lg, (lg - (x - y) / x) / (lg * lg)

        with localcontext() as ctx:
            ctx.prec = 60
            for spread in np.logspace(-12, 0, 49):
                a = b * (1.0 + spread)
                for x, y in ((a, b), (b, a)):
                    lm, partial = oracle(x, y)
                    assert abs(Decimal(float(log_mean(x, y))) / lm - 1) <= Decimal("1e-12")
                    got = Decimal(float(dense_oracle.log_mean_partial(x, y)))
                    assert abs(got / partial - 1) <= Decimal("1e-12")


class TestMobilityWeights:
    def test_tie_branch_equal_density(self):
        w = half_weights()
        rho = g.Density(np.array([1.0, 1.0]), w)
        tau = dense_oracle.mobility_weights(rho, np.zeros(2))
        np.testing.assert_allclose(tau, 1.0)

    def test_tie_branch_log_mean(self):
        w = half_weights()
        rho = g.Density.normalized(np.array([1.0, 2.0]), w)
        scale = float(np.dot(w.m, [1.0, 2.0]))
        tau = dense_oracle.mobility_weights(rho, np.zeros(2))
        assert tau[0, 1] * scale == pytest.approx(1.0 / math.log(2.0), rel=1e-14)

    def test_ordered_branch_takes_high_potential_density(self):
        w = half_weights()
        rho = g.Density.normalized(np.array([1.0, 2.0]), w)
        tau = dense_oracle.mobility_weights(rho, np.array([0.0, 1.0]))
        assert tau[0, 1] == rho.rho[1]  # phi_1 < phi_2 -> density at vertex 2
        assert tau[1, 0] == rho.rho[1]

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry_and_sandwich(self, seed):
        w = explicit_weights(12, seed=seed)
        rho = random_interior(seed, w)
        phi = np.random.default_rng(seed).integers(0, 3, 12).astype(float)
        tau = dense_oracle.mobility_weights(rho, phi)
        np.testing.assert_array_equal(tau, tau.T)
        lo = np.minimum(rho.rho[:, None], rho.rho[None, :])
        hi = np.maximum(rho.rho[:, None], rho.rho[None, :])
        assert np.all(tau >= lo - 1e-14 * hi)
        assert np.all(tau <= hi * (1 + 1e-14))

    def test_requires_interior(self):
        w = half_weights()
        rho = g.Density(np.array([2.0, 0.0]), w)
        with pytest.raises(ValueError):
            dense_oracle.mobility_weights(rho, np.zeros(2))


class TestApplyMobility:
    def test_constants_map_to_zero(self):
        w = explicit_weights(6, seed=3)
        rho = random_interior(2, w)
        phi = np.random.default_rng(2).uniform(-1, 1, 6)
        out = g.apply_mobility(rho, phi, np.full(6, 2.2))
        np.testing.assert_allclose(out.sigma, 0.0, atol=1e-13)

    def test_two_vertex_hand_case(self):
        w = half_weights()
        rho = g.Density(np.ones(2), w)
        out = g.apply_mobility(rho, np.zeros(2), np.array([1.0, -1.0]))
        np.testing.assert_allclose(out.sigma, [1.0, -1.0], rtol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_shift_invariance(self, seed):
        w = explicit_weights(9, seed=seed)
        rho = random_interior(seed, w)
        phi = np.random.default_rng(seed).uniform(-1, 1, 9)
        p = np.random.default_rng(seed + 1).normal(size=9)
        a = g.apply_mobility(rho, phi, p).sigma
        b = g.apply_mobility(rho, phi, p + 17.3).sigma
        np.testing.assert_allclose(b, a, atol=1e-14 * (1 + np.abs(a).max()))

    @pytest.mark.parametrize("seed", range(5))
    def test_self_adjoint(self, seed):
        w = explicit_weights(11, seed=seed)
        rho = random_interior(seed + 20, w)
        phi = np.random.default_rng(seed).uniform(-1, 1, 11)
        rng = np.random.default_rng(seed + 7)
        p, q = rng.normal(size=11), rng.normal(size=11)
        lhs = float(np.dot(w.m, g.apply_mobility(rho, phi, p).sigma * q))
        rhs = float(np.dot(w.m, p * g.apply_mobility(rho, phi, q).sigma))
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))


@st.composite
def _cut_sum_case(draw):
    """(key, m, x): a potential with all values distinct, on the levels
    {0, 1, 2} or one group, positive weights, and a (rows, n) stack of
    values in sorted order, for n in {1, 2} and larger."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 40)))
    kind = draw(st.sampled_from(["distinct", "levels", "one group"]))
    if kind == "distinct":
        key = [float(k) for k in draw(st.permutations(range(n)))]
    elif kind == "levels":
        key = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n, max_size=n))
    else:
        key = [0.0] * n
    m = draw(st.lists(st.floats(1e-6, 1.0), min_size=n, max_size=n))
    rows = draw(st.integers(1, 4))
    x = draw(st.lists(st.floats(-1e30, 1e30), min_size=rows * n, max_size=rows * n))
    return np.array(key), np.array(m), np.array(x).reshape(rows, n)


class TestCutSums:
    """``_below`` and ``_above`` against their definition: fsum over the
    sorted positions in strictly lower, or strictly higher, tie groups.
    A sequential sum of n terms errs by at most (n - 1) eps/2 sum |x| to
    first order, so N eps sum |x| bounds every entry."""

    @staticmethod
    def _exact(op, x, side):
        ks = op._key
        out = np.empty(x.shape)
        for i in range(op.n):
            cut = ks < ks[i] if side == "below" else ks > ks[i]
            out[:, i] = [math.fsum(row[cut]) for row in x]
        return out

    @settings(max_examples=200, deadline=None)
    @given(_cut_sum_case())
    def test_against_fsum(self, case):
        key, m, x = case
        op = MobilityOperator(key, m)
        for side, sums in (("below", op._below), ("above", op._above)):
            got = sums(x)
            assert got.shape == x.shape
            bound = op.n * np.finfo(float).eps * np.abs(x).sum(-1, keepdims=True)
            assert (np.abs(got - self._exact(op, x, side)) <= bound).all(), side
            for r, row in enumerate(x):
                # a row of a stack sums alone as in the stack, bitwise
                assert np.array_equal(sums(row), got[r]), side

    @settings(max_examples=200, deadline=None)
    @given(_cut_sum_case())
    def test_masses(self, case):
        key, m, _ = case
        op = MobilityOperator(key, m)
        ms, ks = op._ms, op._key
        bound = op.n * np.finfo(float).eps * ms.sum()
        low = [math.fsum(ms[ks < k]) for k in ks]
        upto = [math.fsum(ms[ks <= k]) for k in ks]
        assert (np.abs(op._low_m - low) <= bound).all()
        assert (np.abs(op._upto_m - upto) <= bound).all()
        assert np.array_equal(op._low_m, op._below(ms))

    def test_no_tie_bookkeeping_without_ties(self):
        op = MobilityOperator(np.array([0.3, -1.0, 2.0]), np.full(3, 1 / 3))
        assert not op.has_ties
        assert not any(hasattr(op, name) for name in ("_group", "_first", "_last", "_starts"))


class TestInvertMobility:
    def test_zero_maps_to_zero(self):
        w = explicit_weights(5, seed=1)
        rho = random_interior(0, w)
        sig = g.TangentVector(np.zeros(5), w)
        np.testing.assert_array_equal(g.invert_mobility(rho, np.zeros(5), sig), 0.0)

    def test_two_vertex_hand_case(self):
        w = half_weights()
        rho = g.Density(np.ones(2), w)
        sig = g.TangentVector(np.array([1.0, -1.0]), w)
        p = g.invert_mobility(rho, np.zeros(2), sig)
        np.testing.assert_allclose(p, [1.0, -1.0], rtol=1e-13)

    @pytest.mark.parametrize("n", [2, 10, 50, 200])
    def test_round_trip(self, n):
        w = explicit_weights(n, seed=n)
        rho = random_interior(n, w)
        phi = np.random.default_rng(n).uniform(-2, 2, n)
        p = random_tangent(n + 3, w).sigma
        sig = g.apply_mobility(rho, phi, p)
        back = g.invert_mobility(rho, phi, sig)
        assert np.abs(back - p).max() <= 1e-9 * (1 + np.abs(p).max())

    def test_prebuilt_operator_gives_same_pressure(self):
        w = explicit_weights(30, seed=9)
        rho = random_interior(9, w)
        phi = np.random.default_rng(9).integers(0, 4, 30).astype(float)
        sig = random_tangent(12, w)
        op = MobilityOperator(phi, w.m)
        np.testing.assert_array_equal(g.invert_mobility(rho, op, sig),
                                      g.invert_mobility(rho, phi, sig))
        assert g.metric_inner(rho, op, sig, sig) == g.metric_inner(rho, phi, sig, sig)

    def test_residual_quality(self):
        w = explicit_weights(40, seed=8)
        rho = random_interior(8, w)
        phi = np.random.default_rng(8).uniform(-2, 2, 40)
        sig = random_tangent(11, w)
        p = g.invert_mobility(rho, phi, sig)
        resid = g.apply_mobility(rho, phi, p).sigma - sig.sigma
        rel = math.sqrt(g.l2m_norm_sq(resid, w) / g.l2m_norm_sq(sig.sigma, w))
        assert rel <= 1e-10

    def test_extreme_densities_stay_within_the_conditioning_bound(self):
        # sup rho / inf rho bounds the condition number of L(rho) on the
        # mean-free vectors (MobilityOperator), so at densities spanning
        # e^+-15 the solve may miss INVERT_RTOL, but not that ratio times
        # eps; where it misses, invert_mobility names the ratio
        for k in range(60):
            n = (5, 20, 50, 200)[k % 4]
            w = explicit_weights(n, seed=k)
            rng = np.random.default_rng(k)
            rho = g.Density.normalized(np.exp(rng.uniform(-15, 15, n)), w)
            phi = (rng.uniform(-2, 2, n), np.zeros(n),
                   rng.integers(0, 3, n).astype(float))[k // 4 % 3]
            sig = random_tangent(100 + k, w)
            op = MobilityOperator(phi, w.m)
            res = op.apply(rho.rho, op.solve(rho.rho, sig.sigma)) - sig.sigma
            rel = math.sqrt(g.l2m_norm_sq(res, w) / g.l2m_norm_sq(sig.sigma, w))
            ratio = rho.sup / rho.inf
            assert rel <= ratio * 2.0 ** -52, k
            if rel > mobility.INVERT_RTOL:
                with pytest.raises(g.ConvergenceError,
                                   match=re.escape(f"sup rho / inf rho = {ratio:.3e}")):
                    g.invert_mobility(rho, op, sig)

    def test_solve_matches_dense_oracle(self):
        w = explicit_weights(60, seed=5)
        rho = random_interior(5, w)
        phi = np.random.default_rng(5).uniform(-1, 1, 60)
        sig = random_tangent(6, w)
        direct = dense_oracle.invert(rho.rho, phi, w.m, sig.sigma)
        solved = g.invert_mobility(rho, phi, sig)
        np.testing.assert_allclose(solved, direct, atol=1e-8 * (1 + np.abs(direct).max()))

    def test_operator_matches_dense_oracle(self):
        w = explicit_weights(70, seed=9)
        rho = random_interior(9, w)
        phi = np.random.default_rng(9).uniform(-1, 1, 70)
        p = np.random.default_rng(10).normal(size=70)
        op = MobilityOperator(phi, w.m)
        np.testing.assert_allclose(op.apply(rho.rho, p),
                                   dense_oracle.matvec(rho.rho, phi, w.m, p), atol=1e-13)


class TestMetricInner:
    def test_two_vertex_value(self):
        w = half_weights()
        rho = g.Density(np.ones(2), w)
        sig = g.TangentVector(np.array([1.0, -1.0]), w)
        assert g.metric_inner(rho, np.zeros(2), sig, sig) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("seed", range(6))
    def test_positive_definite_and_symmetric(self, seed):
        w = explicit_weights(10, seed=seed)
        rho = random_interior(seed, w)
        phi = np.random.default_rng(seed).uniform(-2, 2, 10)
        s1 = random_tangent(seed + 1, w)
        s2 = random_tangent(seed + 2, w)
        g11 = g.metric_inner(rho, phi, s1, s1)
        assert g11 > 0.0
        g12 = g.metric_inner(rho, phi, s1, s2)
        g21 = g.metric_inner(rho, phi, s2, s1)
        assert g12 == pytest.approx(g21, abs=1e-12 * (1 + abs(g12)))

    @pytest.mark.parametrize("seed", range(6))
    def test_product_and_pair_forms_agree(self, seed):
        w = explicit_weights(14, seed=seed + 30)
        rho = random_interior(seed + 30, w)
        phi = np.random.default_rng(seed).uniform(-2, 2, 14)
        s1 = random_tangent(seed + 4, w)
        s2 = random_tangent(seed + 5, w)
        a = g.metric_inner(rho, phi, s1, s2)
        b = dense_oracle.metric_inner_pairform(rho, phi, s1, s2)
        assert b == pytest.approx(a, rel=1e-10)

    def test_dissipation_route(self):
        # for sigma = flow rhs, g(sigma, sigma) = -<phi + beta log rho, sigma>_m
        spec = g.GraphSpec(weights=explicit_weights(9, seed=2),
                           phi=np.random.default_rng(2).uniform(-1, 1, 9), beta=1.3)
        rho = random_interior(7, spec.weights)
        sig = g.fokker_planck_rhs(rho, spec)
        val = g.metric_inner(rho, spec.phi, sig, sig)
        u = spec.phi + spec.beta * np.log(rho.rho)
        direct = -float(np.dot(spec.m, u * sig.sigma))
        assert val == pytest.approx(direct, rel=1e-9)


# the four inequality margins of a NormEquivalenceReport
_MARGINS = ("lower_g", "upper_g", "lower_sigma", "upper_sigma")


class TestNormEquivalence:
    def test_uniform_density_collapses(self):
        w = explicit_weights(7)
        rho = g.Density(np.ones(7), w)
        sig = random_tangent(1, w)
        rep = g.norm_equivalence_check(rho, np.zeros(7), sig)
        assert rep.g == pytest.approx(rep.p_norm_sq, rel=1e-12)
        for name in _MARGINS:
            assert getattr(rep, name) >= -1e-12 * (rep.g + rep.sigma_norm_sq + rep.p_norm_sq), name

    @pytest.mark.parametrize("seed", range(10))
    def test_margins_nonnegative(self, seed):
        w = explicit_weights(12, seed=seed)
        rho = random_interior(seed + 60, w, spread=1.0)
        phi = np.random.default_rng(seed).uniform(-2, 2, 12)
        sig = random_tangent(seed, w)
        rep = g.norm_equivalence_check(rho, phi, sig)
        scale = rep.g + rep.sigma_norm_sq + rep.p_norm_sq
        for name in _MARGINS:
            assert getattr(rep, name) >= -1e-12 * scale, name

    def test_zero_tangent(self):
        w = explicit_weights(5)
        rho = random_interior(3, w)
        rep = g.norm_equivalence_check(rho, np.zeros(5), g.TangentVector(np.zeros(5), w))
        assert rep.g == 0.0 and rep.sigma_norm_sq == 0.0 and rep.p_norm_sq == 0.0


class TestKernelDimension:
    def test_two_vertex_spectrum(self):
        # operator matrix [[m2 t, -m2 t], [-m1 t, m1 t]]: eigenvalues 0 and t*(m1+m2)
        w = half_weights()
        rho = g.Density(np.ones(2), w)
        assert g.kernel_dimension_check(rho, np.zeros(2)) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_random_instances(self, seed):
        w = explicit_weights(10, seed=seed)
        rho = random_interior(seed, w)
        phi = np.random.default_rng(seed).uniform(-2, 2, 10)
        assert g.kernel_dimension_check(rho, phi) == 1

    def test_near_boundary(self):
        w = explicit_weights(6)
        raw = np.ones(6)
        raw[0] = 1e-8
        rho = g.Density.normalized(raw, w)
        assert g.kernel_dimension_check(rho, np.arange(6.0)) == 1

    @pytest.mark.parametrize("n", [10, 200, 500])
    @pytest.mark.parametrize("levels", [1, 3])
    def test_tie_instances(self, n, levels):
        # a constant potential (one tie group) and potential levels {0, 1, 2}
        w = explicit_weights(n, seed=n)
        rho = random_interior(n + levels, w)
        phi = np.random.default_rng(n).integers(0, levels, n).astype(float)
        count = g.kernel_dimension_check(rho, phi)
        assert count == dense_oracle.kernel_dimension(rho.rho, phi, w.m) == 1

    # N from 2 to 500, both sides of N - 1 = KRYLOV_DIM included
    SIZES = (2, 3, 4, 5, 7, 10, 14, 20, 28, 40, 50, 63, 64, 65, 66, 80, 100, 128, 150, 200,
             250, 300, 350, 400, 450, 480, 490, 499, 500, 500)
    # Ritz values of the computed operator are off by rounding relative to
    # its norm, at most sup rho: 1.5 ulp of sup rho measured on this set
    BRACKET_ULP = 4

    @pytest.mark.parametrize("spread", [0.6, 3.0])
    @pytest.mark.parametrize("kind", ["random", "constant", "levels"])
    def test_bracket_and_dense_count(self, kind, spread):
        # every Ritz value lies in [inf rho, sup rho] (MobilityOperator), and
        # the count agrees with the dense eigensolve of the test oracle
        tol = self.BRACKET_ULP * 2.0 ** -52
        for k, n in enumerate(self.SIZES):
            w = explicit_weights(n, seed=k)
            rho = random_interior(100 * k + int(spread), w, spread)
            rng = np.random.default_rng(k)
            phi = {"random": rng.uniform(-2, 2, n), "constant": np.zeros(n),
                   "levels": rng.integers(0, 3, n).astype(float)}[kind]
            ritz = metric._ritz_values(MobilityOperator(phi, w.m), rho.rho)
            assert len(ritz) == min(metric.KRYLOV_DIM, n - 1)
            assert rho.inf - tol * rho.sup <= ritz.min() and ritz.max() <= rho.sup * (1 + tol), n
            count = g.kernel_dimension_check(rho, phi)
            assert count == dense_oracle.kernel_dimension(rho.rho, phi, w.m) == 1, n

    def test_scaled_operator_leaves_the_bracket(self):
        # with the densest vertex strictly highest in potential, e_i - m_i 1
        # is an eigenvector with eigenvalue sup rho, so the bracket is
        # attained and an operator 1% too large must leave it
        class Scaled(MobilityOperator):
            def apply(self, rho, p):
                return 1.01 * super().apply(rho, p)

        tol = self.BRACKET_ULP * 2.0 ** -52
        for k in range(30):
            n = (2, 3, 5, 10, 20, 50, 65, 100, 200, 500)[k % 10]
            w = explicit_weights(n, seed=k)
            rho = random_interior(k, w, (0.6, 3.0)[k % 2])
            rng = np.random.default_rng(k)
            phi = rng.uniform(-2, 2, n) if k % 3 else rng.integers(0, 3, n).astype(float)
            phi[rho.rho.argmax()] = 3.0
            assert metric._ritz_values(MobilityOperator(phi, w.m), rho.rho).max() <= \
                rho.sup * (1 + tol)
            assert metric._ritz_values(Scaled(phi, w.m), rho.rho).max() > rho.sup * (1 + tol), k

    @pytest.mark.parametrize("n", [3, 10, 65, 100])
    def test_invariant_subspace_restarts(self, n):
        # on a uniform density every tau_ij is 1, whatever the potential, and
        # L(rho) is the identity on the mean-free vectors: each Krylov space
        # is invariant, so the run goes on from fresh unit vectors
        w = explicit_weights(n, seed=n)
        rho = g.Density(np.ones(n), w)
        for phi in (np.zeros(n), np.arange(n, dtype=float), np.arange(n) % 2.0):
            ritz = metric._ritz_values(MobilityOperator(phi, w.m), rho.rho)
            np.testing.assert_allclose(ritz, 1.0, rtol=32 * 2.0 ** -52)
            assert g.kernel_dimension_check(rho, phi) == 1

    @pytest.mark.parametrize("kind", ["random", "constant"])
    def test_large_n(self, kind):
        n = 10 ** 4
        w = g.build_weights(g.WeightFamily.geometric(1.0 - 20.0 / n), n)
        rho = random_interior(n, w)
        phi = np.random.default_rng(n).uniform(-2, 2, n) if kind == "random" else np.zeros(n)
        assert g.kernel_dimension_check(rho, phi) == 1

    def test_single_vertex_is_degenerate(self):
        # no mean-free vector, so no Ritz value to scale the count by
        w = g.WeightSequence(m=np.ones(1), raw_tail_mass=0.0)
        with pytest.raises(g.ConvergenceError):
            g.kernel_dimension_check(g.Density(np.ones(1), w), np.zeros(1))


def two_vertex_oracle(weights, phi, rho_a, rho_b):
    """High-order quadrature of the metric speed along the one-parameter
    family of two-vertex densities (independent of the optimizer)."""
    m1, m2 = weights.m

    def tau12(x):
        r1, r2 = x, (1.0 - m1 * x) / m2
        if phi[0] > phi[1]:
            return r1
        if phi[0] < phi[1]:
            return r2
        if r1 == r2:
            return r1
        return (r1 - r2) / (math.log(r1) - math.log(r2))

    speed = lambda x: math.sqrt(m1 / (m2 * tau12(x)))
    val, _ = quad(speed, rho_a.rho[0], rho_b.rho[0], epsabs=1e-12, epsrel=1e-12)
    return abs(val)


class TestGeodesic:
    def test_identical_endpoints_exact_zero(self):
        w = explicit_weights(5, seed=4)
        rho = random_interior(4, w)
        res = g.geodesic_distance(rho, rho, np.zeros(5))
        assert res.distance == 0.0
        assert jsonify(res)["stop_reason"] == "converged"
        assert res.path.rho.shape == (33, 5) and (res.path.rho == rho.rho).all()

    @pytest.mark.parametrize("phi,a,b", [
        (np.array([0.0, 0.0]), [0.6, 1.4], [1.4, 0.6]),
        (np.array([0.0, 1.0]), [0.6, 1.4], [1.3, 0.7]),
        (np.array([1.0, 0.0]), [0.8, 1.2], [1.5, 0.5]),
    ])
    def test_two_vertex_matches_quadrature(self, phi, a, b):
        w = half_weights()
        rho_a = g.Density(np.array(a), w)
        rho_b = g.Density(np.array(b), w)
        res = g.geodesic_distance(rho_a, rho_b, phi, g.GeodesicConfig(knots=32))
        oracle = two_vertex_oracle(w, phi, rho_a, rho_b)
        assert res.distance == pytest.approx(oracle, rel=0.01)

    def test_two_vertex_uneven_weights(self):
        w = g.build_weights(g.WeightFamily.geometric(0.5), 2)  # (2/3, 1/3)
        rho_a = g.Density.normalized(np.array([0.7, 1.6]), w)
        rho_b = g.Density.normalized(np.array([1.3, 0.4]), w)
        phi = np.array([0.2, -0.1])
        res = g.geodesic_distance(rho_a, rho_b, phi, g.GeodesicConfig(knots=32))
        oracle = two_vertex_oracle(w, phi, rho_a, rho_b)
        assert res.distance == pytest.approx(oracle, rel=0.01)

    def test_symmetry(self):
        w = explicit_weights(8, seed=12)
        phi = np.random.default_rng(12).uniform(-1, 1, 8)
        a = random_interior(31, w)
        b = random_interior(32, w)
        d1 = g.geodesic_distance(a, b, phi).distance
        d2 = g.geodesic_distance(b, a, phi).distance
        assert d1 == pytest.approx(d2, rel=1e-6)

    def test_action_history_monotone(self):
        w = explicit_weights(6, seed=13)
        phi = np.random.default_rng(13).uniform(-1, 1, 6)
        a = random_interior(41, w)
        b = random_interior(42, w)
        res = g.geodesic_distance(a, b, phi)
        h = res.action_history
        assert all(y <= x + 1e-14 * (1 + abs(x)) for x, y in zip(h, h[1:]))

    def test_more_knots_never_worse(self):
        # monotone in the knot count up to midpoint-quadrature differences
        # and optimizer stall slack, both O(1e-4) relative here
        w = explicit_weights(5, seed=14)
        phi = np.random.default_rng(14).uniform(-1, 1, 5)
        a = random_interior(51, w)
        b = random_interior(52, w)
        coarse = g.geodesic_distance(a, b, phi, g.GeodesicConfig(knots=8))
        fine = g.geodesic_distance(a, b, phi, g.GeodesicConfig(knots=16))
        assert fine.distance <= coarse.distance * (1 + 1e-4)

    def test_path_is_one_stack_with_exact_endpoints(self):
        w = explicit_weights(8, seed=12)
        phi = np.random.default_rng(12).uniform(-1, 1, 8)
        a, b = random_interior(31, w), random_interior(32, w)
        path = g.geodesic_distance(a, b, phi, g.GeodesicConfig(knots=8)).path
        assert isinstance(path, g.Density) and path.rho.shape == (9, 8)
        assert (path.rho[0] == a.rho).all() and (path.rho[-1] == b.rho).all()

    def test_endpoints_must_share_weights(self):
        a = random_interior(1, explicit_weights(4, seed=1))
        b = random_interior(1, explicit_weights(4, seed=2))
        with pytest.raises(ValueError):
            g.geodesic_distance(a, b, np.zeros(4))


class TestPathGradient:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_finite_differences(self, seed):
        # ties in phi exercise the logarithmic-mean derivative branch
        rng = np.random.default_rng(seed)
        n, knots = 4, 5
        w = explicit_weights(n, seed=seed)
        m = w.m
        phi = np.array([0.0, 0.0, 1.0, -1.0])[:n]
        a = random_interior(seed + 70, w)
        b = random_interior(seed + 71, w)
        t = np.linspace(0, 1, knots + 1)[:, None]
        x = (1 - t) * a.rho[None, :] + t * b.rho[None, :]
        op = MobilityOperator(phi, m)
        act, P, mids = _segment_solve(x, op)
        grad = _path_gradient(x, op, P, mids)
        for knot in range(1, knots):
            e = rng.normal(size=n)
            e -= np.dot(m, e)  # stay on the mass slice
            e /= np.abs(e).max()
            h = 1e-6
            xp, xm = x.copy(), x.copy()
            xp[knot] += h * e
            xm[knot] -= h * e
            fd = (_segment_solve(xp, op)[0] - _segment_solve(xm, op)[0]) / (2 * h)
            an = float(np.dot(grad[knot - 1], e))
            assert an == pytest.approx(fd, rel=2e-5, abs=1e-8)


class TestTimeLaplacianSolve:
    @pytest.mark.parametrize("knots", [2, 3, 8, 32])
    def test_matches_dense_solve(self, knots):
        # T = K tridiag(-1, 2, -1) on the K - 1 interior knots; K = 2 has one
        inner = knots - 1
        T = knots * (2.0 * np.eye(inner) - np.eye(inner, k=1) - np.eye(inner, k=-1))
        rhs = np.random.default_rng(knots).normal(size=(inner, 7))
        dense = np.linalg.solve(T, rhs)
        np.testing.assert_allclose(_time_laplacian_solve(rhs), dense,
                                   rtol=0, atol=1e-13 * np.abs(dense).max())


def softmax_oracle_action(rho_a, rho_b, phi, knots):
    """Discrete action minimized by scipy L-BFGS-B from the linear path.

    Each interior knot is softmax(z / sqrt(m)) on the weighted simplex, so
    every trial point is positive with unit mass and no projection or
    step rule is shared with :func:`graphfp.geodesic_distance`; only the
    action and its gradient (``_segment_solve``, ``_path_gradient``) are.
    """
    m = rho_a.weights.m
    scale = np.sqrt(m)
    op = MobilityOperator(phi, m)
    t = np.linspace(0.0, 1.0, knots + 1)[:, None]
    path = (1.0 - t) * rho_a.rho + t * rho_b.rho

    def action(z):
        e = np.exp(z.reshape(knots - 1, m.size) / scale)
        x = path.copy()
        x[1:-1] = e / (e @ m)[:, None]
        act, P, mids = _segment_solve(x, op)
        gx = _path_gradient(x, op, P, mids) * x[1:-1]
        gz = gx - (m * x[1:-1]) * gx.sum(axis=1)[:, None]
        return act, (gz / scale).ravel()

    res = minimize(action, (np.log(path[1:-1]) * scale).ravel(), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": 20000, "maxcor": 20, "ftol": 1e-15, "gtol": 1e-12})
    assert res.success, res.message
    return float(res.fun)


def _pair(n, ties=False, geometric=False):
    w = g.build_weights(g.WeightFamily.geometric(0.5), n) if geometric \
        else explicit_weights(n, seed=n)
    rng = np.random.default_rng(n)
    phi = rng.integers(0, 3, n).astype(float) if ties else rng.uniform(-1, 1, n)
    return random_interior(100 + n, w), random_interior(200 + n, w), phi


class TestPreconditionedDescent:
    @pytest.mark.parametrize("n,ties,geometric",
                             [(n, ties, False) for n in (6, 20, 40) for ties in (False, True)]
                             + [(20, False, True)])
    def test_converges_to_independent_minimum(self, n, ties, geometric):
        a, b, phi = _pair(n, ties, geometric)
        res = g.geodesic_distance(a, b, phi)
        assert res.stop_reason == "converged" and res.converged
        assert res.warnings == ()
        assert res.iterations <= 100
        assert res.grad_norm <= 1e-8 * (1.0 + res.action)
        oracle = softmax_oracle_action(a, b, phi, g.GeodesicConfig().knots)
        assert res.action == pytest.approx(oracle, rel=1e-9)

    def test_stall_near_the_rounding_floor(self):
        # an n=40 pair with potential ties whose descent nears grad_tol where
        # the action no longer changes in float64: a stall there is allowed,
        # and the path is still the minimizer to the oracle's precision
        w = explicit_weights(40, seed=6)
        phi = np.random.default_rng(6).integers(0, 3, 40).astype(float)
        a, b = random_interior(16, w), random_interior(26, w)
        res = g.geodesic_distance(a, b, phi)
        assert res.stop_reason in ("converged", "stall")
        assert res.warnings == (() if res.converged else ("stall",))
        assert res.iterations <= 100
        assert res.grad_norm <= 5e-8 * (1.0 + res.action)
        oracle = softmax_oracle_action(a, b, phi, g.GeodesicConfig().knots)
        assert res.action == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("seed", [1, 2, 8])
    def test_every_accepted_step_makes_progress(self, seed):
        # n=40 pairs with potential ties. At seeds 1 and 2 an Armijo test
        # alone accepts steps the action cannot resolve, whether or not they
        # help; a flat step must lower the gradient norm.
        w = explicit_weights(40, seed=seed)
        phi = np.random.default_rng(seed).integers(0, 3, 40).astype(float)
        a, b = random_interior(10 + seed, w), random_interior(20 + seed, w)
        res = g.geodesic_distance(a, b, phi)
        assert res.stop_reason == "converged" and res.warnings == ()
        assert res.grad_norm <= 1e-8 * (1.0 + res.action)
        assert res.iterations <= 40
        assert np.all(np.diff(res.action_history) <= 0.0)
        oracle = softmax_oracle_action(a, b, phi, g.GeodesicConfig().knots)
        assert res.action == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("n,s", [(20, 2), (40, 0), (40, 1)])
    def test_wide_density_ratios(self, n, s):
        # endpoint densities spanning e^-4..e^4: the fraction-to-boundary
        # rule keeps the larger metric steps off the positivity floor
        w = explicit_weights(n, seed=s + 50)
        rng = np.random.default_rng(1000 * n + s)
        phi = rng.uniform(-1, 1, n)
        a = g.Density.normalized(np.exp(rng.uniform(-4, 4, n)), w)
        b = g.Density.normalized(np.exp(rng.uniform(-4, 4, n)), w)
        res = g.geodesic_distance(a, b, phi, g.GeodesicConfig(knots=8))
        assert res.stop_reason == "converged" and res.warnings == ()
        assert res.iterations <= 60
        assert res.action == pytest.approx(softmax_oracle_action(a, b, phi, 8), rel=1e-9)

    @pytest.mark.parametrize("n,ties,geometric",
                             [(n, ties, False) for n in (6, 20, 40) for ties in (False, True)]
                             + [(20, False, True)])
    def test_iterations_count_accepted_steps(self, n, ties, geometric, monkeypatch):
        calls = []
        solve = metric._segment_solve
        monkeypatch.setattr(metric, "_segment_solve", lambda *a: calls.append(1) or solve(*a))
        res = g.geodesic_distance(*_pair(n, ties, geometric))
        assert len(res.action_history) == res.iterations + 1
        assert res.segment_solves == len(calls) == jsonify(res)["segment_solves"]
        assert res.segment_solves > res.iterations

    def test_stalled_search_reuses_the_repeated_trial(self, monkeypatch):
        # a wide-ratio pair that stalls: once eta * d is below the rounding
        # of the path every trial is the current path again, and re-solving
        # it would spend the last of the 60 halvings for nothing
        w = explicit_weights(12, seed=52)
        rng = np.random.default_rng(12002)
        phi = rng.uniform(-1, 1, 12)
        a = g.Density.normalized(np.exp(rng.uniform(-4, 4, 12)), w)
        b = g.Density.normalized(np.exp(rng.uniform(-4, 4, 12)), w)
        paths = []
        solve = metric._segment_solve
        monkeypatch.setattr(metric, "_segment_solve",
                            lambda path, op: paths.append(path.copy()) or solve(path, op))
        res = g.geodesic_distance(a, b, phi)
        assert res.stop_reason == "stall"
        final = res.path.rho
        accepted = min(k for k, path in enumerate(paths) if np.array_equal(path, final))
        assert len(paths) - 1 - accepted < 60

        class SolveEveryTrial:
            """numpy for the metric module, except that no two paths compare
            equal, so every trial is solved anew."""

            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def array_equal(x, y):
                return False

        monkeypatch.setattr(metric, "np", SolveEveryTrial())
        full = g.geodesic_distance(a, b, phi)
        assert full.segment_solves > res.segment_solves
        for name in ("action", "iterations", "grad_norm", "stop_reason", "action_history"):
            assert getattr(res, name) == getattr(full, name), name

    def test_fallback_when_the_metric_step_does_not_descend(self, monkeypatch):
        # a mobility product of the wrong sign never descends, so every step
        # must come from the T^-1 direction alone
        calls = []
        apply = MobilityOperator.apply
        monkeypatch.setattr(MobilityOperator, "apply",
                            lambda self, rho, p: calls.append(1) or -apply(self, rho, p))
        a, b, phi = _pair(20)
        res = g.geodesic_distance(a, b, phi)
        assert res.stop_reason == "converged" and res.warnings == ()
        assert len(calls) == res.iterations > 0
        assert res.grad_norm <= 1e-8 * (1.0 + res.action)
        oracle = softmax_oracle_action(a, b, phi, g.GeodesicConfig().knots)
        assert res.action == pytest.approx(oracle, rel=1e-9)

    def test_max_iters_is_reported(self):
        a, b, phi = _pair(20)
        res = g.geodesic_distance(a, b, phi, g.GeodesicConfig(max_iters=3))
        assert res.stop_reason == "max_iters"
        assert not res.converged
        assert res.iterations == 3
        assert "max_iters" in res.warnings
        assert jsonify(res)["stop_reason"] == "max_iters"
