"""Densities, tangent vectors, and the scalar functionals."""

import math
import warnings
from decimal import Context, Decimal, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphfp as g
from graphfp import simplex
from graphfp.errors import InvalidRowError, TruncationError
from helpers import explicit_weights, half_weights, random_instance, random_interior

# Frozen against a 40-digit evaluation of the two defining sums:
# m=(1/2,1/2), phi=(0, ln 2), beta=1, rho=(4/3, 2/3); the value equals
# -log(3/4), the minimum of the free energy over the simplex.
FREE_ENERGY_AT_GIBBS = 0.2876820724517809

# (3/4) ln(3/2) + (1/4) ln(1/2), same 40-digit evaluation.
REL_ENTROPY_VALUE = 0.13081203594113696


def _spec2(beta=1.0):
    return g.GraphSpec(weights=half_weights(), phi=np.array([0.0, math.log(2.0)]),
                       beta=beta)


class TestDensity:
    def test_mass_and_positivity_enforced(self):
        w = half_weights()
        with pytest.raises(ValueError):
            g.Density(np.array([1.0, 0.5]), w)       # mass 0.75
        with pytest.raises(ValueError):
            g.Density(np.array([2.5, -0.5]), w)      # negative entry
        rho = g.Density(np.array([1.5, 0.5]), w)
        assert rho.interior and rho.mass() == pytest.approx(1.0)

    def test_boundary_is_representable(self):
        rho = g.Density(np.array([2.0, 0.0]), half_weights())
        assert not rho.interior
        with pytest.raises(ValueError):
            rho.require_interior()

    def test_normalized(self):
        w = explicit_weights(5, seed=3)
        rho = g.Density.normalized(np.ones(5) * 7.3, w)
        np.testing.assert_allclose(rho.rho, 1.0, rtol=1e-14)

    def test_immutable(self):
        rho = g.Density(np.ones(2), half_weights())
        with pytest.raises(ValueError):
            rho.rho[0] = 3.0

    def test_stack_is_checked_and_measured_per_row(self):
        w = explicit_weights(5, seed=3)
        rows = np.stack([random_interior(k, w).rho for k in range(4)])
        stack = g.Density(rows, w)
        for k in range(4):
            one = g.Density(rows[k], w)
            assert (stack.inf[k], stack.sup[k], stack.mass()[k]) == (one.inf, one.sup, one.mass())
        assert stack.interior.tolist() == [True] * 4
        assert isinstance(g.Density(rows[0], w).inf, float)

    @pytest.mark.parametrize("entry, needle", [(-0.1, "density values must be finite"),
                                               (np.nan, "density values must be finite"),
                                               (None, "density mass")])
    def test_stack_names_its_bad_row(self, entry, needle):
        w = explicit_weights(5, seed=3)
        rows = np.stack([random_interior(k, w).rho for k in range(4)])
        if entry is None:
            rows[2] *= 1.001
        else:
            rows[2, 1] = entry
        with pytest.raises(InvalidRowError, match=f"^row 2: {needle}") as info:
            g.Density(rows, w)
        assert info.value.row == 2

    def test_stack_names_its_boundary_row(self):
        w = half_weights()
        stack = g.Density(np.array([[1.5, 0.5], [2.0, 0.0], [0.0, 2.0]]), w)
        assert stack.interior.tolist() == [True, False, False]
        with pytest.raises(InvalidRowError, match="^row 1: kernel check requires"):
            stack.require_interior("kernel check")


class TestTangentVector:
    def test_mean_free_enforced(self):
        w = half_weights()
        g.TangentVector(np.array([1.0, -1.0]), w)
        with pytest.raises(ValueError):
            g.TangentVector(np.array([1.0, 0.0]), w)

    def test_projection_hand_case(self):
        tv = g.project_tangent(np.array([1.0, 0.0]), half_weights())
        np.testing.assert_allclose(tv.sigma, [0.5, -0.5])

    def test_projection_kills_constants(self):
        w = explicit_weights(7, seed=1)
        tv = g.project_tangent(np.full(7, 3.7), w)
        np.testing.assert_allclose(tv.sigma, 0.0, atol=1e-15)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_projection_idempotent(self, xs):
        w = explicit_weights(4)
        once = g.project_tangent(np.array(xs), w).sigma
        twice = g.project_tangent(once, w).sigma
        np.testing.assert_allclose(twice, once, atol=1e-9 * (1 + np.abs(once).max()))


class TestGibbs:
    def test_constant_potential_is_uniform(self):
        spec = g.GraphSpec(weights=half_weights(), phi=np.zeros(2), beta=1.0)
        np.testing.assert_allclose(g.gibbs(spec).rho, 1.0)

    def test_two_level_example(self):
        star = g.gibbs(_spec2())
        np.testing.assert_allclose(star.rho, [4 / 3, 2 / 3], rtol=1e-15)

    def test_beta_zero_rejected(self):
        with pytest.raises(ValueError):
            g.gibbs(_spec2(beta=0.0))

    def test_shift_protects_against_overflow(self):
        # exp(-phi/beta) would overflow without the max-shift
        w = explicit_weights(4)
        spec = g.GraphSpec(weights=w, phi=np.array([-300.0, 0.0, 150.0, 300.0]), beta=1.0)
        star = g.gibbs(spec)
        assert np.all(np.isfinite(star.rho)) and star.interior
        assert star.rho.argmax() == 0

    def test_underflowing_range_rejected(self):
        w = explicit_weights(2)
        spec = g.GraphSpec(weights=w, phi=np.array([-500.0, 500.0]), beta=1.0)
        with pytest.raises(ValueError, match="underflow"):
            g.gibbs(spec)

    def test_denormal_beta_is_named(self):
        # -phi/beta overflows to +-inf: the error names beta and the Gibbs
        # state, and no overflow or inf - inf warning is printed on the way
        w = explicit_weights(2)
        spec = g.GraphSpec(weights=w, phi=np.array([-0.5, 0.5]), beta=5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="beta=5e-324.*Gibbs state"):
                g.gibbs(spec)


class TestFreeEnergy:
    def test_uniform_density_zero_potential(self):
        w = explicit_weights(6, seed=2)
        spec = g.GraphSpec(weights=w, phi=np.zeros(6), beta=1.7)
        rho = g.Density(np.ones(6), w)
        assert g.free_energy(rho, spec) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_gibbs_value(self):
        spec = _spec2()
        star = g.gibbs(spec)
        assert g.free_energy(star, spec) == pytest.approx(FREE_ENERGY_AT_GIBBS, rel=1e-13)

    def test_beta_zero_is_pure_potential(self):
        spec = _spec2(beta=0.0)
        rho = g.Density(np.array([1.5, 0.5]), spec.weights)
        expect = 0.5 * math.log(2.0) * 0.5
        assert g.free_energy(rho, spec) == pytest.approx(expect, rel=1e-15)

    def test_boundary_strict_vs_lenient(self):
        spec = _spec2()
        rho = g.Density(np.array([2.0, 0.0]), spec.weights)
        with pytest.raises(ValueError):
            g.free_energy(rho, spec)

    def test_gibbs_minimizes_on_samples(self):
        spec = random_instance(5, 12, beta=1.0)
        star = g.gibbs(spec)
        base = g.free_energy(star, spec)
        for seed in range(20):
            rho = random_interior(seed, spec.weights)
            assert g.free_energy(rho, spec) >= base - 1e-12

    def test_difference_is_relative_entropy(self):
        # F(rho) - F(rho*) = beta * H(rho|rho*) when phi = -beta log(rho*) + const
        for seed in range(5):
            spec = random_instance(seed, 9, beta=1.4)
            star = g.gibbs(spec)
            rho = random_interior(seed + 100, spec.weights)
            lhs = g.free_energy(rho, spec) - g.free_energy(star, spec)
            rhs = spec.beta * g.relative_entropy(rho, star)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestRelativeEntropy:
    def test_identical_is_zero(self):
        w = explicit_weights(5, seed=9)
        rho = random_interior(1, w)
        assert g.relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_value(self):
        w = half_weights()
        mu = g.Density(np.array([1.0, 1.0]), w)
        nu = g.Density(np.array([1.5, 0.5]), w)
        assert g.relative_entropy(nu, mu) == pytest.approx(REL_ENTROPY_VALUE, rel=1e-14)

    def test_infinite_signal(self):
        w = half_weights()
        mu = g.Density(np.array([0.0, 2.0]), w)
        nu = g.Density(np.array([1.0, 1.0]), w)
        assert g.relative_entropy(nu, mu) == math.inf

    def test_zero_nu_entries_contribute_nothing(self):
        w = half_weights()
        mu = g.Density(np.array([1.0, 1.0]), w)
        nu = g.Density(np.array([0.0, 2.0]), w)
        assert g.relative_entropy(nu, mu) == pytest.approx(math.log(2.0), rel=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_nonnegative_zero_iff_equal(self, seed):
        w = explicit_weights(8, seed=42)
        nu = random_interior(seed, w)
        mu = random_interior(seed + 500, w)
        h = g.relative_entropy(nu, mu)
        assert h >= 0.0
        if h <= 1e-12:
            assert np.abs(nu.rho - mu.rho).max() <= 1e-9


class TestRelativeEnergy:
    def test_zero_at_reference(self):
        w = explicit_weights(6, seed=4)
        star = random_interior(3, w)
        assert g.relative_energy(star, star) == 0.0

    def test_hand_value(self):
        w = half_weights()
        star = g.Density(np.array([1.0, 1.0]), w)
        rho = g.Density(np.array([1.5, 0.5]), w)
        assert g.relative_energy(rho, star) == pytest.approx(0.25, rel=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_l2m_sandwich(self, seed):
        # 1/sup(rho*) ||rho-rho*||^2 <= L <= 1/inf(rho*) ||rho-rho*||^2
        w = explicit_weights(10, seed=7)
        star = random_interior(seed + 50, w)
        rho = random_interior(seed, w)
        diff_sq = g.l2m_norm_sq(rho.rho - star.rho, w)
        val = g.relative_energy(rho, star)
        assert diff_sq / star.sup - 1e-14 <= val <= diff_sq / star.inf + 1e-14


class TestInvariantConstants:
    def test_zero_potential_formulas(self):
        w = explicit_weights(5)
        spec = g.GraphSpec(weights=w, phi=np.zeros(5), beta=1.0)
        rho0 = random_interior(0, w)
        rep = g.invariant_constants(rho0, spec)
        mw = rep.min_prefix_weight
        assert rep.lower_bound == pytest.approx(min(0.5 * rho0.inf, 0.25, mw / 4.0))
        assert rep.upper_bound == pytest.approx(
            max(2.0 * rho0.sup, 1.0 / (2.0 * mw), 2.0 / mw))
        assert rep.decay_rate == pytest.approx(rep.lower_bound / rep.upper_bound)
        assert rep.decay_rate > 0.0

    def test_lower_bound_never_exceeds_quarter(self):
        for seed in range(5):
            spec = random_instance(seed, 8, beta=1.0)
            rho0 = random_interior(seed, spec.weights)
            rep = g.invariant_constants(rho0, spec)
            assert rep.lower_bound <= 0.25

    def test_upper_bound_at_least_two_over_prefix_weight(self):
        for seed in range(5):
            spec = random_instance(seed, 8, beta=0.7)
            rho0 = random_interior(seed, spec.weights)
            rep = g.invariant_constants(rho0, spec)
            assert rep.upper_bound >= 2.0 / rep.min_prefix_weight

    def test_norm_bound_formula(self):
        spec = random_instance(3, 6, beta=1.0)
        star = g.gibbs(spec)
        rho0 = random_interior(9, spec.weights)
        rep = g.invariant_constants(rho0, spec)
        expect = (4.0 * star.sup / star.inf * rho0.sup**2 + 4.0 * star.sup
                  + 2.0 * g.l2m_norm_sq(star.rho, spec.weights))
        assert rep.norm_bound == pytest.approx(expect, rel=1e-14)

    def test_truncation_error_propagates(self):
        w = g.build_weights(g.WeightFamily.geometric(0.5), 3)  # raw tail 1/8
        spec = g.GraphSpec(weights=w, phi=np.array([0.0, 1.0, 2.0]), beta=1.0)
        rho0 = random_interior(0, w)
        with pytest.raises(TruncationError):
            g.invariant_constants(rho0, spec)

    @settings(max_examples=400, deadline=None)
    # beta * mw rounds up to the least denormal; a denormal potential whose
    # quotient by beta rounds before the small divisors lift it
    @example(beta=5e-324, phi_sup=0.0, mw=0.7, bounds=[1.0, 1.0])
    @example(beta=1.5, phi_sup=5e-324, mw=1e-162, bounds=[1.0, 1.0])
    @given(beta=st.floats(5e-324, 1.7976931348623157e308),
           phi_sup=st.floats(0.0, 1.7976931348623157e308),
           mw=st.floats(5e-324, 1.0),
           bounds=st.lists(st.floats(5e-324, 1.7976931348623157e308),
                           min_size=2, max_size=2).map(sorted))
    def test_constants_never_raise_and_err_one_way(self, beta, phi_sup, mw, bounds):
        # Every positive float, denormals and 1e308 included, for beta, the
        # prefix weight and the class range. Against the defining formulas
        # in 60-digit decimals with no exponent limit, each constant given
        # the ones before it: lower_bound and decay_rate only shrink and
        # upper_bound only grows, up to float rounding (1e-12 relative: an
        # exponent of at most 745 amplifies a few ulps) and a few denormal
        # ulps.
        lower, upper = bounds
        star = g.Density(np.ones(1), g.WeightSequence(m=np.ones(1), raw_tail_mass=0.0))
        with mock.patch.object(simplex, "min_weight_prefix", lambda weights, n0: mw):
            rep = simplex._class_constants(star, lower, upper, phi_sup, beta)
        tol, slack = Decimal("1e-12"), Decimal("1e-322")
        with localcontext(Context(prec=60, Emax=10 ** 9, Emin=-10 ** 9, traps=[])):
            b, p, w, lo, up = map(Decimal, (beta, phi_sup, mw, lower, upper))
            c1 = min(lo / 2, (-4 * p / (w * b)).exp() / 4, b * w / (4 * (2 * p + b)))
            assert Decimal(rep.lower_bound) <= c1 * (1 + tol) + slack
            c1 = Decimal(rep.lower_bound)
            growth = (2 * p / (b * c1 * w)).exp() / (2 * w) if c1 > 0 else Decimal("Infinity")
            c2 = max(2 * up, growth, (2 * p + 2 * b) / (b * w), 2 / w)
            assert Decimal(rep.upper_bound) >= c2 * (1 - tol) - slack
            c2 = Decimal(rep.upper_bound)
            rate = b * c1 / c2 if c2.is_finite() else Decimal(0)   # star.inf / star.sup = 1
            assert Decimal(rep.decay_rate) <= rate * (1 + tol) + slack

    def test_requires_positive_beta(self):
        w = explicit_weights(3)
        spec = g.GraphSpec(weights=w, phi=np.zeros(3), beta=0.0)
        with pytest.raises(ValueError):
            g.invariant_constants(g.Density(np.ones(3), w), spec)
