"""Transport-entropy inequality and the closed-form W1 comparison."""

import itertools
import math
import warnings

import numpy as np
import pytest

import graphfp as g
import talagrand_reference
from helpers import explicit_weights, half_weights, random_interior


def w1_vertex_oracle(m, mu, nu):
    """Enumerate all vertices of the dual polytope (box plus pairwise
    difference bounds) and take the best objective value; independent of
    any LP solver."""
    n = len(m)
    rows, bs = [], []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows += [e, -e]
        bs += [1.0, 1.0]
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros(n)
            e[i], e[j] = 1.0, -1.0
            rows += [e, -e]
            bs += [1.0, 1.0]
    rows = np.asarray(rows)
    bs = np.asarray(bs)
    c = m * (mu - nu)
    best = 0.0
    for combo in itertools.combinations(range(len(rows)), n):
        a = rows[list(combo)]
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        v = np.linalg.solve(a, bs[list(combo)])
        if np.all(rows @ v <= bs + 1e-9):
            best = max(best, abs(float(np.dot(c, v))))
    return best


class TestW1Distance:
    def test_identical_is_zero(self):
        w = explicit_weights(6, seed=1)
        mu = random_interior(1, w)
        assert g.w1_distance(mu, mu) == 0.0

    def test_extremal_two_vertex_pair(self):
        w = half_weights()
        mu = g.Density(np.array([2.0, 0.0]), w)
        nu = g.Density(np.array([0.0, 2.0]), w)
        oracle = w1_vertex_oracle(w.m, mu.rho, nu.rho)
        assert oracle == 1.0
        assert g.w1_distance(mu, nu) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_vertex_enumeration(self, seed):
        n = 2 + seed % 2  # N in {2, 3}
        w = explicit_weights(n, seed=seed)
        mu = random_interior(seed, w)
        nu = random_interior(seed + 100, w)
        oracle = w1_vertex_oracle(w.m, mu.rho, nu.rho)
        assert g.w1_distance(mu, nu) == pytest.approx(oracle, abs=1e-9)

    def test_symmetry_is_bitwise(self):
        w = explicit_weights(7, seed=3)
        mu = random_interior(3, w)
        nu = random_interior(33, w)
        assert g.w1_distance(mu, nu) == g.w1_distance(nu, mu)

    @pytest.mark.parametrize("seed", range(4))
    def test_triangle_inequality(self, seed):
        w = explicit_weights(6, seed=seed + 5)
        a = random_interior(seed, w)
        b = random_interior(seed + 40, w)
        c = random_interior(seed + 80, w)
        assert (g.w1_distance(a, c)
                <= g.w1_distance(a, b) + g.w1_distance(b, c) + 1e-8)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(0)
        n = 5
        w = explicit_weights(n, seed=9)
        mu = random_interior(9, w)
        nu = random_interior(19, w)
        base = g.w1_distance(mu, nu)
        perm = rng.permutation(n)
        wp = g.WeightSequence(m=w.m[perm], raw_tail_mass=0.0)
        mup = g.Density(mu.rho[perm], wp)
        nup = g.Density(nu.rho[perm], wp)
        assert g.w1_distance(mup, nup) == pytest.approx(base, abs=1e-10)

    def test_large_n_closed_form(self):
        n = 2000
        w = explicit_weights(n, seed=0)
        mu = random_interior(0, w)
        nu = random_interior(1, w)
        expect = 0.5 * math.fsum(w.m * np.abs(mu.rho - nu.rho))
        assert g.w1_distance(mu, nu) == pytest.approx(expect, rel=1e-12)
        assert g.w1_distance(mu, nu) == g.w1_distance(nu, mu)


class TestTalagrandConstants:
    def test_class_validation(self):
        with pytest.raises(ValueError):
            g.TalagrandClass(nu_inf=2.0, nu_sup=0.5)
        with pytest.raises(ValueError):
            g.TalagrandClass(nu_inf=0.0, nu_sup=1.0)

    def test_uniform_reference(self):
        w = explicit_weights(10)
        mu = g.Density(np.ones(10), w)
        cls = g.TalagrandClass(nu_inf=0.5, nu_sup=2.0)
        consts = g.talagrand_constants(mu, cls)
        assert consts.condition_ratio == 1.0
        assert consts.mixing_time == pytest.approx(math.log(4.0) / consts.mixing_rate)
        mw = consts.min_prefix_weight
        assert consts.class_lower == pytest.approx(min(0.25, mw / 4.0))
        assert consts.class_upper == pytest.approx(
            max(4.0, math.exp(2 * 0.0), 2.0 / mw, 2.0 / mw, 1.0 / (2 * mw)))

    def test_kappa_formula(self):
        w = explicit_weights(8, seed=2)
        mu = random_interior(2, w, spread=0.1)
        cls = g.TalagrandClass(nu_inf=0.6, nu_sup=1.7)
        consts = g.talagrand_constants(mu, cls)
        if math.isfinite(consts.kappa):
            ratio = consts.class_upper / consts.class_lower
            expect = 2.0 * consts.mixing_time * (1.0 + 2.0 * ratio**2)
            assert consts.kappa == pytest.approx(expect, rel=1e-12)
        assert consts.kappa >= 6.0 * consts.mixing_time  # parenthesis >= 3

    def test_constants_deterministic(self):
        w = explicit_weights(9, seed=4)
        mu = random_interior(4, w, spread=0.2)
        cls = g.TalagrandClass(nu_inf=0.5, nu_sup=2.0)
        a = g.talagrand_constants(mu, cls)
        b = g.talagrand_constants(mu, cls)
        assert a == b


def _parity_instance(seed):
    """(mu, cls) over explicit and geometric weights, density spreads from
    e^+-0.01 to e^+-3 and class ranges on both sides of one."""
    rng = np.random.default_rng([11, seed])
    if seed % 2:
        n = int(rng.choice([2, 3, 5, 8, 20, 60]))
        w = explicit_weights(n, seed=seed)
    else:
        n = int(rng.choice([30, 60]))
        w = g.build_weights(g.WeightFamily.geometric(rng.uniform(0.3, 0.7)), n)
    spread = math.exp(rng.uniform(math.log(0.01), math.log(3.0)))
    mu = g.Density.normalized(np.exp(rng.uniform(-spread, spread, n)), w)
    return mu, g.TalagrandClass(nu_inf=rng.uniform(0.05, 0.95), nu_sup=rng.uniform(1.05, 4.0))


def test_constants_match_reference_formula():
    finite_kappa = positive_rate = compared = 0
    for seed in range(320):
        mu, cls = _parity_instance(seed)
        try:
            expect = talagrand_reference.talagrand_constants(mu, cls)
        except g.TruncationError:
            with pytest.raises(g.TruncationError):
                g.talagrand_constants(mu, cls)
            continue
        assert g.talagrand_constants(mu, cls) == expect, seed
        compared += 1
        finite_kappa += math.isfinite(expect.kappa)
        positive_rate += expect.mixing_rate > 0.0
    # enough instances, and finite values among them, not only 0 / inf
    assert compared >= 300 and finite_kappa >= 10 and positive_rate >= 10, \
        (compared, finite_kappa, positive_rate)


class TestVerifyTalagrand:
    def test_reference_member_trivially_passes(self):
        w = explicit_weights(8)
        mu = g.Density(np.ones(8), w)
        cls = g.TalagrandClass(nu_inf=0.5, nu_sup=2.0)
        rep = g.verify_talagrand(mu, mu, cls)
        assert rep.passed and rep.lhs == 0.0 and rep.entropy == 0.0

    def test_sampled_members_pass(self):
        w = explicit_weights(10, seed=6)
        mu = random_interior(6, w, spread=0.3)
        cls = g.TalagrandClass(nu_inf=0.4, nu_sup=2.5)
        rng = np.random.default_rng(0)
        for _ in range(5):
            nu = g.sample_in_class(rng, w, cls)
            rep = g.verify_talagrand(mu, nu, cls)
            assert rep.passed
            assert rep.entropy >= 0.0
            if rep.entropy > 0:
                assert rep.ratio <= rep.constants.kappa

    def test_out_of_class_rejected(self):
        w = explicit_weights(5)
        mu = g.Density(np.ones(5), w)
        cls = g.TalagrandClass(nu_inf=0.9, nu_sup=1.2)
        raw = np.ones(5)
        raw[0] = 0.5  # below nu_inf
        nu = g.Density.normalized(raw, w)
        with pytest.raises(ValueError, match="class"):
            g.verify_talagrand(mu, nu, cls)


class TestSampleInClass:
    def test_respects_bounds_and_mass(self):
        w = explicit_weights(12, seed=8)
        cls = g.TalagrandClass(nu_inf=0.3, nu_sup=3.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            nu = g.sample_in_class(rng, w, cls)
            assert cls.contains(nu)
            assert nu.mass() == pytest.approx(1.0, abs=1e-12)

    def test_huge_upper_bound_warns_nothing(self):
        # (nu_sup - 1) / d overflows to inf for every entry d < 1, and the
        # lower bound then sets the scale
        w = explicit_weights(12, seed=8)
        cls = g.TalagrandClass(nu_inf=0.5, nu_sup=1e308)
        rng = np.random.default_rng(5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(20):
                nu = g.sample_in_class(rng, w, cls)
                assert cls.contains(nu) and nu.inf < 1.0

    def test_empty_class_rejected(self):
        w = explicit_weights(4)
        with pytest.raises(ValueError, match="empty"):
            g.sample_in_class(np.random.default_rng(0), w,
                              g.TalagrandClass(nu_inf=1.5, nu_sup=2.0))

    def test_deterministic_with_seed(self):
        w = explicit_weights(6, seed=9)
        cls = g.TalagrandClass(nu_inf=0.5, nu_sup=2.0)
        a = g.sample_in_class(np.random.default_rng(7), w, cls)
        b = g.sample_in_class(np.random.default_rng(7), w, cls)
        np.testing.assert_array_equal(a.rho, b.rho)

    def test_matches_the_per_entry_loop(self):
        # the scale as a loop over every entry, the reference for the
        # library's two masked minima: the samples must agree bitwise
        def loop_sample(rng, w, cls):
            d = rng.uniform(-1.0, 1.0, w.m.size)
            d = d - float(np.dot(w.m, d))
            scale = math.inf
            for di in d:
                if di > 0.0:
                    scale = min(scale, (cls.nu_sup - 1.0) / di)
                elif di < 0.0:
                    scale = min(scale, (cls.nu_inf - 1.0) / di)
            scale = scale if math.isfinite(scale) else 0.0
            return 1.0 + rng.uniform(0.2, g.inequalities.SAMPLE_SPREAD) * scale * d

        classes = [g.TalagrandClass(0.3, 3.0), g.TalagrandClass(0.9, 1.0),
                   g.TalagrandClass(1.0, 1.5), g.TalagrandClass(1.0, 1.0)]
        for k in range(400):
            n = 2 + k % 199
            w = explicit_weights(n, seed=k)
            cls = classes[k % 4]
            got = g.sample_in_class(np.random.default_rng(k), w, cls).rho
            np.testing.assert_array_equal(got, loop_sample(np.random.default_rng(k), w, cls))


class TestVerifyW1Bound:
    def test_identical_pair(self):
        w = explicit_weights(6, seed=1)
        mu = random_interior(1, w)
        rep = g.verify_w1_bound(mu, mu, np.zeros(6))
        assert rep.passed and rep.w1 == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pairs_pass(self, seed):
        w = explicit_weights(8, seed=seed + 20)
        phi = np.random.default_rng(seed).uniform(-1, 1, 8)
        mu = random_interior(seed, w)
        nu = random_interior(seed + 200, w)
        rep = g.verify_w1_bound(mu, nu, phi)
        assert rep.passed
        assert rep.w1 <= math.sqrt(2.0) * rep.distance_bound + 1e-6

    def test_near_boundary_endpoint(self):
        w = explicit_weights(6, seed=30)
        raw = np.ones(6)
        raw[2] = 1e-3
        nu = g.Density.normalized(raw, w)
        mu = random_interior(30, w)
        rep = g.verify_w1_bound(mu, nu, np.zeros(6))
        assert rep.passed

    @pytest.mark.parametrize("config", [g.GeodesicConfig(knots=2, max_iters=1),
                                        g.GeodesicConfig()], ids=["one_step", "default"])
    @pytest.mark.parametrize("geometric", [False, True], ids=["explicit", "geometric"])
    @pytest.mark.parametrize("ties", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("n", [2, 6, 20, 40])
    def test_w1_never_exceeds_the_distance(self, n, ties, geometric, config):
        """W1 <= d holds for every discrete path, converged or not (the
        proof is in the verify_w1_bound docstring), so the comparison
        with sqrt(2) d cannot fail."""
        if geometric:
            w = g.build_weights(g.WeightFamily.geometric(0.5), n)
        else:
            w = explicit_weights(n, seed=n)
        rng = np.random.default_rng([n, ties, geometric])
        phi = rng.integers(0, 2, n).astype(float) if ties else rng.uniform(-1, 1, n)
        for k in range(2):
            mu = random_interior(int(rng.integers(1 << 30)), w, spread=1.5)
            nu = random_interior(int(rng.integers(1 << 30)), w, spread=1.5)
            geo = g.geodesic_distance(mu, nu, phi, config)
            assert g.w1_distance(mu, nu) <= geo.distance
