"""Right-hand sides, the adaptive integrator, monitors, and the decay fit."""

import dataclasses
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import graphfp as g
from graphfp import dynamics
from graphfp.config import MAX_RECORDS
from graphfp.dynamics import monitor
from graphfp.errors import InsufficientDataError, InvariantBreachError, StiffnessError
from helpers import explicit_weights, half_weights, perturbed_gibbs, random_instance, \
    random_interior


def _spec(phi, beta, n=None, seed=0):
    phi = np.asarray(phi, dtype=float)
    w = explicit_weights(phi.size, seed=seed)
    return g.GraphSpec(weights=w, phi=phi, beta=beta)


def _kind_rhs(kind, rho, spec):
    """Right-hand side of ``kind`` as the integrator evaluates it; the
    closure raises when the kind does not admit (beta, phi)."""
    return g.TangentVector(dynamics._rhs_closure(kind, spec)(rho.rho), rho.weights)


class TestFokkerPlanckRhs:
    def test_hand_example(self):
        spec = g.GraphSpec(weights=half_weights(), phi=np.array([0.0, 1.0]), beta=1.0)
        rho = g.Density(np.ones(2), half_weights())
        out = g.fokker_planck_rhs(rho, spec)
        np.testing.assert_allclose(out.sigma, [0.5, -0.5], rtol=1e-15)

    def test_constant_potential_reduces_to_master(self):
        # beta sum_j m_j (rho_j - rho_i) = beta (1 - rho_i), as sum_j m_j = 1
        # and sum_j m_j rho_j = 1
        spec = _spec(np.full(7, 0.3), beta=1.7, seed=5)
        rho = random_interior(5, spec.weights)
        expect = spec.beta * (1.0 - rho.rho)
        a = g.fokker_planck_rhs(rho, spec).sigma
        b = _kind_rhs("master", rho, spec).sigma
        np.testing.assert_allclose(a, expect, atol=1e-13)
        np.testing.assert_allclose(b, expect, atol=1e-13)

    @pytest.mark.parametrize("seed,n,beta", [(0, 2, 0.5), (1, 5, 1.0), (2, 50, 2.0)])
    def test_gibbs_is_stationary(self, seed, n, beta):
        spec = random_instance(seed, n, beta=beta)
        out = g.fokker_planck_rhs(g.gibbs(spec), spec)
        assert np.abs(out.sigma).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_mass_conservation(self, seed):
        spec = random_instance(seed, 20, beta=1.0)
        rho = random_interior(seed, spec.weights)
        out = g.fokker_planck_rhs(rho, spec)
        assert abs(float(np.dot(spec.m, out.sigma))) <= 1e-12 * (1 + np.abs(out.sigma).max())

    def test_boundary_rejected_for_positive_beta(self):
        spec = g.GraphSpec(weights=half_weights(), phi=np.array([0.0, 1.0]), beta=1.0)
        rho = g.Density(np.array([2.0, 0.0]), half_weights())
        with pytest.raises(ValueError):
            g.fokker_planck_rhs(rho, spec)

    def test_matches_mobility_route(self):
        # rhs equals the mobility map applied to minus the energy gradient
        spec = random_instance(4, 12, beta=1.2)
        rho = random_interior(9, spec.weights)
        direct = g.fokker_planck_rhs(rho, spec).sigma
        u = spec.phi + spec.beta * np.log(rho.rho)
        via_tau = g.apply_mobility(rho, spec.phi, -u).sigma
        np.testing.assert_allclose(via_tau, direct, atol=1e-12 * (1 + np.abs(direct).max()))


class TestZeroDiffusionRhs:
    def test_constant_potential_is_zero(self):
        spec = _spec(np.zeros(5), beta=0.0)
        rho = random_interior(0, spec.weights)
        np.testing.assert_array_equal(g.fokker_planck_rhs(rho, spec).sigma, 0.0)
        np.testing.assert_array_equal(_kind_rhs("beta_zero", rho, spec).sigma, 0.0)

    def test_mass_flows_toward_minimum(self):
        spec = _spec([0.0, 1.0, 2.0], beta=0.0)
        rho = g.Density.normalized(np.array([0.1, 0.1, 2.8]), spec.weights)
        out = g.fokker_planck_rhs(rho, spec)
        assert out.sigma[0] >= 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_full_rhs_at_beta_zero(self, seed):
        spec = random_instance(seed, 9, beta=0.0)
        rho = random_interior(seed, spec.weights)
        a = _kind_rhs("beta_zero", rho, spec).sigma
        b = g.fokker_planck_rhs(rho, spec).sigma
        np.testing.assert_allclose(a, b, atol=1e-14 * (1 + np.abs(a).max()))

    def test_requires_beta_zero(self):
        spec = _spec([0.0, 1.0], beta=0.5)
        rho = g.Density(np.ones(2), spec.weights)
        with pytest.raises(ValueError):
            _kind_rhs("beta_zero", rho, spec)


class TestEffectivePotentialRhs:
    def test_gibbs_is_stationary_both_signs(self):
        spec = random_instance(7, 15, beta=0.8)
        star = g.gibbs(spec)
        for sign in (-1.0, 1.0):
            out = g.effective_potential_rhs(star, spec, sign=sign)
            assert np.abs(out.sigma).max() <= 1e-10

    def test_zero_potential_form(self):
        # summands beta*(log rho_j - log rho_i), branches by -sign-adjusted log rho
        spec = _spec(np.zeros(4), beta=1.0, seed=3)
        rho = random_interior(3, spec.weights)
        out = g.effective_potential_rhs(rho, spec).sigma
        m, r = spec.m, rho.rho
        ly = np.log(r)
        ueff = -ly  # sign = -1
        expect = np.zeros(4)
        for i in range(4):
            for j in range(4):
                if ueff[j] > ueff[i]:
                    expect[i] += m[j] * (ly[j] - ly[i]) * r[j]
                elif ueff[j] < ueff[i]:
                    expect[i] += m[j] * (ly[j] - ly[i]) * r[i]
        np.testing.assert_allclose(out, expect, atol=1e-13)

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_mass_conservation(self, sign):
        for seed in range(5):
            spec = random_instance(seed, 30, beta=1.5)
            rho = random_interior(seed + 9, spec.weights)
            out = g.effective_potential_rhs(rho, spec, sign=sign)
            assert abs(float(np.dot(spec.m, out.sigma))) <= 1e-12 * (1 + np.abs(out.sigma).max())

    def test_sign_changes_branching(self):
        spec = _spec([0.1, -0.2, 0.3], beta=2.0, seed=8)
        rho = g.Density.normalized(np.array([0.4, 1.9, 0.8]), spec.weights)
        minus = g.effective_potential_rhs(rho, spec, sign=-1.0).sigma
        plus = g.effective_potential_rhs(rho, spec, sign=+1.0).sigma
        assert np.abs(minus - plus).max() > 1e-6


class TestTangentValidity:
    def test_every_rhs_is_mean_free_quantified(self):
        # 1000 random instances across all kinds and sizes: each output must
        # be a valid tangent vector (weighted mean zero within 1e-12)
        sizes = (2, 5, 50, 200)
        kinds = ("fpe", "phibar", "beta_zero", "master")
        weights_cache = {n: explicit_weights(n, seed=n) for n in sizes}
        worst = 0.0
        for k in range(1000):
            n = sizes[k % 4]
            kind = kinds[(k // 4) % 4]
            rng = np.random.default_rng(90000 + k)
            w = weights_cache[n]
            if kind == "master":
                phi = np.full(n, float(rng.uniform(-1, 1)))
                beta = float(rng.uniform(0.2, 2.0))
            elif kind == "beta_zero":
                phi = rng.uniform(-2, 2, n)
                beta = 0.0
            else:
                phi = rng.uniform(-2, 2, n)
                beta = float(rng.uniform(0.2, 2.0))
            spec = g.GraphSpec(weights=w, phi=phi, beta=beta)
            rho = g.Density.normalized(np.exp(rng.uniform(-0.7, 0.7, n)), w)
            if kind == "fpe":
                out = g.fokker_planck_rhs(rho, spec)
            elif kind == "phibar":
                out = g.effective_potential_rhs(rho, spec)
            else:
                out = _kind_rhs(kind, rho, spec)
            # TangentVector construction enforces 1e-12
            worst = max(worst,
                        abs(float(np.dot(w.m, out.sigma))) / (1 + np.abs(out.sigma).max()))
        assert worst <= 1e-12


class TestIntegrate:
    def test_stationary_start_stays_constant(self):
        spec = random_instance(1, 10, beta=1.0)
        star = g.gibbs(spec)
        traj = g.integrate("fpe", star, spec,
                           g.IntegratorConfig(t_end=10.0, record_every=0.5))
        drift = np.abs(traj.states.rho - star.rho).max()
        assert drift <= 1e-9

    def test_master_two_state_closed_form(self):
        # symmetric two-state system: rho(t) = 1 +/- (1/2) exp(-t)
        spec = g.GraphSpec(weights=half_weights(), phi=np.zeros(2), beta=1.0)
        rho0 = g.Density(np.array([1.5, 0.5]), spec.weights)
        traj = g.integrate("master", rho0, spec,
                           g.IntegratorConfig(t_end=2.0, record_every=0.25))
        k = int(np.argmin(np.abs(traj.times - 1.0)))
        expect = np.array([1 + 0.5 * math.exp(-1.0), 1 - 0.5 * math.exp(-1.0)])
        np.testing.assert_allclose(traj.states.rho[k], expect, atol=1e-6)

    def test_mass_conserved_at_all_records(self):
        spec = random_instance(2, 25, beta=0.5)
        rho0 = perturbed_gibbs(spec, 0.5, 3)
        traj = g.integrate("fpe", rho0, spec,
                           g.IntegratorConfig(t_end=4.0, record_every=0.05))
        assert np.abs(traj.states.mass() - 1.0).max() <= 1e-10

    def test_record_grid_hits_t_end(self):
        spec = random_instance(3, 6, beta=1.0)
        rho0 = perturbed_gibbs(spec, 0.3, 1)
        traj = g.integrate("fpe", rho0, spec,
                           g.IntegratorConfig(t_end=1.0, record_every=0.3))
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0])

    def test_kind_validation(self):
        spec = random_instance(4, 5, beta=1.0)
        rho0 = random_interior(0, spec.weights)
        with pytest.raises(ValueError):
            g.integrate("unknown", rho0, spec, g.IntegratorConfig())
        with pytest.raises(ValueError):
            g.integrate("beta_zero", rho0, spec, g.IntegratorConfig())
        with pytest.raises(ValueError):  # master needs a constant potential
            g.integrate("master", rho0, spec, g.IntegratorConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            g.IntegratorConfig(t_end=-1.0)
        with pytest.raises(ValueError):
            g.IntegratorConfig(t_end=1.0, record_every=2.0)
        with pytest.raises(ValueError):
            g.IntegratorConfig(rel_tol=0.0)

    @pytest.mark.parametrize("record_every", [1e-300, 5e-324, 0.9e-6])
    def test_record_grid_is_bounded(self, record_every):
        # rejected from t_end / record_every alone, before any grid exists
        with pytest.raises(ValueError, match="records"):
            g.IntegratorConfig(t_end=1.0, record_every=record_every)
        g.IntegratorConfig(t_end=1.0, record_every=1.0 / MAX_RECORDS)

    def test_stiffness_error_when_floor_blocks_flow(self):
        # the flow must cross the (huge) positivity floor, so every step is
        # rejected and the step size underflows
        spec = g.GraphSpec(weights=half_weights(), phi=np.array([0.0, 1.0]), beta=1.0)
        rho0 = g.Density(np.ones(2), spec.weights)
        cfg = g.IntegratorConfig(t_end=5.0, record_every=0.5, positivity_floor=0.7)
        with pytest.raises(StiffnessError) as err:
            g.integrate("fpe", rho0, spec, cfg)
        assert err.value.state is not None

    @pytest.mark.parametrize("tol", [1e-300, 5e-324])
    def test_extreme_tolerances_end_within_a_step_budget(self, monkeypatch, tol):
        # the first step size squared overflowing ratios into h = inf / inf,
        # and a nan step was rejected and halved to nan without end
        spec, rho0 = _decay_instance("fpe")
        cfg = g.IntegratorConfig(t_end=4.0, record_every=0.05, abs_tol=tol, rel_tol=tol)
        step, calls = dynamics._dp54_step, []

        def budgeted(*args):
            calls.append(None)
            assert len(calls) <= 1000, "no end within the step budget"
            return step(*args)

        monkeypatch.setattr(dynamics, "_dp54_step", budgeted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StiffnessError, match="step size underflow"):
                g.integrate("fpe", rho0, spec, cfg)

    def test_overflowing_error_estimate_counts_as_error(self, monkeypatch):
        # at 1e-300 the scaled error's squares overflow, but every stage and
        # the estimate itself are finite: too large an error, not a nan
        spec, rho0 = _decay_instance("fpe")
        cfg = g.IntegratorConfig(t_end=4.0, record_every=0.05, abs_tol=1e-300, rel_tol=1e-300)
        made, stats = dynamics.IntegratorStats, []

        def recorded():
            stats.append(made())
            return stats[-1]

        monkeypatch.setattr(dynamics, "IntegratorStats", recorded)
        with pytest.raises(StiffnessError, match="step size underflow"):
            g.integrate("fpe", rho0, spec, cfg)
        (rejected,) = [s.rejected for s in stats]
        assert rejected["nonfinite"] == 0
        assert rejected["error"] > 0

    def test_huge_tolerances_warn_nothing(self):
        # the error scale abs_tol + rel_tol |y| overflows to inf
        spec, rho0 = _decay_instance("fpe")
        cfg = g.IntegratorConfig(t_end=1.0, record_every=0.5, abs_tol=1e308, rel_tol=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = g.integrate("fpe", rho0, spec, cfg)
        assert np.isfinite(traj.states.rho).all()

    def test_rms_is_the_plain_formula_without_overflow(self):
        rng = np.random.default_rng(3)
        for scale in (1e-140, 1e-5, 1.0, 1e7, 1e140):
            x = scale * rng.standard_normal(50) * np.exp(rng.uniform(-10, 10, 50))
            assert dynamics._rms(x) == math.sqrt(float(np.mean(x ** 2)))
        assert dynamics._rms(np.full(4, 1e300)) == pytest.approx(1e300, rel=1e-15)
        assert dynamics._rms(np.zeros(3)) == 0.0


def _decay_instance(kind):
    """The shipped decay experiment at N=40 (fpe, phibar) or the master
    experiment at N=30, with a seeded potential and start."""
    if kind == "master":
        w = g.build_weights(g.WeightFamily.geometric(0.6), 30)
        spec = g.GraphSpec(weights=w, phi=np.zeros(len(w)), beta=1.0)
    else:
        w = g.build_weights(g.WeightFamily.geometric(0.5), 40)
        phi = np.random.default_rng(1).uniform(-1.0, 1.0, len(w))
        spec = g.GraphSpec(weights=w, phi=phi, beta=1.0)
    return spec, perturbed_gibbs(spec, 0.5, 1)


class TestDenseOutput:
    @pytest.mark.parametrize("kind", ["fpe", "phibar", "master"])
    @pytest.mark.parametrize("record_every", [0.01, 1.0],
                             ids=["records-within-steps", "steps-within-records"])
    def test_records_match_a_tight_reference(self, kind, record_every):
        spec, rho0 = _decay_instance(kind)
        cfg = g.IntegratorConfig(t_end=4.0, record_every=record_every)
        ref_cfg = g.IntegratorConfig(t_end=4.0, record_every=record_every,
                                     rel_tol=1e-13, abs_tol=1e-15)
        traj = g.integrate(kind, rho0, spec, cfg)
        ref = g.integrate(kind, rho0, spec, ref_cfg)
        if record_every < 0.05:
            assert traj.stats.accepted < len(traj) / 2   # one step covers several records
        else:
            assert traj.stats.accepted > 2 * len(traj)   # several steps per record
        np.testing.assert_array_equal(traj.times, ref.times)
        want = ref.states.rho
        bound = 10.0 * (cfg.abs_tol + cfg.rel_tol * np.abs(want))
        assert np.all(np.abs(traj.states.rho - want) <= bound)

    def test_interpolation_matrix_is_the_dormand_prince_one(self):
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        np.testing.assert_array_equal(dynamics._DP_P, rk.RK45.P)

    def test_interpolated_record_below_the_floor_rejects_the_step(self, monkeypatch):
        # an interpolant that overshoots 1000-fold: the stages stay positive,
        # so only the interpolated records can fall below the floor
        spec, rho0 = _decay_instance("fpe")
        cfg = g.IntegratorConfig(t_end=1.0, record_every=0.01)
        clean = g.integrate("fpe", rho0, spec, cfg)
        assert clean.stats.rejected["positivity"] == 0
        monkeypatch.setattr(dynamics, "_DP_P", 1e3 * dynamics._DP_P)
        traj = g.integrate("fpe", rho0, spec, cfg)
        assert traj.stats.rejected["positivity"] > 0
        assert traj.states.inf.min() >= cfg.positivity_floor

    def test_rhs_count_on_the_decay_run(self):
        # 494 evaluations when every record time ended a step, 133 now
        spec, rho0 = _decay_instance("fpe")
        traj = g.integrate("fpe", rho0, spec, g.IntegratorConfig(t_end=4.0, record_every=0.05))
        stats = traj.stats
        assert stats.nfev <= 200
        assert stats.accepted >= 1 and 0.0 < stats.h_min <= stats.h_max
        attempts = stats.accepted + sum(stats.rejected.values())
        assert stats.nfev <= 1 + 6 * attempts


class TestMonitor:
    def test_stationary_all_pass(self):
        spec = random_instance(5, 8, beta=1.0)
        star = g.gibbs(spec)
        traj = g.integrate("fpe", star, spec,
                           g.IntegratorConfig(t_end=2.0, record_every=0.2))
        consts = g.invariant_constants(star, spec)
        rep = monitor(traj, consts)
        assert rep.all_passed

    def test_generic_run_all_pass(self):
        spec = random_instance(6, 30, beta=1.0)
        rho0 = perturbed_gibbs(spec, 0.5, 7)
        traj = g.integrate("fpe", rho0, spec,
                           g.IntegratorConfig(t_end=2.0, record_every=0.02))
        consts = g.invariant_constants(rho0, spec)
        rep = monitor(traj, consts)
        assert rep.all_passed, rep.checks
        assert not rep.checks["dissipation_identity"].skipped

    def test_beta_zero_skips_metric_checks(self):
        spec = random_instance(7, 6, beta=0.0)
        rho0 = random_interior(4, spec.weights)
        traj = g.integrate("beta_zero", rho0, spec,
                           g.IntegratorConfig(t_end=1.0, record_every=0.1))
        rep = monitor(traj, None)
        assert rep.all_passed
        assert rep.checks["dissipation_identity"].skipped
        assert rep.checks["relative_energy_decrease"].skipped
        assert rep.checks["invariant_set"].skipped

    def test_effective_ordering_run(self):
        spec = random_instance(8, 12, beta=1.0)
        rho0 = perturbed_gibbs(spec, 0.4, 9)
        traj = g.integrate("phibar", rho0, spec,
                           g.IntegratorConfig(t_end=2.0, record_every=0.05))
        rep = monitor(traj, None)
        assert rep.all_passed
        assert rep.checks["dissipation_identity"].skipped  # metric is out of scope here
        assert not rep.checks["free_energy_decrease"].skipped
        assert not rep.checks["relative_energy_decrease"].skipped

    def test_dissipation_inverts_once_per_block(self, monkeypatch):
        spec = random_instance(6, 12, beta=1.0)
        traj = g.integrate("fpe", perturbed_gibbs(spec, 0.5, 7), spec,
                           g.IntegratorConfig(t_end=1.0, record_every=0.05))
        rows = []
        real = dynamics.metric_inner

        def counted(rho, *args):
            rows.append(len(rho.rho))
            return real(rho, *args)

        monkeypatch.setattr(dynamics, "metric_inner", counted)
        whole = monitor(traj, None).checks["dissipation_identity"]
        assert rows == [len(traj)]           # 21 records x N=12 fit in one block
        rows.clear()
        monkeypatch.setattr(dynamics, "BLOCK_ENTRIES", 5 * 12)
        blocked = monitor(traj, None).checks["dissipation_identity"]
        assert rows == [5, 5, 5, 5, 1]
        assert (blocked.margin, blocked.detail) == (whole.margin, whole.detail)

    def test_record_off_the_mass_slice_names_its_time(self, monkeypatch):
        # a right-hand side that leaks mass: the record at t=0.05 is the
        # first off the unit-mass slice by more than 1e-10
        monkeypatch.setattr(dynamics, "_rhs_closure", lambda kind, spec, sign: lambda y: -1e-6 * y)
        spec = random_instance(2, 10, beta=1.0)
        with pytest.raises(InvariantBreachError,
                           match="^recorded state at t=0.05 invalid: row 1: density mass"):
            g.integrate("fpe", g.gibbs(spec), spec,
                        g.IntegratorConfig(t_end=1.0, record_every=0.05))

    def test_dissipation_counts_completed_samples(self):
        spec = random_instance(6, 12, beta=1.0)
        rho0 = perturbed_gibbs(spec, 0.5, 7)
        traj = g.integrate("fpe", rho0, spec,
                           g.IntegratorConfig(t_end=1.0, record_every=0.05))
        above = 0
        for k, F in enumerate(traj.F_values):
            state = traj.states.rows(k)
            sig = g.fokker_planck_rhs(state, spec)
            if g.metric_inner(state, spec.phi, sig, sig) >= 1e-8 * (1.0 + abs(F)):
                above += 1
        check = monitor(traj, None).checks["dissipation_identity"]
        assert check.passed
        assert above > 0
        assert check.detail == f"{above} sampled times"

    def test_dissipation_sorts_the_potential_once(self, monkeypatch):
        spec = random_instance(6, 12, beta=1.0)
        rho0 = perturbed_gibbs(spec, 0.5, 7)
        traj = g.integrate("fpe", rho0, spec,
                           g.IntegratorConfig(t_end=1.0, record_every=0.05))
        built = []
        init = g.mobility.MobilityOperator.__init__

        def counting_init(self, key, m):
            built.append(key)
            init(self, key, m)

        monkeypatch.setattr(g.mobility.MobilityOperator, "__init__", counting_init)
        check = dynamics._check_dissipation(traj)
        assert check.passed
        assert int(check.detail.split()[0]) > 2
        assert len(built) == 1   # one operator gives the right-hand side and the metric

    def test_dissipation_check_can_fail(self, monkeypatch):
        spec = random_instance(6, 12, beta=1.0)
        rho0 = perturbed_gibbs(spec, 0.5, 7)
        traj = g.integrate("fpe", rho0, spec,
                           g.IntegratorConfig(t_end=1.0, record_every=0.05))
        assert monitor(traj, None).checks["dissipation_identity"].passed
        flow = g.mobility.MobilityOperator.flow

        def off_by_one_percent(self, rho, beta):
            return 1.01 * flow(self, rho, beta)

        monkeypatch.setattr(g.mobility.MobilityOperator, "flow", off_by_one_percent)
        check = monitor(traj, None).checks["dissipation_identity"]
        assert not check.skipped
        assert check.passed is False
        assert check.margin < 0.0

    def test_invariant_set_never_entered_fails(self):
        spec = random_instance(6, 12, beta=1.0)
        rho0 = perturbed_gibbs(spec, 0.5, 7)
        traj = g.integrate("fpe", rho0, spec,
                           g.IntegratorConfig(t_end=1.0, record_every=0.1))
        consts = g.invariant_constants(rho0, spec)
        above = dataclasses.replace(consts, lower_bound=2.0 * float(traj.states.inf.max()))
        check = monitor(traj, above).checks["invariant_set"]
        assert (check.passed, check.skipped) == (False, False)
        assert check.detail == "state never entered the invariant set"
        assert monitor(traj, consts).checks["invariant_set"].passed

    def test_phibar_skips_the_constant_checks(self):
        spec = random_instance(8, 12, beta=1.0)
        rho0 = perturbed_gibbs(spec, 0.4, 9)
        traj = g.integrate("phibar", rho0, spec,
                           g.IntegratorConfig(t_end=1.0, record_every=0.1))
        rep = monitor(traj, g.invariant_constants(rho0, spec))
        for name in ("invariant_set", "decay_bound", "l2m_convergence"):
            check = rep.checks[name]
            assert check.skipped and check.detail == \
                "invariant-set constants stated for the potential-ordered flow"

    def test_master_includes_sup_norm_decay(self):
        spec = _spec(np.zeros(6), beta=1.5, seed=2)
        rho0 = random_interior(11, spec.weights)
        traj = g.integrate("master", rho0, spec,
                           g.IntegratorConfig(t_end=3.0, record_every=0.1))
        consts = g.invariant_constants(rho0, spec)
        rep = monitor(traj, consts)
        assert rep.all_passed
        assert not rep.checks["linf_master_decay"].skipped


def _window(times, L):
    """What decay_rate_fit reads of a trajectory: its times and L values."""
    return SimpleNamespace(times=times, L_values=L)


class TestDecayRateFit:
    def test_master_closed_form_rate(self):
        # L(t) = L(0) exp(-2t) for the symmetric two-state system
        spec = g.GraphSpec(weights=half_weights(), phi=np.zeros(2), beta=1.0)
        rho0 = g.Density(np.array([1.5, 0.5]), spec.weights)
        traj = g.integrate("master", rho0, spec,
                           g.IntegratorConfig(t_end=3.0, record_every=0.05))
        rate = g.decay_rate_fit(traj)
        assert rate == pytest.approx(2.0, rel=0.02)

    def test_exact_exponential_on_the_record_grid(self):
        times = dynamics.record_times(g.IntegratorConfig(t_end=4.0, record_every=0.05), 1)
        for c in (1e-5, 3.0, 1e5):
            rate = g.decay_rate_fit(_window(times, c * np.exp(-2.0 * times)))
            assert abs(rate - 2.0) <= 4 * np.spacing(2.0)

    def test_slope_is_the_exact_least_squares_slope(self):
        # windows whose offsets, slopes and noise span several orders of
        # magnitude, against the slope in rational arithmetic over the same
        # window; np.polyfit misses it by up to 7e-11 on some of these
        rng = np.random.default_rng(22)
        for _ in range(150):
            n = int(rng.integers(5, 200))
            times = (rng.integers(0, 2) * 10.0 ** rng.uniform(-2, 3)
                     + 10.0 ** rng.uniform(-3, 0) * np.arange(n))
            drop = 10.0 ** rng.uniform(-4, 2.7)
            logL = (rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2, 1.3)
                    + drop * (times[-1] - times) / (times[-1] - times[0])
                    + 10.0 ** rng.uniform(-10, -1) * drop * rng.standard_normal(n))
            L = np.exp(logL)
            ok = L > 1e-12
            t = [Fraction(v) for v in times[ok]]
            y = [Fraction(v) for v in np.log(L[ok])]
            tbar, ybar = sum(t) / len(t), sum(y) / len(y)
            exact = float(sum((a - tbar) * (b - ybar) for a, b in zip(t, y))
                          / sum((a - tbar) ** 2 for a in t))
            assert g.decay_rate_fit(_window(times, L)) == pytest.approx(-exact, rel=1e-14)

    @pytest.mark.parametrize("kind", ["fpe", "phibar", "master"])
    def test_slope_matches_polyfit_on_decay_runs(self, kind):
        spec, rho0 = _decay_instance(kind)
        traj = g.integrate(kind, rho0, spec, g.IntegratorConfig(t_end=4.0, record_every=0.05))
        ok = np.isfinite(traj.L_values) & (traj.L_values > 1e-12)
        oracle = -np.polyfit(traj.times[ok], np.log(traj.L_values[ok]), 1)[0]
        assert g.decay_rate_fit(traj) == pytest.approx(oracle, rel=1e-12)

    def test_constant_trajectory_rejected(self):
        spec = random_instance(9, 5, beta=1.0)
        star = g.gibbs(spec)
        traj = g.integrate("fpe", star, spec,
                           g.IntegratorConfig(t_end=1.0, record_every=0.1))
        with pytest.raises(InsufficientDataError):
            g.decay_rate_fit(traj)

    def test_fitted_rate_dominates_guaranteed_rate(self):
        # small potential range keeps the guaranteed rate representable
        spec = _spec(0.002 * np.arange(5), beta=1.0, seed=6)
        rho0 = perturbed_gibbs(spec, 0.5, 13)
        consts = g.invariant_constants(rho0, spec)
        traj = g.integrate("fpe", rho0, spec,
                           g.IntegratorConfig(t_end=4.0, record_every=0.05))
        assert consts.decay_rate > 0.0
        assert g.decay_rate_fit(traj) >= consts.decay_rate - 1e-6
