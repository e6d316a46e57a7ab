"""Weight families, truncation bookkeeping, and sender-network conversion."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfp as g
from graphfp.errors import NearTieWarning, TruncationError
from helpers import explicit_weights


class TestWeightFamily:
    def test_geometric_needs_open_interval(self):
        for q in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                g.WeightFamily.geometric(q)
        g.WeightFamily.geometric(0.5)

    def test_power_law_needs_exponent_above_one(self):
        for s in (1.0, 0.5, -2.0):
            with pytest.raises(ValueError):
                g.WeightFamily.power_law(s)
        g.WeightFamily.power_law(1.01)

    def test_explicit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            g.WeightFamily.explicit([1.0, 0.0])
        with pytest.raises(ValueError):
            g.WeightFamily.explicit([])


class TestBuildWeights:
    def test_geometric_half_two_vertices(self):
        # raw (1/2, 1/4), renormalized by 3/4, tail q^N = 1/4
        w = g.build_weights(g.WeightFamily.geometric(0.5), 2)
        np.testing.assert_allclose(w.m, [2 / 3, 1 / 3], rtol=1e-15)
        assert w.raw_tail_mass == pytest.approx(0.25, rel=1e-15)

    def test_explicit_uniform(self):
        w = g.build_weights(g.WeightFamily.explicit([1, 1, 1, 1]), 4)
        np.testing.assert_allclose(w.m, 0.25)
        assert w.raw_tail_mass == 0.0

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            g.build_weights(g.WeightFamily.geometric(0.9), 1)

    @pytest.mark.parametrize("family,n", [
        ("geo", 500), ("pow", 100_000), ("exp", 1000),
    ])
    def test_unit_mass_invariant(self, family, n):
        fam = {"geo": g.WeightFamily.geometric(0.97),
               "pow": g.WeightFamily.power_law(2.0),
               "exp": g.WeightFamily.explicit(
                   np.random.default_rng(0).uniform(0.1, 5.0, n).tolist())}[family]
        w = g.build_weights(fam, n)
        assert abs(math.fsum(w.m) - 1.0) <= 1e-14
        assert w.m.min() > 0.0

    def test_geometric_underflow_rejected(self):
        with pytest.raises(ValueError, match="underflow"):
            g.build_weights(g.WeightFamily.geometric(0.5), 2000)

    def test_power_law_tail_is_conservative(self):
        # brute-force partial sum of the true remainder as the oracle
        s, n = 2.0, 50
        w = g.build_weights(g.WeightFamily.power_law(s), n)
        idx = np.arange(n + 1, 2_000_000, dtype=float)
        true_tail_lower = float((idx ** -s).sum()) / float(np.pi**2 / 6)
        assert w.raw_tail_mass >= true_tail_lower
        assert w.raw_tail_mass <= 2.0 * true_tail_lower + 1e-12

    @pytest.mark.parametrize("s", [1.01, 1.5, 2.0, 3.0, 6.0])
    @pytest.mark.parametrize("n", [2, 10, 50, 1000])
    def test_power_law_tail_lies_between_remainder_and_integral(self, s, n):
        # zeta(s) - H_N = R_N >= the brute-force partial remainder, and the
        # integral bound over zeta(s) is the tail the weights used to carry
        zeta = pytest.importorskip("scipy.special").zeta(s)
        w = g.build_weights(g.WeightFamily.power_law(s), n)
        partial = math.fsum(np.arange(n + 1, n + 100_001, dtype=float) ** -s)
        assert partial / zeta <= w.raw_tail_mass <= n ** (1.0 - s) / ((s - 1.0) * zeta)

    def test_explicit_truncation_keeps_tail(self):
        w = g.build_weights(g.WeightFamily.explicit([2, 1, 1]), 2)
        np.testing.assert_allclose(w.m, [2 / 3, 1 / 3])
        assert w.raw_tail_mass == pytest.approx(0.25)


class TestFromLocallyFinite:
    def test_three_vertex_path(self):
        rows = [{1: 1.0}, {0: 1.0, 2: 1.0}, {1: 1.0}]
        w = g.from_locally_finite(rows)
        np.testing.assert_allclose(w.m, [0.25, 0.5, 0.25], rtol=1e-15)
        assert w.raw_tail_mass == 0.0

    def test_single_vertex_self_loop(self):
        w = g.from_locally_finite([{0: 1.0}])
        np.testing.assert_allclose(w.m, [1.0])

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            g.from_locally_finite([{1: 1.0}, {}])
        with pytest.raises(ValueError, match="degenerate"):
            g.from_locally_finite([{1: 1.0}, {0: 0.0}])

    def test_pairs_accepted(self):
        w = g.from_locally_finite([[(1, 2.0)], [(0, 2.0)]])
        np.testing.assert_allclose(w.m, [0.5, 0.5])

    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=30, deadline=None)
    def test_scaling_invariance(self, scale):
        rows = [{1: 0.3, 2: 0.7}, {0: 1.2}, {0: 0.4, 1: 2.1}]
        base = g.from_locally_finite(rows)
        scaled = g.from_locally_finite(
            [{k: v * scale for k, v in row.items()} for row in rows])
        np.testing.assert_allclose(scaled.m, base.m, rtol=1e-12)


def _cutoff_oracle(weights, norm_bound, delta):
    """Exhaustive scan over every admissible prefix length."""
    for n in range(1, len(weights) + 1):
        tail = math.fsum(weights.m[n:]) + weights.raw_tail_mass
        if math.sqrt(tail) * norm_bound < delta:
            return n
    return None


def _cutoff_loop(weights, norm_bound, delta):
    """The scalar scan over the suffix sums that the bisection replaced;
    it must agree exactly, None where no cutoff is admissible."""
    suffix = np.concatenate([np.cumsum(weights.m[::-1])[::-1], [0.0]])
    for n in range(1, len(weights) + 1):
        tail = suffix[n] + weights.raw_tail_mass
        if tail <= 0.0 or math.sqrt(tail) * norm_bound < delta:
            return n
    return None


class TestTailCutoff:
    def test_matches_the_scalar_loop(self):
        rng = np.random.default_rng(12)
        seen = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # sqrt(0) * inf on an empty tail must not warn
            for k in range(200):
                n = int(rng.integers(2, 300))
                zero_tail = k % 2 == 1
                w = (explicit_weights(n, seed=k) if zero_tail else
                     g.build_weights(g.WeightFamily.geometric(rng.uniform(0.5, 0.97)), n))
                bound = math.inf if k % 3 == 0 else float(rng.uniform(0.5, 1e3))
                delta = float(rng.uniform(0.01, 0.99))
                expect = _cutoff_loop(w, bound, delta)
                if expect is None:
                    with pytest.raises(TruncationError):
                        g.estimate_tail_cutoff(w, bound, delta)
                else:
                    assert g.estimate_tail_cutoff(w, bound, delta) == expect
                seen.add((zero_tail, bound == math.inf, expect is None))
        assert {(True, True, False), (True, False, False), (False, True, True),
                (False, False, True), (False, False, False)} <= seen

    def test_uniform_four_vertices(self):
        w = explicit_weights(4)
        assert g.estimate_tail_cutoff(w, 1.0, 0.6) == 3
        assert _cutoff_oracle(w, 1.0, 0.6) == 3

    def test_loose_delta_gives_small_cutoff(self):
        w = g.build_weights(g.WeightFamily.geometric(0.5), 30)
        n0 = g.estimate_tail_cutoff(w, 1.0, 0.999)
        assert n0 == _cutoff_oracle(w, 1.0, 0.999)
        assert n0 == 1  # (1 - m_1)^(1/2) < 0.999 already

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        w = explicit_weights(30, seed=seed)
        bound = float(rng.uniform(0.5, 50.0))
        delta = float(rng.uniform(0.05, 0.95))
        expect = _cutoff_oracle(w, bound, delta)
        if expect is None:
            with pytest.raises(TruncationError):
                g.estimate_tail_cutoff(w, bound, delta)
        else:
            assert g.estimate_tail_cutoff(w, bound, delta) == expect

    def test_infinite_bound_takes_the_empty_tail(self):
        # only an empty tail admits an overflowed norm bound
        assert g.estimate_tail_cutoff(explicit_weights(7, seed=2), math.inf, 0.5) == 7
        with pytest.raises(TruncationError):
            g.estimate_tail_cutoff(g.build_weights(g.WeightFamily.geometric(0.5), 5), math.inf, 0.5)

    def test_insufficient_truncation(self):
        w = g.build_weights(g.WeightFamily.geometric(0.5), 5)  # raw tail 1/32
        with pytest.raises(TruncationError):
            g.estimate_tail_cutoff(w, 10.0, 0.01)

    def test_monotone_in_delta(self):
        w = g.build_weights(g.WeightFamily.geometric(0.6), 40)
        deltas = np.linspace(0.05, 0.95, 19)
        cutoffs = [g.estimate_tail_cutoff(w, 2.0, float(d)) for d in deltas]
        assert all(b <= a for a, b in zip(cutoffs, cutoffs[1:]))

    def test_parameter_domain(self):
        w = explicit_weights(4)
        with pytest.raises(ValueError):
            g.estimate_tail_cutoff(w, -1.0, 0.5)
        with pytest.raises(ValueError):
            g.estimate_tail_cutoff(w, 1.0, 1.5)


class TestMinWeightPrefix:
    def test_direct_minimum(self):
        w = g.WeightSequence(m=np.array([1 / 2, 1 / 3, 1 / 6]), raw_tail_mass=0.0)
        assert g.min_weight_prefix(w, 2) == pytest.approx(1 / 3)
        assert g.min_weight_prefix(w, 3) == pytest.approx(1 / 6)

    def test_uniform_case(self):
        w = explicit_weights(8)
        for n0 in range(1, 9):
            assert g.min_weight_prefix(w, n0) == pytest.approx(1 / 8)

    def test_geometric_half(self):
        w = g.build_weights(g.WeightFamily.geometric(0.5), 2)
        assert g.min_weight_prefix(w, 2) == pytest.approx(1 / 3, rel=1e-15)

    def test_out_of_range(self):
        w = explicit_weights(4)
        for n0 in (0, 5):
            with pytest.raises(ValueError):
                g.min_weight_prefix(w, n0)


class TestParseFamily:
    def test_geometric_text(self):
        fam = g.parse_weight_family("geometric:q=0.5")
        assert fam.kind == "geometric" and fam.q == 0.5

    def test_power_law_text(self):
        fam = g.parse_weight_family("powerlaw:s=2.0")
        assert fam.kind == "power_law" and fam.s == 2.0

    def test_explicit_file(self, tmp_path):
        p = tmp_path / "weights.txt"
        p.write_text("1.0\n2.0\n1.0\n")
        fam = g.parse_weight_family(f"explicit:file={p}")
        assert fam.values == (1.0, 2.0, 1.0)

    def test_garbage_rejected(self):
        for text in ("gaussian:q=0.5", "geometric:r=0.5", "geometric"):
            with pytest.raises(ValueError):
                g.parse_weight_family(text)


class TestGraphSpec:
    def test_validation(self):
        w = explicit_weights(3)
        with pytest.raises(ValueError):
            g.GraphSpec(weights=w, phi=np.zeros(2), beta=1.0)
        with pytest.raises(ValueError):
            g.GraphSpec(weights=w, phi=np.array([0.0, np.inf, 0.0]), beta=1.0)
        with pytest.raises(ValueError):
            g.GraphSpec(weights=w, phi=np.zeros(3), beta=-0.1)

    def test_near_tie_warning(self):
        w = explicit_weights(2)
        with pytest.warns(NearTieWarning) as record:
            g.GraphSpec(weights=w, phi=np.array([0.0, 1e-13]), beta=1.0)
        # the warning names the line that built the spec
        assert [r.filename for r in record] == [__file__]
        # and the two values as Python floats, not numpy reprs
        message = str(record[0].message)
        assert "values 0.0 and 1e-13 differ" in message
        assert "np.float64" not in message

    def test_exact_ties_are_silent(self):
        import warnings
        w = explicit_weights(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g.GraphSpec(weights=w, phi=np.array([0.5, 0.5, 1.0]), beta=1.0)

    def test_weights_immutable(self):
        w = explicit_weights(3)
        with pytest.raises(ValueError):
            w.m[0] = 2.0
