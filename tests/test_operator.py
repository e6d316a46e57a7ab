"""The sorted-order mobility operator against the dense pairwise formulas
of :mod:`dense_oracle`, on instances with and without potential ties."""

import numpy as np
import pytest

import graphfp as g
import dense_oracle
from graphfp.dynamics import _rhs_closure
from graphfp.metric import MobilityOperator, _path_gradient, _segment_solve
from helpers import explicit_weights, run_python


def _instance(n, seed, ties, beta=1.0):
    """(spec, rho): explicit weights, a potential drawn from a few levels
    when ``ties`` (so tie groups of several sizes), else continuous."""
    rng = np.random.default_rng([n, seed])
    w = explicit_weights(n, seed=seed)
    if ties:
        phi = rng.integers(0, max(2, n // 4), n).astype(float)
    else:
        phi = rng.uniform(-1.0, 1.0, n)
    rho = g.Density.normalized(np.exp(rng.uniform(-0.7, 0.7, n)), w)
    return g.GraphSpec(weights=w, phi=phi, beta=beta), rho


def _close(a, b, rel=1e-12):
    scale = 1.0 + np.abs(b).max()
    assert np.abs(a - b).max() <= rel * scale


SIZES = [2, 20, 200, 2000]


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", SIZES)
class TestAgainstDenseOracle:
    def test_fpe_rhs(self, n, ties):
        spec, rho = _instance(n, 1, ties, beta=0.8)
        _close(_rhs_closure("fpe", spec)(rho.rho), dense_oracle.rhs("fpe", spec)(rho.rho))

    def test_fpe_rhs_is_minus_L_u(self, n, ties):
        spec, rho = _instance(n, 2, ties, beta=1.3)
        u = spec.phi + spec.beta * np.log(rho.rho)
        _close(_rhs_closure("fpe", spec)(rho.rho),
               -dense_oracle.matvec(rho.rho, spec.phi, spec.m, u))

    def test_beta_zero_rhs(self, n, ties):
        spec, rho = _instance(n, 3, ties, beta=0.0)
        _close(_rhs_closure("beta_zero", spec)(rho.rho),
               dense_oracle.rhs("beta_zero", spec)(rho.rho))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_phibar_rhs(self, n, ties, sign):
        spec, rho = _instance(n, 4, ties, beta=0.6)
        _close(_rhs_closure("phibar", spec, sign)(rho.rho),
               dense_oracle.rhs("phibar", spec, sign)(rho.rho))

    def test_matvec_and_wdeg(self, n, ties):
        spec, rho = _instance(n, 5, ties)
        p = np.random.default_rng(n).normal(size=n)
        op = MobilityOperator(spec.phi, spec.m)
        _close(op.apply(rho.rho, p), dense_oracle.matvec(rho.rho, spec.phi, spec.m, p))
        _close(op.tau(rho.rho), dense_oracle.tau(rho.rho, spec.phi), rel=1e-15)


@pytest.mark.parametrize("ties", [False, True])
def test_apply_stacks_over_leading_axes(ties):
    # a (K, n) stack of densities and pressures, as the geodesic descent
    # applies L at every interior knot in one call
    spec, _ = _instance(30, 7, ties)
    rng = np.random.default_rng(7)
    rhos = np.stack([g.Density.normalized(np.exp(rng.uniform(-2, 2, 30)), spec.weights).rho
                     for _ in range(5)])
    ps = rng.normal(size=(5, 30))
    op = MobilityOperator(spec.phi, spec.m)
    stacked = op.apply(rhos, ps)
    assert stacked.shape == (5, 30)
    for r, p, row in zip(rhos, ps, stacked):
        np.testing.assert_array_equal(row, op.apply(r, p))
        _close(row, dense_oracle.matvec(r, spec.phi, spec.m, p))


@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_phibar_ties_in_adjusted_key(sign):
    # vertices 0-2 share phi and rho, so phi + sign beta log rho ties there
    # (and only the adjusted key ties: phi itself ties elsewhere too)
    n = 30
    spec, rho = _instance(n, 6, ties=True, beta=0.9)
    raw = rho.rho.copy()
    spec = g.GraphSpec(weights=spec.weights, phi=np.where(np.arange(n) < 3, 0.5, spec.phi),
                       beta=spec.beta)
    raw[:3] = raw[0]
    rho = g.Density.normalized(raw, spec.weights)
    key = spec.phi + sign * spec.beta * np.log(rho.rho)
    assert key[0] == key[1] == key[2]
    _close(_rhs_closure("phibar", spec, sign)(rho.rho),
           dense_oracle.rhs("phibar", spec, sign)(rho.rho))


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", [2, 20, 200])
def test_inverse(n, ties):
    spec, rho = _instance(n, 7, ties)
    sigma = g.project_tangent(np.random.default_rng(n + 1).normal(size=n), spec.weights)
    p = g.invert_mobility(rho, spec.phi, sigma)
    direct = dense_oracle.invert(rho.rho, spec.phi, spec.m, sigma.sigma)
    np.testing.assert_allclose(p, direct, atol=1e-9 * (1 + np.abs(direct).max()))
    g_dense = float(np.dot(spec.m, direct * sigma.sigma))
    assert float(np.dot(spec.m, p * sigma.sigma)) == pytest.approx(g_dense, rel=1e-12)


def test_inverse_constant_potential():
    # one tie group holding every vertex: L is the log-mean Laplacian
    spec, rho = _instance(40, 8, ties=False)
    phi = np.zeros(40)
    sigma = g.project_tangent(np.random.default_rng(8).normal(size=40), spec.weights)
    direct = dense_oracle.invert(rho.rho, phi, spec.m, sigma.sigma)
    p = g.invert_mobility(rho, phi, sigma)
    np.testing.assert_allclose(p, direct, atol=1e-9 * (1 + np.abs(direct).max()))


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", [3, 12, 40])
def test_geodesic_action_and_gradient(n, ties):
    spec, a = _instance(n, 9, ties)
    _, b = _instance(n, 10, ties)
    knots = 6
    t = np.linspace(0.0, 1.0, knots + 1)[:, None]
    path = (1 - t) * a.rho[None, :] + t * b.rho[None, :]
    op = MobilityOperator(spec.phi, spec.m)
    act, P, mids = _segment_solve(path, op)
    act_d, P_d, mids_d = dense_oracle.segment_solve(path, spec.phi, spec.m)
    assert act == pytest.approx(act_d, rel=1e-10)
    grad = _path_gradient(path, op, P, mids)
    grad_d = dense_oracle.path_gradient(path, spec.phi, spec.m, P_d, mids_d)
    _close(grad, grad_d, rel=1e-9)


def test_tie_blocks_load_no_numpy_ma():
    """The tie-group blocks are grouped by size in increasing order, as
    ``np.unique`` would give them, without loading ``numpy.ma``."""
    code = """
import sys
import numpy as np
from graphfp.metric import MobilityOperator
phi = np.random.default_rng(3).integers(0, 40, 200).astype(float)
op = MobilityOperator(phi, np.full(200, 1 / 200))
loaded = "numpy.ma" in sys.modules
size = np.diff(np.append(op._starts, 200))
ref = [op._starts[size == k][:, None] + np.arange(k) for k in np.unique(size[size > 1])]
same = len(ref) == len(op._blocks) and all(
    np.array_equal(a, b) for a, b in zip(ref, op._blocks))
print(loaded, same, len(ref) > 2)
"""
    assert run_python(code) == "False True True"
