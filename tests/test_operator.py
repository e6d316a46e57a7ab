"""The sorted-order mobility operator against the dense pairwise formulas
of :mod:`dense_oracle`, on instances with and without potential ties."""

import tracemalloc

import numpy as np
import pytest

import graphfp as g
import graphfp.mobility
import dense_oracle
from graphfp.cli import main
from graphfp.dynamics import _rhs_closure
from graphfp.metric import _path_gradient, _segment_solve
from graphfp.mobility import MobilityOperator, _gauss_solve
from graphfp.serialize import save_density
from helpers import explicit_weights, run_python


def _instance(n, seed, ties, beta=1.0, spread=0.7):
    """(spec, rho): explicit weights, a potential drawn from a few levels
    when ``ties`` (so tie groups of several sizes), else continuous, and a
    density that spans e^(+-spread)."""
    rng = np.random.default_rng([n, seed])
    w = explicit_weights(n, seed=seed)
    if ties:
        phi = rng.integers(0, max(2, n // 4), n).astype(float)
    else:
        phi = rng.uniform(-1.0, 1.0, n)
    rho = g.Density.normalized(np.exp(rng.uniform(-spread, spread, n)), w)
    return g.GraphSpec(weights=w, phi=phi, beta=beta), rho


def _close(a, b, rel=1e-12):
    scale = 1.0 + np.abs(b).max()
    assert np.abs(a - b).max() <= rel * scale


def _cases(sizes):
    """(n, ties, spread) for each size, with and without ties: densities
    spanning e^(+-0.7), and e^(+-5) (ratios up to e^10 inside a tie group)."""
    return [pytest.param(n, ties, spread, id=f"{n}-{ties}{tag}")
            for spread, tag in ((0.7, ""), (5.0, "-wide"))
            for n in sizes for ties in (False, True)]


@pytest.mark.parametrize("n,ties,spread", _cases([2, 20, 200, 2000]))
class TestAgainstDenseOracle:
    def test_fpe_rhs(self, n, ties, spread):
        spec, rho = _instance(n, 1, ties, beta=0.8, spread=spread)
        _close(_rhs_closure("fpe", spec)(rho.rho), dense_oracle.rhs("fpe", spec)(rho.rho))

    def test_fpe_rhs_is_minus_L_u(self, n, ties, spread):
        spec, rho = _instance(n, 2, ties, beta=1.3, spread=spread)
        u = spec.phi + spec.beta * np.log(rho.rho)
        _close(_rhs_closure("fpe", spec)(rho.rho),
               -dense_oracle.matvec(rho.rho, spec.phi, spec.m, u))

    def test_beta_zero_rhs(self, n, ties, spread):
        spec, rho = _instance(n, 3, ties, beta=0.0, spread=spread)
        _close(_rhs_closure("beta_zero", spec)(rho.rho),
               dense_oracle.rhs("beta_zero", spec)(rho.rho))

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_phibar_rhs(self, n, ties, spread, sign):
        spec, rho = _instance(n, 4, ties, beta=0.6, spread=spread)
        _close(_rhs_closure("phibar", spec, sign)(rho.rho),
               dense_oracle.rhs("phibar", spec, sign)(rho.rho))

    def test_matvec_and_wdeg(self, n, ties, spread):
        spec, rho = _instance(n, 5, ties, spread=spread)
        p = np.random.default_rng(n).normal(size=n)
        op = MobilityOperator(spec.phi, spec.m)
        _close(op.apply(rho.rho, p), dense_oracle.matvec(rho.rho, spec.phi, spec.m, p))


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


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("spread", [0.7, 5.0])
def test_stacked_calls_equal_their_rows_bitwise(ties, spread):
    # the monitor's one stacked flow, inversion and metric per block: each
    # row equals its own call bit for bit, with and without ties, for
    # densities spanning e^(+-0.7) and e^(+-5)
    spec, _ = _instance(40, 9, ties)
    rng = np.random.default_rng(9)
    rhos = g.Density.normalized(np.exp(rng.uniform(-spread, spread, (6, 40))), spec.weights)
    op = MobilityOperator(spec.phi, spec.m)
    sig = op.flow(rhos.rho, spec.beta)
    tv = g.TangentVector(sig, spec.weights, mean_tol=1e-9)
    p = g.invert_mobility(rhos, op, tv)
    metric = g.metric_inner(rhos, op, tv, tv)
    assert sig.shape == p.shape == (6, 40) and metric.shape == (6,)
    for k in range(6):
        row = g.Density(rhos.rho[k], spec.weights)
        sig_k = op.flow(row.rho, spec.beta)
        tv_k = g.TangentVector(sig_k, spec.weights, mean_tol=1e-9)
        np.testing.assert_array_equal(sig[k], sig_k)
        np.testing.assert_array_equal(p[k], g.invert_mobility(row, op, tv_k))
        assert metric[k] == g.metric_inner(row, op, tv_k, tv_k)


def test_rows_of_a_stack_get_their_own_rule():
    # the rows' densities span e^(+-0.1) .. e^(+-3): their tie groups need
    # rules of several sizes, and each row matches its own single call
    spec, _ = _instance(30, 7, ties=True)
    rng = np.random.default_rng(8)
    rhos = np.stack([g.Density.normalized(np.exp(rng.uniform(-s, s, 30)), spec.weights).rho
                     for s in (0.1, 3.0, 1.0, 3.0)])
    sigmas = rng.normal(size=(4, 30))
    sigmas -= (sigmas @ spec.m)[:, None]
    op = MobilityOperator(spec.phi, spec.m)
    solved, sq = op.solve(rhos, sigmas), op.form_derivative(rhos, sigmas)
    for r, s, p, row in zip(rhos, sigmas, solved, sq):
        _close(p, op.solve(r, s), rel=1e-13)
        _close(row, op.form_derivative(r, s), rel=1e-13)
        _close(op.apply(r, p), s)


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


@pytest.mark.parametrize("n,ties,spread", _cases([2, 20, 200]))
def test_inverse(n, ties, spread):
    spec, rho = _instance(n, 7, ties, spread=spread)
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


def test_tie_path_loads_no_numpy_ma_or_polynomial():
    """The tie path (rules, group sums, Woodbury solves) loads neither
    numpy.ma nor numpy.polynomial."""
    code = """
import sys
import numpy as np
from graphfp.metric import _path_gradient, _segment_solve
from graphfp.mobility import MobilityOperator
rng = np.random.default_rng(3)
m = np.full(200, 1 / 200)
op = MobilityOperator(rng.integers(0, 40, 200).astype(float), m)
path = np.exp(rng.uniform(-1.0, 1.0, (4, 200)))
path /= (path @ m)[:, None]
op.apply(path[0], rng.normal(size=200))
_, P, mids = _segment_solve(path, op)
_path_gradient(path, op, P, mids)
print(op.has_ties, "numpy.ma" in sys.modules, "numpy.polynomial" in sys.modules)
"""
    assert run_python(code) == "True False False"


def test_constant_potential_solve_memory():
    # one tie group of 4000 vertices: a dense block alone would be 128 MB
    n = 4000
    spec, rho = _instance(n, 11, ties=False)
    op = MobilityOperator(np.zeros(n), spec.m)
    sigma = g.project_tangent(np.random.default_rng(11).normal(size=n), spec.weights).sigma
    tracemalloc.start()
    try:
        p = op.solve(rho.rho, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    res = op.apply(rho.rho, p) - sigma
    assert np.sqrt(spec.m @ (res * res)) <= 1e-12 * np.sqrt(spec.m @ (sigma * sigma))


def _levels_solve(n=1000, rows=31, seed=3):
    """(op, rho, sigma): a stack of ``rows`` densities uniform on [0.5, 1.5]
    and mean-free right-hand sides, on a potential with the levels {0, 1, 2}."""
    w = explicit_weights(n, seed=seed)
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.5, 1.5, (rows, n))
    sigma = g.project_tangent(rng.normal(size=(rows, n)), w).sigma
    return MobilityOperator(rng.integers(0, 3, n).astype(float), w.m), raw / (raw @ w.m)[:, None], sigma


def test_stacked_tie_solve_memory():
    # 31 rows over three tie groups of about 330 vertices: forming the
    # Woodbury Gram as one (rows, Q + 1, Q + 1, tied vertices) broadcast
    # peaks at 27.9 MB on this instance, the per-size products at 13.6 MB
    op, rho, sigma = _levels_solve()
    op.solve(rho[:1], sigma[:1])     # the rule's cached nodes are not counted
    tracemalloc.start()
    try:
        p = op.solve(rho, sigma)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    res = op.apply(rho, p) - sigma
    assert (np.sqrt((res * res) @ op.m) <= 1e-14 * np.sqrt((sigma * sigma) @ op.m)).all()


def _refuse(*args, **kwargs):
    raise AssertionError("np.linalg.solve called")


@pytest.mark.parametrize("n,ties,spread", [c for c in _cases([20, 200]) if c.values[1]])
def test_tie_solve_calls_no_lapack(monkeypatch, n, ties, spread):
    monkeypatch.setattr(np.linalg, "solve", _refuse)
    spec, rho = _instance(n, 7, ties, spread=spread)
    op = MobilityOperator(spec.phi, spec.m)
    sigma = g.project_tangent(np.random.default_rng(n + 1).normal(size=n), spec.weights).sigma
    _close(op.apply(rho.rho, op.solve(rho.rho, sigma)), sigma)
    _close(op.form_derivative(rho.rho, sigma),
           dense_oracle.form_derivative(rho.rho, spec.phi, spec.m, sigma))


def test_tie_commands_call_no_lapack(monkeypatch, tmp_path):
    # the master run is one tie group; the pair has the potential levels {0, 1, 2}
    monkeypatch.setattr(np.linalg, "solve", _refuse)
    assert main(["simulate", "--config", "configs/master.yaml",
                 "--out", str(tmp_path / "master")]) == 0
    w = explicit_weights(30, seed=12)
    spec = g.GraphSpec(weights=w, phi=np.random.default_rng(12).integers(0, 3, 30).astype(float),
                       beta=1.0)
    for side, seed in (("a", 120), ("b", 121)):
        rho = np.random.default_rng(seed).uniform(0.5, 1.5, 30)
        save_density(tmp_path / f"{side}.txt", g.Density.normalized(rho, w), spec)
    assert main(["metric", "--a", str(tmp_path / "a.txt"), "--b", str(tmp_path / "b.txt"),
                 "--out", str(tmp_path / "metric")]) == 0


def _check_against_lapack(aug, k):
    """_gauss_solve on the augmented systems aug against np.linalg.solve,
    to a forward error of 100 ulp times each system's condition number."""
    a, b = aug[..., :k], aug[..., k:]
    x = _gauss_solve(aug)
    ref = np.linalg.solve(a, b)
    scale = np.abs(ref).max((-2, -1)) * np.linalg.cond(a)
    assert (np.abs(x - ref).max((-2, -1)) <= 100 * np.finfo(float).eps * scale).all()
    # backward stable: the residual is a few ulp of |A| |x|
    res = np.abs(a @ x - b).max((-2, -1))
    assert (res <= 16 * k * np.finfo(float).eps * (np.abs(a) @ np.abs(x)).max((-2, -1))).all()


@pytest.mark.parametrize("case", ["random", "zero_pivot", "tiny_pivot", "near_singular"])
def test_gauss_solve_against_lapack(case):
    rng = np.random.default_rng(["random", "zero_pivot", "tiny_pivot", "near_singular"].index(case))
    a = rng.normal(size=(3, 50, 6, 6))
    if case == "zero_pivot":
        a[..., 0, 0] = 0.0          # the first step must swap rows
        a[..., 3, 3] = 0.0
    elif case == "tiny_pivot":
        a[..., 0, 0] = 1e-20        # no swap would lose every digit
    elif case == "near_singular":
        a[..., -1, :] = a[..., 0, :] + 1e-9 * rng.normal(size=(3, 50, 6))
    aug = np.concatenate([a, rng.normal(size=(3, 50, 6, 3))], -1)
    _check_against_lapack(aug, 6)


def test_gauss_solve_spans_chunks():
    # more systems than one pass holds, and one system alone: a system's
    # solution does not depend on the stack around it
    rng = np.random.default_rng(7)
    count = graphfp.mobility._GAUSS_CHUNK + 5
    aug = np.concatenate([rng.normal(size=(count, 5, 5)), rng.normal(size=(count, 5, 2))], -1)
    _check_against_lapack(aug, 5)
    x = _gauss_solve(aug)
    for k in (0, count - 1):
        np.testing.assert_array_equal(_gauss_solve(aug[k]), x[k])


@pytest.mark.parametrize("n,ties,spread", [c for c in _cases([20, 200, 2000]) if c.values[1]])
def test_capacitance_systems_against_lapack(monkeypatch, n, ties, spread):
    # the Woodbury capacitance systems of the tie instances above
    seen = []

    def record(aug):
        seen.append(aug.copy())
        return _gauss_solve(aug)

    monkeypatch.setattr(graphfp.mobility, "_gauss_solve", record)
    spec, rho = _instance(n, 7, ties, spread=spread)
    sigma = g.project_tangent(np.random.default_rng(n + 1).normal(size=n), spec.weights).sigma
    MobilityOperator(spec.phi, spec.m).solve(rho.rho, sigma)
    assert len(seen) == 1
    _check_against_lapack(seen[0], seen[0].shape[-2])


@pytest.mark.parametrize("call", ["apply", "solve"])
def test_zero_density_in_tie_group_raises(call):
    # log(0) makes the group's spread infinite: no rule covers it
    w = explicit_weights(6, seed=1)
    op = MobilityOperator(np.array([0.0, 0.0, 1.0, 1.0, 2.0, 3.0]), w.m)
    rho = np.array([0.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="positive and finite"):
        getattr(op, call)(rho, np.array([1.0, -1.0, 0.5, -0.5, 0.0, 0.0]))
