"""End-to-end command line runs, file formats, and reproducibility."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import graphfp as g
from graphfp.cli import main
from graphfp.serialize import load_density, save_density
from helpers import explicit_weights, random_interior


def run(args):
    return main([str(a) for a in args])


def write_config(tmp_path, text, name="config.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


BASE = """
graph: {{family: "geometric:q=0.25", N: {n}}}
potential: {{kind: {pot}, c: 0.0, low: -0.5, high: 0.5}}
beta: {beta}
initial: {{kind: gibbs_perturbed, epsilon: {eps}}}
integrator: {{t_end: {t_end}, record_every: {rec}}}
outputs: "{out}"
seed: {seed}
"""


class TestImportPath:
    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(g.__file__))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = ("import sys, graphfp.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestDensityFileFormat:
    def test_round_trip_is_exact(self, tmp_path):
        w = explicit_weights(9, seed=5)
        phi = np.random.default_rng(5).uniform(-2, 2, 9)
        spec = g.GraphSpec(weights=w, phi=phi, beta=1.25)
        rho = random_interior(5, w)
        path = tmp_path / "rho.txt"
        save_density(path, rho, spec)
        rho2, spec2 = load_density(path)
        np.testing.assert_array_equal(rho2.rho, rho.rho)
        np.testing.assert_array_equal(spec2.phi, spec.phi)
        np.testing.assert_array_equal(spec2.m, spec.m)
        assert spec2.beta == spec.beta

    def test_malformed_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("2 1.0\n1 0.5 0.0\n")
        with pytest.raises(ValueError):
            load_density(p)


class TestGibbsCommand:
    def test_constant_potential_gives_uniform(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="constant", beta=1.0, eps=0.5, t_end=1.0, rec=0.1,
            out=tmp_path / "out", seed=1))
        assert run(["gibbs", "--config", cfg]) == 0
        rho, spec = load_density(tmp_path / "out" / "gibbs.txt")
        np.testing.assert_allclose(rho.rho, 1.0, atol=1e-14)
        report = json.loads((tmp_path / "out" / "constants.json").read_text())
        assert report["schema"] == 1
        assert report["seed"] == 1
        assert report["constants"]["lower_bound"] > 0.0

    def test_linear_potential_matches_formula(self, tmp_path):
        cfg = write_config(tmp_path, """
graph: {family: "geometric:q=0.25", N: 8}
potential: {kind: linear, slope: 0.2}
beta: 2.0
initial: {kind: uniform}
outputs: "%s"
seed: 0
""" % (tmp_path / "out"))
        assert run(["gibbs", "--config", cfg]) == 0
        rho, spec = load_density(tmp_path / "out" / "gibbs.txt")
        # one-off recomputation straight from the defining formula
        phi = 0.2 * np.arange(8)
        e = np.exp(-phi / 2.0)
        expect = e / np.dot(spec.m, e)
        np.testing.assert_allclose(rho.rho, expect, rtol=1e-14)

    def test_beta_zero_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="constant", beta=0.0, eps=0.5, t_end=1.0, rec=0.1,
            out=tmp_path / "out", seed=1))
        assert run(["gibbs", "--config", cfg]) == 2


class TestSimulateCommand:
    def test_stationary_start_passes(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="random", beta=1.0, eps=0.0, t_end=2.0, rec=0.05,
            out=tmp_path / "out", seed=3))
        assert run(["simulate", "--config", cfg]) == 0
        body = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert body["monitor_all_passed"] is True
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "t,mass,F,L,inf_rho,sup_rho"

    def test_perturbed_run_passes_and_fits(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=20, pot="random", beta=1.0, eps=0.5, t_end=3.0, rec=0.05,
            out=tmp_path / "out", seed=4))
        assert run(["simulate", "--config", cfg]) == 0
        body = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert body["decay_rate_fit"] > 0.0
        assert body["decay_rate_fit"] >= body["theoretical_rate"] - 1e-6

    def test_master_mode_checks_sup_norm(self, tmp_path):
        assert run(["simulate", "--config", "configs/master.yaml",
                    "--out", tmp_path / "m"]) == 0
        body = json.loads((tmp_path / "m" / "simulate.json").read_text())
        assert body["monitor"]["linf_master_decay"]["skipped"] is False
        assert body["monitor"]["linf_master_decay"]["passed"] is True

    def test_write_states(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="constant", beta=1.0, eps=0.3, t_end=0.5, rec=0.25,
            out=tmp_path / "out", seed=5))
        assert run(["simulate", "--config", cfg, "--set", "write_states=true"]) == 0
        assert (tmp_path / "out" / "state_0.csv").exists()
        assert (tmp_path / "out" / "state_2.csv").exists()

    def test_unknown_kind_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="constant", beta=1.0, eps=0.3, t_end=0.5, rec=0.25,
            out=tmp_path / "out", seed=5))
        assert run(["simulate", "--config", cfg, "--set", "dynamics.kind=rk"]) == 2

    def test_wrong_type_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="constant", beta=1.0, eps=0.3, t_end=0.5, rec=0.25,
            out=tmp_path / "out", seed=5))
        assert run(["simulate", "--config", cfg, "--set", "graph=5"]) == 2
        assert run(["simulate", "--config", cfg, "--set", "graph.N=[3]"]) == 2
        assert run(["simulate", "--config", cfg, "--set", "graph.N.x=3"]) == 2
        assert run(["simulate", "--config", cfg, "--set", "beta=abc"]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="constant", beta=1.0, eps=0.3, t_end=0.5, rec=0.25,
            out=tmp_path / "out", seed=5))
        assert run(["simulate", "--config", cfg, "--set", "integrator.tend=0.1"]) == 2
        assert run(["simulate", "--config", cfg, "--set", "colour=red"]) == 2
        assert run(["simulate", "--config", cfg, "--set", "workers=2"]) == 2
        assert not (tmp_path / "out").exists()

    def test_missing_file_reference_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, """
graph: {family: "geometric:q=0.5", N: 5}
potential: {kind: file, path: "/nonexistent/pot.txt"}
beta: 1.0
initial: {kind: uniform}
outputs: "%s"
""" % (tmp_path / "out"))
        assert run(["simulate", "--config", cfg]) == 2


class TestMetricCommand:
    def _endpoints(self, tmp_path, same=True):
        w = explicit_weights(8, seed=7)
        phi = np.random.default_rng(7).uniform(-1, 1, 8)
        spec = g.GraphSpec(weights=w, phi=phi, beta=1.0)
        a = random_interior(70, w)
        b = a if same else random_interior(71, w)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_density(pa, a, spec)
        save_density(pb, b, spec)
        return pa, pb

    def test_identical_endpoints(self, tmp_path):
        pa, pb = self._endpoints(tmp_path, same=True)
        assert run(["metric", "--a", pa, "--b", pb, "--out", tmp_path / "out"]) == 0
        body = json.loads((tmp_path / "out" / "metric.json").read_text())
        assert body["distance"] == 0.0
        assert (tmp_path / "out" / "path.csv").exists()

    def test_swapped_endpoints_agree(self, tmp_path):
        pa, pb = self._endpoints(tmp_path, same=False)
        assert run(["metric", "--a", pa, "--b", pb, "--out", tmp_path / "o1"]) == 0
        assert run(["metric", "--a", pb, "--b", pa, "--out", tmp_path / "o2"]) == 0
        d1 = json.loads((tmp_path / "o1" / "metric.json").read_text())["distance"]
        d2 = json.loads((tmp_path / "o2" / "metric.json").read_text())["distance"]
        assert d1 == pytest.approx(d2, rel=1e-6)

    def test_diagnostics_report_stop_reason(self, tmp_path):
        pa, pb = self._endpoints(tmp_path, same=False)
        assert run(["metric", "--a", pa, "--b", pb, "--out", tmp_path / "o1"]) == 0
        diag = json.loads((tmp_path / "o1" / "metric.json").read_text())["diagnostics"]
        assert diag["stop_reason"] == "converged" and diag["converged"] is True
        assert run(["metric", "--a", pa, "--b", pb, "--out", tmp_path / "o2",
                    "--set", "geodesic.max_iters=3"]) == 0
        diag = json.loads((tmp_path / "o2" / "metric.json").read_text())["diagnostics"]
        assert diag["stop_reason"] == "max_iters" and diag["converged"] is False
        assert diag["iterations"] == 3 and "max_iters" in diag["warnings"]

    def test_mismatched_weights_rejected(self, tmp_path):
        pa, _ = self._endpoints(tmp_path, same=False)
        w2 = explicit_weights(8, seed=99)
        spec2 = g.GraphSpec(weights=w2, phi=np.zeros(8), beta=1.0)
        pb2 = tmp_path / "b2.txt"
        save_density(pb2, random_interior(1, w2), spec2)
        assert run(["metric", "--a", pa, "--b", pb2, "--out", tmp_path / "out"]) == 2


class TestW1Command:
    def test_extremal_boundary_pair_reports_w1_only(self, tmp_path):
        w = explicit_weights(2)
        spec = g.GraphSpec(weights=w, phi=np.zeros(2), beta=1.0)
        mu = g.Density(np.array([2.0, 0.0]), w)
        nu = g.Density(np.array([0.0, 2.0]), w)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_density(pa, mu, spec)
        save_density(pb, nu, spec)
        assert run(["w1", "--a", pa, "--b", pb, "--out", tmp_path / "out"]) == 0
        body = json.loads((tmp_path / "out" / "w1.json").read_text())
        assert body["w1"] == pytest.approx(1.0, abs=1e-9)
        assert body["bound_checked"] is False

    def test_interior_pair_checks_bound(self, tmp_path):
        w = explicit_weights(6, seed=44)
        phi = np.random.default_rng(44).uniform(-1, 1, 6)
        spec = g.GraphSpec(weights=w, phi=phi, beta=1.0)
        mu = random_interior(44, w)
        nu = random_interior(45, w)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_density(pa, mu, spec)
        save_density(pb, nu, spec)
        assert run(["w1", "--a", pa, "--b", pb, "--out", tmp_path / "out"]) == 0
        body = json.loads((tmp_path / "out" / "w1.json").read_text())
        assert body["bound_checked"] is True and body["passed"] is True
        assert body["w1"] <= math.sqrt(2.0) * body["distance_bound"] + 1e-6

    def test_large_boundary_pair_reports_closed_form(self, tmp_path):
        n = 501
        w = explicit_weights(n, seed=1)
        spec = g.GraphSpec(weights=w, phi=np.zeros(n), beta=1.0)
        mu = random_interior(1, w)
        raw = random_interior(2, w).rho.copy()
        raw[n // 2] = 0.0  # one zero entry: W1 alone, no geodesic
        nu = g.Density.normalized(raw, w)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_density(pa, mu, spec)
        save_density(pb, nu, spec)
        assert run(["w1", "--a", pa, "--b", pb, "--out", tmp_path / "out"]) == 0
        body = json.loads((tmp_path / "out" / "w1.json").read_text())
        assert body["bound_checked"] is False
        a, _ = load_density(pa)
        b, _ = load_density(pb)
        assert body["w1"] == 0.5 * float(np.dot(a.weights.m, np.abs(a.rho - b.rho)))


class TestTalagrandCommand:
    def test_malformed_class(self, tmp_path):
        assert run(["talagrand", "--config", "configs/talagrand.yaml",
                    "--nu-inf", 2.0, "--nu-sup", 0.5,
                    "--out", tmp_path / "out"]) == 2

    def test_small_run_passes(self, tmp_path):
        code = run(["talagrand", "--config", "configs/talagrand.yaml",
                    "--nu-inf", 0.5, "--nu-sup", 2.0, "--samples", 3,
                    "--out", tmp_path / "out"])
        assert code == 0
        body = json.loads((tmp_path / "out" / "talagrand.json").read_text())
        assert body["all_passed"] is True
        assert len(body["samples"]) == 3
        for entry in body["samples"]:
            assert entry["passed"] is True

    def test_beta_must_be_one(self, tmp_path):
        assert run(["talagrand", "--config", "configs/talagrand.yaml",
                    "--set", "beta=2.0", "--nu-inf", 0.5, "--nu-sup", 2.0,
                    "--out", tmp_path / "out"]) == 2


class TestSweepCommand:
    def test_empty_grid_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="constant", beta=1.0, eps=0.3, t_end=0.5, rec=0.25,
            out=tmp_path / "out", seed=5))
        assert run(["sweep", "--config", cfg]) == 2

    def test_beta_grid(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=10, pot="random", beta=1.0, eps=0.5, t_end=1.5, rec=0.05,
            out=tmp_path / "out", seed=6) + "\nsweep: {beta: [0.5, 1.0, 2.0]}\n")
        assert run(["sweep", "--config", cfg]) == 0
        rows = json.loads((tmp_path / "out" / "sweep.json").read_text())["rows"]
        assert [r["beta"] for r in rows] == [0.5, 1.0, 2.0]
        assert all(r["status"] == "ok" for r in rows)
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert lines[1].split(",")[:2] == ["index", "beta"]

    def test_single_point_matches_simulate(self, tmp_path):
        text = BASE.format(n=12, pot="random", beta=1.0, eps=0.5, t_end=1.0,
                           rec=0.1, out=tmp_path / "sim", seed=8)
        cfg = write_config(tmp_path, text)
        assert run(["simulate", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path, text + "\nsweep: {beta: [1.0]}\n", name="c2.yaml")
        assert run(["sweep", "--config", cfg2, "--out", tmp_path / "swp"]) == 0
        sim = json.loads((tmp_path / "sim" / "simulate.json").read_text())
        row = json.loads((tmp_path / "swp" / "sweep.json").read_text())["rows"][0]
        assert row["fitted_rate"] == sim["decay_rate_fit"]


class TestReproducibility:
    def test_simulate_outputs_bitwise_stable(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=15, pot="random", beta=1.0, eps=0.5, t_end=1.0,
            rec=0.05, out=tmp_path / "out", seed=12))
        names = ("trajectory.csv", "simulate.json", "state_0.csv", "state_3.csv")
        args = ["simulate", "--config", cfg, "--set", "write_states=true"]
        assert run(args) == 0
        first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
        assert run(args) == 0
        for n in names:
            assert (tmp_path / "out" / n).read_bytes() == first[n], n
