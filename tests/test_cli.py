"""End-to-end command line runs, file formats, and reproducibility."""

import csv
import gc
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import graphfp as g
from graphfp import cli, dynamics
from graphfp.cli import main
from graphfp.config import ExperimentConfig
from graphfp.errors import ConvergenceError, InvariantBreachError, StiffnessError
from graphfp.serialize import _csv_header_comment, fmt, load_density, save_density, \
    snapshots_to_csv
from helpers import explicit_weights, random_interior, run_python


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


# The smallest gibbs instance that passes: N=6 admits no cutoff.
SMALL = {"graph": {"family": "geometric:q=0.25", "N": 8}, "potential": {"kind": "random"}}
SMALL_SET = ["--set", "graph.family=geometric:q=0.25", "--set", "graph.N=8",
             "--set", "potential.kind=random"]

# Keys of every section, a free-form sweep key and a few that do not exist.
_KEYS = st.sampled_from([
    "graph", "graph.family", "graph.N", "potential", "potential.kind", "potential.c",
    "potential.slope", "potential.low", "potential.high", "potential.seed",
    "potential.path", "beta", "initial", "initial.kind", "initial.epsilon",
    "initial.seed", "initial.path", "dynamics.kind", "dynamics.sign", "integrator.t_end",
    "geodesic.knots", "outputs", "seed", "write_states", "sweep", "sweep.beta",
    "graph.N.x", "colour", "", "graph..N"])
# Plain text has no digits or path separators, so it cannot name a huge N
# or a device file; numbers are drawn small, plus the YAML specials.
_VALUES = st.one_of(
    st.text(alphabet="abcxyz :-_[]{},'\"*&!|>#%@.=~", max_size=12),
    st.integers(-50, 50).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from([".inf", "-.inf", ".nan", "1e400", "-1e400", "1.0e+400", "null",
                     "yes", "no", "[]", "{}", "[1, 2]", "{a: 1}", "0", "-1", "0.5", "1.5",
                     "random", "linear", "file", "uniform", "gibbs_perturbed", "fpe",
                     "geometric:q=0.5", "powerlaw:s=2.0", "geometric:q=2",
                     "explicit:file=missing.txt", "."]))

_T_END = st.one_of(st.floats(-1.0, 2.0).map(repr),
                   st.sampled_from([".inf", "-.inf", ".nan", "1e400", "null", "yes", "[]", "abc"]))
_GEODESIC_KEYS = st.sampled_from(["geodesic", "geodesic.knots", "geodesic.max_iters",
                                  "geodesic.grad_tol", "geodesic.positivity_floor",
                                  "geodesic.init"])


class TestImportPath:
    """Each check runs in a fresh interpreter, so modules loaded by other
    tests cannot hide what an import loads."""

    def test_cli_import_loads_no_scipy(self):
        code = ("import sys, graphfp.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert run_python(code) == "[]"

    def test_power_law_runs_without_scipy(self, tmp_path):
        args = ["gibbs", "--config", "configs/decay.yaml", "--set", "graph.family=powerlaw:s=3.0",
                "--set", "graph.N=200", "--out", str(tmp_path / "out")]
        code = f"import sys; sys.modules['scipy'] = None; from graphfp.cli import main; print(main({args!r}))"
        assert run_python(code) == "0"

    def test_package_import_loads_no_numpy(self):
        assert run_python("import sys, graphfp; print('numpy' in sys.modules)") == "False"

    def test_every_public_name_resolves(self):
        for name in g.__all__:
            assert getattr(g, name).__module__.startswith("graphfp.")
        assert set(g.__all__) <= set(dir(g))
        with pytest.raises(AttributeError):
            g.no_such_name

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
    def test_cli_defaults_one_blas_thread(self, preset, expected):
        code = "import os, graphfp.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert run_python(code, OPENBLAS_NUM_THREADS=preset) == expected

    def test_json_config_loads_no_yaml(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(SMALL))
        args = ["gibbs", "--config", str(cfg), "--out", str(tmp_path / "out")]
        code = ("import sys; from graphfp.cli import main; "
                f"print(main({args!r}), 'yaml' in sys.modules)")
        assert run_python(code) == "0 False"
        assert (tmp_path / "out" / "gibbs.txt").exists()

    @pytest.mark.parametrize("argv, expected", [(["--help"], 0), ([], 2)])
    def test_import_and_usage_load_no_library(self, argv, expected):
        code = ("import contextlib, io, sys\n"
                "from graphfp.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()), "
                "contextlib.redirect_stderr(io.StringIO()):\n"
                "    try:\n"
                f"        main({argv!r})\n"
                "    except SystemExit as exc:\n"
                "        code = exc.code\n"
                "print(code, 'numpy' in sys.modules, "
                "sorted(m for m in sys.modules if m.startswith('graphfp.')))")
        assert run_python(code) == f"{expected} False ['graphfp.cli', 'graphfp.errors']"

    @pytest.mark.parametrize("command, unloaded", [
        ("gibbs", {"dynamics", "mobility", "metric", "inequalities"}),
        ("metric", {"dynamics", "inequalities"}),
        ("w1", {"dynamics"}),
        ("talagrand", {"dynamics"}),
        ("simulate", {"metric", "inequalities"}),
        ("sweep", {"metric", "inequalities"}),
    ])
    def test_command_loads_only_what_it_runs(self, tmp_path, command, unloaded):
        short = [*SMALL_SET, "--set", "integrator.t_end=0.5",
                 "--set", "integrator.record_every=0.25"]
        pa, pb = _endpoint_files(tmp_path)
        inputs = {"gibbs": SMALL_SET, "simulate": short,
                  "sweep": [*short, "--set", "sweep.beta=[1.0]"],
                  "metric": ["--a", pa, "--b", pb], "w1": ["--a", pa, "--b", pb],
                  "talagrand": ["--config", "configs/talagrand.yaml", "--nu-inf", "0.5",
                                "--nu-sup", "2.0", "--samples", "1"]}[command]
        args = [command, *map(str, inputs), "--out", str(tmp_path / "out")]
        code = ("import json, sys\n"
                "from graphfp.cli import main\n"
                f"code = main({args!r})\n"
                "print(json.dumps([code, [m for m in sys.modules if m.startswith('graphfp.')]]))")
        exit_code, loaded = json.loads(run_python(code))
        assert exit_code == 0
        assert not {f"graphfp.{m}" for m in unloaded} & set(loaded)

    def test_entry_freezes_after_the_command_loads(self, tmp_path):
        # the freeze must cover numpy and the library the command loaded,
        # so it counts more objects than numpy and this module alone
        argv = ["graphfp", "gibbs", *SMALL_SET, "--out", str(tmp_path / "out")]
        code = ("import gc, sys\n"
                f"sys.argv = {argv!r}\n"
                "from graphfp.cli import entry\n"
                "try:\n"
                "    entry()\n"
                "except SystemExit as exc:\n"
                "    print(exc.code, gc.get_freeze_count())")
        exit_code, frozen = map(int, run_python(code).split())
        bare = int(run_python("import gc, numpy, graphfp.cli; gc.freeze(); "
                              "print(gc.get_freeze_count())"))
        assert exit_code == 0
        assert frozen > bare


def _endpoint_files(tmp_path):
    """Two interior density files on one potential."""
    w = explicit_weights(6, seed=44)
    spec = g.GraphSpec(weights=w, phi=np.random.default_rng(44).uniform(-1, 1, 6), beta=1.0)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    save_density(pa, random_interior(44, w), spec)
    save_density(pb, random_interior(45, w), spec)
    return pa, pb


class TestTracerContract:
    """perfbench/tracecli.py times a command by replacing names in the
    modules that call them: each name must exist there, and a replacement
    must be what the command calls."""

    def test_every_wrapped_name_resolves(self):
        # in a fresh interpreter and before any command runs, as the tracer
        # installs its wrappers: a graphfp.cli name is the package's object,
        # and the first one looked up loads numpy
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                            "perfbench", "tracecli.py")
        code = ("import importlib, importlib.util, json, sys\n"
                f"spec = importlib.util.spec_from_file_location('tracecli', {path!r})\n"
                "tracecli = importlib.util.module_from_spec(spec)\n"
                "spec.loader.exec_module(tracecli)\n"
                "import graphfp, graphfp.cli\n"
                "numpy = ['numpy' in sys.modules]\n"
                "getattr(graphfp.cli, next(iter(tracecli.WRAPPED['graphfp.cli'])))\n"
                "numpy.append('numpy' in sys.modules)\n"
                "bad = []\n"
                "for module_name, names in tracecli.WRAPPED.items():\n"
                "    module = importlib.import_module(module_name)\n"
                "    bad += [f'{module_name}.{name}' for name in names\n"
                "            if not callable(getattr(module, name, None)) or module is graphfp.cli\n"
                "            and getattr(module, name) is not getattr(graphfp, name)]\n"
                "cls = graphfp.cli.ExperimentConfig\n"
                "bad += [name for name in tracecli.WRAPPED_METHODS\n"
                "        if not callable(getattr(cls, name, None))]\n"
                "print(json.dumps([numpy, bad, cls is graphfp.config.ExperimentConfig]))")
        assert json.loads(run_python(code)) == [[False, True], [], True]

    @pytest.mark.parametrize("command, name", [
        ("simulate", "integrate"), ("metric", "geodesic_distance"), ("w1", "w1_distance")])
    def test_commands_call_the_replacement(self, tmp_path, monkeypatch, command, name):
        calls = []
        real = getattr(cli, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, name, counted)
        if command == "simulate":
            inputs = [*SMALL_SET, "--set", "integrator.t_end=0.5"]
        else:
            pa, pb = _endpoint_files(tmp_path)
            if command == "w1":   # a boundary endpoint: W1 alone, no geodesic
                rho, spec = load_density(pa)
                raw = rho.rho.copy()
                raw[0] = 0.0
                save_density(pb, g.Density.normalized(raw, rho.weights), spec)
            inputs = ["--a", pa, "--b", pb]
        assert run([command, *inputs, "--out", tmp_path / "out"]) == 0
        assert calls == [name]


class TestTypedFlags:
    """``--out`` and ``--seed`` are used as given, never parsed as YAML."""

    @pytest.mark.parametrize("name", ["yes", "null", "[x]", "1e3", "~"])
    def test_out_names_the_directory_exactly(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert run(["gibbs", *SMALL_SET, "--out", name]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [name]
        report = json.loads((tmp_path / name / "constants.json").read_text())
        assert report["config"]["outputs"] == name

    def test_seed_stays_an_int(self, tmp_path):
        assert run(["gibbs", *SMALL_SET, "--out", tmp_path, "--seed", "7"]) == 0
        report = json.loads((tmp_path / "constants.json").read_text())
        assert report["seed"] == 7 and report["config"]["seed"] == 7
        assert type(report["config"]["seed"]) is int


class TestTypedValues:
    """Config values are converted by their declared type or rejected."""

    @pytest.mark.parametrize("section", ["potential", "initial"])
    def test_integer_path_names_a_file(self, tmp_path, section):
        """``path=1`` is the file named 1, never file descriptor 1 (reading
        that closes stdout), so the run is in a fresh interpreter."""
        args = ["gibbs", *SMALL_SET, "--set", f"{section}.kind=file",
                "--set", f"{section}.path=1", "--out", "out"]
        code = (f"import os; from graphfp.cli import main; os.chdir({str(tmp_path)!r}); "
                f"first = main({args!r}); open('1', 'w').write('1.0\\n' * 8); "
                f"print(first, main({args!r}))")
        assert run_python(code) == "2 0"

    def test_embedded_values_carry_their_type(self, tmp_path):
        assert run(["gibbs", *SMALL_SET, "--set", "graph.N=8.0", "--set", "beta=1",
                    "--set", "geodesic.grad_tol='1e-9'", "--out", tmp_path]) == 0
        config = json.loads((tmp_path / "constants.json").read_text())["config"]
        assert config["graph"]["N"] == 8 and type(config["graph"]["N"]) is int
        assert config["beta"] == 1.0 and type(config["beta"]) is float
        assert config["geodesic"]["grad_tol"] == 1e-9
        assert "init" not in config["geodesic"]


class TestOverrides:
    @pytest.mark.parametrize("override", ["graph.N=.inf", "potential.seed=.inf",
                                          "initial.epsilon=1e400", "initial.epsilon=.nan",
                                          "initial.seed=-.inf", "seed=.inf",
                                          "potential.low=-.inf", "potential.high=.nan"])
    def test_infinite_values_are_config_errors(self, tmp_path, override):
        assert run(["gibbs", *SMALL_SET, "--set", override,
                    "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args, key", [
        (["--seed", "-1"], "'seed'"), (["--set", "seed=-1"], "'seed'"),
        (["--set", "potential.seed=-1"], "'potential.seed'"),
        (["--set", "initial.seed=-1"], "'initial.seed'")])
    def test_negative_seed_is_named(self, tmp_path, capsys, args, key):
        # a uniform start draws nothing, so the seed would be written out as given
        assert run(["gibbs", "--config", "configs/master.yaml", "--set", "initial.kind=uniform",
                    *args, "--out", tmp_path / "out"]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, key", [
        (["potential.low=-1e308", "potential.high=1e308"], "potential.high - potential.low"),
        (["initial.epsilon=1e308"], "2 * initial.epsilon")])
    def test_overflowing_uniform_range_is_named(self, tmp_path, capsys, overrides, key):
        # finite bounds whose range overflows: rng.uniform would raise
        # OverflowError, a traceback and exit 1
        args = [arg for item in overrides for arg in ("--set", item)]
        assert run(["gibbs", "--config", "configs/decay.yaml", *args,
                    "--out", tmp_path / "out"]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", ["initial={}", "graph={N: 9}"])
    def test_mapping_merges_into_its_section(self, tmp_path, override):
        assert run(["gibbs", *SMALL_SET, "--set", override, "--out", tmp_path]) == 0
        config = json.loads((tmp_path / "constants.json").read_text())["config"]
        assert config["initial"]["kind"] == "gibbs_perturbed"
        assert config["graph"]["family"] == "geometric:q=0.25"

    def test_emptied_section_is_config_error(self, tmp_path):
        assert run(["gibbs", *SMALL_SET, "--set", "initial=", "--set", "initial.epsilon=0.1",
                    "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("override", ["graph.N=[", "beta={a: 1", "seed='", "seed=*x"])
    def test_malformed_yaml_value_is_config_error(self, tmp_path, override):
        assert run(["gibbs", *SMALL_SET, "--set", override, "--out", tmp_path / "out"]) == 2

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(_KEYS, _VALUES), min_size=1, max_size=3))
    def test_arbitrary_overrides_never_raise(self, tmp_path, pairs):
        """Every ``--set`` input ends in exit 0, 2 or 3: main raises nothing."""
        args = ["gibbs", "--config", tmp_path / "base.json"]
        for key, value in pairs:
            args += ["--set", f"{key}={value}"]
        (tmp_path / "base.json").write_text(json.dumps(SMALL))
        with tempfile.TemporaryDirectory(dir=tmp_path) as cwd:
            old = os.getcwd()
            os.chdir(cwd)
            try:
                assert run(args) in (0, 2, 3)
            finally:
                os.chdir(old)

    @staticmethod
    def _exit_code_in_fresh_dir(tmp_path, args, pairs):
        for key, value in pairs:
            args += ["--set", f"{key}={value}"]
        with tempfile.TemporaryDirectory(dir=tmp_path) as cwd:
            old = os.getcwd()
            os.chdir(cwd)
            try:
                return run(args)
            finally:
                os.chdir(old)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(st.tuples(_KEYS.filter(lambda k: k != "integrator.t_end"), _VALUES),
                              st.tuples(st.just("integrator.t_end"), _T_END)),
                    min_size=1, max_size=3))
    def test_arbitrary_simulate_overrides_never_raise(self, tmp_path, pairs):
        """As above for ``simulate``, with ``t_end`` at most 2."""
        base = {**SMALL, "integrator": {"t_end": 0.5, "record_every": 0.05}}
        (tmp_path / "base.json").write_text(json.dumps(base))
        args = ["simulate", "--config", tmp_path / "base.json"]
        assert self._exit_code_in_fresh_dir(tmp_path, args, pairs) in (0, 2, 3)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.one_of(_KEYS, _GEODESIC_KEYS), _VALUES),
                    min_size=1, max_size=3))
    def test_arbitrary_metric_overrides_never_raise(self, tmp_path, pairs):
        """As above for ``metric`` on one fixed n=6 pair."""
        w = explicit_weights(6, seed=6)
        spec = g.GraphSpec(weights=w, phi=np.random.default_rng(6).uniform(-1, 1, 6), beta=1.0)
        for name, seed in (("a.txt", 60), ("b.txt", 61)):
            save_density(tmp_path / name, random_interior(seed, w), spec)
        args = ["metric", "--a", tmp_path / "a.txt", "--b", tmp_path / "b.txt"]
        assert self._exit_code_in_fresh_dir(tmp_path, args, pairs) in (0, 2, 3)


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

    def test_rows_past_the_header_count_rejected(self, tmp_path):
        rows = "2 1.0\n1 0.5 0.0 1.0\n2 0.5 0.0 1.0\n"
        ok, long = tmp_path / "ok.txt", tmp_path / "long.txt"
        ok.write_text(rows + "\n  \n")   # trailing blank lines are fine
        long.write_text(rows + "3 0.5 0.0 1.0\ngarbage\n")
        load_density(ok)
        with pytest.raises(ValueError, match="after the 2 vertex rows"):
            load_density(long)
        assert run(["w1", "--a", long, "--b", ok, "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()


def _per_value_rows(rho):
    """The snapshot rows as the per-value formatter wrote them."""
    return "".join(f"{i},{fmt(v)}\n" for i, v in enumerate(rho, start=1))


class TestSnapshotFiles:
    def test_bytes_match_the_per_value_formatter(self, tmp_path):
        values = np.array([0.1 + 0.2, 1e-300, 5e-324, 1e16, 1.0, 2.0 / 3.0, -0.0, 1e-5,
                           123456789.125, 1.7976931348623157e308])
        states = np.array([values, values[::-1] / 3.0, values / 7.0])
        meta = {"config": {"outputs": "100%s %d %r"}, "seed": 1}  # '%' stays literal
        # two spans, as integrate hands them on: records 0-1, then record 2
        snapshots_to_csv(tmp_path, 0, SimpleNamespace(rho=states[:2]), meta)
        snapshots_to_csv(tmp_path, 2, SimpleNamespace(rho=states[2:]), meta)
        header = _csv_header_comment(meta) + "i,rho_i\n"
        assert sorted(os.listdir(tmp_path)) == [f"state_{k}.csv" for k in range(3)]
        for k, rho in enumerate(states):
            with open(tmp_path / f"state_{k}.csv", "rb") as fh:
                assert fh.read() == (header + _per_value_rows(rho)).encode()


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

    def test_overflowing_epsilon_is_named(self, tmp_path, capsys):
        assert run(["gibbs", *SMALL_SET, "--set", "initial.epsilon=800",
                    "--out", tmp_path / "out"]) == 2
        assert "initial.epsilon" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_denormal_beta_is_named(self, tmp_path, capsys):
        # -phi/beta overflows: exit 2 naming beta and the Gibbs state, and
        # no numpy warning on the way (one would raise here)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["gibbs", "--config", "configs/decay.yaml", "--set", "beta=5e-324",
                        "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err
        assert "beta=5e-324" in err and "Gibbs state" in err

    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch):
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "gibbs", exhausted)
        assert run(["gibbs", *SMALL_SET, "--out", tmp_path / "out"]) == 3
        assert "out of memory" in capsys.readouterr().err

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

    def test_integrator_counters_are_reported(self, tmp_path):
        assert run(["simulate", "--config", "configs/decay.yaml",
                    "--out", tmp_path / "out"]) == 0
        stats = json.loads((tmp_path / "out" / "simulate.json").read_text())["integrator"]
        assert 0 < stats["accepted"] and stats["nfev"] <= 200
        assert set(stats["rejected"]) == {"positivity", "error", "nonfinite"}
        assert 0.0 < stats["h_min"] <= stats["h_max"]

    def test_huge_record_grid_is_config_error(self, tmp_path):
        start = time.perf_counter()
        assert run(["simulate", *SMALL_SET, "--set", "integrator.record_every=1e-300",
                    "--out", tmp_path / "out"]) == 2
        assert time.perf_counter() - start < 1.0
        assert not (tmp_path / "out").exists()

    def test_huge_record_block_is_config_error(self, tmp_path, capsys):
        # 400001 records x N=20000 float64 states would take 64 GB to keep
        start = time.perf_counter()
        assert run(["simulate", "--config", "configs/decay.yaml",
                    "--set", "graph.family=geometric:q=0.999", "--set", "graph.N=20000",
                    "--set", "integrator.record_every=1e-5", "--set", "write_states=true",
                    "--out", tmp_path / "out"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "integrator.record_every" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("error", [StiffnessError, ConvergenceError, InvariantBreachError])
    def test_numerical_failure_exits_3(self, tmp_path, monkeypatch, capsys, error):
        def fail(*args, **kwargs):
            raise error("injected")

        monkeypatch.setattr(cli, "integrate", fail)
        assert run(["simulate", *SMALL_SET, "--out", tmp_path / "simulate"]) == 3
        assert "graphfp: numerical failure: injected" in capsys.readouterr().err
        assert not (tmp_path / "simulate").exists()
        # a sweep records the failure in its row and goes on
        assert run(["sweep", *SMALL_SET, "--set", "sweep={seed: [1, 2]}",
                    "--out", tmp_path / "sweep"]) == 3
        rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["rows"]
        assert [r["status"] for r in rows] == ["error: injected"] * 2

    def test_a_run_to_a_far_end_exits_3_within_its_step_budget(self, tmp_path):
        # at equilibrium the step is bound by stability: without a budget
        # this run stepped for ever
        args = ["-W", "error::RuntimeWarning", "-m", "graphfp.cli", "simulate",
                "--config", "configs/decay.yaml", "--set", "integrator.t_end=1e300",
                "--set", "integrator.record_every=1e299", "--out", str(tmp_path / "out")]
        src = os.path.dirname(os.path.dirname(g.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 3, done.stderr
        assert f"MAX_STEP_ATTEMPTS = {dynamics.MAX_STEP_ATTEMPTS}" in done.stderr
        assert not (tmp_path / "out" / "simulate.json").exists()

    def test_a_spent_step_budget_is_a_row_error_of_a_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEP_ATTEMPTS", 20)
        grid = "sweep={integrator: [{t_end: 0.5, record_every: 0.25}, " \
               "{t_end: 1e300, record_every: 1e299}]}"
        assert run(["sweep", *SMALL_SET, "--set", grid, "--out", tmp_path]) == 0
        rows = json.loads((tmp_path / "sweep.json").read_text())["rows"]
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error: integration stopped at t=")

    def test_denormal_beta_on_constant_potential_runs(self, tmp_path):
        # beta * min weight underflows to 0 while the potential's sup norm
        # is 0: the constants' quotients once raised ZeroDivisionError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["simulate", "--config", "configs/decay.yaml", "--set", "beta=5e-324",
                        "--set", "potential.kind=constant", "--out", tmp_path / "out"]) == 0
        body = json.loads((tmp_path / "out" / "simulate.json").read_text())
        assert body["constants"]["decay_rate"] == 0.0
        assert body["monitor_all_passed"] is True

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

    def test_failure_after_a_span_keeps_its_snapshots(self, tmp_path, monkeypatch, capsys):
        # spans of 25 records at N=40: once the first span is written, every
        # step is rejected as non-finite until the step size underflows
        monkeypatch.setattr(dynamics, "SPAN_ENTRIES", dynamics.BLOCK_ENTRIES)
        args = ["simulate", "--config", "configs/decay.yaml", "--set", "write_states=true"]
        assert run([*args, "--out", tmp_path / "clean"]) == 0
        written = []

        def write(outdir, first, states, meta):
            snapshots_to_csv(outdir, first, states, meta)
            written.extend(range(first, first + len(states.rho)))

        monkeypatch.setattr(cli, "snapshots_to_csv", write)
        step = dynamics._dp54_step
        monkeypatch.setattr(dynamics, "_dp54_step", lambda *a: step(*a) if len(written) < 25
                            else ("nonfinite", None, None, None))
        assert run([*args, "--out", tmp_path / "out"]) == 3
        assert "step size underflow" in capsys.readouterr().err
        names = sorted(os.listdir(tmp_path / "out"))   # no trajectory.csv, no simulate.json
        assert names == sorted(f"state_{k}.csv" for k in range(25))
        for name in names:   # the same rows below the header, which names the directory
            got, want = ((tmp_path / d / name).read_text().split("\n", 1) for d in ("out", "clean"))
            assert got[1] == want[1]

    def test_unknown_kind_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="constant", beta=1.0, eps=0.3, t_end=0.5, rec=0.25,
            out=tmp_path / "out", seed=5))
        assert run(["simulate", "--config", cfg, "--set", "dynamics.kind=rk"]) == 2

    @pytest.mark.parametrize("kind", ["phibar", "master"])
    def test_kind_needing_diffusion_is_config_error(self, tmp_path, kind):
        assert run(["simulate", *SMALL_SET, "--set", "beta=0", "--set", "initial.kind=uniform",
                    "--set", f"dynamics.kind={kind}", "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()

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
        assert run(["simulate", "--config", cfg, "--set", "integrator.max_step=1"]) == 2
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
        assert diag["segment_solves"] >= 4   # the start and one per accepted step

    @pytest.mark.parametrize("setting", [
        "geodesic.grad_tol=.nan", "geodesic.grad_tol=-1", "geodesic.grad_tol=.inf",
        "geodesic.max_iters=-1", "geodesic.positivity_floor=-1",
        "geodesic.positivity_floor=0", "geodesic.positivity_floor=.nan"])
    def test_unusable_geodesic_setting_is_config_error(self, tmp_path, capsys, setting):
        # a nan grad_tol once stopped "converged" after 0 iterations at the
        # straight line, and max_iters=-1 lifted the iteration cap
        pa, pb = self._endpoints(tmp_path, same=False)
        assert run(["metric", "--a", pa, "--b", pb, "--set", setting,
                    "--out", tmp_path / "out"]) == 2
        assert setting.split("=")[0] in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["metric", "w1", "talagrand"])
    def test_huge_path_is_config_error(self, tmp_path, capsys, command):
        # 100000001 knots x N would be allocated before the first step
        pa, pb = self._endpoints(tmp_path, same=False)
        inputs = (["--config", "configs/talagrand.yaml", "--nu-inf", 0.5, "--nu-sup", 2.0]
                  if command == "talagrand" else ["--a", pa, "--b", pb])
        start = time.perf_counter()
        assert run([command, *inputs, "--set", "geodesic.knots=100000000",
                    "--out", tmp_path / "out"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "geodesic.knots" in capsys.readouterr().err

    def test_mismatched_weights_rejected(self, tmp_path):
        pa, _ = self._endpoints(tmp_path, same=False)
        w2 = explicit_weights(8, seed=99)
        spec2 = g.GraphSpec(weights=w2, phi=np.zeros(8), beta=1.0)
        pb2 = tmp_path / "b2.txt"
        save_density(pb2, random_interior(1, w2), spec2)
        assert run(["metric", "--a", pa, "--b", pb2, "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("command", ["metric", "w1"])
    def test_endpoints_of_different_sizes_name_them(self, tmp_path, capsys, command):
        paths = []
        for n in (2, 3):
            w = explicit_weights(n)
            paths.append(tmp_path / f"n{n}.txt")
            save_density(paths[-1], g.Density(np.ones(n), w), g.GraphSpec(w, np.zeros(n), 1.0))
        assert run([command, "--a", paths[0], "--b", paths[1], "--out", tmp_path / "out"]) == 2
        assert "different potentials, on N=2 and N=3 vertices" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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


    def test_mismatched_potentials_rejected(self, tmp_path, capsys):
        # the pair's geodesic would otherwise run on file a's potential
        w = explicit_weights(6, seed=44)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        for path, seed in ((pa, 44), (pb, 45)):
            spec = g.GraphSpec(weights=w, phi=np.random.default_rng(seed).uniform(-1, 1, 6),
                               beta=1.0)
            save_density(path, random_interior(seed, w), spec)
        assert run(["w1", "--a", pa, "--b", pb, "--out", tmp_path / "out"]) == 2
        assert "different potentials" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_geodesic_writes_no_directory(self, tmp_path):
        w = explicit_weights(6, seed=44)
        spec = g.GraphSpec(weights=w, phi=np.zeros(6), beta=1.0)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_density(pa, random_interior(44, w), spec)
        save_density(pb, random_interior(45, w), spec)
        assert run(["w1", "--a", pa, "--b", pb, "--set", "geodesic.knots=100000000",
                    "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out").exists()


def _keys_at(body, key, where=()):
    """Every place in a JSON report, outside its embedded config, that
    holds ``key``, as a tuple of keys."""
    found = []
    if isinstance(body, dict):
        body = {k: v for k, v in body.items() if k != "config"}
        found += [where] if key in body else []
        for k, v in body.items():
            found += _keys_at(v, key, (*where, k))
    elif isinstance(body, list):
        for v in body:
            found += _keys_at(v, key, (*where, "[]"))
    return found


_RUN_KEYS = {"schema", "config", "seed"}
_DIAGNOSTIC_KEYS = {"distance", "action", "iterations", "grad_norm", "converged",
                  "stop_reason", "segment_solves", "warnings"}
_TALAGRAND_CONSTANT_KEYS = {"class_lower", "class_upper", "condition_ratio", "mixing_rate",
                            "mixing_time", "kappa", "tail_cutoff", "min_prefix_weight",
                            "norm_bound"}


class TestReportKeys:
    """The exact key sets of the geodesic, comparison and transport-entropy
    reports: each report's keys are its dataclass's fields, and the geodesic
    path and action history appear only where the CLI writes them."""

    def _pair(self, tmp_path, boundary=False):
        w = explicit_weights(6, seed=44)
        spec = g.GraphSpec(weights=w, phi=np.random.default_rng(44).uniform(-1, 1, 6),
                           beta=1.0)
        b = random_interior(45, w).rho.copy()
        if boundary:
            b[2] = 0.0
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        save_density(pa, random_interior(44, w), spec)
        save_density(pb, g.Density.normalized(b, w), spec)
        return pa, pb

    def _report(self, tmp_path, args, name):
        assert run([*args, "--out", tmp_path / "out"]) == 0
        return json.loads((tmp_path / "out" / name).read_text())

    def test_metric(self, tmp_path):
        pa, pb = self._pair(tmp_path)
        body = self._report(tmp_path, ["metric", "--a", pa, "--b", pb], "metric.json")
        assert set(body) == _RUN_KEYS | {"distance", "diagnostics", "action_history",
                                         "endpoints"}
        assert set(body["diagnostics"]) == _DIAGNOSTIC_KEYS
        assert _keys_at(body, "action_history") == [()]
        assert _keys_at(body, "path") == []
        assert (tmp_path / "out" / "path.csv").exists()

    def test_w1_interior_pair(self, tmp_path):
        pa, pb = self._pair(tmp_path)
        body = self._report(tmp_path, ["w1", "--a", pa, "--b", pb], "w1.json")
        assert set(body) == _RUN_KEYS | {"passed", "w1", "distance_bound", "bound",
                                         "geodesic", "ground_metric", "bound_checked"}
        assert set(body["geodesic"]) == _DIAGNOSTIC_KEYS
        assert body["ground_metric"] == "unit distance between all distinct vertex pairs"
        assert _keys_at(body, "action_history") == _keys_at(body, "path") == []

    def test_w1_boundary_pair(self, tmp_path):
        pa, pb = self._pair(tmp_path, boundary=True)
        body = self._report(tmp_path, ["w1", "--a", pa, "--b", pb], "w1.json")
        assert set(body) == _RUN_KEYS | {"w1", "distance_bound", "bound_checked"}

    def test_talagrand(self, tmp_path):
        body = self._report(tmp_path, ["talagrand", "--config", "configs/talagrand.yaml",
                                       "--nu-inf", 0.5, "--nu-sup", 2.0, "--samples", 1],
                            "talagrand.json")
        assert set(body) == _RUN_KEYS | {"class", "constants", "samples", "all_passed"}
        assert set(body["class"]) == {"nu_inf", "nu_sup"}
        assert set(body["constants"]) == _TALAGRAND_CONSTANT_KEYS
        (sample,) = body["samples"]
        assert set(sample) == {"sample", "passed", "distance_bound", "entropy", "lhs", "rhs",
                               "ratio", "constants", "geodesic", "ground_metric"}
        assert set(sample["constants"]) == _TALAGRAND_CONSTANT_KEYS
        assert set(sample["geodesic"]) == _DIAGNOSTIC_KEYS
        assert _keys_at(body, "action_history") == _keys_at(body, "path") == []


class TestTalagrandCommand:
    def test_malformed_class(self, tmp_path):
        assert run(["talagrand", "--config", "configs/talagrand.yaml",
                    "--nu-inf", 2.0, "--nu-sup", 0.5,
                    "--out", tmp_path / "out"]) == 2

    @pytest.mark.parametrize("samples", [0, -2])
    def test_no_samples_is_usage_error(self, tmp_path, samples):
        # an empty sample list would otherwise report all_passed on no test
        assert run(["talagrand", "--config", "configs/talagrand.yaml",
                    "--nu-inf", 0.5, "--nu-sup", 2.0, "--samples", samples,
                    "--out", tmp_path / "out"]) == 2
        assert not (tmp_path / "out" / "talagrand.json").exists()

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

    def test_violation_is_recorded_and_exits_3(self, tmp_path, monkeypatch):
        real = cli.verify_talagrand
        samples = iter(range(3))

        def raises_on_sample_1(*args, **kwargs):
            if next(samples) == 1:
                raise ValueError("sample outside the class")
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_talagrand", raises_on_sample_1)
        code = run(["talagrand", "--config", "configs/talagrand.yaml",
                    "--nu-inf", 0.5, "--nu-sup", 2.0, "--samples", 3,
                    "--out", tmp_path / "out"])
        assert code == 3
        body = json.loads((tmp_path / "out" / "talagrand.json").read_text())
        assert body["all_passed"] is False
        assert [e["sample"] for e in body["samples"]] == [0, 1, 2]
        assert [("violation" in e) for e in body["samples"]] == [False, True, False]
        assert body["samples"][1] == {"sample": 1, "passed": False,
                                      "violation": "sample outside the class"}
        assert body["samples"][0]["passed"] and body["samples"][2]["passed"]

    def test_extreme_class_does_not_overflow(self, tmp_path):
        # the squared class sup overflows a double: the constants carry inf
        code = run(["talagrand", "--config", "configs/talagrand.yaml",
                    "--nu-inf", 1e-300, "--nu-sup", 1e300, "--samples", 1,
                    "--out", tmp_path / "out"])
        assert code in (0, 3)
        body = json.loads((tmp_path / "out" / "talagrand.json").read_text())
        assert body["constants"]["norm_bound"] == "inf"

    def test_beta_must_be_one(self, tmp_path):
        assert run(["talagrand", "--config", "configs/talagrand.yaml",
                    "--set", "beta=2.0", "--nu-inf", 0.5, "--nu-sup", 2.0,
                    "--out", tmp_path / "out"]) == 2


def _exit_and_error_under_limits(args, needle):
    """Exit code of ``main(args)``, and whether its stderr names ``needle``,
    in a fresh interpreter with 2 GB of address space and 10 s of CPU: an
    input that allocates or loops past its bound fails the call instead of
    the machine."""
    code = ("import contextlib, io, resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9, 2 * 10 ** 9))\n"
            "resource.setrlimit(resource.RLIMIT_CPU, (10, 10))\n"
            "from graphfp.cli import main\n"
            "err = io.StringIO()\n"
            "with contextlib.redirect_stderr(err):\n"
            f"    code = main({[str(a) for a in args]!r})\n"
            f"print(code, {needle!r} in err.getvalue())\n")
    return run_python(code)


class TestSizeBounds:
    """Each size an input names is bounded before anything is allocated."""

    def test_huge_graph_is_config_error(self, tmp_path):
        args = ["gibbs", "--config", "configs/decay.yaml", "--set", "graph.N=1000000000",
                "--out", tmp_path / "out"]
        assert _exit_and_error_under_limits(args, "graph.N") == "2 True"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["metric", "w1"])
    def test_huge_density_header_is_config_error(self, tmp_path, command):
        pa = tmp_path / "a.txt"
        pa.write_text("1000000000000 1.0\n1 1.0 0.0 1.0\n")
        args = [command, "--a", pa, "--b", pa, "--out", tmp_path / "out"]
        assert _exit_and_error_under_limits(args, str(pa)) == "2 True"

    def test_too_many_samples_is_usage_error(self, tmp_path):
        args = ["talagrand", "--config", "configs/talagrand.yaml", "--nu-inf", 0.5,
                "--nu-sup", 2.0, "--samples", 10 ** 9, "--out", tmp_path / "out"]
        assert _exit_and_error_under_limits(args, "--samples") == "2 True"


# Flag values: class bounds that admit the uniform density about half the
# time, the extremes of a double and nonsense.
_NU_SPECIAL = st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1.0, 1e300, math.inf, -math.inf,
                               math.nan])
_NU_INF = st.one_of(st.floats(0.05, 1.0), _NU_SPECIAL)
_NU_SUP = st.one_of(st.floats(1.0, 20.0), _NU_SPECIAL)
_SAMPLES = st.one_of(st.integers(1, 2), st.sampled_from([0, -2, cli.MAX_SAMPLES + 1, 10 ** 18]))
# Density files: at most one damage per pair, none about half the time.
_DAMAGE = st.one_of(st.just("none"), st.sampled_from([
    "header N+1", "header N-1", "header 0", "header -1", "header huge", "header word",
    "header no beta", "header extra", "header nan beta", "row short", "row long",
    "row index", "row missing", "row blank", "entry", "unnormalized", "unequal size",
    "unequal weights", "unequal potential"]))
# Entries a damaged file may hold: zero, tiny, huge, negative, not finite.
_ENTRY = st.sampled_from([0.0, 5e-324, 1e-300, 1e-12, 1e12, 1e300, -1.0, math.inf, math.nan])


@st.composite
def _density_pair(draw):
    """Texts of two density files over at most 6 vertices."""
    n = draw(st.integers(1, 6))
    phi = draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
    damage = draw(_DAMAGE)
    target = draw(st.integers(0, 1))
    texts = []
    for which in (0, 1):
        hit = which == target
        size = n % 6 + 1 if hit and damage == "unequal size" else n
        seed = 2 if hit and damage == "unequal weights" else 1
        m = explicit_weights(size, seed=seed).m if size > 1 else np.ones(1)
        pot = np.array(phi[:size]) + (0.5 if hit and damage == "unequal potential" else 0.0)
        rho = np.array(draw(st.lists(st.floats(0.25, 4.0), min_size=size, max_size=size)))
        k = draw(st.integers(0, size - 1))
        if hit and damage == "entry":
            rho[k] = draw(_ENTRY)
        with np.errstate(all="ignore"):
            total = float(np.dot(m, rho))
            if not (hit and damage == "unnormalized") and math.isfinite(total) and total > 0.0:
                rho = rho / total
        header = {"header N+1": f"{size + 1} 1.0", "header N-1": f"{size - 1} 1.0",
                  "header 0": "0 1.0", "header -1": "-1 1.0",
                  "header huge": "1000000000000 1.0", "header word": "N 1.0",
                  "header no beta": f"{size}", "header extra": f"{size} 1.0 2.0",
                  "header nan beta": f"{size} nan"}.get(damage if hit else "", f"{size} 1.0")
        rows = [f"{i + 1} {fmt(m[i])} {fmt(pot[i])} {fmt(rho[i])}" for i in range(size)]
        if hit and damage == "row short":
            rows[k] = rows[k].rsplit(" ", 1)[0]
        elif hit and damage == "row long":
            rows[k] += " 1.0"
        elif hit and damage == "row index":
            rows[k] = f"{k + 2} " + rows[k].split(" ", 1)[1]
        elif hit and damage == "row missing":
            del rows[k]
        elif hit and damage == "row blank":
            rows[k] = ""
        texts.append("\n".join([header, *rows]) + "\n")
    return texts


# Sweep grids of at most two points: keys with values they admit, keys of
# every kind with values of every type, and grids that are no mapping or
# are empty.
_ADMITTED = {
    "beta": st.floats(0.0, 3.0), "graph.N": st.integers(2, 6),
    "dynamics.kind": st.sampled_from(["fpe", "phibar", "beta_zero", "master"]),
    "dynamics.sign": st.sampled_from([-1.0, 1.0]),
    "initial.kind": st.sampled_from(["uniform", "gibbs_perturbed"]),
    "initial.epsilon": st.floats(0.0, 2.0),
    "potential.kind": st.sampled_from(["constant", "linear", "random"]),
    "integrator.rel_tol": st.floats(1e-10, 1e-3)}
_ADMITTED_KEYS = st.sampled_from(sorted(_ADMITTED))
_SWEEP_KEYS = st.sampled_from([
    "beta", "graph.N", "graph.family", "dynamics.kind", "dynamics.sign", "initial.kind",
    "initial.epsilon", "potential.kind", "potential.low", "potential.high",
    "integrator.rel_tol", "seed",
    "write_states", "sweep", "graph", "nosuch", "", "graph..N", "beta.x"])
_SWEEP_VALUES = st.one_of(
    st.integers(-3, 8), st.floats(-2.0, 3.0),
    st.sampled_from([None, True, False, "fpe", "phibar", "beta_zero", "master", "uniform",
                     "random", "linear", "file", "geometric:q=0.5", "powerlaw:s=2.0", "abc",
                     "", math.inf, math.nan, 1e300, 1.7e308, -1.7e308, [], {}, {"N": 6},
                     [1, [2]]]))
_GRIDS = st.one_of(
    st.builds(lambda grid, point: {**point, **grid},
              _ADMITTED_KEYS.flatmap(lambda k: st.lists(_ADMITTED[k], min_size=1, max_size=2)
                                     .map(lambda v: {k: v})),
              st.just({}) | _ADMITTED_KEYS.flatmap(lambda k: _ADMITTED[k].map(lambda v: {k: v}))),
    st.builds(lambda k, v: {k: v}, _SWEEP_KEYS,
              st.one_of(_SWEEP_VALUES, st.lists(_SWEEP_VALUES, max_size=2))),
    st.builds(lambda k1, v1, k2, v2: {k1: v1, k2: v2},
              _SWEEP_KEYS, _SWEEP_VALUES, _SWEEP_KEYS, _SWEEP_VALUES),
    st.sampled_from([{}, 5, "beta", [1, 2], None]))


class TestEveryInputExits:
    """Every input to ``talagrand``, ``metric``, ``w1`` and ``sweep`` ends
    in exit 0, 2 or 3: main raises nothing. Sizes stay small (N <= 6,
    knots <= 4, at most 2 samples or grid points), so no example starts
    large work."""

    @staticmethod
    def _weights_file(tmp_path, n):
        """Path of a file of n explicit weights: no tail, so every class
        admits a cutoff."""
        path = tmp_path / "w.txt"
        path.write_text("0.5\n1.0\n2.0\n0.7\n1.3\n0.9\n"[:4 * n])
        return path

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_NU_INF, _NU_SUP, _SAMPLES, st.integers(2, 6), st.integers(2, 4))
    def test_talagrand_flags(self, tmp_path, nu_inf, nu_sup, samples, n, knots):
        base = {"graph": {"family": f"explicit:file={self._weights_file(tmp_path, n)}", "N": n},
                "potential": {"kind": "random", "low": -0.5, "high": 0.5},
                "geodesic": {"knots": knots, "max_iters": 50}}
        (tmp_path / "base.json").write_text(json.dumps(base))
        args = ["talagrand", "--config", tmp_path / "base.json", f"--nu-inf={nu_inf!r}",
                f"--nu-sup={nu_sup!r}", f"--samples={samples}"]
        assert TestOverrides._exit_code_in_fresh_dir(tmp_path, args, []) in (0, 2, 3)

    # arbitrary potentials often hold values a hair apart
    @pytest.mark.filterwarnings("ignore::graphfp.errors.NearTieWarning")
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["metric", "w1"]), _density_pair(), st.integers(2, 4))
    def test_density_files(self, tmp_path, command, pair, knots):
        for name, text in zip(("a.txt", "b.txt"), pair):
            (tmp_path / name).write_text(text)
        args = [command, "--a", tmp_path / "a.txt", "--b", tmp_path / "b.txt"]
        pairs = [("geodesic.knots", knots), ("geodesic.max_iters", 50)]
        assert TestOverrides._exit_code_in_fresh_dir(tmp_path, args, pairs) in (0, 2, 3)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_GRIDS)
    def test_sweep_grids(self, tmp_path, grid):
        base = {"graph": {"family": f"explicit:file={self._weights_file(tmp_path, 6)}", "N": 6},
                "potential": {"kind": "random"},
                "integrator": {"t_end": 0.5, "record_every": 0.05}, "sweep": grid}
        (tmp_path / "base.json").write_text(json.dumps(base))
        args = ["sweep", "--config", tmp_path / "base.json"]
        assert TestOverrides._exit_code_in_fresh_dir(tmp_path, args, []) in (0, 2, 3)


class TestSweepCommand:
    def test_empty_grid_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=12, pot="constant", beta=1.0, eps=0.3, t_end=0.5, rec=0.25,
            out=tmp_path / "out", seed=5))
        assert run(["sweep", "--config", cfg]) == 2

    def test_unknown_key_exits_before_any_run(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, BASE.format(
            n=10, pot="random", beta=1.0, eps=0.5, t_end=1.5, rec=0.05,
            out=tmp_path / "out", seed=6) + "\nsweep: {beta: [0.5, 1.0], nosuch: [1]}\n")
        ran = []
        monkeypatch.setattr(cli, "_run_simulation", ran.append)
        assert run(["sweep", "--config", cfg]) == 2
        assert ran == []
        assert not (tmp_path / "out").exists()

    def test_oversized_point_exits_before_any_run(self, tmp_path, monkeypatch, capsys):
        # the weights of point 1 underflow at N=5000: the grid is rejected
        # before point 0 runs
        ran = []

        def record(*args, **kwargs):
            ran.append(args)
            raise StiffnessError("ran")

        monkeypatch.setattr(cli, "integrate", record)
        assert run(["sweep", "--config", "configs/decay.yaml",
                    "--set", "sweep={graph.N: [40, 5000]}", "--out", tmp_path / "out"]) == 2
        assert "weights underflow" in capsys.readouterr().err
        assert ran == []
        assert not (tmp_path / "out").exists()

    def test_holds_one_spec_at_a_time(self, tmp_path, monkeypatch):
        # every point's spec is built while the grid is checked, then again
        # when the point runs: only the running point's spec is alive
        cfg = write_config(tmp_path, BASE.format(
            n=10, pot="random", beta=1.0, eps=0.5, t_end=0.5, rec=0.1,
            out=tmp_path / "out", seed=6) + "\nsweep: {beta: [0.5, 1.0, 2.0]}\n")
        specs, alive = [], []
        build = ExperimentConfig.build_spec

        def tracked(self):
            spec = build(self)
            specs.append(weakref.ref(spec))
            return spec

        def counted(*args, **kwargs):
            gc.collect()
            alive.append(sum(ref() is not None for ref in specs))
            return g.dynamics.integrate(*args, **kwargs)

        monkeypatch.setattr(ExperimentConfig, "build_spec", tracked)
        monkeypatch.setattr(cli, "integrate", counted)
        assert run(["sweep", "--config", cfg]) == 0
        assert len(specs) == 6
        assert alive == [1, 1, 1]

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

    def test_every_row_has_the_header_width(self, tmp_path):
        cfg = write_config(tmp_path, BASE.format(
            n=10, pot="random", beta=1.0, eps=0.5, t_end=1.0, rec=0.1,
            out=tmp_path / "out", seed=6)
            + '\nsweep: {beta: [1.0], graph: [{N: 10, family: "geometric:q=0.25"}]}\n')
        assert run(["sweep", "--config", cfg]) == 0
        with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
            assert fh.readline().startswith("# {")
            header, *rows = csv.reader(fh)
        assert len(rows) == 1
        assert all(len(row) == len(header) for row in rows)
        graph = json.loads(rows[0][header.index("graph")])
        assert graph == {"N": 10, "family": "geometric:q=0.25"}

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
