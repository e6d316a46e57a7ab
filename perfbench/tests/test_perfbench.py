"""Self-tests of the benchmark harness: python -m pytest perfbench/tests"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
from tracecli import Tracer  # noqa: E402
from workloads import WORKLOADS, Command, generate  # noqa: E402


def _tree(path):
    out = {}
    for dirpath, _, files in os.walk(path):
        for f in files:
            full = os.path.join(dirpath, f)
            with open(full, "rb") as fh:
                out[os.path.relpath(full, path)] = fh.read()
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    a = generate(workload, 5, str(tmp_path / "a"))
    b = generate(workload, 5, str(tmp_path / "b"))
    generate(workload, 6, str(tmp_path / "c"))
    assert a == b
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_generated_pairs_are_unit_mass(tmp_path):
    for cmd in generate("transport", 3, str(tmp_path)):
        for name in cmd.pair:
            m, rho = checks.read_density(str(tmp_path / name))
            assert abs(math.fsum(m) - 1.0) <= 1e-14
            assert abs(math.fsum(a * b for a, b in zip(m, rho)) - 1.0) <= 1e-12


# -- output checks against deliberately corrupted outputs ------------------------

def _write_json(path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj))


def _write_trajectory(out, rows, states=0):
    shutil.rmtree(out, ignore_errors=True)   # as run.py does before each command
    out.mkdir(parents=True)
    lines = ["# {}", "t,mass,F,L,inf_rho,sup_rho"]
    lines += [",".join(repr(v) for v in row) for row in rows]
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
    for k in range(states):
        (out / f"state_{k}.csv").write_text("i,rho_i\n1,1.0\n")


GOOD_ROWS = [(0.0, 1.0, 0.2, 0.1, 0.5, 1.5), (0.05, 1.0, 0.1, 0.05, 0.6, 1.4),
             (0.1, 1.0 + 1e-12, 0.05, 0.02, 0.7, 1.3)]


def _simulate(tmp_path, rows=GOOD_ROWS, passed=True, write_states=False, states=None):
    cmd = Command("sim", ("simulate",), "out/sim")
    out = tmp_path / cmd.out
    _write_trajectory(out, rows, len(rows) if states is None else states)
    _write_json(out / "simulate.json", {"monitor_all_passed": passed,
                                        "config": {"write_states": write_states}})
    return cmd


def _ok(cmd, tmp_path, code=0):
    return checks.check(cmd, str(tmp_path), code)[0]


def test_simulate_checks(tmp_path):
    assert _ok(_simulate(tmp_path), tmp_path) == []
    assert _ok(_simulate(tmp_path), tmp_path, code=3)
    assert _ok(_simulate(tmp_path, passed=False), tmp_path)
    bad_mass = GOOD_ROWS[:2] + [(0.1, 1.0 + 1e-9, 0.05, 0.02, 0.7, 1.3)]
    assert _ok(_simulate(tmp_path, rows=bad_mass), tmp_path)
    rising = GOOD_ROWS[:2] + [(0.1, 1.0, 0.1 + 1e-15, 0.02, 0.7, 1.3)]
    assert _ok(_simulate(tmp_path, rows=rising), tmp_path)
    assert _ok(_simulate(tmp_path, write_states=True), tmp_path) == []
    assert _ok(_simulate(tmp_path, write_states=True, states=2), tmp_path)


def test_sweep_checks(tmp_path):
    cmd = Command("sw", ("sweep",), "out/sw")
    good = [{"index": 0, "status": "ok", "monitor_pass": True},
            {"index": 1, "status": "ok", "monitor_pass": True}]
    _write_json(tmp_path / cmd.out / "sweep.json", {"rows": good})
    assert _ok(cmd, tmp_path) == []
    for bad in ({"status": "error: boom"}, {"monitor_pass": False}):
        _write_json(tmp_path / cmd.out / "sweep.json", {"rows": [good[0], {**good[1], **bad}]})
        assert _ok(cmd, tmp_path)


def test_talagrand_and_metric_checks(tmp_path):
    tal = Command("tal", ("talagrand",), "out/tal")
    _write_json(tmp_path / tal.out / "talagrand.json",
                {"all_passed": True, "samples": [{"distance_bound": 0.3}]})
    assert _ok(tal, tmp_path) == []
    _write_json(tmp_path / tal.out / "talagrand.json",
                {"all_passed": False, "samples": [{"distance_bound": 0.3}]})
    assert _ok(tal, tmp_path)
    met = Command("met", ("metric",), "out/met")
    _write_json(tmp_path / met.out / "metric.json", {"distance": 0.25})
    assert _ok(met, tmp_path) == []
    _write_json(tmp_path / met.out / "metric.json", {"distance": "nan"})
    assert _ok(met, tmp_path)
    (tmp_path / met.out / "metric.json").unlink()
    assert _ok(met, tmp_path)


def test_w1_check_uses_the_closed_form(tmp_path):
    commands = generate("batch", 2, str(tmp_path))
    cmd = next(c for c in commands if c.subcommand == "w1")
    exact = checks.w1_closed_form(*(str(tmp_path / p) for p in cmd.pair))
    report = {"w1": exact, "bound_checked": True, "passed": True, "distance_bound": 0.5}
    _write_json(tmp_path / cmd.out / "w1.json", report)
    assert _ok(cmd, tmp_path) == []
    _write_json(tmp_path / cmd.out / "w1.json", {**report, "w1": exact + 1e-6})
    assert _ok(cmd, tmp_path)
    _write_json(tmp_path / cmd.out / "w1.json", {**report, "passed": False})
    assert _ok(cmd, tmp_path)


def test_gibbs_check(tmp_path):
    cmd = Command("g", ("gibbs",), "out/g")
    out = tmp_path / cmd.out
    _write_json(out / "constants.json", {"constants": {}})
    (out / "gibbs.txt").write_text("2 1.0\n1 0.5 0.0 1.0\n2 0.5 0.0 1.0\n")
    assert _ok(cmd, tmp_path) == []
    (out / "gibbs.txt").write_text("2 1.0\n1 0.5 0.0 1.0\n2 0.5 0.0 1.001\n")
    assert _ok(cmd, tmp_path)


def test_golden_tolerance():
    golden = {"final_row": [4.0, 1.0, -0.3682525499604307], "distance": 0.35}
    assert checks.compare_golden("c", {"final_row": [4.0, 1.0, -0.3682525499604307 * (1 + 4e-16)],
                                       "distance": 0.35 * (1 + 1e-12)}, golden) == []
    assert checks.compare_golden("c", {"final_row": [4.0, 1.0, -0.3682525499604307],
                                       "distance": 0.35 * (1 + 1e-4)}, golden)
    assert checks.compare_golden("c", {"distance": 0.35}, golden)


# -- harness plumbing -------------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    names = run.per_layer_names()
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:      1000 |       2000 | site",
        "import time:       300 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:       400 |        400 |   scipy.special",
        "import time:        50 |        950 | graphfp",
        "import time:        10 |        960 | graphfp.cli",
    ])
    got = run.parse_importtime(text)
    assert got == pytest.approx({"import.total_s": 1910e-6, "import.numpy_s": 500e-6,
                                 "import.scipy_s": 400e-6, "import.graphfp_s": 60e-6})


def test_tracer_self_time():
    tracer = Tracer()

    def leaf():
        return sum(range(20000))

    inner = tracer.wrap("b", leaf)
    outer = tracer.wrap("a", lambda: [inner() for _ in range(3)])
    outer()
    assert tracer.calls == {"a": 1, "b": 3}
    assert tracer.self_s["a"] >= 0.0
    assert tracer.root_s == pytest.approx(tracer.self_s["a"] + tracer.self_s["b"])
