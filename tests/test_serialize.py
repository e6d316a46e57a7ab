"""File formats: CSV cells, per-vertex rows and the JSON form of reports."""

import csv
import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

import graphfp as g
from graphfp.dynamics import CheckResult, IntegratorStats
from graphfp.serialize import _csv_header_comment, fmt, jsonify, path_to_csv, table_to_csv
from helpers import explicit_weights, perturbed_gibbs, random_instance, random_interior

AWKWARD = np.array([0.1 + 0.2, 1e-300, 5e-324, 1e16, 1.0, 2.0 / 3.0, -0.0, 1e-5,
                    123456789.125, 1.7976931348623157e308])


def _read_table(path):
    """Rows of a table file after its config comment line."""
    with open(path, newline="", encoding="utf-8") as fh:
        assert fh.readline().startswith("# ")
        return list(csv.reader(fh))


class TestTableCells:
    def test_every_cell_round_trips_through_csv_reader(self, tmp_path):
        columns = ["flag", "x", "none", "n", "text"]
        rows = [
            [True, 0.1 + 0.2, None, 7, "a,b"],
            [False, math.inf, None, -3, 'say "hi"'],
            [True, -math.inf, None, 0, "two\nlines"],
            [False, math.nan, None, 10 ** 20, "carriage\rreturn"],
            [True, -0.0, None, np.int64(5), "plain"],
            [False, np.float64(5e-324), None, 1, [1, 2]],
            [True, np.float32(0.5), None, 2, {"N": 20, "family": "geometric:q=0.5"}],
        ]
        path = tmp_path / "table.csv"
        table_to_csv(path, columns, rows, {"seed": 1, "note": "a, b"})
        header, *body = _read_table(path)
        assert header == columns
        assert len(body) == len(rows)
        for cells, row in zip(body, rows):
            assert len(cells) == len(columns)
            flag, x, none, n, text = cells
            assert flag == ("true" if row[0] else "false")
            assert x == fmt(row[1])
            assert math.isnan(float(x)) if math.isnan(row[1]) else float(x) == row[1]
            assert str(float(x)) == str(float(row[1]))   # keeps the sign of -0.0
            assert none == ""
            assert int(n) == row[3]
            expect = row[4] if isinstance(row[4], str) else json.dumps(row[4])
            assert text == expect
        assert json.loads(body[-1][-1]) == rows[-1][-1]

    def test_plain_cells_are_unquoted(self, tmp_path):
        path = tmp_path / "table.csv"
        table_to_csv(path, ["a", "b"], [[1, "x:y=0.5"], [None, 2.5]])
        assert path.read_text() == "a,b\n1,x:y=0.5\n,2.5\n"


def _per_entry_path_csv(path, geodesic_path, meta):
    """The path file as the former per-entry writer wrote it."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_csv_header_comment(meta))
        fh.write("knot,i,rho_i\n")
        for k, rho in enumerate(geodesic_path.rho):
            for i, v in enumerate(rho):
                fh.write(f"{k},{i + 1},{fmt(v)}\n")


class TestPathFile:
    @pytest.mark.parametrize("knots", [1, 3, 12])
    def test_bytes_match_the_per_entry_writer(self, tmp_path, knots):
        rng = np.random.default_rng(knots)
        rho = np.concatenate([AWKWARD[None, :], rng.uniform(0.0, 3.0, (knots - 1, AWKWARD.size))])
        geodesic_path = SimpleNamespace(rho=rho)
        meta = {"config": {"outputs": "100%s %d %r"}, "seed": 1}  # '%' stays literal
        path_to_csv(tmp_path / "new.csv", geodesic_path, meta)
        _per_entry_path_csv(tmp_path / "old.csv", geodesic_path, meta)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


class TestJsonify:
    @pytest.mark.parametrize("value", [np.float64("inf"), np.float64("-inf"), np.float64("nan"),
                                       np.float32("inf"), np.float32("nan"), math.inf, -math.nan])
    def test_non_finite_floats_become_text(self, value):
        text = json.dumps(jsonify({"a": value, "b": [value]}), allow_nan=False)
        assert json.loads(text) == {"a": repr(float(value)), "b": [repr(float(value))]}

    @pytest.mark.parametrize("value", [np.float64(0.1), np.float32(0.1), -0.0, np.int32(-4)])
    def test_finite_numbers_stay_numbers(self, value):
        out = jsonify(value)
        assert type(out) in (float, int) and out == value

    def test_report_dataclasses_map_to_their_fields(self):
        spec = random_instance(3, 8, beta=1.0)
        rho0 = perturbed_gibbs(spec, 0.5, 3)
        traj = g.integrate("fpe", rho0, spec, g.IntegratorConfig(t_end=0.2, record_every=0.1))
        mu = random_interior(4, explicit_weights(9, seed=4), spread=0.2)
        reports = [
            g.invariant_constants(rho0, spec),
            traj.stats,
            g.talagrand_constants(mu, g.TalagrandClass(nu_inf=0.5, nu_sup=2.0)),
            g.ConstantsReport(norm_bound=2.5, tail_cutoff=4, min_prefix_weight=0.125,
                              lower_bound=0.5, upper_bound=3.0, decay_rate=0.25),
            IntegratorStats(nfev=13, accepted=2, rejected={"positivity": 1, "error": 0,
                                                           "nonfinite": 0},
                            h_min=0.01, h_max=0.1),
        ]
        for report in reports:
            assert jsonify(report) == jsonify(dataclasses.asdict(report))
        for report in reports[3:]:   # all fields finite
            assert jsonify(report) == dataclasses.asdict(report)

    def test_fields_left_out_of_the_report_are_skipped(self):
        @dataclasses.dataclass
        class Report:
            kept: float
            big: list = dataclasses.field(default_factory=list, metadata={"report": False})
            other: dict = dataclasses.field(default_factory=dict, metadata={"unit": "s"})

        assert jsonify({"r": Report(0.5, [1.0], {"a": 1})}) == {"r": {"kept": 0.5,
                                                                      "other": {"a": 1}}}

    def test_monitor_checks_keep_the_report_keys(self):
        checks = {"free_energy_decrease": CheckResult(True, 1e-3),
                  "decay_bound": CheckResult(False, math.nan, skipped=True, detail="no constants")}
        assert jsonify(g.MonitorReport(checks).checks) == {
            "free_energy_decrease": {"passed": True, "margin": 1e-3, "skipped": False,
                                     "detail": ""},
            "decay_bound": {"passed": False, "margin": "nan", "skipped": True,
                            "detail": "no constants"},
        }
