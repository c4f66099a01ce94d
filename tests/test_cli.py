import configparser
import filecmp
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from dataclasses import asdict
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import monoscheme
from monoscheme import cli, ns3d
from monoscheme.cli import (
    EXPERIMENTS, ComparableReport, _cell_indices, _field_columns, _rows, compare_reports,
    load_config, main,
)
from monoscheme.grid import Mesh3D, MeshFunction
from monoscheme.metrics import MonotonicityReport
from monoscheme.ns3d import FlowField
from monoscheme.ns3d import FlowConfig, FlowDivergenceError
from monoscheme.stencils import SingularOperatorError, SolverError
from test_golden import GOLDEN, METRICS_CFG, _hashes


BUNDLED = ("fig1.cfg", "fig2.cfg", "fig2_n10.cfg", "order1d.cfg", "scan.cfg", "timestep1d.cfg")

TINY_3D = (
    "[experiment]\nkind = solve3d\n[flow]\nL = 1/30\nN = 6\nrho = 1\n"
    "nu = 1.002\np0 = 1e6\np1 = 0\nhole_lo = 2\nhole_hi = 3\n"
    "tol = 1e-3\nmax_iters = 20000\n[metrics]\ncentral_lo = 1\ncentral_hi = 4\n"
)


def run_cli(*argv):
    return main(list(argv))


def load_config_text(name):
    return resources.files("monoscheme").joinpath("configs", name).read_text()


def edited_config(tmp_path, name, **values):
    """A copy of bundled config `name` with the given keys set to new values."""
    text = load_config_text(name)
    for key, value in values.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1
    cfg = tmp_path / f"edited_{name}"
    cfg.write_text(text)
    return cfg


def assert_reports_roundtrip(out):
    """Every report entry of summary.json re-parses to itself and equals the
    report_<label>.json file of the same run."""
    summary = json.loads((out / "summary.json").read_text())
    assert summary["reports"]
    for label, payload in summary["reports"].items():
        rep = ComparableReport.from_dict(payload)
        assert rep.label == label
        assert isinstance(rep.report, MonotonicityReport)
        assert asdict(rep) == payload
        assert json.loads((out / f"report_{label}.json").read_text()) == payload


class TestConfigLoading:
    def test_bundled_names_resolve(self):
        for name in BUNDLED:
            cfg = load_config(name)
            assert cfg.section("experiment").text("kind")

    def test_fraction_values(self):
        cfg = load_config("fig2.cfg")
        assert cfg.section("flow").real("L") == pytest.approx(1 / 30)

    def test_missing_config_is_parse_error(self, tmp_path):
        assert run_cli("run", str(tmp_path / "nope.cfg")) == 2

    def test_malformed_config(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("no sections here [[[")
        assert run_cli("run", str(bad), "--out", str(tmp_path / "out")) == 2
        assert not (tmp_path / "out").exists()

    def test_directory_is_parse_error(self, tmp_path, capsys):
        assert run_cli("run", str(tmp_path)) == 2
        assert "error: parse: cannot read config:" in capsys.readouterr().err

    def test_non_utf8_config_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "utf16.cfg"
        bad.write_bytes(b"\xff\xfe[\x00e\x00")
        assert run_cli("run", str(bad)) == 2
        assert "error: parse: cannot read config:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_out_naming_a_file_is_validation_error(self, tmp_path, capsys, command):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        report = tmp_path / "report.json"
        report.write_text(json.dumps(asdict(
            ComparableReport("solve1d", "base", MonotonicityReport(1.0, 2, 0.5, 0.1, "r")))))
        args = ["fig1.cfg"] if command == "run" else [str(report), str(report)]
        assert run_cli(command, *args, "--out", str(taken)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: validation: ") and str(taken) in err
        assert err.count("\n") == 1
        assert taken.read_text() == "not a directory\n"

    @pytest.mark.parametrize("blocked", ["report_base.json", "solution1d.csv", "summary.json"])
    def test_run_unwritable_file_is_validation_error(self, tmp_path, capsys, blocked):
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert run_cli("run", "fig1.cfg", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: validation: cannot write {out / blocked}: ")
        assert err.count("\n") == 1

    def test_compare_unwritable_file_is_validation_error(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(asdict(
            ComparableReport("solve1d", "base", MonotonicityReport(1.0, 2, 0.5, 0.1, "r")))))
        blocked = tmp_path / "cmp" / "comparison.json"
        blocked.mkdir(parents=True)
        assert run_cli("compare", str(report), str(report), "--out", str(blocked.parent)) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: validation: cannot write {blocked}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""

    @pytest.mark.parametrize("name, pattern, replacement, named", [
        ("fig1.cfg", r"^k0 = .*$", "k0 = abc", "not a number: 'abc'"),
        ("fig1.cfg", r"^k1 = .*$", "k1 = 1/0", "not a number: '1/0'"),
        ("fig1.cfg", r"^n = .*$", "n = 2.5", "not an integer: '2.5'"),
        ("fig1.cfg", r"^k3 = .*\n", "", "missing key 'k3' in [problem]"),
        ("scan.cfg", r"^\[scan\]\n", "", "missing [scan] section"),
    ])
    def test_bad_entry_is_parse_error(self, tmp_path, capsys, name, pattern, replacement, named):
        text, count = re.subn(pattern, replacement, load_config_text(name), flags=re.M)
        assert count == 1
        cfg = tmp_path / name
        cfg.write_text(text)
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == f"error: parse: {named}\n"

    def test_unknown_kind_is_validation_error(self, tmp_path):
        cfg = tmp_path / "weird.cfg"
        cfg.write_text("[experiment]\nkind = paint\n")
        assert run_cli("run", str(cfg)) == 3

    def test_invalid_coefficient_is_validation_error(self, tmp_path):
        cfg = tmp_path / "k3zero.cfg"
        cfg.write_text(
            "[experiment]\nkind = solve1d\n[problem]\n"
            "k0 = 1\nk1 = 1\nk2 = 1\nk3 = 0\na = 0\nb = 1\nn = 5\n"
            "u_left = 0\nu_right = 1\n"
        )
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 3


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig1")
    assert run_cli("run", "fig1.cfg", "--out", str(out)) == 0
    return out


class TestSolve1dRun:
    def test_artifacts_exist(self, outdir):
        for name in ("summary.json", "solution1d.csv", "report_base.json",
                     "report_auxiliary.json", "report_monotonized.json"):
            assert (outdir / name).exists()

    def test_table_layout(self, outdir):
        lines = (outdir / "solution1d.csv").read_text().splitlines()
        assert lines[0] == "x,u,v,y,reference_dense,reference_analytic"
        assert len(lines) == 10  # header + 9 interior nodes

    def test_summary_reports_roundtrip(self, outdir):
        assert_reports_roundtrip(outdir)

    def test_monotonized_improves_f_and_reference_distance(self, outdir):
        summary = json.loads((outdir / "summary.json").read_text())
        base = summary["reports"]["base"]["report"]["f_value"]
        mono = summary["reports"]["monotonized"]["report"]["f_value"]
        assert mono < base
        ref = summary["reference"]
        assert ref["y_distance_c"] < ref["u_distance_c"]

    def test_compare_self_is_all_zero(self, outdir):
        cmp = compare_reports(
            str(outdir / "report_base.json"), str(outdir / "report_base.json")
        )
        assert all(v == 0 for v in cmp["deltas"].values())

    def test_compare_base_vs_monotonized_negative_f_delta(self, outdir):
        cmp = compare_reports(
            str(outdir / "report_base.json"), str(outdir / "report_monotonized.json")
        )
        assert cmp["deltas"]["f_value"] < 0

    def test_reproducible_bitwise(self, outdir, tmp_path):
        again = tmp_path / "again"
        assert run_cli("run", "fig1.cfg", "--out", str(again)) == 0
        for name in ("summary.json", "solution1d.csv"):
            assert filecmp.cmp(outdir / name, again / name, shallow=False)


class TestOtherExperiments:
    def test_order_run(self, tmp_path):
        out = tmp_path / "order"
        assert run_cli("run", "order1d.cfg", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 1.8 <= summary["base"]["order"] <= 2.2
        assert 1.8 <= summary["monotonized"]["order"] <= 2.2

    def test_scan_run_jsonl(self, tmp_path):
        out = tmp_path / "scan"
        assert run_cli("run", "scan.cfg", "--out", str(out), "--format", "jsonl") == 0
        rows = [json.loads(line) for line in (out / "determinant_scan.jsonl").read_text().splitlines()]
        assert len(rows) == 9
        assert {"h", "n", "indicator_base", "indicator_monotonized", "flagged"} <= set(rows[0])

    def test_timestep_run(self, tmp_path):
        out = tmp_path / "ts"
        assert run_cli("run", "timestep1d.cfg", "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"]
        assert summary["within_10x_tol"]
        assert summary["form_agreement"]["sigma_0"] <= 1e-10
        assert summary["form_agreement"]["sigma_1"] <= 1e-10
        snaps = (out / "snapshots.csv").read_text().splitlines()
        assert snaps[0] == "t,x,v,y"
        assert len(snaps) == 1 + summary["steps"] * 9

    def test_timestep_single_node_settles_on_stationary(self, tmp_path):
        # At n=1 both end values feed the one interior row.
        cfg = tmp_path / "ts_n1.cfg"
        cfg.write_text(
            "[experiment]\nkind = timestep\n[problem]\nk0 = 1\nk1 = -1\nk2 = 0\nk3 = 1\n"
            "n = 1\nu_left = 1\nu_right = 3\n[stepping]\ntau = 0.05\nsigma = 1\n"
        )
        out = tmp_path / "ts1"
        assert run_cli("run", str(cfg), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"]
        assert summary["within_10x_tol"] is True

    def test_metrics_run_seeded(self, tmp_path):
        cfg = tmp_path / "metrics.cfg"
        cfg.write_text("[experiment]\nkind = metrics\n[metrics]\ntrials = 40\nmax_n = 5\n")
        out = tmp_path / "m"
        assert run_cli("run", str(cfg), "--out", str(out), "--seed", "7") == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["passed"]
        assert summary["oracle_mismatches"] == 0
        assert summary["seed"] == 7

    def test_metrics_run_jsonl(self, tmp_path):
        cfg = tmp_path / "metrics.cfg"
        cfg.write_text("[experiment]\nkind = metrics\n[metrics]\ntrials = 40\nmax_n = 5\n")
        out = tmp_path / "m"
        assert run_cli("run", str(cfg), "--out", str(out), "--seed", "7", "--format", "jsonl") == 0
        rows = [json.loads(line) for line in (out / "metrics_trials.jsonl").read_text().splitlines()]
        assert len(rows) == 40
        assert all(row["match"] is True for row in rows)

    def test_metrics_jsonl_is_strict_json(self, tmp_path):
        # A trial with no extremum has no sharpness: null in jsonl, where a
        # bare NaN token would fail a strict parser, and nan in csv as before.
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        cfg = tmp_path / "metrics.cfg"
        cfg.write_text("[experiment]\nkind = metrics\n[metrics]\ntrials = 40\nmax_n = 5\n")
        for fmt in ("jsonl", "csv"):
            argv = ("run", str(cfg), "--out", str(tmp_path / fmt), "--seed", "7", "--format", fmt)
            assert run_cli(*argv) == 0
        lines = (tmp_path / "jsonl" / "metrics_trials.jsonl").read_text().splitlines()
        rows = [json.loads(line, parse_constant=reject) for line in lines]
        empty = [row for row in rows if row["count"] == 0]
        assert empty and all(row["sharpness_a"] is None for row in empty)
        csv = (tmp_path / "csv" / "metrics_trials.csv").read_text().splitlines()
        assert sum(",nan,nan," in line for line in csv) == len(empty)

    def test_summary_is_strict_json(self, tmp_path):
        # With k1 = k2 = 0 the errors do not fall with h, so the fitted order
        # is NaN: null in summary.json, where a bare NaN token would fail a
        # strict parser.
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        cfg = edited_config(tmp_path, "order1d.cfg", k1=0, k2=0)
        out = tmp_path / "order"
        assert run_cli("run", str(cfg), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["base"]["order"] is None

    def test_steep_layer_solve1d(self, tmp_path):
        # k3 = -0.01 puts a characteristic root near 3000 in fig1's problem.
        cfg = edited_config(tmp_path, "fig1.cfg", k3=-0.01)
        out = tmp_path / "steep"
        assert run_cli("run", str(cfg), "--out", str(out)) == 0
        lines = (out / "solution1d.csv").read_text().splitlines()
        assert lines[0].split(",")[-1] == "reference_analytic"
        assert np.isfinite([float(line.split(",")[-1]) for line in lines[1:]]).all()

    def test_steep_layer_order(self, tmp_path):
        cfg = edited_config(tmp_path, "order1d.cfg", k0=10, k1=-5, k2=30, k3=-0.01)
        out = tmp_path / "steep"
        assert run_cli("run", str(cfg), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        for scheme in ("base", "monotonized"):
            assert np.isfinite(summary[scheme]["errors"]).all()

    @pytest.mark.parametrize("name, magnitude",
                             [("fig1.cfg", "3.0e+161"), ("order1d.cfg", "1.0e+160")],
                             ids=["solve1d", "order"])
    def test_overflowing_root_exit_3(self, tmp_path, capsys, name, magnitude):
        # k3 = 1e-160 puts a characteristic root near k2/k3, whose square
        # overflows when the analytic form checks its residual.
        cfg = edited_config(tmp_path, name, k3="1e-160")
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err == ("error: validation: analytic form overflows: a characteristic root has "
                       f"magnitude about {magnitude}\n")

    @pytest.mark.parametrize("name", ["fig1.cfg", "order1d.cfg"], ids=["solve1d", "order"])
    def test_missed_end_value_exit_3(self, tmp_path, capsys, name):
        # Two small close real roots make the analytic form cancel a
        # particular part of scale k0/q = -3e7.
        cfg = edited_config(tmp_path, name, k0=1, k1="-1e-15", k2="1e-12", k3=1,
                            u_left="0.3", u_right="-0.7")
        out = tmp_path / "o"
        assert run_cli("run", str(cfg), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == "error: validation: analytic form misses its end values by 7.451e-10\n"
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("name", ["fig1.cfg", "order1d.cfg"], ids=["solve1d", "order"])
    def test_small_k1_exit_0(self, tmp_path, name):
        # k1 = 1e-8 is well posed, and the analytic form must not cancel
        # -k0/k1 = -1e8 against an order-one answer.
        cfg = edited_config(tmp_path, name, k0=1, k1="1e-8", k2=1, k3=1,
                            u_left="0.5", u_right="0.5")
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values, message", [
        ({"k0": "1e308", "k3": "-1e-10"}, "failed its residual check: nan"),
        ({"k3": "5e-324"}, "failed its residual check: nan"),
        ({"k3": "-1e-300", "u_left": "1e300", "u_right": "-1e300"},
         "overflows: a characteristic root has magnitude about 3.0e+301"),
    ], ids=["nan_residual", "k3_5e-324", "k3_-1e-300"])
    def test_non_finite_analytic_form_exit_3(self, tmp_path, capsys, values, message):
        # Each form overflows while it is built or checked; the run stops
        # with one error line, no numpy warning and no file written.
        cfg = edited_config(tmp_path, "fig1.cfg", **values)
        out = tmp_path / "o"
        assert run_cli("run", str(cfg), "--out", str(out)) == 3
        assert capsys.readouterr().err == f"error: validation: analytic form {message}\n"
        assert not any(out.iterdir())

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("b, h", [("1e-300", "1.000e-301"), ("1e-160", "1.000e-161")])
    def test_tiny_domain_timestep_exit_3(self, tmp_path, capsys, b, h):
        # h^2 underflows to 0 at b = 1e-300, and 1/h^2 overflows at b = 1e-160.
        cfg = edited_config(tmp_path, "timestep1d.cfg", b=b)
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err == f"error: validation: mesh step h = {h} is too small: 1/h^2 is not finite\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("name", ["fig1.cfg", "order1d.cfg", "scan.cfg"])
    @pytest.mark.parametrize("b", ["1e-300", "1e-160"])
    def test_tiny_domain_other_kinds_run(self, tmp_path, name, b):
        cfg = edited_config(tmp_path, name, b=b)
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 0

    @pytest.mark.parametrize("k1, k2", [("0.01", "-0.2"), ("0.64", "-1.6"), ("1.69", "-2.6")])
    def test_decimal_double_root_solve1d(self, tmp_path, k1, k2):
        # U'' + k2 U' + k1 U + 1 = 0 has the double root -k2/2; typed as
        # decimals, its roots come out 2.6e-9 to 3.0e-8 apart.
        cfg = edited_config(tmp_path, "fig1.cfg", k0=1, k1=k1, k2=k2, k3=1,
                            u_left=0, u_right=1)
        out = tmp_path / "double"
        assert run_cli("run", str(cfg), "--out", str(out)) == 0
        # The base scheme's second-order error at 11 nodes is below 1e-3.
        reference = json.loads((out / "summary.json").read_text())["reference"]
        assert reference["u_analytic_distance_c"] < 1e-3

    def test_zero_base_answer_gives_null_closeness(self, tmp_path):
        # U'' = 0 from 1 to -1: the base answer at the one interior node is 0,
        # so the closeness relative to it is undefined.
        cfg = edited_config(tmp_path, "fig1.cfg", k0=0, k1=0, k2=0, k3=1, n=1,
                            u_left=1, u_right=-1)
        out = tmp_path / "zero"
        assert run_cli("run", str(cfg), "--out", str(out)) == 0
        assert json.loads((out / "summary.json").read_text())["closeness_u_v_relative"] is None

    @pytest.mark.parametrize("n", [1, 2])
    def test_oscillation_is_null_below_three_interior_nodes(self, tmp_path, n):
        cfg = edited_config(tmp_path, "fig1.cfg", n=n)
        out = tmp_path / "short"
        assert run_cli("run", str(cfg), "--out", str(out)) == 0
        reports = json.loads((out / "summary.json").read_text())["reports"]
        assert [r["report"]["oscillates"] for r in reports.values()] == [None] * 3

    def test_solve3d_small_run(self, tmp_path):
        cfg = tmp_path / "tiny3d.cfg"
        cfg.write_text(TINY_3D)
        out = tmp_path / "f3"
        assert run_cli("run", str(cfg), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["runs"]["base"]["converged"]
        assert summary["runs"]["monotonized"]["converged"]
        assert (out / "centerline.csv").exists()
        assert summary["central_region_sharpness_a"]["base"] > 0
        for label in ("base", "auxiliary", "monotonized"):
            lines = (out / f"field_{label}.csv").read_text().splitlines()
            assert lines[0] == "i,j,k,vx,vy,vz,p"
            assert len(lines) == 1 + 6**3
        again = tmp_path / "f3_again"
        assert run_cli("run", str(cfg), "--out", str(again)) == 0
        for name in ("summary.json", "field_base.csv", "centerline.csv"):
            assert filecmp.cmp(out / name, again / name, shallow=False)


def test_field_rows_match_per_cell_loop():
    N = 4
    mesh = Mesh3D(1.0, N)
    rng = np.random.default_rng(3)
    fld = FlowField(*(MeshFunction(mesh, rng.standard_normal(N**3)) for _ in range(4)))
    expected = [
        (i, j, k, float(fld.vx.values[p]), float(fld.vy.values[p]),
         float(fld.vz.values[p]), float(fld.p.values[p]))
        for p, (k, j, i) in enumerate(np.ndindex(N, N, N))
    ]
    rows = _rows(*_field_columns(fld, _cell_indices(mesh)))
    assert rows == expected
    assert all(type(x) is int for x in rows[-1][:3])
    assert all(type(x) is float for x in rows[-1][3:])


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("config", BUNDLED)
def test_write_table_takes_one_file_rows_at_a_time(config, fmt, tmp_path, monkeypatch):
    # Runners return columns, and _run makes one table's rows just before
    # writing them: one write_table call per table file, whose rows are a
    # list of tuples as long as the file's data. The traced benchmark reads
    # that len for cli.rows_written.
    calls, built = [], []
    write_table, rows_of = cli.write_table, cli._rows

    def recording(path, header, rows, fmt):
        calls.append((path.name, type(rows), len(rows), {type(row) for row in rows}))
        assert len(built) == len(calls)  # no other table's rows are made yet
        write_table(path, header, rows, fmt)

    monkeypatch.setattr(cli, "write_table", recording)
    monkeypatch.setattr(cli, "_rows", lambda *columns: built.append(1) or rows_of(*columns))
    out = tmp_path / "out"
    assert run_cli("run", config, "--out", str(out), "--format", fmt) == 0
    assert sorted(name for name, *_ in calls) == sorted(p.name for p in out.glob(f"*.{fmt}"))
    for name, kind, count, row_types in calls:
        assert kind is list and row_types == {tuple}
        data_rows = len((out / name).read_text().splitlines()) - (fmt == "csv")  # csv has a header
        assert count == data_rows > 0


@pytest.mark.parametrize("cpus", [2, 1])
def test_both_solves_are_called_in_the_parent(cpus, tmp_path, monkeypatch):
    # The traced benchmark wraps cli.solve_steady in this process, so both
    # calls must be made here, with each sweep loop forked inside the call.
    # Two usable CPUs run them at once, one CPU one after the other, and the
    # files are the same either way.
    calls, solve = [], cli.solve_steady

    def recording(flow, variant):
        start = time.perf_counter()
        report = solve(flow, variant)
        calls.append((variant, os.getpid(), start, time.perf_counter()))
        return report

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(cli, "solve_steady", recording)
    assert run_cli("run", "fig2_n10.cfg", "--out", str(tmp_path / "o")) == 0
    spans = {variant: (pid, start, end) for variant, pid, start, end in calls}
    assert len(calls) == 2 and set(spans) == {"base", "monotonized"}
    assert {pid for pid, _, _ in spans.values()} == {os.getpid()}
    (_, base_start, base_end), (_, mono_start, mono_end) = spans["base"], spans["monotonized"]
    if cpus == 2:
        assert max(base_start, mono_start) < min(base_end, mono_end)
    else:
        assert base_end <= mono_start
    assert _hashes(tmp_path / "o") == GOLDEN["fig2_n10"]


class TestSolverFailureExit:
    def test_base_error_is_reported_when_both_fail(self, tmp_path, capsys, monkeypatch):
        # The monotonized solve fails first; the base solve's error is the one.
        def failing(cfg, variant):
            if variant == "base":
                time.sleep(0.3)
            raise SolverError(f"{variant} failed")

        monkeypatch.setattr(ns3d, "_solve_steady", failing)
        assert run_cli("run", "fig2_n10.cfg", "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == "error: solver: base failed\n"

    def test_worker_that_dies_exit_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ns3d, "_solve_steady", lambda cfg, variant: os._exit(3))
        assert run_cli("run", "fig2_n10.cfg", "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == (
            "error: solver: the base flow solve's worker process ended with exit status 3 "
            "before sending a result\n")

    def test_unstable_flow_parameters_exit_4(self, tmp_path, capsys):
        cfg = tmp_path / "blowup.cfg"
        cfg.write_text(
            "[experiment]\nkind = solve3d\n[flow]\nL = 1/30\nN = 6\nrho = 1\n"
            "nu = 1.002\np0 = 1e6\np1 = 0\nhole_lo = 2\nhole_hi = 3\n"
            "tol = 1e-3\nmax_iters = 20000\nsigma_v = 6.2e-6\n"  # above h^2/(6 nu)
            "[metrics]\ncentral_lo = 1\ncentral_hi = 4\n"
        )
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        # h = 1/180, so sigma_v*6nu/h^2 = 6.2e-6 * 6 * 1.002 * 180^2 = 1.2077
        assert err.startswith("error: solver: sweep diverged at iteration ")
        assert "sigma_v*6nu/h^2 = 1.21" in err
        assert err.count("\n") == 1

    def test_advection_instability_exit_4(self, tmp_path, capsys):
        # fig2 at nu = 0.5 keeps both config margins below 1 and still
        # diverges; the one error line names the advection condition.
        text = load_config_text("fig2.cfg").replace("nu = 1.002", "nu = 0.5")
        cfg = tmp_path / "fig2_nu05.cfg"
        cfg.write_text(text)
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: solver: sweep diverged at iteration 107 ")
        assert "sigma_v*|w|^2/(2nu) <= 1" in err
        assert err.count("\n") == 1

    def test_overflowing_implicit_run_exit_4(self, tmp_path, capsys):
        # Every eigenvalue of fig1's M^{-1}A is positive, so sigma = 1/2 at
        # tau = 0.01 grows until a step overflows, long before max_steps.
        cfg = edited_config(tmp_path, "timestep1d.cfg", tau="0.01", sigma="0.5",
                            max_steps="2000")
        out = tmp_path / "o"
        assert run_cli("run", str(cfg), "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert err == "error: solver: implicit step produced non-finite values\n"
        assert not (out / "summary.json").exists()


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("values, h", [
        ({"k1": "-1e300", "u_left": "1e300", "u_right": "-1e300"}, "0.1"),
        ({"k0": "1e308", "b": "1e11", "u_left": "1e300"}, "10000000000.0"),
    ], ids=["end_terms", "inf_minus_inf"])
    def test_overflowing_scheme_exit_4(self, tmp_path, capsys, values, h):
        # The end-value terms overflow (the monotonized scheme's h^2 k1/4
        # times 1e300), or -h^2 k0 and an end term are both -inf, whose
        # difference is NaN; neither matrix is singular.
        cfg = edited_config(tmp_path, "fig1.cfg", **values)
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err == (f"error: solver: scheme overflows at h={h}: its band or right side "
                       "is not finite\n")

    @pytest.mark.parametrize("name, values, message", [
        ("scan.cfg", {"k2": "1e308", "k3": "1.7e308"},
         "scheme overflows at h=0.25: its band or right side is not finite"),
        ("timestep1d.cfg", {"k2": "1e308", "k3": "1.7e308"},
         "implicit step produced non-finite values"),
        ("fig1.cfg", {"n": "1", "k1": "8", "k2": "0", "k3": "1"},
         "scheme matrix singular at h=0.5: singular matrix"),
    ], ids=["scan_band", "timestep_band", "single_node_singular"])
    def test_breakdown_of_the_banded_rule_exit_4(self, tmp_path, capsys, name, values, message):
        # 2 k3 overflows the diagonal of every scheme matrix, and at n = 1,
        # h = 1/2, the diagonal h^2 k1 - 2 k3 is 0.
        cfg = edited_config(tmp_path, name, **values)
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 4
        assert capsys.readouterr().err == f"error: solver: {message}\n"


    @pytest.mark.parametrize("values", [{"p0": "1e308"}, {"p0": "1e308", "p1": "-1e308"}],
                             ids=["overflow", "inf_minus_inf"])
    def test_huge_inlet_pressure_exit_4(self, tmp_path, capsys, values):
        # The pressure pad's extrapolated ghosts overflow when the pad is
        # made; the first sweep reports it, and numpy prints no warning.
        cfg = edited_config(tmp_path, "fig2_n10.cfg", **values)
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: solver: sweep diverged at iteration 1 "
                              "(no finite sweep before it); ")
        assert err.count("\n") == 1


class TestExitCodeContract:
    def test_one_exception_type_per_exit_code(self):
        # 2 is ConfigParseError, 3 ValueError and 4 SolverError; the solver
        # errors' two subclasses are the ones code branches on or resumes from.
        names = set()
        for mod in ["monoscheme"] + [f"monoscheme.{m.name}"
                                     for m in pkgutil.iter_modules(monoscheme.__path__)]:
            for obj in vars(importlib.import_module(mod)).values():
                if (isinstance(obj, type) and issubclass(obj, Exception)
                        and obj.__module__ == mod):
                    names.add(obj.__name__)
        assert names == {"ConfigParseError", "SolverError", "SingularOperatorError",
                         "FlowDivergenceError"}

    @pytest.mark.parametrize("exc, code, category", [
        (cli.ConfigParseError("bad entry"), 2, "parse"),
        (ValueError("out of range"), 3, "validation"),
        (SolverError("broke down"), 4, "solver"),
        (SingularOperatorError("singular matrix"), 4, "solver"),
        (FlowDivergenceError(FlowConfig(1 / 30, 10, 1.0, 1.002, 1e6, 0.0, 2, 7), 3, 1.0, 2.0),
         4, "solver"),
    ], ids=["parse", "value", "solver", "singular", "flow"])
    def test_exit_code_of_each_type(self, tmp_path, capsys, monkeypatch, exc, code, category):
        def runner(cfg, seed, tol):
            raise exc

        monkeypatch.setitem(cli.EXPERIMENTS, "solve1d", runner)
        assert run_cli("run", "fig1.cfg", "--out", str(tmp_path / "o")) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {category}: {exc}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv, code, line", [
        (["run", "fig1.cfg", "--format", "xml"], 2,
         r"error: parse: argument --format: invalid choice: 'xml' \(choose from .*csv.*jsonl.*\)"),
        (["run", "fig1.cfg", "--tol", "abc"], 2,
         r"error: parse: argument --tol: invalid float value: 'abc'"),
        ([], 2, r"error: parse: the following arguments are required: command"),
        (["run", "fig1.cfg", "--bogus"], 2, r"error: parse: unrecognized arguments: --bogus"),
        (["compare"], 2, r"error: parse: the following arguments are required: report_a, report_b"),
        (["run", "metrics.cfg", "--seed", "-1"], 3,
         r"error: validation: --seed must be non-negative, got -1"),
    ], ids=["format", "tol", "bare", "unknown_flag", "compare_args", "negative_seed"])
    def test_argument_errors_print_one_line(self, tmp_path, capsys, monkeypatch, argv, code, line):
        monkeypatch.chdir(tmp_path)
        Path("metrics.cfg").write_text(METRICS_CFG)
        assert run_cli(*argv) == code
        captured = capsys.readouterr()
        assert re.fullmatch(line + "\n", captured.err)
        assert captured.out == ""

    def test_help_exits_0_with_usage(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("run", "-h")
        assert info.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: monoscheme run") and captured.err == ""


class TestOptionalFlowKeys:
    """sigma_v/sigma_p are optional; when given they must be finite numbers."""

    @staticmethod
    def fig2_n10_with(tmp_path, line):
        text = load_config_text("fig2_n10.cfg").replace("[flow]\n", f"[flow]\n{line}\n")
        cfg = tmp_path / "fig2_n10_edit.cfg"
        cfg.write_text(text)
        return cfg

    def test_nan_sigma_v_is_validation_error(self, tmp_path, capsys):
        cfg = self.fig2_n10_with(tmp_path, "sigma_v = nan")
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 3
        assert "sigma_v must be finite" in capsys.readouterr().err

    def test_inf_sigma_p_is_validation_error(self, tmp_path, capsys):
        cfg = self.fig2_n10_with(tmp_path, "sigma_p = inf")
        assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 3
        assert "sigma_p must be finite" in capsys.readouterr().err


class TestCompareErrors:
    def test_shape_mismatch(self, tmp_path):
        a = ComparableReport("solve1d", "base", MonotonicityReport(1, 0, 0, 0, "r"))
        b = ComparableReport("solve3d", "base", MonotonicityReport(1, 0, 0, 0, "r"))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        pa.write_text(json.dumps(asdict(a)))
        pb.write_text(json.dumps(asdict(b)))
        assert run_cli("compare", str(pa), str(pb)) == 3

    def test_unreadable_report(self, tmp_path):
        pa = tmp_path / "a.json"
        pa.write_text("{broken")
        assert run_cli("compare", str(pa), str(pa)) == 2

    @pytest.mark.parametrize("value", [None, "x"])
    def test_non_numeric_field_is_parse_error(self, tmp_path, capsys, value):
        report = ComparableReport("solve1d", "base", MonotonicityReport(1.0, 2, 0.5, 0.1, "r"))
        payload = asdict(report)
        payload["report"]["f_value"] = value
        pa = tmp_path / "a.json"
        pa.write_text(json.dumps(payload))
        assert run_cli("compare", str(pa), str(pa)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: parse: cannot read report: ") and "report.f_value" in err

    def test_non_finite_delta_is_null(self, tmp_path, capsys):
        # inf - inf is NaN, which comparison.json and stdout write as null.
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = ComparableReport("solve1d", "base", MonotonicityReport(np.inf, 2, 0.5, 0.1, "r"))
        pa = tmp_path / "a.json"
        pa.write_text(json.dumps(asdict(report)))
        out = tmp_path / "cmpout"
        assert run_cli("compare", str(pa), str(pa), "--out", str(out)) == 0
        for text in (capsys.readouterr().out, (out / "comparison.json").read_text()):
            assert json.loads(text, parse_constant=reject)["deltas"]["f_value"] is None

    def test_comparison_written_to_out(self, tmp_path):
        a = ComparableReport("solve1d", "base", MonotonicityReport(1.0, 2, 0.5, 0.1, "r"))
        pa = tmp_path / "a.json"
        pa.write_text(json.dumps(asdict(a)))
        out = tmp_path / "cmpout"
        assert run_cli("compare", str(pa), str(pa), "--out", str(out)) == 0
        assert (out / "comparison.json").exists()


def test_fig2_n10_reports_roundtrip(tmp_path):
    out = tmp_path / "fig2_n10"
    assert run_cli("run", "fig2_n10.cfg", "--out", str(out)) == 0
    assert_reports_roundtrip(out)


def test_compare_solve3d_reports_diffs_the_central_region(tmp_path, capsys):
    out = tmp_path / "fig2_n10"
    assert run_cli("run", "fig2_n10.cfg", "--tol", "1e-2", "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("compare", str(out / "report_base.json"),
                   str(out / "report_monotonized.json")) == 0
    central = json.loads(capsys.readouterr().out)["central_deltas"]
    assert sorted(central) == ["extremum_count", "sharpness_a", "sharpness_b"]
    base, mono = (json.loads((out / f"report_{label}.json").read_text())["central"]
                  for label in ("base", "monotonized"))
    assert central["extremum_count"] == mono["extremum_count"] - base["extremum_count"]


# One small config per experiment kind: a bundled name or the config's text.
RUNNER_CONFIGS = {
    "solve1d": "fig1.cfg",
    "solve3d": TINY_3D,
    "metrics": "[experiment]\nkind = metrics\n[metrics]\ntrials = 5\nmax_n = 4\n",
    "order": "order1d.cfg",
    "scan-det": re.sub(r"^h_values = .*$", "h_values = 1/4 1/8 1/16",
                       load_config_text("scan.cfg"), flags=re.M),
    "timestep": "timestep1d.cfg",
}


@pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
def test_runner_writes_nothing_and_returns_every_output(kind, tmp_path, monkeypatch):
    assert set(RUNNER_CONFIGS) == set(EXPERIMENTS)
    config = RUNNER_CONFIGS[kind]
    if not config.endswith(".cfg"):
        (tmp_path / "small.cfg").write_text(config)
        config = str(tmp_path / "small.cfg")
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)

    def refuse(path, *args):
        raise AssertionError(f"runner wrote {path}")

    with monkeypatch.context() as m:
        m.setattr(cli, "write_table", refuse)
        m.setattr(cli, "write_json", refuse)
        result = EXPERIMENTS[kind](load_config(config), 7, None)
    assert list(cwd.iterdir()) == []

    out = tmp_path / "out"
    assert run_cli("run", config, "--out", str(out), "--seed", "7") == 0
    expected = ({f"{stem}.csv" for stem in result.tables}
                | {f"report_{label}.json" for label in result.reports} | {"summary.json"})
    assert {p.name for p in out.iterdir()} == expected


def with_keys(name, section, **values):
    """Bundled config `name` with the given keys added at the top of [section]."""
    text = load_config_text(name)
    assert text.count(f"[{section}]\n") == 1
    added = "".join(f"{key} = {value}\n" for key, value in values.items())
    return text.replace(f"[{section}]\n", f"[{section}]\n{added}")


MINIMAL_SCAN = (
    "[experiment]\nkind = scan-det\n[problem]\nk0 = 10\nk1 = -5\nk2 = 30\nk3 = -1\n"
    "[scan]\nh_values = 1/4 1/8 1/16 1/32 1/64 1/128 1/256 1/512 1/1024\nnear_tol = 1e-10\n"
)


@pytest.mark.parametrize("golden, text", [
    ("scan", MINIMAL_SCAN),
    ("scan", with_keys("scan.cfg", "problem", n=0, u_left="nan")),
    ("order1d", with_keys("order1d.cfg", "problem", n=0)),
    ("timestep1d", with_keys("timestep1d.cfg", "stepping", inner_tol="nan", max_inner=0)),
], ids=["minimal_scan", "scan_with_n_and_u_left", "order_with_n", "timestep_with_inner_keys"])
def test_keys_a_kind_does_not_read_change_no_file(tmp_path, golden, text):
    """scan-det reads no n or end values, order no n and timestep neither
    inner_tol nor max_inner: such keys are ignored, whatever their values."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert run_cli("run", str(cfg), "--out", str(out)) == 0
    assert _hashes(out) == GOLDEN[golden]


#: The bundled config that gives each kind's required keys their values.
KIND_VALUES = {"solve1d": "fig1.cfg", "solve3d": "fig2_n10.cfg", "order": "order1d.cfg",
               "scan-det": "scan.cfg", "timestep": "timestep1d.cfg"}


def minimal_sections(kind):
    """[experiment] and each section cli.KEYS gives `kind`, with only the
    required keys, valued as in the kind's bundled config."""
    bundled = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    if kind in KIND_VALUES:
        bundled.read_string(load_config_text(KIND_VALUES[kind]))
    return {"experiment": {"kind": kind}, **{
        section: {key: bundled[section][key]
                  for key, (_, default) in keys.items() if default is cli._REQUIRED}
        for section, keys in cli.KEYS[kind].items()}}


def config_text(sections):
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())


def test_every_kind_has_a_key_table():
    assert set(cli.KEYS) == set(EXPERIMENTS) == set(KIND_VALUES) | {"metrics"}


@pytest.mark.parametrize("kind", sorted(cli.KEYS))
def test_minimal_config_runs_without_a_warning(kind, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(minimal_sections(kind)))
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o"), "--tol", "1e-1") == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("kind, section, key", [
    (kind, section, key) for kind in sorted(cli.KEYS)
    for section, keys in minimal_sections(kind).items() for key in (None, *keys)
], ids=lambda value: value or "section")
def test_missing_required_key_or_section_is_parse_error(kind, section, key, tmp_path, capsys):
    """Each required key and each section, left out of a kind's minimal
    config, exits 2 with the one line that names it."""
    sections = minimal_sections(kind)
    if key is None:
        del sections[section]
        named = f"missing [{section}] section"
    else:
        del sections[section][key]
        named = f"missing key {key!r} in [{section}]"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text(sections))
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == f"error: parse: {named}\n"


def unread_warnings(*entries):
    return "".join(f"warning: {entry} is read by no experiment kind; ignored\n" for entry in entries)


def test_misspelt_keys_are_named_and_change_no_file(tmp_path, capsys):
    """fig2_n10 with tol and max_iters misspelt and a key no kind reads in
    [metrics] warns once for each, exits 0 and writes the files of the same
    config without those keys: the defaults hold."""
    text = load_config_text("fig2_n10.cfg")
    edits = [(r"^tol = .*$", "tolerance = 1e-9"), (r"^max_iters = .*$", "max_iter = 5"),
             (r"^central_lo = ", "bogus_key = 3\ncentral_lo = ")]
    typo = text
    for pattern, replacement in edits:
        typo, count = re.subn(pattern, replacement, typo, flags=re.M)
        assert count == 1
    clean = re.sub(r"^(tol|max_iters) = .*\n", "", text, flags=re.M)
    hashes, stderr = {}, {}
    for name, body in (("typo", typo), ("clean", clean)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(body)
        assert run_cli("run", str(cfg), "--out", str(tmp_path / name)) == 0
        hashes[name], stderr[name] = _hashes(tmp_path / name), capsys.readouterr().err
    assert stderr == {"typo": unread_warnings("[flow] tolerance", "[flow] max_iter",
                                              "[metrics] bogus_key"),
                      "clean": ""}
    assert hashes["typo"] == hashes["clean"]


@pytest.mark.parametrize("text, entries", [
    (with_keys("scan.cfg", "problem", n=0, u_left="nan"), ()),
    (with_keys("order1d.cfg", "problem", n=0), ()),
    (with_keys("timestep1d.cfg", "stepping", inner_tol="nan", max_inner=0),
     ("[stepping] inner_tol", "[stepping] max_inner")),
    (with_keys("order1d.cfg", "problem", N=0, Bogus=1), ("[problem] bogus",)),
    (with_keys("fig1.cfg", "experiment", dense_points=100), ("[experiment] dense_points",)),
    (load_config_text("fig1.cfg") + "[plot]\ncolor = red\n[study]\nn_values = 4\n", ("[plot]",)),
], ids=["scan_with_n_and_u_left", "order_with_n", "timestep_with_inner_keys",
        "keys_compared_and_named_lower_case", "key_read_in_another_section", "unread_section"])
def test_only_keys_no_kind_reads_warn(text, entries, tmp_path, capsys):
    """A key that some kind reads in its section stays silent; any other key,
    or a section no kind reads, is named once, by its parsed name."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o"), "--tol", "1e-1") == 0
    assert capsys.readouterr().err == unread_warnings(*entries)


def test_error_line_stays_last_after_warnings(tmp_path, capsys):
    text, count = re.subn(r"^k3 = ", "k_3 = ", load_config_text("fig1.cfg"), flags=re.M)
    assert count == 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run_cli("run", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (unread_warnings("[problem] k_3")
                                       + "error: parse: missing key 'k3' in [problem]\n")


class TestExperimentKeyValidation:
    """Out-of-range experiment keys exit 3 with one line naming the key."""

    @staticmethod
    def assert_validation_error(capsys, cfg, out, key):
        assert run_cli("run", str(cfg), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: validation: ")
        assert key in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [
        ("max_steps", "0"), ("record_every", "0"), ("snapshot_every", "-1"),
        ("tau", "nan"), ("tau", "inf"),
    ])
    def test_timestep_stepping_keys(self, tmp_path, capsys, key, value):
        cfg = edited_config(tmp_path, "timestep1d.cfg", **{key: value})
        self.assert_validation_error(capsys, cfg, tmp_path / "o", key)
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("name, key, value, named", [
        *[("fig2_n10.cfg", "tol", v, "tol must") for v in ("nan", "inf")],
        *[("fig2_n10.cfg", key, v, f"{key} must") for key in ("L", "rho", "nu")
          for v in ("nan", "inf")],
        ("fig1.cfg", "k1", "nan", "k1 must"),
        ("scan.cfg", "k2", "inf", "k2 must"),
        ("order1d.cfg", "k0", "-inf", "k0 must"),
        *[(name, key, v, "domain [a, b]") for name in ("fig1.cfg", "scan.cfg", "order1d.cfg")
          for key, v in (("a", "-inf"), ("b", "inf"))],
        *[("timestep1d.cfg", "steady_tol", v, "steady_tol must") for v in ("nan", "-1")],
        ("fig1.cfg", "u_left", "nan", "u_left must be finite, got nan"),
        ("timestep1d.cfg", "u_right", "-inf", "u_right must be finite, got -inf"),
        ("fig2_n10.cfg", "p0", "inf", "p0 must be finite, got inf"),
        ("fig2_n10.cfg", "p1", "nan", "p1 must be finite, got nan"),
    ])
    def test_bad_numbers(self, tmp_path, capsys, name, key, value, named):
        cfg = edited_config(tmp_path, name, **{key: value})
        self.assert_validation_error(capsys, cfg, tmp_path / "o", named)
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("name, key, value", [
        ("scan.cfg", "h_values", ""),
        *[("scan.cfg", "h_values", v) for v in ("inf", "1/4 inf", "nan", "1/4 -1/8")],
        *[("scan.cfg", "near_tol", v) for v in ("nan", "-1", "inf")],
        *[("fig1.cfg", "dense_points", v) for v in (2, 1, 0, -3)],
    ])
    def test_1d_keys(self, tmp_path, capsys, name, key, value):
        cfg = edited_config(tmp_path, name, **{key: value})
        self.assert_validation_error(capsys, cfg, tmp_path / "o", key)
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("key, value", [("trials", "-5"), ("trials", "0"), ("max_n", "2")])
    def test_metrics_keys(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "metrics.cfg"
        cfg.write_text(f"[experiment]\nkind = metrics\n[metrics]\n{key} = {value}\n")
        self.assert_validation_error(capsys, cfg, tmp_path / "o", key)
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize("lo, hi", [(30, 7), (5, 3), (0, 0), (9, 12)])
    def test_empty_central_region_rejected_before_solving(
        self, tmp_path, capsys, monkeypatch, lo, hi
    ):
        solves = []
        monkeypatch.setattr(cli, "solve_steady", lambda *args: solves.append(args))
        cfg = edited_config(tmp_path, "fig2_n10.cfg", central_lo=lo, central_hi=hi)
        self.assert_validation_error(capsys, cfg, tmp_path / "o", "central_lo..central_hi")
        assert solves == []


def test_3d_and_metrics_routes_run_without_scipy(tmp_path):
    """scipy serves only the 1D banded solves. With an importable stub that
    raises ImportError first on the path, the CLI imports, leaves scipy
    unloaded, and the fig2_n10 and seeded metrics runs give golden files."""
    stub = tmp_path / "noscipy" / "scipy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text('raise ImportError("scipy is blocked here")\n')
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(stub.parent), str(src)]))

    def python(*args):
        proc = subprocess.run([sys.executable, *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    loaded = python("-c", "import sys, monoscheme.cli; print('scipy' in sys.modules)")
    assert loaded.strip() == "False"

    metrics_cfg = tmp_path / "metrics.cfg"
    metrics_cfg.write_text(METRICS_CFG)
    for name, argv in [("fig2_n10", ["fig2_n10.cfg"]),
                       ("metrics_seed7", [str(metrics_cfg), "--seed", "7"])]:
        out = tmp_path / name
        python("-m", "monoscheme.cli", "run", *argv, "--out", str(out))
        assert _hashes(out) == GOLDEN[name]
