"""End-to-end command line behavior: exit codes, reports, determinism."""

import functools
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from bilevelkit import cli
from bilevelkit.cli import build_parser, main

REPORT_KEYS = [
    "command", "problem_hash", "inputs", "verdicts", "evidence",
    "matrices", "trace", "wall_time_s",
]


def read_report(path):
    text = path.read_text()
    return json.loads(text), text


def test_check_passes_on_equality_fixture_solution(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main([
        "check", "--fixture", "P2", "--x", "0,0", "--y", "0.5,0.5",
        "--mu", "-0.5", "--json", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "kkt_ok" in stdout and "FAIL" not in stdout

    report, _ = read_report(out)
    assert list(report) == REPORT_KEYS
    v = report["verdicts"]
    assert v["kkt_ok"] is True
    assert v["licq_ok"] is True
    assert v["jacobian_uniqueness"] is True
    assert v["multipliers_recovered"] is True
    assert v["mfcq_holds"] is True
    assert v["first_order_holds"] is True
    assert v["second_order_sufficient"] is True
    assert report["evidence"]["sigma"] == pytest.approx(0.0, abs=1e-12)
    assert report["evidence"]["second_order_sufficient_min_eig"] == pytest.approx(
        2.0 / 3.0, abs=1e-9
    )
    # no active upper inequalities: the feasible-direction LP is vacuous
    assert report["evidence"]["mfcq_t_opt"] == "inf"
    assert re.fullmatch(r"[0-9a-f]{64}", report["problem_hash"])


def test_check_flags_non_kkt_point(capsys):
    code = main(["check", "--fixture", "P3", "--x", "0", "--y", "-1", "--xi", "0"])
    assert code == 0  # diagnosis is the product; failures are not errors
    stdout = capsys.readouterr().out
    lines = {
        line.split()[0]: line.split()[1]
        for line in stdout.splitlines()
        if line.strip() and line.split()[0] in ("kkt_ok", "licq_ok")
    }
    assert lines["kkt_ok"] == "FAIL"
    assert lines["licq_ok"] == "FAIL"


def test_check_report_is_deterministic(tmp_path):
    out = tmp_path / "r.json"
    argv = [
        "check", "--fixture", "P4", "--x", "-1", "--y", "0", "--xi", "1",
        "--json", str(out),
    ]
    assert main(argv) == 0
    first = out.read_text()
    assert main(argv) == 0
    second = out.read_text()

    def strip_wall(text):
        return re.sub(r'"wall_time_s": [0-9eE+.-]+', '"wall_time_s": 0', text)

    assert strip_wall(first) == strip_wall(second)


def test_main_builds_one_parser_for_every_command(tmp_path, monkeypatch, capsys):
    builds = []
    original = cli.build_parser

    def counted():
        builds.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_shared_parser", functools.cache(cli._shared_parser.__wrapped__))
    calls = [
        (["check", "--fixture", "P4", "--x", "-1", "--y", "0", "--xi", "1"], 0),
        (["sens", "--fixture", "P1", "--x", "0", "--fd-step", "-1e-5"], 2),
        (["sens", "--fixture", "P1", "--x", "0"], 0),
        (["check", "--fixture", "P1", "--x", "0,1", "--y", "1"], 3),
    ]

    def run_all(fresh_parsers):
        reports = []
        for argv, code in calls:
            if fresh_parsers:
                cli._shared_parser.cache_clear()
            out = tmp_path / "report.json"
            out.unlink(missing_ok=True)
            assert main(argv + ["--json", str(out)]) == code
            text = out.read_text() if out.exists() else ""
            reports.append(re.sub(r'"wall_time_s": [0-9eE+.-]+', "", text))
        return reports

    fresh = run_all(fresh_parsers=True)  # a parser per call, as main once built
    assert len(builds) == len(calls)
    builds.clear()
    assert run_all(fresh_parsers=False) == fresh
    assert builds == []
    assert fresh[0] and fresh[2] and not fresh[1] and not fresh[3]
    assert build_parser() is not build_parser()


def test_sens_active_branch_jacobians(tmp_path, capsys):
    out = tmp_path / "sens.json"
    code = main(["sens", "--fixture", "P1", "--x", "0", "--json", str(out)])
    assert code == 0
    report, text = read_report(out)
    assert report["verdicts"]["lower_solver_converged"] is True
    assert report["verdicts"]["fd_consistent"] is True
    assert report["matrices"]["Jy"] == [[0.0]]
    assert report["matrices"]["Jxi"] == [[-1.0]]
    assert report["evidence"]["fd_delta_max"] <= 1e-6
    # floats are serialized with 17 significant digits
    assert '"fd_step": 1.0000000000000001e-05' in text


def test_sens_inactive_branch(capsys):
    code = main(["sens", "--fixture", "P1", "--x", "2"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "fd_consistent: pass" in stdout


def test_dimension_error_exit_code(capsys):
    code = main(["check", "--fixture", "P1", "--x", "0,1", "--y", "1"])
    assert code == 3
    assert "expects 1 component" in capsys.readouterr().err


def test_unknown_fixture_exit_code(capsys):
    code = main(["check", "--fixture", "P9", "--x", "0", "--y", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown fixture" in err and "P1" in err


def test_unreadable_problem_file(capsys):
    code = main(["check", "--problem", "/nonexistent/file.txt", "--x", "0", "--y", "0"])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_problem_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("dims n=1 m=1\nupper.objective x1 +\nlower.objective y1^2\n")
    code = main(["check", "--problem", str(bad), "--x", "0", "--y", "0"])
    assert code == 2
    assert "rejected" in capsys.readouterr().err


def test_problem_file_accepted(tmp_path, capsys):
    src = tmp_path / "prob.txt"
    src.write_text(
        "dims n=1 m=1\n"
        "upper.objective (x1 - 2)^2 + y1\n"
        "lower.objective 0.5*(y1 - x1)^2\n"
        "lower.ineq 1 - y1\n"
    )
    code = main(["sens", "--problem", str(src), "--x", "0"])
    assert code == 0
    assert "fd_consistent: pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["check", "--x", "0", "--y", "-1"],
    ["sens", "--x", "0"],
    ["solve"],
], ids=["check", "sens", "solve"])
def test_domain_error_exit_code(tmp_path, capsys, argv):
    src = tmp_path / "log.txt"
    src.write_text(
        "dims n=1 m=1\n"
        "upper.objective (x1 - 1)^2 + y1^2\n"
        "lower.objective (y1 - x1)^2 + log(y1)\n"
    )
    code = main(argv[:1] + ["--problem", str(src)] + argv[1:])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "log of non-positive value" in err


def test_bad_vector_value(capsys):
    code = main(["check", "--fixture", "P1", "--x", "zero", "--y", "1"])
    assert code == 2
    assert "could not parse" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "--fixture", "P1", "--x", "nan", "--y", "1"],
    ["sens", "--fixture", "P1", "--x", "inf"],
    ["solve", "--fixture", "P2", "--y0", "0,-inf"],
], ids=["check-nan", "sens-inf", "solve-y0"])
def test_non_finite_vector_value(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be finite" in err


@pytest.mark.parametrize("flag", [
    ["--fd-step=0"], ["--fd-step=-1e-5"], ["--fd-step", "-1e-5"],
], ids=["0", "-1e-5", "-1e-5-separate"])
def test_sens_rejects_non_positive_fd_step(capsys, flag):
    # a negative value as a separate token reaches the range check, not an argparse usage error
    assert main(["sens", "--fixture", "P1", "--x", "0"] + flag) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--fd-step must be positive" in err


def test_sens_nan_fd_delta_fails_the_verdict(tmp_path, monkeypatch):
    def nan_jacobian(fn, x, h):
        out = fn(x)
        return np.full((out.size, x.size), np.nan)

    monkeypatch.setattr(cli, "fd_jacobian", nan_jacobian)
    out = tmp_path / "sens.json"
    assert main(["sens", "--fixture", "P1", "--x", "0", "--json", str(out)]) == 0
    report, _ = read_report(out)
    assert report["evidence"]["fd_delta_Jy"] == "nan"
    assert report["evidence"]["fd_delta_max"] == "nan"
    assert report["verdicts"]["fd_consistent"] is False


@pytest.mark.parametrize("flags", [
    ["--rho0", "0"], ["--rho-growth", "0.5"], ["--tol", "0"],
], ids=["rho0", "rho-growth", "tol"])
def test_solve_rejects_invalid_settings(capsys, flags):
    assert main(["solve", "--fixture", "P1"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "invalid solve settings" in err


def test_solve_converges_and_reports_rates(tmp_path, capsys):
    out = tmp_path / "solve.json"
    code = main([
        "solve", "--fixture", "P2", "--x0", "0.3,-0.2", "--json", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "status=converged" in stdout
    report, _ = read_report(out)
    assert report["verdicts"]["converged"] is True
    assert report["evidence"]["sigma_final"] <= 1e-8
    assert report["trace"], "trace rows must be recorded"
    row = report["trace"][0]
    assert list(row) == ["k", "sigma", "eps", "rho", "inner_iterations", "accepted"]
    assert report["matrices"]["y"] == pytest.approx([0.5, 0.5], abs=1e-6)


def test_solve_rate_sweep_monotone(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main([
        "solve", "--fixture", "P2", "--x0", "0.3,-0.2", "--rate-sweep",
        "--json", str(out),
    ])
    assert code == 0
    report, _ = read_report(out)
    assert report["verdicts"]["sweep_monotone"] is True
    m10 = report["evidence"]["median_q_rho_10"]
    m100 = report["evidence"]["median_q_rho_100"]
    m1000 = report["evidence"]["median_q_rho_1000"]
    assert m10 > m100 > m1000 > 0.0


def test_solve_through_kink_start(capsys):
    code = main(["solve", "--fixture", "P4", "--x0", "0", "--y0", "0.5", "--xi0", "0.5"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "status=converged" in stdout
    assert "x=[-1.]" in stdout or "x=[-0.99999" in stdout


def test_grid_negative_ranges_parse(tmp_path, capsys):
    out = tmp_path / "grid.json"
    code = main([
        "grid", "--fixture", "P3", "--x-range", "-0.5,0.5", "--y-range", "-1.5,1.5",
        "--step", "0.01", "--json", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "best pair" in stdout
    report, _ = read_report(out)
    assert report["verdicts"]["found_feasible"] is True
    assert report["matrices"]["best_x"] == pytest.approx([0.0], abs=1e-9)
    assert report["evidence"]["best_upper_value"] == pytest.approx(-1.0, abs=1e-3)
    assert any(rec["selected"] for rec in report["trace"])
    assert any(not rec["selected"] for rec in report["trace"])


def test_grid_unsupported_dimensions_exit_code(tmp_path, capsys):
    src = tmp_path / "wide.txt"
    src.write_text(
        "dims n=3 m=1\n"
        "upper.objective x1 + x2 + x3 + y1\n"
        "lower.objective y1^2\n"
    )
    code = main([
        "grid", "--problem", str(src), "--x-range", "-1,1", "--y-range", "-1,1",
        "--step", "0.5",
    ])
    assert code == 4
    assert "grid search supports" in capsys.readouterr().err


def test_grid_without_feasible_points(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text(
        "dims n=1 m=1\n"
        "upper.objective x1\n"
        "lower.objective y1\n"
        "lower.ineq y1^2 + 1\n"
    )
    out = tmp_path / "empty.json"
    code = main([
        "grid", "--problem", str(src), "--x-range", "-1,1", "--y-range", "-1,1",
        "--step", "0.25", "--json", str(out),
    ])
    assert code == 0
    report, _ = read_report(out)
    assert report["verdicts"]["found_feasible"] is False


def test_grid_rejects_bad_step(capsys):
    code = main([
        "grid", "--fixture", "P1", "--x-range", "0,1", "--y-range", "0,1",
        "--step", "0",
    ])
    assert code == 2
    assert "step must be positive" in capsys.readouterr().err


def test_grid_rejects_malformed_range(capsys):
    code = main([
        "grid", "--fixture", "P1", "--x-range", "1", "--y-range", "0,1",
        "--step", "0.5",
    ])
    assert code == 2
    assert "expects 'lo,hi'" in capsys.readouterr().err


def test_verify_all_green(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--json", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "16/16 checks passed" in stdout
    report, _ = read_report(out)
    assert all(v is True for v in report["verdicts"].values())
    assert report["problem_hash"] is None


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bilevelkit", "sens", "--fixture", "P1", "--x", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "fd_consistent: pass" in proc.stdout
