"""In-process tests for the command-line harness (exit codes and outputs)."""

import math

import numpy as np
import pytest

from mhfie.cli import ConvergenceReport, main, run_convergence
from mhfie.mhf import MhfBasis, mhf_gauss_rule
from mhfie.solver import SolverError


def read_csv(path):
    lines = [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_nodes_writes_rule_as_csv(tmp_path):
    out = tmp_path / "nodes.csv"
    assert main(["nodes", "--n", "6", "--alpha", "0.8", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["j", "z", "x", "chi"]
    assert len(rows) == 7
    rule = mhf_gauss_rule(MhfBasis(alpha=0.8, degree=6))
    np.testing.assert_allclose(
        [float(r[2]) for r in rows], rule.nodes, rtol=1e-15
    )
    np.testing.assert_allclose(
        [float(r[3]) for r in rows], rule.weights, rtol=1e-15
    )
    assert [int(r[0]) for r in rows] == list(range(7))


def test_nodes_stdout_and_missing_arg(capsys):
    assert main(["nodes", "--n", "2", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert "j,z,x,chi" in captured.out
    assert main(["nodes"]) == 2
    assert "requires --n" in capsys.readouterr().err


def test_quad_test_moments_are_exact(tmp_path):
    out = tmp_path / "moments.csv"
    rc = main(
        ["quad-test", "--integrand", "moments", "--k", "4",
         "--n-list", "8,16", "--alpha", "1.0", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["N", "value", "abs_error"]
    for row in rows:
        assert float(row[1]) == pytest.approx(math.gamma(2.5), rel=1e-13)
        assert float(row[2]) < 1e-12


def test_quad_test_singular_errors_decrease(tmp_path):
    out = tmp_path / "quad.csv"
    rc = main(
        ["quad-test", "--integrand", "sqrt-logweight",
         "--n-list", "8,32,128", "--out", str(out)]
    )
    assert rc == 0
    _, rows = read_csv(out)
    errs = [float(r[2]) for r in rows]
    assert errs[0] > errs[1] > errs[2]


def test_quad_test_usage_errors(capsys):
    assert main(["quad-test", "--n-list", "4", "--integrand", "cosine"]) == 2
    assert main(["quad-test", "--integrand", "moments"]) == 2
    capsys.readouterr()


def test_solve_prints_summary(capsys):
    assert main(["solve", "--problem", "ex2-sqrt", "--n", "12"]) == 0
    out = capsys.readouterr().out
    assert "problem=ex2-sqrt" in out
    assert "N=12 NI=13" in out
    assert "err_inf=" in out
    assert "newton_iters=0" in out


def test_solve_dump_writes_grid(tmp_path, capsys):
    dump = tmp_path / "u.csv"
    rc = main(
        ["solve", "--problem", "ex1-alg", "--n", "8", "--dump", str(dump)]
    )
    capsys.readouterr()
    assert rc == 0
    header, rows = read_csv(dump)
    assert header == ["x", "u"]
    xs = np.array([float(r[0]) for r in rows])
    us = np.array([float(r[1]) for r in rows])
    assert xs.size > 1000
    assert np.all((xs > 0.0) & (xs < 1.0))
    assert np.all(np.isfinite(us))


def test_unknown_problem_is_usage_error(capsys):
    assert main(["solve", "--problem", "nope", "--n", "4"]) == 2
    assert "ex1-alg" in capsys.readouterr().err


def test_malformed_n_list_is_usage_error(capsys):
    assert main(["converge", "--problem", "ex1-log", "--n-list", "4,x"]) == 2
    capsys.readouterr()


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_converge_writes_report(tmp_path):
    out = tmp_path / "report.csv"
    rc = main(
        ["converge", "--problem", "ex1-alg", "--n-list", "8,16",
         "--out", str(out)]
    )
    assert rc == 0
    report = ConvergenceReport.from_csv_text(out.read_text())
    assert [row.n for row in report.rows] == [8, 16]
    assert [row.ni for row in report.rows] == [9, 17]
    assert report.metadata["problem"] == "ex1-alg"
    assert not report.failed
    assert report.rows[1].err_inf < report.rows[0].err_inf


def test_converge_rows_are_deterministic():
    a = run_convergence("ex1-log", [4, 8])
    b = run_convergence("ex1-log", [4, 8])
    for ra, rb in zip(a.rows, b.rows):
        assert (ra.n, ra.ni, ra.alpha) == (rb.n, rb.ni, rb.alpha)
        assert ra.err_inf == rb.err_inf
        assert ra.err_l2chi == rb.err_l2chi
        assert ra.newton_iters == rb.newton_iters


def test_report_csv_round_trip():
    report = run_convergence("ex1-alg", [4, 8], with_colloc=True)
    parsed = ConvergenceReport.from_csv_text(report.to_csv_text())
    assert parsed.problem == report.problem
    assert parsed.method == report.method
    assert parsed.with_colloc
    for ra, rb in zip(report.rows, parsed.rows):
        assert ra.err_inf == rb.err_inf
        assert ra.err_l2chi == rb.err_l2chi
        assert ra.err_colloc == rb.err_colloc


def test_report_rejects_foreign_csv():
    with pytest.raises(ValueError, match="header"):
        ConvergenceReport.from_csv_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError, match="header"):
        ConvergenceReport.from_csv_text("# only: metadata\n")


def test_compare_reports_agreement(capsys):
    assert main(["compare", "--problem", "ex1-alg", "--n-list", "4,8"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "FAIL" not in out


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment setup\n"
        "problem = ex1-alg\n"
        "n = 6\n"
        "alpha = 0.5\n"
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    assert "N=6" in capsys.readouterr().out
    # explicit flags win over the config file
    assert main(["solve", "--config", str(cfg), "--n", "4"]) == 0
    assert "N=4" in capsys.readouterr().out


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "bad_key.cfg"
    bad_key.write_text("colour = blue\n")
    assert main(["solve", "--config", str(bad_key), "--n", "4"]) == 2
    assert "unknown config key" in capsys.readouterr().err

    bad_line = tmp_path / "bad_line.cfg"
    bad_line.write_text("just words\n")
    assert main(["solve", "--config", str(bad_line), "--n", "4"]) == 2
    capsys.readouterr()

    assert main(["solve", "--config", str(tmp_path / "missing.cfg"), "--n", "4"]) == 2
    assert "cannot read" in capsys.readouterr().err


def _failing_solve(problem, config):
    raise SolverError(f"injected failure at n={config.n}")


def test_solver_failure_exit_code(capsys, monkeypatch):
    # a solver failure must surface as exit 1, not a traceback; the failure
    # is injected, since an unreachable tolerance stops being unreachable
    # whenever roundoff leaves an exactly zero residual
    monkeypatch.setattr("mhfie.cli.solve", _failing_solve)
    rc = main(
        ["solve", "--problem", "ex2-sqrt", "--n", "8", "--newton-tol", "1e-30"]
    )
    assert rc == 1
    assert "solver failure" in capsys.readouterr().err


def test_converge_marks_failed_rows(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("mhfie.cli.solve", _failing_solve)
    out = tmp_path / "failed.csv"
    rc = main(
        ["converge", "--problem", "ex2-sqrt", "--n-list", "4,8",
         "--newton-tol", "1e-30", "--out", str(out)]
    )
    capsys.readouterr()
    assert rc == 1
    report = ConvergenceReport.from_csv_text(out.read_text())
    assert report.failed
    assert all(math.isnan(row.err_inf) for row in report.rows)
