"""In-process tests for the command-line harness (exit codes and outputs)."""

import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from mhfie.approx import eval_grid_axis_2d
from mhfie.cli import (
    REPORT_HEADER,
    ConvergenceReport,
    _fmt,
    build_parser,
    main,
    run_convergence,
)
from mhfie.mhf import MhfBasis, mhf_gauss_rule
from mhfie.problem import get_problem
from mhfie.solver import SolverConfig, SolverError, solve


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
    assert "newton_iters=1" in out


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


def test_solve_dump_writes_the_2d_tensor_grid(tmp_path, capsys):
    dump = tmp_path / "u.csv"
    rc = main(["solve", "--problem", "ex3-log", "--n", "8", "--dump", str(dump)])
    capsys.readouterr()
    assert rc == 0
    header, rows = read_csv(dump)
    assert header == ["x", "y", "u"]
    axis = eval_grid_axis_2d()
    assert len(rows) == len(axis) ** 2
    problem = get_problem("ex3-log")
    solution = solve(problem, SolverConfig(n=8, alpha=problem.default_alpha))
    np.testing.assert_array_equal(
        [float(r[2]) for r in rows], solution.interpolant.eval_grid(axis, axis).ravel()
    )


def test_unknown_problem_is_usage_error(capsys):
    assert main(["solve", "--problem", "nope", "--n", "4"]) == 2
    assert "ex1-alg" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "converge", "compare"])
def test_config_rejected_by_the_solver_is_usage_error(command, capsys):
    sizes = ["--n", "16"] if command == "solve" else ["--n-list", "8,16"]
    assert main([command, "--problem", "ex1-log", "--alpha2", "0.9", *sizes]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha2" in err and "ex1-log" in err
    assert main(["solve", "--problem", "ex1-log", "--n", "500"]) == 2
    assert capsys.readouterr().err.startswith("error: n=500, ni=501 exceeds limit 400")


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


def test_config_value_is_converted_like_its_flag(tmp_path, capsys):
    cfg = tmp_path / "bad_value.cfg"
    cfg.write_text("alpha = abc\n")
    assert main(["nodes", "--config", str(cfg), "--n", "4"]) == 2
    assert "--alpha" in capsys.readouterr().err


def test_config_method_is_checked(tmp_path, capsys):
    cfg = tmp_path / "method.cfg"
    cfg.write_text("problem = ex1-log\nn = 4\nmethod = foo\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "unknown method" in capsys.readouterr().err


def _report_without_runtime(path):
    report = ConvergenceReport.from_csv_text(path.read_text())
    rows = [(r.n, r.ni, r.alpha, r.err_inf, r.err_l2chi, r.newton_iters)
            for r in report.rows]
    meta = {k: v for k, v in report.metadata.items() if k != "timestamp"}
    return rows, meta


def test_converge_from_config_matches_the_same_flags(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "problem = ex1-log\nn_list = 8, 16\nnewton_tol = 1e-11\nni_offset = 3\n"
    )
    from_cfg, from_flags = tmp_path / "cfg.csv", tmp_path / "flags.csv"
    assert main(["converge", "--config", str(cfg), "--out", str(from_cfg)]) == 0
    assert main(["converge", "--problem", "ex1-log", "--n-list", "8,16",
                 "--newton-tol", "1e-11", "--ni-offset", "3",
                 "--out", str(from_flags)]) == 0
    rows, meta = _report_without_runtime(from_cfg)
    assert [row[1] for row in rows] == [11, 19]
    assert meta["newton_tol"] == "9.9999999999999994e-12"
    assert (rows, meta) == _report_without_runtime(from_flags)


def test_config_key_of_another_command_is_ignored(tmp_path, capsys):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text("problem = ex1-alg\nn = 4\nintegrand = moments\n")
    assert main(["solve", "--config", str(cfg)]) == 0
    assert "N=4" in capsys.readouterr().out


def test_converge_newton_tol_defaults_to_the_solver_config(tmp_path):
    out = tmp_path / "report.csv"
    assert main(["converge", "--problem", "ex1-log", "--n-list", "8",
                 "--out", str(out)]) == 0
    _, meta = _report_without_runtime(out)
    assert meta["newton_tol"] == _fmt(SolverConfig.newton_tol)


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


def test_solve_reports_an_error_norm_failure(capsys):
    # the solve succeeds, but at alpha 0.5 nodes of the degree-216 rule of
    # the error norms round to x = 1, where the norms cannot be evaluated
    assert main(["solve", "--problem", "ex2-sqrt", "--n", "100"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solver failure: ") and "n=100" in err


def test_converge_marks_an_error_norm_failure_as_a_failed_row(tmp_path, capsys):
    out = tmp_path / "report.csv"
    rc = main(
        ["converge", "--problem", "ex2-sqrt", "--n-list", "16,100", "--out", str(out)]
    )
    capsys.readouterr()
    assert rc == 1
    kept, failed = ConvergenceReport.from_csv_text(out.read_text()).rows
    assert kept.n == 16 and kept.newton_iters == 1 and math.isfinite(kept.err_inf)
    assert failed.n == 100 and failed.newton_iters == -1
    assert math.isnan(failed.err_inf) and math.isnan(failed.err_l2chi)


@pytest.mark.parametrize("argv, message", [
    (["nodes", "--n", "4", "--alpha", "200"], "alpha must be in (0, 100.0]"),
    (["nodes", "--n", "3000"], "degree must be in [0, 2000]"),
    (["quad-test", "--integrand", "moments", "--n-list", "3000"],
     "degree must be in [0, 2000]"),
    (["solve", "--problem", "ex1-log", "--n", "8", "--alpha", "200"],
     "alpha must be in (0, 100.0]"),
    (["solve", "--problem", "ex1-log", "--n", "8", "--ni-offset", "3000"],
     "degree must be in [0, 2000]"),
    (["converge", "--problem", "ex1-log", "--n-list", "8", "--alpha", "200"],
     "alpha must be in (0, 100.0]"),
    (["compare", "--problem", "ex3-alg", "--n-list", "4", "--alpha2", "200"],
     "alpha must be in (0, 100.0]"),
])
def test_rule_range_errors_are_usage_errors(argv, message, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, n", [
    (["solve", "--problem", "ex1-log", "--n", "8", "--ni-offset", "2"], 8),
    (["converge", "--problem", "ex1-log", "--n-list", "7,16", "--ni-offset", "2"], 16),
    (["compare", "--problem", "ex1-log", "--n-list", "8", "--ni-offset", "0"], 8),
])
def test_node_families_sharing_the_midpoint_are_usage_errors(argv, n, capsys):
    # an even offset with an even N puts x = 0.5 in both node families
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"N={n}" in err and "x = 0.5" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "ex1-log", "--n", "7", "--ni-offset", "0"],
    ["converge", "--problem", "ex1-log", "--n-list", "7,9", "--ni-offset", "0"],
    ["compare", "--problem", "ex1-log", "--n-list", "7", "--ni-offset", "0"],
])
def test_ni_offset_zero_is_a_usage_error_for_every_n(argv, capsys):
    # offset 0 makes the quadrature nodes the collocation nodes, odd N too
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--ni-offset 0" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "ex1-log", "--n", "8", "--ni-offset", "3"],
    ["converge", "--problem", "ex1-log", "--n-list", "7,9", "--ni-offset", "2", "--out", "-"],
])
def test_interlacing_node_families_still_solve(argv, capsys):
    # odd offsets, and even offsets with odd N, keep the families apart
    assert main(argv) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["compare", "--problem", "ex1-log", "--n-list", "8", "--method", "smoothed"],
    ["converge", "--problem", "ex1-log", "--n-list", "9", "--ni", "12"],
    ["compare", "--problem", "ex1-log", "--n-list", "9", "--ni", "12"],
    ["solve", "--problem", "ex1-log", "--n", "8", "--ni", "9"],
    ["solve", "--problem", "ex1-log", "--n", "8", "--newton", "1e-10"],
])
def test_an_option_that_cannot_apply_or_is_abbreviated_is_refused(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_ni_is_an_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "ni.cfg"
    cfg.write_text("problem = ex1-log\nn = 8\nni = 9\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    assert "unknown config key 'ni'" in capsys.readouterr().err


def test_report_without_colloc_reads_back_without_it():
    report = run_convergence("ex1-alg", [4, 8])
    text = report.to_csv_text()
    assert text.splitlines()[-3] == ",".join(REPORT_HEADER)
    parsed = ConvergenceReport.from_csv_text(text)
    assert not parsed.with_colloc
    assert [row.err_colloc for row in parsed.rows] == [None, None]
    assert parsed.rows == report.rows
    assert parsed.to_csv_text() == text


def _readme_command_lines():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("mhfie ")]


def test_readme_command_lines_parse():
    parser, _ = build_parser()
    lines = _readme_command_lines()
    assert len(lines) >= 6
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
