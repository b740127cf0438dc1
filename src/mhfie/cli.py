"""Command-line experiment harness.

Subcommands:

  nodes      dump a mapped Gauss rule (j, z, x, chi)
  quad-test  mapped quadrature against reference values for singular
             integrands with the -log(x(1-x)) weight, or Gaussian moments
  solve      solve one registry problem at a single resolution
  converge   error sweep over a list of resolutions, written as CSV
  compare    node-value discrepancy between the two discretizations

Options may also come from a key=value config file (--config).  Its values
become the subcommand's defaults, converted and checked like the flags, and
explicit flags win.  Exit codes: 0 success, 1 solver/oracle failure, 2 usage
error.

Report CSVs carry metadata as '#' comment lines so the data rows stay
bit-identical across runs (runtime_ms excepted, by its nature).
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
import time
from dataclasses import astuple, dataclass, field, replace
from datetime import datetime, timezone
from typing import Optional

import numpy as np

from . import __version__
from .approx import _open_grid, error_norms, eval_grid_1d, eval_grid_axis_2d
from .mhf import MhfBasis, _log_logistic_pair, mhf_gauss_rule, mhf_unit_weights
from .problem import OracleError, exact_values, get_problem, problem_names, tanh_sinh
from .solver import (
    METHOD_MHF,
    METHOD_SMOOTHED,
    AssemblyError,
    NonConvergenceError,
    SolverConfig,
    SolverError,
    solve,
)

__all__ = [
    "ConvergenceReport",
    "ReportRow",
    "UsageError",
    "main",
    "run_convergence",
]


class UsageError(ValueError):
    """Bad arguments or config input.

    Subclasses ValueError so argparse turns a failing type callable (such
    as a malformed --n-list) into a normal usage exit instead of letting
    the exception escape main.
    """


# the report's columns in ReportRow field order; err_colloc only with --with-colloc
REPORT_COLUMNS = (("N", int), ("alpha", float), ("err_inf", float),
                  ("err_l2chi", float), ("newton_iters", int), ("runtime_ms", float),
                  ("err_colloc", float))
REPORT_HEADER = tuple(name for name, _ in REPORT_COLUMNS[:-1])

CONFIG_KEYS = {
    "problem",
    "method",
    "alpha",
    "n",
    "n_list",
    "newton_tol",
    "out",
    "integrand",
    "k",
}

INTEGRANDS = ("sqrt-logweight", "log-logweight", "moments")


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _read_config(path: str) -> dict:
    cfg = {}
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value.strip()
    return cfg


def _parse_n_list(text: str) -> list:
    try:
        values = [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError:
        raise UsageError(f"bad resolution list {text!r}") from None
    if not values or any(v < 0 for v in values):
        raise UsageError(f"bad resolution list {text!r}")
    return sorted(values)


def _metadata(extra: dict) -> dict:
    meta = {"build": f"mhfie {__version__}"}
    meta.update(extra)
    meta["timestamp"] = datetime.now(timezone.utc).isoformat()
    return meta


def _emit(out: Optional[str], text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_text(meta: dict, header, rows) -> str:
    lines = [f"# {key}: {value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# convergence reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    n: int
    alpha: float
    err_inf: float
    err_l2chi: float
    newton_iters: int
    runtime_ms: float
    err_colloc: Optional[float] = None


@dataclass
class ConvergenceReport:
    problem: str
    method: str
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    with_colloc: bool = False

    @property
    def failed(self) -> bool:
        return any(math.isnan(row.err_inf) for row in self.rows)

    def to_csv_text(self) -> str:
        columns = REPORT_COLUMNS if self.with_colloc else REPORT_COLUMNS[:-1]
        rows = [
            [float("nan") if v is None else v for v in astuple(r)[: len(columns)]]
            for r in self.rows
        ]
        meta = dict(self.metadata)
        meta.setdefault("problem", self.problem)
        meta.setdefault("method", self.method)
        return _csv_text(meta, [name for name, _ in columns], rows)

    @classmethod
    def from_csv_text(cls, text: str) -> "ConvergenceReport":
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        comments = [line[1:].partition(":") for line in lines if line.startswith("#")]
        table = [line.split(",") for line in lines if not line.startswith("#")]
        if not table:
            raise ValueError("no header row found")
        header = tuple(table[0])
        if header[: len(REPORT_HEADER)] != REPORT_HEADER:
            raise ValueError(f"unexpected report header {header}")
        with_colloc = "err_colloc" in header
        columns = REPORT_COLUMNS if with_colloc else REPORT_COLUMNS[:-1]
        metadata = {key.strip(): value.strip() for key, _, value in comments}
        return cls(
            problem=metadata.get("problem", ""),
            method=metadata.get("method", ""),
            rows=[ReportRow(*(cast(v) for (_, cast), v in zip(columns, parts)))
                  for parts in table[1:]],
            metadata=metadata,
            with_colloc=with_colloc,
        )


def _solution_errors(problem, config, solution):
    """Sup, weighted L2 and collocation-node errors against the exact solution.

    An error norm that fails (error_norms' ValueError) raises SolverError.
    The node error takes the rule's complements, as the solve does.
    """
    if problem.exact_solution is None:
        return float("nan"), float("nan"), float("nan")
    dim = problem.dimension
    try:
        norms = error_norms(solution.interpolant, problem.exact_solution, config.alpha, dim=dim)
    except ValueError as exc:
        raise SolverError(f"error norms at n={config.n}: {exc}") from exc
    axes = (solution.nodes_x, solution.nodes_y)[:dim]
    complement = mhf_gauss_rule(MhfBasis(config.alpha, config.n)).nodes_complement
    exact = exact_values(problem, _open_grid(axes), _open_grid((complement,) * dim))
    colloc = float(np.max(np.abs(solution.node_values - exact)))
    return norms.err_inf, norms.err_l2chi, colloc


def run_convergence(problem_name: str, n_list, method: str = METHOD_MHF,
                    alpha: Optional[float] = None,
                    newton_tol: float = SolverConfig.newton_tol,
                    with_colloc: bool = False) -> ConvergenceReport:
    """Solve at each resolution and collect the error report (rows sorted by N).

    alpha None is the problem's default_alpha (SolverConfig.for_problem).
    """
    problem = get_problem(problem_name)
    base = SolverConfig(n=0, alpha=alpha, method=method,
                        newton_tol=newton_tol).for_problem(problem)
    alpha = base.alpha
    report = ConvergenceReport(
        problem=problem_name,
        method=method,
        with_colloc=with_colloc,
        metadata=_metadata(
            {
                "problem": problem_name,
                "method": method,
                "alpha": _fmt(alpha),
                "newton_tol": _fmt(newton_tol),
            }
        ),
    )
    for n in sorted(n_list):
        config = replace(base, n=n)
        start = time.perf_counter()
        try:
            solution = solve(problem, config)
            runtime = 1e3 * (time.perf_counter() - start)
            err_inf, err_l2, colloc = _solution_errors(problem, config, solution)
            iters = solution.newton_iters
        except (SolverError, NonConvergenceError, AssemblyError, OracleError, ValueError):
            runtime = 1e3 * (time.perf_counter() - start)
            err_inf = err_l2 = colloc = float("nan")
            iters = -1
        report.rows.append(
            ReportRow(
                n=n,
                alpha=alpha,
                err_inf=err_inf,
                err_l2chi=err_l2,
                newton_iters=iters,
                runtime_ms=runtime,
                err_colloc=colloc if with_colloc else None,
            )
        )
    return report


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _rule(alpha: float, n: int):
    """The mapped Gauss rule; a scale or degree it rejects is a usage error."""
    try:
        return mhf_gauss_rule(MhfBasis(alpha=alpha, degree=n))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _cmd_nodes(args) -> int:
    if args.n is None:
        raise UsageError("nodes requires --n")
    rule = _rule(args.alpha, args.n)
    rows = [
        (j, rule.hermite.nodes[j], rule.nodes[j], rule.weights[j])
        for j in range(args.n + 1)
    ]
    meta = _metadata({"alpha": _fmt(args.alpha), "n": str(args.n)})
    _emit(args.out, _csv_text(meta, ("j", "z", "x", "chi"), rows))
    return 0


def _quad_oracle(integrand: str, alpha: float, k: int) -> float:
    if integrand == "moments":
        return math.gamma((k + 1) / 2.0) / alpha ** (k + 1) if k % 2 == 0 else 0.0
    if integrand == "sqrt-logweight":
        f = lambda r, c: np.sqrt(r) * -(np.log(r) + np.log(c))
    else:
        f = lambda r, c: np.log(r) * -(np.log(r) + np.log(c))
    return tanh_sinh(f, 1.0, tol=1e-13)


def _quad_value(integrand: str, rule, k: int) -> float:
    if integrand == "moments":
        return float((rule.logits**k) @ rule.weights)
    # weight -log(x(1-x)) from the logits, unit-weight quadrature coefficients
    log_x, log_xc = _log_logistic_pair(rule.logits)
    f = np.sqrt(rule.nodes) if integrand == "sqrt-logweight" else log_x
    return float((f * (-log_x - log_xc)) @ mhf_unit_weights(rule))


def _cmd_quad_test(args) -> int:
    # argparse checks choices on flags only, not on config defaults
    if args.integrand not in INTEGRANDS:
        raise UsageError(
            f"unknown integrand {args.integrand!r}; available: {', '.join(INTEGRANDS)}"
        )
    if args.n_list is None:
        raise UsageError("quad-test requires --n-list")
    rules = [_rule(args.alpha, n) for n in args.n_list]
    oracle = _quad_oracle(args.integrand, args.alpha, args.k)
    rows = []
    for n, rule in zip(args.n_list, rules):
        value = _quad_value(args.integrand, rule, args.k)
        rows.append((n, value, abs(value - oracle)))
    meta = _metadata(
        {"integrand": args.integrand, "alpha": _fmt(args.alpha), "oracle": _fmt(oracle)}
    )
    _emit(args.out, _csv_text(meta, ("N", "value", "abs_error"), rows))
    return 0


def _solver_args(args) -> tuple:
    """The named problem and the SolverConfig fields every solver command
    shares: alpha (None for the problem's default_alpha) and newton_tol."""
    if args.problem is None:
        raise UsageError("a problem name is required (--problem)")
    try:
        problem = get_problem(args.problem)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from None
    return problem, dict(alpha=args.alpha, newton_tol=args.newton_tol)


def _checked_config(problem, **fields) -> SolverConfig:
    """SolverConfig for the problem, alpha resolved; a setting it rejects,
    or an n above the problem's dimension limit, is a usage error."""
    try:
        config = SolverConfig(**fields).for_problem(problem)
        config.check_dimension(problem.dimension)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return config


def _cmd_solve(args) -> int:
    problem, shared = _solver_args(args)
    if args.n is None:
        raise UsageError("solve requires --n")
    config = _checked_config(problem, n=args.n, method=args.method, **shared)
    solution = solve(problem, config)
    err_inf, err_l2, _ = _solution_errors(problem, config, solution)
    print(f"problem={problem.name} method={config.method} N={config.n} "
          f"alpha={_fmt(config.alpha)}")
    if not math.isnan(err_inf):
        print(f"err_inf={_fmt(err_inf)} err_l2chi={_fmt(err_l2)}")
    print(f"newton_iters={solution.newton_iters} residual={_fmt(solution.final_residual)}")
    if args.dump:
        dim = problem.dimension
        if dim == 1:
            axes = (eval_grid_1d(),)
            vals = solution.interpolant.eval(*axes)
        else:
            axes = (eval_grid_axis_2d(),) * 2
            vals = solution.interpolant.eval_grid(*axes)
        rows = [(*point, u) for point, u in zip(itertools.product(*axes), np.ravel(vals))]
        header = ("x", "y")[:dim] + ("u",)
        meta = _metadata({"problem": problem.name, "method": config.method, "n": str(config.n)})
        _emit(args.dump, _csv_text(meta, header, rows))
    return 0


def _cmd_converge(args) -> int:
    problem, shared = _solver_args(args)
    if args.n_list is None:
        raise UsageError("converge requires --n-list")
    # the settings every row shares; a resolution a row cannot take fails that row
    _checked_config(problem, n=0, method=args.method, **shared)
    report = run_convergence(
        problem.name,
        args.n_list,
        method=args.method,
        with_colloc=args.with_colloc,
        **shared,
    )
    _emit(args.out, report.to_csv_text())
    return 1 if report.failed else 0


def _cmd_compare(args) -> int:
    problem, shared = _solver_args(args)
    if args.n_list is None:
        raise UsageError("compare requires --n-list")
    threshold = 10.0 * args.newton_tol
    rows, all_ok = [], True
    for n in args.n_list:
        base = dict(n=n, **shared)
        sol_m = solve(problem, _checked_config(problem, method=METHOD_MHF, **base))
        sol_s = solve(problem, _checked_config(problem, method=METHOD_SMOOTHED, **base))
        disc = float(np.max(np.abs(sol_m.node_values - sol_s.node_values)))
        ok = disc <= threshold
        all_ok &= ok
        rows.append((n, disc, int(ok)))
        print(f"N={n} max_discrepancy={_fmt(disc)} {'PASS' if ok else 'FAIL'}")
    if args.out:
        meta = _metadata({"problem": problem.name, "threshold": _fmt(threshold)})
        _emit(args.out, _csv_text(meta, ("N", "max_discrepancy", "pass"), rows))
    return 0 if all_ok else 1


def build_parser() -> tuple:
    """The mhfie parser and its subcommand parsers, keyed by command name.

    Every option's type and default are declared here, once; a --config
    file's values become the chosen subcommand's defaults (see main).
    """
    parser = argparse.ArgumentParser(
        prog="mhfie",
        allow_abbrev=False,
        description="Mapped Hermite collocation experiments for weakly "
        "singular integral equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name, func, summary, alpha=None, alpha_help="map scale parameter"):
        p = commands[name] = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(func=func)
        p.add_argument("--config", help="key=value config file; flags override")
        p.add_argument("--alpha", type=float, default=alpha, help=alpha_help)
        p.add_argument("--out", help="output path ('-' for stdout)")
        return p

    p_nodes = add_command("nodes", _cmd_nodes, "dump a mapped Gauss rule as CSV", alpha=1.0)
    p_nodes.add_argument("--n", type=int, help="rule degree (n+1 nodes)")

    p_quad = add_command("quad-test", _cmd_quad_test, "quadrature error against reference",
                         alpha=1.0)
    p_quad.add_argument("--integrand", choices=INTEGRANDS)
    p_quad.add_argument("--k", type=int, default=2, help="moment power (moments integrand)")

    def add_solver(name, func, summary):
        p = add_command(name, func, summary,
                        alpha_help="map scale parameter (default: the problem's)")
        p.add_argument("--problem", help=f"one of: {', '.join(problem_names())}")
        p.add_argument("--newton-tol", type=float, default=SolverConfig.newton_tol)
        return p

    p_solve = add_solver("solve", _cmd_solve, "solve one problem at one resolution")
    p_solve.add_argument("--n", type=int)
    p_solve.add_argument("--dump", help="CSV of the solution on the evaluation grid")

    p_conv = add_solver("converge", _cmd_converge, "error sweep over resolutions")
    p_conv.add_argument("--with-colloc", action="store_true",
                        help="append a column with the collocation-point error")

    p_cmp = add_solver("compare", _cmd_compare, "mhf vs smoothed node values")
    for p in (p_solve, p_conv):
        p.add_argument("--method", choices=(METHOD_MHF, METHOD_SMOOTHED),
                       default=SolverConfig.method)
    for p in (p_quad, p_conv, p_cmp):
        p.add_argument("--n-list", type=_parse_n_list, help="comma-separated resolutions")

    return parser, commands


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the command's defaults: argparse converts
            # them with each option's own type, and explicit flags still win
            commands[args.command].set_defaults(**_read_config(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NonConvergenceError, AssemblyError, OracleError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
