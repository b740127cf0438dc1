"""Inputs, operations and output checks of the mhfie benchmark workloads.

Every call into the package goes through a module attribute (``mhfie.solve``,
``mhfie.verify_residual``, ...), so the traced run can wrap the same calls
without a second code path.  Importing this module imports mhfie, numpy and
scipy; the benchmark times that import as part of set-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import mhfie
from mhfie import MhfBasis, ProblemSpec, SolverConfig, get_problem
from mhfie.solver import METHOD_MHF, METHOD_SMOOTHED

HERE = Path(__file__).resolve().parent
NEWTON_TOL = SolverConfig(n=0).newton_tol
PAIR_TOL = 10.0 * NEWTON_TOL
EPS = np.finfo(float).eps

# Forcing of a solve op: synthesized by the solver from the exact solution, or
# the true forcing, with which the node error is accuracy on the true equation.
SYNTH, TRUE = "synth", "true"
RULE = "rule"

# 1D N >= 94 raises today (ROADMAP item 3), so the 1D ladder stops at 80.
N_1D = (16, 32, 48, 64, 80)
PROBLEMS_1D = ("ex1-log", "ex1-alg", "ex2-sqrt")
# MAX_N_2D = 48: the dense Kronecker operators are O(N^4) bytes (ROADMAP item 5).
N_2D = (16, 32, 48)
# True-forcing 2D solves stop at 32: at 48 they would double the pass time.
N_2D_TRUE = (16, 32)
PROBLEMS_2D = ("ex3-log", "ex3-alg")

# Degree 765 is the first whose rule has NaN nodes today (ROADMAP item 1), so
# rule-hi draws from [200, 764].  RULE_BINS strata of the range give every pass
# the same spread of degrees; the p-th pass takes the p-th degree of each
# stratum's seeded permutation, so no degree repeats within a run.
RULE_DEGREES = (200, 764)
RULE_BINS = 15
RULE_ALPHA = 0.5
SQRT_PI = math.sqrt(math.pi)
COS_INTEGRAL = SQRT_PI * math.exp(-0.25)  # integral of exp(-z^2) cos(z) over R


@dataclass(frozen=True)
class Op:
    """One unit of timed work: a solve at (problem, n, route, forcing) or a rule degree."""

    problem: str
    n: int
    route: str  # METHOD_MHF, METHOD_SMOOTHED or RULE
    forcing: str
    dim: int


def digits(err: float) -> float:
    """Correct decimal digits, -log10(err), with err floored at machine epsilon."""
    return -math.log10(max(float(err), EPS))


def within_reference(err: float, ref: float, bound: float) -> bool:
    """err loses at most the share `bound` of the reference digits (0.1 digit minimum)."""
    ref_digits = digits(ref)
    return math.isfinite(err) and digits(err) >= ref_digits - bound * max(ref_digits, 1.0)


def _lookup_forcing(table: dict, dim: int):
    """Forcing callable that only looks up precomputed values at the nodes."""
    if dim == 1:
        return lambda x: np.array([table[v] for v in np.ravel(x).tolist()])

    def forcing(gx, gy):
        pts = zip(np.ravel(gx).tolist(), np.ravel(gy).tolist())
        return np.array([table[p] for p in pts]).reshape(np.shape(gx))

    return forcing


def true_problem(problem: ProblemSpec, n_list) -> ProblemSpec:
    """The problem with its true forcing and no exact solution.

    Without an exact solution the solver cannot synthesize the forcing through
    its own operator, so the node error measures accuracy on the true equation.
    The forcing is evaluated in set-up with the reference tanh-sinh integrator
    (manufactured_forcing) at every collocation node of the ladder; ex2-sqrt
    keeps its closed-form forcing.
    """
    forcing = problem.forcing
    if forcing is None:
        table = {}
        for n in n_list:
            rule = mhfie.mhf_gauss_rule(MhfBasis(alpha=problem.default_alpha, degree=n))
            pts = list(zip(rule.nodes.tolist(), rule.nodes_complement.tolist()))
            if problem.dimension == 1:
                for x, xc in pts:
                    table[x] = mhfie.manufactured_forcing(problem, x, x_comp=xc)
            else:
                for x, xc in pts:
                    for y, yc in pts:
                        table[(x, y)] = mhfie.manufactured_forcing(
                            problem, x, y, x_comp=xc, y_comp=yc
                        )
        forcing = _lookup_forcing(table, problem.dimension)
    return ProblemSpec(
        name=f"{problem.name}-true",
        dimension=problem.dimension,
        lam=problem.lam,
        kernel=problem.kernel,
        nonlinearity=problem.nonlinearity,
        forcing=forcing,
        default_alpha=problem.default_alpha,
    )


class SolveWorkload:
    """solve + verify_residual + error_norms over a (problem, N, route, forcing) ladder.

    The true forcing is used at the sizes in true_n only.
    """

    def __init__(self, seed: int, names, n_list, true_n, routes, bound: float):
        self.rng = np.random.default_rng(seed)
        self.top = {SYNTH: n_list[-1], TRUE: true_n[-1]}
        self.bound = bound
        self.ref = json.loads((HERE / "reference.json").read_text())
        self.problems = {name: get_problem(name) for name in names}
        self.true = {name: true_problem(get_problem(name), true_n) for name in names}
        self.ops = [
            Op(name, n, route, forcing, self.problems[name].dimension)
            for name in names
            for n in n_list
            for forcing in (SYNTH, TRUE)[: 1 + (n in true_n)]
            for route in routes
        ]
        self.worst = {}  # (problem, n, forcing) -> largest error on the mhf route

    def pass_ops(self, index: int) -> list:
        return [self.ops[i] for i in self.rng.permutation(len(self.ops))]

    def key(self, op: Op) -> Op:
        """Ops with the same key repeat the same work; each key occurs once per pass."""
        return op

    def run(self, op: Op):
        problem = self.true[op.problem] if op.forcing == TRUE else self.problems[op.problem]
        alpha = problem.default_alpha
        config = SolverConfig(n=op.n, alpha=alpha, method=op.route)
        solution = mhfie.solve(problem, config)
        certificate = mhfie.verify_residual(problem, config, solution)
        exact = self.problems[op.problem].exact_solution
        norms = mhfie.error_norms(
            solution.interpolant,
            exact,
            alpha if op.dim == 1 else (alpha, alpha),
            dim=op.dim,
            degree=op.n,
        )
        return solution, certificate, norms

    def check(self, op: Op, out) -> list:
        solution, certificate, norms = out
        failed = []
        if not certificate <= NEWTON_TOL:
            failed.append("certificate")
        if op.forcing == TRUE:
            exact = self.problems[op.problem].exact_solution
            if op.dim == 1:
                u = exact(solution.nodes_x)
            else:
                u = exact(solution.nodes_x[:, None], solution.nodes_y[None, :])
            err = float(np.max(np.abs(solution.node_values - u)))
            ref = self.ref["node_err_true"][op.problem][str(op.n)]
        else:
            err = norms.err_inf
            ref = self.ref["err_inf"][op.problem][str(op.n)]
        if not within_reference(err, ref, self.bound):
            failed.append("accuracy")
        if op.route == METHOD_MHF:
            key = (op.problem, op.n, op.forcing)
            self.worst[key] = max(self.worst.get(key, 0.0), err)
        return failed

    def check_pass(self, outputs: dict) -> dict:
        """The mhf and smoothed routes must agree on node values (the paper's cross-check).

        With the synthesized forcing both routes reproduce the exact node values
        whatever their quadrature, so only the true-forcing pairs test that the
        two routes build the same discrete operator.
        """
        failed = {}
        for op, out in outputs.items():
            if op.route != METHOD_MHF:
                continue
            twin = Op(op.problem, op.n, METHOD_SMOOTHED, op.forcing, op.dim)
            if twin not in outputs:
                continue
            gap = np.max(np.abs(out[0].node_values - outputs[twin][0].node_values))
            if not gap <= PAIR_TOL:
                failed[op] = failed[twin] = ["route-pair"]
        return failed

    def accuracy(self) -> tuple:
        """(digits, digits_true, problems): worst problem at the top of the mhf ladder."""
        def worst_digits(forcing):
            errs = [self.worst.get((name, self.top[forcing], forcing), math.inf)
                    for name in self.problems]
            return min(digits(e) if math.isfinite(e) else 0.0 for e in errs)

        return worst_digits(SYNTH), worst_digits(TRUE), len(self.problems)


class RuleWorkload:
    """hermite_gauss_rule + mhf_gauss_rule at distinct seeded degrees."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        lo, hi = RULE_DEGREES
        strata = np.array_split(np.arange(lo, hi + 1), RULE_BINS)
        self.columns = [self.rng.permutation(s) for s in strata]
        self.stratum = {int(d): i for i, s in enumerate(strata) for d in s}
        self.worst_moment = 0.0
        self.worst_cos = 0.0
        self.count = 0

    def pass_ops(self, index: int) -> list:
        if index >= min(len(c) for c in self.columns):
            return []  # every degree has been used once
        degrees = [int(c[index]) for c in self.columns]
        order = self.rng.permutation(len(degrees))
        return [Op("rule", degrees[i], RULE, SYNTH, 1) for i in order]

    def key(self, op: Op) -> int:
        """Degrees never repeat; the one op per pass of a stratum does about the same work."""
        return self.stratum[op.n]

    def run(self, op: Op):
        herm = mhfie.hermite_gauss_rule(op.n)
        mapped = mhfie.mhf_gauss_rule(MhfBasis(alpha=RULE_ALPHA, degree=op.n))
        return herm, mapped

    def check(self, op: Op, out) -> list:
        herm, mapped = out
        z, w = herm.nodes, herm.weights
        if not (np.all(np.isfinite(z)) and np.all(np.isfinite(w))):
            return ["hermite-nonfinite"]
        failed = []
        if not np.array_equal(z, -z[::-1]):
            failed.append("hermite-symmetry")
        moment_err = 0.0
        for k in range(5):
            value = float(w @ z**k)
            if k % 2 == 0:
                exact = math.gamma((k + 1) / 2.0)  # k = 0 is the weight sum sqrt(pi)
                moment_err = max(moment_err, abs(value - exact) / exact)
            else:
                moment_err = max(moment_err, abs(value) / math.gamma((k + 2) / 2.0))
        if not moment_err <= 1e-10:
            failed.append("hermite-moments")
        x, c = mapped.nodes, mapped.nodes_complement
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(mapped.weights))):
            return failed + ["mhf-nonfinite"]
        if not (np.all(x > 0.0) and np.all(c > 0.0) and np.array_equal(c, x[::-1])):
            failed.append("mhf-symmetry")
        weight_sum = float(np.sum(mapped.weights)) * RULE_ALPHA
        if not abs(weight_sum - SQRT_PI) <= 1e-10 * SQRT_PI:
            failed.append("mhf-weights")
        # A non-polynomial integrand: int chi(x) cos(alpha logit x) dx = COS_INTEGRAL/alpha.
        cos_value = float(mapped.weights @ np.cos(RULE_ALPHA * mapped.logits)) * RULE_ALPHA
        if not failed:
            self.worst_moment = max(self.worst_moment, moment_err)
            self.worst_cos = max(self.worst_cos, abs(cos_value - COS_INTEGRAL) / COS_INTEGRAL)
            self.count += 1
        return failed

    def check_pass(self, outputs: dict) -> dict:
        return {}

    def accuracy(self) -> tuple:
        """(digits, digits_true, rules): Gaussian moments and the cosine integral."""
        if not self.count:
            return 0.0, 0.0, 0
        return digits(self.worst_moment), digits(self.worst_cos), self.count


def make(name: str, seed: int, bound: float):
    """Build the named workload's inputs from the seed; `bound` is the digits bound."""
    if name == "sweep-1d":
        routes = (METHOD_MHF, METHOD_SMOOTHED)
        return SolveWorkload(seed, PROBLEMS_1D, N_1D, N_1D, routes, bound)
    if name == "newton-2d":
        return SolveWorkload(seed, PROBLEMS_2D, N_2D, N_2D_TRUE, (METHOD_MHF,), bound)
    if name == "rule-hi":
        return RuleWorkload(seed)
    raise KeyError(name)
