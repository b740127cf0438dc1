"""Tests for the Nystrom assembly, Newton driver, and the solve path."""

import json
import math
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mhfie.approx
import mhfie.hermite
import mhfie.solver
from mhfie._memo import BoundedMemo, memo
from mhfie.approx import _damped_rows, _gauss_cardinal_rows, error_norms
from mhfie.mhf import MhfBasis, mhf_gauss_rule, mhf_quadrature
from mhfie.problem import (
    KernelSpec,
    Nonlinearity,
    ProblemSpec,
    exact_smooth_integral,
    get_problem,
    kernel_eval,
)
from mhfie.solver import (
    MAX_N_1D,
    MAX_N_2D,
    AssemblyError,
    NonConvergenceError,
    SolverConfig,
    SolverError,
    newton_driver,
    solve,
    verify_residual,
)


def test_config_validation():
    with pytest.raises(ValueError, match="n must"):
        SolverConfig(n=-1)
    # alpha is checked against the rule's own range, with its message
    for alpha in (0.0, -1.0, 100.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"alpha must be in \(0, 100\.0\]"):
            SolverConfig(n=4, alpha=alpha)
    assert SolverConfig(n=4, alpha=100.0).alpha == 100.0
    # no alpha stands for the problem's, which for_problem resolves
    assert SolverConfig(n=0).alpha is None
    prob = get_problem("ex1-log")
    assert SolverConfig(n=0).for_problem(prob) == SolverConfig(n=0, alpha=prob.default_alpha)
    with pytest.raises(ValueError, match="method"):
        SolverConfig(n=4, method="spline")
    for tol in (0.0, -1e-12, math.inf, math.nan):
        with pytest.raises(ValueError, match="newton_tol must be positive and finite"):
            SolverConfig(n=4, newton_tol=tol)
    with pytest.raises(ValueError, match="newton_max_iter"):
        SolverConfig(n=4, newton_max_iter=0)
    # the integer fields take integers only, numpy ones included
    with pytest.raises(TypeError, match="newton_max_iter must be an integer, got 2.5"):
        SolverConfig(n=4, newton_max_iter=2.5)
    for n in (4.0, 4.5, "4"):
        with pytest.raises(TypeError, match="n must be an integer"):
            SolverConfig(n=n)
    assert SolverConfig(n=np.int64(4), newton_max_iter=np.int32(3)).n == 4


def test_config_dimension_limits():
    with pytest.raises(ValueError, match="exceeds"):
        SolverConfig(n=500).check_dimension(1)
    with pytest.raises(ValueError, match="exceeds"):
        SolverConfig(n=MAX_N_2D + 1).check_dimension(2)
    SolverConfig(n=MAX_N_2D).check_dimension(2)
    SolverConfig(n=64).check_dimension(1)


def test_row_sums_converge_to_smooth_integral():
    # with u = 1 the quadrature row sums approximate the exactly known
    # integral of the log kernel; the weak singularity makes this converge
    # slowly, which is precisely why forcing is synthesized through the
    # discrete operator for the convergence experiments.  The ladder runs at
    # alpha = 1, where its bounds were set
    prob = get_problem("ex1-log")
    errs = []
    for n in (14, 62, 254):
        disc = mhfie.solver._build(prob, SolverConfig(n=n, alpha=1.0))
        xs = disc.colloc_points[0]
        exact = np.array([exact_smooth_integral("log", x) for x in xs])
        errs.append(float(np.max(np.abs(disc.w[0].sum(axis=1) - exact))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.06
    assert errs[2] < 0.5 * errs[0]


def test_assembled_weights_identical_across_methods():
    prob = get_problem("ex1-alg")
    (wa,) = mhfie.solver._build(prob, SolverConfig(n=12, alpha=0.7)).w
    (wb,) = mhfie.solver._build(prob, SolverConfig(n=12, alpha=0.7, method="smoothed")).w
    np.testing.assert_allclose(wa, wb, rtol=1e-12)


def _axis_rules(alpha: float, n: int) -> tuple:
    """The collocation and quadrature rules of one axis: degrees n and n+1."""
    return tuple(mhf_gauss_rule(MhfBasis(alpha, degree)) for degree in (n, n + 1))


def _route_cardinals(method: str, rule_c, rule_q):
    """_damped_rows on the route's own variable: logits at scale alpha for
    mhf, Hermite nodes at scale one for smoothed."""
    if method == "mhf":
        return _damped_rows(rule_c.logits, rule_q.logits, rule_c.basis.alpha)
    return _damped_rows(rule_c.hermite.nodes, rule_q.hermite.nodes, 1.0)


@pytest.mark.parametrize("method", ["mhf", "smoothed"])
@pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 63, 64, 200, MAX_N_1D])
def test_default_cardinal_matrix_is_the_closed_form(n, method):
    # one E is built from the two Gauss-Hermite rules for both routes; it
    # matches each route's log-magnitude rows within 5.0e-13 max|E| at
    # MAX_N_1D (measured, mhf route)
    rule_c, rule_q = _axis_rules(0.5, n)
    ref = _route_cardinals(method, rule_c, rule_q)
    e = mhfie.solver._cardinals(rule_c, rule_q)
    assert np.max(np.abs(e - ref)) <= 1e-12 * np.max(np.abs(ref))


# At alpha = 0.01 and N = 64 the outer nodes of both rules, and the
# complements of the nodes nearest 1, underflow to 0, so the kernel is not
# finite there
CLUSTERED = SolverConfig(n=64, alpha=0.01)


def test_assembly_names_endpoint_clustering_when_families_interlace():
    # The families interlace, but where the map clusters them their outer
    # nodes and complements underflow to 0; the refusal names the fix, and
    # no RuntimeWarning of the kernel's log escapes before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssemblyError, match="lower n or raise alpha") as info:
            mhfie.solver._build(get_problem("ex1-log"), CLUSTERED)
    assert "interlace" not in str(info.value)


def test_a_refused_solve_builds_no_cardinal_matrix(fresh_memos, monkeypatch):
    # the failing solve keeps no E; the next good solve at the same n
    # builds E once
    calls = []
    rows = mhfie.solver._gauss_cardinal_rows
    monkeypatch.setattr(mhfie.solver, "_gauss_cardinal_rows",
                        lambda *rules: calls.append(1) or rows(*rules))
    with pytest.raises(AssemblyError):
        solve(get_problem("ex1-log"), CLUSTERED)
    assert calls == []
    cfg = SolverConfig(n=CLUSTERED.n)
    assert solve(get_problem("ex1-log"), cfg).final_residual <= cfg.newton_tol
    assert calls == [1]


def test_assembly_rejects_nonfinite_kernel():
    bad = ProblemSpec(
        name="bad-kernel",
        dimension=1,
        lam=1.0,
        kernel=KernelSpec(
            kind="none",
            factor=lambda s, oms, x, omx: np.full(np.broadcast(s, x).shape, np.inf),
            dimension=1,
        ),
        nonlinearity=Nonlinearity.identity(1),
        forcing=lambda x: x,
    )
    with pytest.raises(AssemblyError, match="finite"):
        mhfie.solver._build(bad, SolverConfig(n=4, alpha=1.0))


def test_kernel_factor_receives_the_stored_complements():
    # at N=400 the quadrature node nearest 1 rounds to 1.0, so only the
    # rule's stored complement keeps ex2-sqrt's (1-s)^(-1/2) finite
    prob = get_problem("ex2-sqrt")
    rule_c, rule_q = _axis_rules(prob.default_alpha, MAX_N_1D)
    assert rule_q.nodes[-1] == 1.0
    theta = mhfie.solver._theta_matrix(prob.kernel, rule_q, rule_c)
    want = rule_q.nodes_complement[-1] ** -0.5
    assert np.all(theta[:, -1] == want)


def test_newton_driver_scalar_quadratic():
    # u = 1 + 0.1 u^2 has the root 5 (1 - sqrt(0.6))
    x, iters, history, scales, krylov = newton_driver(
        lambda u: u - 1.0 - 0.1 * u * u,
        lambda u: np.array([[1.0 - 0.2 * float(u[0])]]),
        0.0,
        tol=1e-12,
    )
    assert x[0] == pytest.approx(5.0 * (1.0 - math.sqrt(0.6)), rel=1e-12)
    assert iters <= 6
    assert history[-1] <= 1e-12
    assert all(a > b for a, b in zip(history, history[1:]))
    assert scales == [1.0] * iters
    assert krylov == []


def test_newton_driver_linear_residual_one_step():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
    b = rng.standard_normal(4)
    x, iters, *_ = newton_driver(lambda u: a @ u - b, lambda u: a, np.zeros(4))
    np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-12)
    assert iters == 1


def test_newton_driver_reports_nonconvergence():
    # u^2 + 1 has no real root; the damped iteration must stall and hand
    # back its best iterate with a monotone residual history
    with pytest.raises(NonConvergenceError) as info:
        newton_driver(
            lambda u: u * u + 1.0,
            lambda u: np.array([[2.0 * float(u[0])]]),
            0.9,
            max_iter=25,
        )
    err = info.value
    assert err.best is not None and np.all(np.isfinite(err.best))
    assert len(err.history) >= 2
    assert all(a > b for a, b in zip(err.history, err.history[1:]))
    assert err.history[-1] >= 1.0


def test_newton_route_matches_direct_linear_solve():
    # a linear equation is solved by one full Newton step, which agrees with
    # a direct solve of (lam I - W E) u = g
    for name in ("ex1-log", "ex1-alg", "ex2-sqrt"):
        prob = get_problem(name)
        for method in ("mhf", "smoothed"):
            for n in (8, 32, 80):
                cfg = SolverConfig(n=n, alpha=prob.default_alpha, method=method)
                disc = mhfie.solver._build(prob, cfg)
                (w,), (e,) = disc.w, disc.e
                direct = np.linalg.solve(disc.lam * np.eye(n + 1) - w @ e, disc.g)
                sol = solve(prob, cfg)
                np.testing.assert_allclose(sol.node_values, direct, rtol=0.0, atol=1e-12)
                assert sol.newton_iters == 1
                assert sol.step_scales == (1.0,)
                assert sol.final_residual == sol.residual_history[-1] <= cfg.newton_tol


def test_dense_newton_step_failures_are_typed():
    # a pivot that overflows the step, and an exactly singular Jacobian
    with pytest.raises(SolverError, match="not finite"):
        newton_driver(lambda u: u - 1.0, lambda u: np.array([[1e-320]]), np.zeros(1))
    with pytest.raises(SolverError, match="reciprocal condition estimate"):
        newton_driver(lambda u: u - 1.0, lambda u: np.array([[0.0]]), np.zeros(1))
    with pytest.raises(SolverError, match="reciprocal condition estimate 0.00e"):
        newton_driver(lambda u: u - 1.0, lambda u: np.ones((2, 2)), np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_jacobian_is_not_reported_as_singular(bad):
    jac = np.array([[2.0, 0.0], [bad, 1.0]])
    with pytest.raises(SolverError, match="Newton iteration 1: Jacobian is not finite") as info:
        newton_driver(lambda u: u - 1.0, lambda u: jac, np.zeros(2))
    assert "singular" not in str(info.value)


def _gmres_system(size: int = 200):
    """A seeded nonsymmetric system with eigenvalues near a spread diagonal."""
    rng = np.random.default_rng(7)
    diag = np.linspace(1.0, 4.0, size)
    a = np.diag(diag) + 0.3 * rng.standard_normal((size, size)) / math.sqrt(size)
    return a, diag, rng.standard_normal(size)


@pytest.mark.parametrize("preconditioned", [False, True])
@pytest.mark.parametrize("restart", [5, 30])
def test_gmres_matches_a_direct_solve(monkeypatch, preconditioned, restart):
    a, diag, rhs = _gmres_system()
    monkeypatch.setattr(mhfie.solver, "GMRES_RESTART", restart)
    monkeypatch.setattr(mhfie.solver, "GMRES_MAX_CYCLES", 40)
    # a residual target 100 times below the error bound asserted; the
    # condition number here is 4.3
    monkeypatch.setattr(mhfie.solver, "GMRES_RTOL", 1e-12)
    calls, preconds = [], []

    def matvec(v):
        calls.append(1)
        return a @ v

    def precond(r):
        preconds.append(1)
        return r / diag if preconditioned else r

    gmres, returned = mhfie.solver._gmres, []
    monkeypatch.setattr(mhfie.solver, "_gmres",
                        lambda *args: returned.append(gmres(*args)) or returned[-1])
    step = mhfie.solver._gmres_step(SolverConfig(n=8, newton_tol=1e-12))
    v, iters = step(mhfie.solver._Operator(matvec, precond), rhs)
    direct = np.linalg.solve(a, rhs)
    assert np.linalg.norm(v - direct) <= 1e-10 * np.linalg.norm(direct)
    # the residual _gmres returns, formed from the kept images, is the one a
    # fresh product of the operator gives at the returned iterate
    ((_, _, residual),) = returned
    assert abs(residual - np.linalg.norm(rhs - a @ v)) <= 1e-12 * np.linalg.norm(rhs)
    # one product per iteration and none more: a cycle's true residual comes
    # from the kept images of its preconditioned vectors
    assert len(calls) == iters
    # the preconditioned vectors are kept: a cycle's update applies no
    # preconditioner of its own
    assert len(preconds) == iters
    if restart == 5:
        # restarted cycles run full, so a restart shows as more iterations
        # than its length
        assert iters > restart


def test_gmres_on_a_singular_operator_raises_linalg_error():
    # the breakdown newton_driver reports as a singular Jacobian
    rhs = np.ones(4)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        mhfie.solver._gmres(lambda v: 0.0 * v, lambda r: r, rhs, 1e-12)
    step = mhfie.solver._gmres_step(SolverConfig(n=8))
    with pytest.raises(SolverError, match="singular Jacobian at iteration 1"):
        newton_driver(lambda u: u - 1.0, lambda u: mhfie.solver._Operator(
            lambda v: 0.0 * v, lambda r: r), np.zeros(4), solve_step=step)


def test_solve_dispatch_and_method_agreement():
    prob = get_problem("ex1-alg")
    cfg = SolverConfig(n=12, alpha=0.7)
    a = solve(prob, cfg)
    b = solve(prob, replace(cfg, method="smoothed"))
    assert a.config.method == "mhf"
    assert b.config.method == "smoothed"
    np.testing.assert_allclose(a.node_values, b.node_values, atol=1e-11)


def test_two_dimensional_solution_factors():
    sol = solve(get_problem("ex3-alg"), SolverConfig(n=8, alpha=0.5))
    p = lambda x: np.sqrt(x * (1.0 - x))
    np.testing.assert_allclose(
        sol.node_values, np.outer(p(sol.nodes_x), p(sol.nodes_y)), atol=1e-10
    )
    assert sol.node_values.shape == (9, 9)
    assert sol.nodes_y is not None
    assert sol.newton_iters <= 12


def test_two_dimensional_error_norms_infer_the_degree():
    prob = get_problem("ex3-alg")
    sol = solve(prob, SolverConfig(n=8, alpha=0.5))
    assert sol.interpolant.degree == 8
    given = error_norms(sol.interpolant, prob.exact_solution, (0.5, 0.5), dim=2, degree=8)
    assert error_norms(sol.interpolant, prob.exact_solution, (0.5, 0.5), dim=2) == given


def test_two_dimensional_weights_are_kronecker():
    w2 = np.kron(*mhfie.solver._build(get_problem("ex3-alg"), SolverConfig(n=4, alpha=0.5)).w)
    axis = ProblemSpec(
        name="axis",
        dimension=1,
        lam=10.0,
        kernel=KernelSpec(kind="algebraic", mu=(0.5,), dimension=1),
        nonlinearity=Nonlinearity.identity(1),
        forcing=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )
    (w1,) = mhfie.solver._build(axis, SolverConfig(n=4, alpha=0.5)).w
    rng = np.random.default_rng(7)
    a = rng.standard_normal(6)
    b = rng.standard_normal(6)
    np.testing.assert_allclose(
        w2 @ np.kron(a, b), np.kron(w1 @ a, w1 @ b), rtol=1e-12
    )


def test_solution_metadata_and_interpolant():
    sol = solve(get_problem("ex2-sqrt"), SolverConfig(n=12, alpha=0.5))
    assert sol.problem_name == "ex2-sqrt"
    assert sol.nodes_y is None
    assert sol.final_residual <= sol.config.newton_tol
    assert isinstance(sol.residual_history, tuple)
    # barycentric evaluation reproduces node values exactly
    assert sol.interpolant.eval(sol.nodes_x[5]) == sol.node_values[5]


def test_interpolant_accurate_in_the_interior():
    sol = solve(get_problem("ex1-alg"), SolverConfig(n=32, alpha=0.5))
    got = sol.interpolant.eval(0.3)
    assert abs(got - math.sqrt(0.3 * 0.7)) < 1e-2


def test_zero_smooth_factor_reduces_to_scaled_forcing():
    prob = ProblemSpec(
        name="zeroed",
        dimension=1,
        lam=2.0,
        kernel=KernelSpec(
            kind="log",
            factor=lambda s, oms, x, omx: np.zeros(np.broadcast(s, x).shape),
            dimension=1,
        ),
        nonlinearity=Nonlinearity.identity(1),
        forcing=lambda x: 1.0 + x,
    )
    sol = solve(prob, SolverConfig(n=10, alpha=0.8))
    np.testing.assert_allclose(
        sol.node_values, (1.0 + sol.nodes_x) / 2.0, rtol=1e-14
    )


def test_zero_forcing_gives_zero_solution():
    prob = ProblemSpec(
        name="zero-forcing",
        dimension=1,
        lam=3.0,
        kernel=KernelSpec(kind="log", dimension=1),
        nonlinearity=Nonlinearity.square(1),
        forcing=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )
    sol = solve(prob, SolverConfig(n=10, alpha=0.8))
    assert np.max(np.abs(sol.node_values)) == 0.0
    assert sol.newton_iters == 0


def test_verify_residual_is_independent_and_sharp():
    prob = get_problem("ex1-log")
    cfg = SolverConfig(n=16, alpha=0.5)
    sol = solve(prob, cfg)
    r_sol = verify_residual(prob, cfg, sol)
    r_arr = verify_residual(prob, cfg, sol.node_values)
    assert r_sol == r_arr
    assert r_sol <= cfg.newton_tol
    assert verify_residual(prob, cfg, sol.node_values + 1e-3) > 1e-4


def _read_only_arrays(obj) -> list:
    """Every array a memo value or rule holds, through nested tuples and
    dataclasses."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        fields = obj
    elif hasattr(obj, "__dataclass_fields__"):
        fields = [getattr(obj, name) for name in obj.__dataclass_fields__]
    else:
        return []
    return [arr for f in fields for arr in _read_only_arrays(f)]


def _solve_and_norms(prob, cfg):
    sol = solve(prob, cfg)
    norms = error_norms(sol.interpolant, prob.exact_solution, sol.config.alpha,
                        dim=prob.dimension, degree=cfg.n)
    return sol, norms


def _clear_memos():
    memo.clear()
    mhfie.hermite._memoized_rule.cache_clear()
    mhfie.mhf.mhf_gauss_rule.cache_clear()


@pytest.fixture
def fresh_memos():
    """Empty memos, emptied again after a test that poisons what they keep."""
    _clear_memos()
    yield
    _clear_memos()


def _kept_factors(cfg: SolverConfig) -> dict:
    """The kernel factors W the memo keeps for the discretization and route
    of cfg, by memo key."""
    return {key: w for key, w in memo.entries.items()
            if key[0] == "kernel" and key[1:4] == (cfg.alpha, cfg.n, cfg.method)}


def _kept(tag: str) -> dict:
    """The memo's entries under one key tag, by key."""
    return {key: value for key, value in memo.entries.items() if key[0] == tag}


def _assert_charged_what_it_holds() -> None:
    """Every memo entry is read-only and charged exactly the nbytes of the
    arrays it holds, and the memo exactly their sum."""
    for value in memo.entries.values():
        held = _read_only_arrays(value)
        assert held and value.nbytes == sum(arr.nbytes for arr in held)
        assert not any(arr.flags.writeable for arr in held)
    assert memo.nbytes == sum(value.nbytes for value in memo.entries.values()) <= memo.cap


@pytest.mark.parametrize("method", ["mhf", "smoothed"])
@pytest.mark.parametrize("name, n", [("ex1-log", 24), ("ex1-alg", 24), ("ex2-sqrt", 24),
                                     ("ex3-alg", 8), ("ex3-log", 16)])
def test_memoized_plans_and_rules_are_bitwise_identical(name, n, method, monkeypatch):
    prob = get_problem(name)
    cfg = SolverConfig(n=n, alpha=prob.default_alpha, method=method)
    _clear_memos()
    cold, cold_norms = _solve_and_norms(prob, cfg)

    def no_rebuild(*args):
        raise AssertionError(f"rebuilt from {len(args)} arguments")

    # no Hermite rule is built and no rule is mapped: both rule memos hit;
    # every kernel, one with a factor (ex2-sqrt) included, keeps its W, the
    # discretization its E and basis and, in 2D, the kernel its eigenbasis
    for owner, attr in ((mhfie.hermite, "_build_rule"), (mhfie.mhf, "_logistic_pair"),
                        (mhfie.solver, "_theta_matrix"), (mhfie.solver, "_gauss_cardinal_rows"),
                        (mhfie.approx, "_bary_weights"), (np.linalg, "eig")):
        monkeypatch.setattr(owner, attr, no_rebuild)
    warm, warm_norms = _solve_and_norms(prob, cfg)
    assert np.array_equal(warm.node_values, cold.node_values)
    assert warm.final_residual == cold.final_residual
    assert warm.krylov_iters == cold.krylov_iters
    assert warm_norms == cold_norms
    (key,) = _kept_factors(cfg)
    kept = [memo.entries[k] for k in (key, ("cardinals", n), ("basis", cfg.alpha, n))]
    eigen = _kept("eigen")
    assert list(eigen) == ([] if prob.dimension == 1 else [("eigen", *key[1:])])
    rules = [mhf_gauss_rule(MhfBasis(cfg.alpha, d)) for d in (n, n + 1, 2 * n + 16)]
    arrays = [arr for value in kept + list(eigen.values()) + rules
              for arr in _read_only_arrays(value)]
    assert len(arrays) == (1 + 1 + 3 + 3 * 7) + (0 if prob.dimension == 1 else 5)
    assert not any(arr.flags.writeable for arr in arrays)


@pytest.mark.parametrize("name", ["ex1-log", "ex1-alg", "ex2-sqrt", "ex3-log", "ex3-alg"])
def test_a_config_without_alpha_solves_at_the_problems(name, fresh_memos):
    # solve and verify_residual resolve alpha before they build: the
    # resolved config is the solution's, the results are bitwise those of
    # the explicit alpha, and every memo key that names an alpha names the
    # problem's, never None
    prob = get_problem(name)
    implicit, explicit = SolverConfig(n=16), SolverConfig(n=16, alpha=prob.default_alpha)
    first = solve(prob, implicit)
    keys = list(memo.entries)
    second = solve(prob, explicit)
    assert list(memo.entries) == keys
    assert all(key[1] == prob.default_alpha for key in keys if key[0] != "cardinals")
    assert first.config == second.config and first.config.alpha == prob.default_alpha
    assert np.array_equal(first.node_values, second.node_values)
    assert first.residual_history == second.residual_history
    assert first.krylov_iters == second.krylov_iters
    assert verify_residual(prob, implicit, first) == verify_residual(prob, explicit, first)


def test_problem_instances_share_one_kept_kernel_factor(fresh_memos):
    # ex2-sqrt's factor is one module-level function, so two instances (one
    # per forcing, say) leave one kernel entry per (alpha, n, method)
    first, second = get_problem("ex2-sqrt"), get_problem("ex2-sqrt")
    for method in ("mhf", "smoothed"):
        for n in (8, 16):
            cfg = SolverConfig(n=n, alpha=first.default_alpha, method=method)
            assert np.array_equal(solve(first, cfg).node_values,
                                  solve(second, cfg).node_values)
            assert len(_kept_factors(cfg)) == 1
    assert sum(key[0] == "kernel" for key in memo.entries) == 4


def test_memos_hold_at_most_their_bounds():
    # solves and error norms up a 1D ladder to MAX_N_1D and a 2D ladder to
    # MAX_N_2D keep E, bases, kernel factors, inverses, eigenbases and
    # Cauchy terms in the one memo, within its cap, each charged exactly
    # the bytes it holds; the rule memos keep their counts
    _clear_memos()
    # alpha 3 keeps the nodes at MAX_N_1D apart; ex3-alg solves at its default
    ladders = [("ex1-log", 3.0, list(range(40, MAX_N_1D, 60)) + [MAX_N_1D]),
               ("ex3-alg", 0.5, list(range(8, MAX_N_2D, 24)) + [MAX_N_2D])]
    for name, alpha, sizes in ladders:
        for n in sizes:
            _solve_and_norms(get_problem(name), SolverConfig(n=n, alpha=alpha))
            _assert_charged_what_it_holds()
    # the 1D ladder alone overflows the cap: its first entries are gone
    assert ("cardinals", 40) not in memo.entries
    assert {key[0] for key in memo.entries} == {"cardinals", "basis", "kernel", "inverse",
                                                "eigen", "terms"}
    for key, value in _kept("inverse").items():
        # a 1D Jacobian inverse, charged its 8 m^2 bytes, under its kernel
        # factor's key plus (lam, psi')
        m = key[2] + 1
        assert value.shape == (m, m) and value.nbytes == 8 * m * m
    prob = get_problem("ex1-log")
    sol = solve(prob, SolverConfig(n=4))
    rules = (mhfie.hermite._memoized_rule, mhfie.mhf.mhf_gauss_rule)
    for degree in range(mhfie.hermite._RULE_MEMO_SIZE + 4):
        error_norms(sol.interpolant, prob.exact_solution, 0.5, degree=degree)
        assert all(r.cache_info().currsize <= mhfie.hermite._RULE_MEMO_SIZE for r in rules)
    assert all(r.cache_info().currsize == mhfie.hermite._RULE_MEMO_SIZE for r in rules)


def test_a_one_dimensional_ladder_keeps_no_eigenbasis(fresh_memos):
    # only a 2D solve builds an eigenbasis, and every entry is charged
    # exactly the arrays it holds: nothing is charged for what may be built
    for name in ("ex1-log", "ex2-sqrt"):
        prob = get_problem(name)
        for n in range(16, 81, 16):
            for method in ("mhf", "smoothed"):
                _solve_and_norms(prob, SolverConfig(n=n, method=method))
    assert _kept("eigen") == {} and len(_kept("kernel")) == 20
    _assert_charged_what_it_holds()


def test_each_kernel_keeps_one_eigenbasis_charged_its_own_bytes(fresh_memos):
    # one "eigen" entry per distinct kernel key: ex3-alg's axes share one,
    # identity-2d's exponents 0.3 and 0.6 make two.  Real eigenpairs are
    # charged real bytes and the complex mu = 0.6 axis complex ones:
    # l, Q, Q^-1, Q^-1 W and E Q hold m (4m + 3) numbers
    n, m = 16, 17
    for prob in (get_problem("ex3-alg"), _identity_2d()):
        solve(prob, SolverConfig(n=n, alpha=0.5))
    eigen = _kept("eigen")
    assert sorted(key[5] for key in eigen) == [0.3, 0.5, 0.6]
    assert {key[1:] for key in eigen} == {key[1:] for key in _kept("kernel")}
    for key, value in eigen.items():
        size = 16 if key[5] == 0.6 else 8
        assert np.iscomplexobj(value.values) == (key[5] == 0.6)
        assert value.nbytes == size * m * (4 * m + 3)
    _assert_charged_what_it_holds()


def test_one_cardinal_matrix_serves_every_alpha(fresh_memos):
    # E is built in z from the Gauss-Hermite rules of degrees n and n+1, so
    # solves at two alphas share one entry, bitwise the E of either alpha's
    # rules and of the Hermite rules alone
    n = 24
    for alpha in (0.5, 0.8):
        solve(get_problem("ex2-sqrt"), SolverConfig(n=n, alpha=alpha))
    assert list(_kept("cardinals")) == [("cardinals", n)]
    e = memo.entries[("cardinals", n)]
    for alpha in (0.5, 0.8):
        assert np.array_equal(mhfie.solver._cardinals(*_axis_rules(alpha, n)), e)
    hermite = [mhfie.hermite.hermite_gauss_rule(d) for d in (n, n + 1)]
    assert e.tobytes() == _gauss_cardinal_rows(*hermite).tobytes()


@pytest.mark.parametrize("method", ["mhf", "smoothed"])
@pytest.mark.parametrize("name", ["ex1-log", "ex1-alg", "ex2-sqrt"])
def test_repeated_1d_solve_factors_nothing(name, method, monkeypatch, fresh_memos):
    # the first solve at a key keeps the inverse of its Jacobian
    # lam I - psi' K; a second solve neither solves nor inverts and takes the
    # very steps of the first
    prob = get_problem(name)
    cfg = SolverConfig(n=24, alpha=prob.default_alpha, method=method)
    cold = solve(prob, cfg)
    (key,) = _kept("inverse")
    assert key == ("inverse", *_kept_factors(cfg).popitem()[0][1:], prob.lam, 1.0)

    def no_factor(*args):
        raise AssertionError("factored again")

    monkeypatch.setattr(np.linalg, "solve", no_factor)
    monkeypatch.setattr(np.linalg, "inv", no_factor)
    warm = solve(prob, cfg)
    assert np.array_equal(warm.node_values, cold.node_values)
    assert warm.residual_history == cold.residual_history
    assert list(_kept("inverse")) == [key]


@pytest.mark.parametrize("name", ["ex1-log", "ex2-sqrt"])
def test_poisoned_kept_inverse_sets_only_the_newton_count(name, fresh_memos):
    # a wrong kept inverse makes each step inexact; the damped Newton
    # iteration still reaches the tolerance, at the same answer, and the
    # certificate, which builds no inverse, agrees
    prob = get_problem(name)
    cfg = SolverConfig(n=24)
    clean = solve(prob, cfg)
    assert clean.newton_iters == 1
    (key,) = _kept("inverse")
    memo.entries[key] = memo.entries[key] * (1.0 + 1e-3)
    poisoned = solve(prob, cfg)
    assert poisoned.newton_iters > clean.newton_iters
    assert np.max(np.abs(poisoned.node_values - clean.node_values)) <= cfg.newton_tol
    assert poisoned.final_residual <= cfg.newton_tol
    assert verify_residual(prob, cfg, poisoned) <= cfg.newton_tol


@pytest.mark.parametrize("k, match", [
    ("singular", "Newton iteration 1: Jacobian is singular .reciprocal condition estimate"),
    ("nan", "Newton iteration 1: Jacobian is not finite"),
])
def test_kept_inverse_failures_are_typed(k, match, fresh_memos):
    # the inverse is built with the dense step's checks and messages, and
    # one that fails is not kept.  The kept W = lam [I 0] and E = [I; 0]
    # make lam I - 1 W E exactly zero, and one NaN in W makes it non-finite;
    # the forcing is given, so the residual -g is not zero
    prob = replace(get_problem("ex2-sqrt"), exact_solution=None, exact_solution_c=None)
    cfg = SolverConfig(n=12, alpha=prob.default_alpha)
    m = cfg.n + 1
    w, e = prob.lam * np.eye(m, m + 1), np.eye(m + 1, m)
    if k == "nan":
        w[3, 5] = math.nan
    memo.get(mhfie.solver._kernel_key(prob.kernel, 0, cfg), lambda: w)
    memo.get(("cardinals", cfg.n), lambda: e)
    for _ in range(2):
        with pytest.raises(SolverError, match=match):
            solve(prob, cfg)
    assert _kept("inverse") == {}


@pytest.mark.parametrize("name, n", [("ex1-log", 16), ("ex3-alg", 8)])
def test_solve_certificate_and_norms_build_each_rule_once(name, n, monkeypatch):
    # the solve, the certificate and the error norms build and map only the
    # distinct degrees n, n+1 and 2n+16; every other mapped-rule lookup (the
    # certificate's two, and in 2D the second axis's norm rule) hits the
    # memo, and no Gauss-Hermite lookup is made but for a mapped rule's miss
    prob = get_problem(name)
    cfg = SolverConfig(n=n)
    built = []
    build = mhfie.hermite._build_rule
    monkeypatch.setattr(mhfie.hermite, "_build_rule",
                        lambda degree: built.append(degree) or build(degree))
    _clear_memos()
    sol, _ = _solve_and_norms(prob, cfg)
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
    assert sorted(built) == [n, n + 1, 2 * n + 16]
    info = mhfie.hermite._memoized_rule.cache_info()
    assert (info.misses, info.hits) == (3, 0)
    info = mhfie.mhf.mhf_gauss_rule.cache_info()
    assert (info.misses, info.hits) == (3, 1 + prob.dimension)


def test_warm_verify_residual_maps_no_rule_and_builds_its_own_factors(monkeypatch,
                                                                     fresh_memos):
    # the certificate reads the solve's mapped rules and rebuilds E and the
    # kernel values once each, into its own dict
    prob = get_problem("ex1-log")
    cfg = SolverConfig(n=16)
    sol = solve(prob, cfg)
    calls = []

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or fn(*args))

    counted(mhfie.mhf, "_logistic_pair")
    counted(mhfie.solver, "_gauss_cardinal_rows")
    counted(mhfie.solver, "_theta_matrix")
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
    assert sorted(calls) == ["_gauss_cardinal_rows", "_theta_matrix"]


@pytest.mark.parametrize("dim", [1, 2])
def test_verify_residual_rejects_node_values_of_the_wrong_length(dim, monkeypatch):
    # the count is checked before anything is built
    prob = get_problem("ex1-log" if dim == 1 else "ex3-alg")
    cfg = SolverConfig(n=8, alpha=0.5)

    def no_build(*args, **kwargs):
        raise AssertionError("built")

    monkeypatch.setattr(mhfie.solver, "_build", no_build)
    for size in (5, 9**dim + 1):
        with pytest.raises(ValueError, match=f"expected {9**dim} node values for n=8 "
                                             f"in {dim}D, got {size}"):
            verify_residual(prob, cfg, np.zeros(size))


@pytest.mark.parametrize("dim", [1, 2])
def test_verify_residual_reads_no_memo(dim, fresh_memos):
    # a memo that hands out a perturbed E makes solve solve another system;
    # the certificate, built afresh, must see the difference.  The forcing is
    # given, not synthesized, so it does not follow the perturbation.
    if dim == 1:
        prob = replace(get_problem("ex2-sqrt"), exact_solution=None,
                       exact_solution_c=None)
    else:
        prob = _identity_2d()
    cfg = SolverConfig(n=16 if dim == 1 else 8, alpha=0.5)
    e = mhfie.solver._cardinals(*_axis_rules(cfg.alpha, cfg.n)) * (1.0 + 1e-6)
    memo.get(("cardinals", cfg.n), lambda: e)
    sol = solve(prob, cfg)
    assert sol.final_residual <= cfg.newton_tol
    assert verify_residual(prob, cfg, sol) > cfg.newton_tol


@pytest.mark.parametrize("poison", ["w", "eigenpairs"])
def test_verify_residual_reads_no_kept_kernel_factor(poison, fresh_memos):
    # a wrong kept W or eigenbasis changes what solve does; the certificate
    # builds its own factors and reads the same residual.  identity-2d has
    # two kernel factors (mu 0.3 and 0.6) and a given forcing.
    prob = _identity_2d()
    cfg = SolverConfig(n=8, alpha=0.5)
    sol = solve(prob, cfg)
    clean = verify_residual(prob, cfg, sol)
    kept = _kept_factors(cfg)
    assert len(kept) == 2
    for key, w in kept.items():
        if poison == "w":
            memo.entries[key] = w * (1.0 + 1e-6)
        else:
            eigen = memo.entries[("eigen", *key[1:])]
            memo.entries[("eigen", *key[1:])] = eigen._replace(values=1.5 * eigen.values)
    assert verify_residual(prob, cfg, sol) == clean
    poisoned = solve(prob, cfg)
    if poison == "w":
        assert verify_residual(prob, cfg, poisoned) > cfg.newton_tol
    else:
        # the preconditioner is no longer exact, so the solve read the poison;
        # it sets only the Krylov count, not the answer
        assert sol.krylov_iters == (1,) * sol.newton_iters
        assert poisoned.krylov_iters != sol.krylov_iters
        assert verify_residual(prob, cfg, poisoned) <= cfg.newton_tol


@pytest.mark.parametrize("name", ["ex1-log", "ex2-sqrt", "ex3-alg", "identity-2d"])
def test_verify_residual_writes_no_memo(name):
    # the certificate leaves the memo's keys, their order, the values and
    # the byte count as the solve and its error norms left them, also at a
    # discretization the memo has never seen
    prob = _identity_2d() if name == "identity-2d" else get_problem(name)
    cfg = SolverConfig(n=8, alpha=0.5)
    _clear_memos()
    sol = solve(prob, cfg)
    error_norms(sol.interpolant, lambda *x: 0.0 * sum(x),
                0.5 if prob.dimension == 1 else (0.5, 0.5), dim=prob.dimension, degree=cfg.n)
    entries, nbytes = list(memo.entries.items()), memo.nbytes
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
    verify_residual(prob, SolverConfig(n=6, alpha=0.7), np.zeros(7**prob.dimension))
    assert [(key, id(value)) for key, value in memo.entries.items()] == [
        (key, id(value)) for key, value in entries]
    assert memo.nbytes == nbytes


@pytest.mark.parametrize("name, eigs", [
    ("ex3-log", 1), ("ex3-alg", 1), ("identity-2d", 2),
])
def test_each_axis_work_is_done_once(name, eigs, monkeypatch):
    # both axes share the rules and E and, in the error norms, one cardinal matrix;
    # axes that share a singular factor share one kernel factor and one
    # eigendecomposition, and a second exponent makes two.  A repeated solve
    # diagonalizes nothing.
    calls = {"eig": 0, "cardinal": 0}
    eig, cardinal = np.linalg.eig, mhfie.approx.cardinal_matrix

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "eig", counted("eig", eig))
    monkeypatch.setattr(mhfie.approx, "cardinal_matrix", counted("cardinal", cardinal))
    prob = _identity_2d() if name == "identity-2d" else get_problem(name)
    cfg = SolverConfig(n=16, alpha=0.5)
    _clear_memos()
    sol = solve(prob, cfg)
    disc = mhfie.solver._build(prob, cfg)
    assert (disc.w[0] is disc.w[1]) == (eigs == 1)
    assert calls["eig"] == eigs
    error_norms(sol.interpolant, lambda x, y: 0.0 * x * y, (cfg.alpha, cfg.alpha),
                dim=2, degree=cfg.n)
    assert calls["cardinal"] == 2
    again = solve(prob, cfg)
    assert calls["eig"] == eigs
    assert np.array_equal(again.node_values, sol.node_values)


def test_inexact_newton_steps_cut_krylov_iterations():
    # each 2D step is solved only to the forcing min(0.1, 0.01 |F|_inf)
    # relative: the ladder took 212 Krylov iterations with steps solved to
    # GMRES_RTOL, in the same Newton iterations as now
    newton = {"ex3-log": 4, "ex3-alg": 3}
    total = 0
    for name, iters in newton.items():
        prob = get_problem(name)
        for n in (8, 16, 24, 32, 48, 64, 80):
            sol = solve(prob, SolverConfig(n=n))
            assert sol.newton_iters == iters
            assert sol.final_residual <= 1e-13
            total += sum(sol.krylov_iters)
    assert total <= 140


def test_krylov_counts_on_the_ex3_ladder():
    # the GMRES iterations of every Newton step on the mhf route at the
    # default alpha, with GMRES in the eigen-coordinates; the smoothed route
    # builds the same system and takes the same counts
    ladder = (8, 16, 24, 32, 48, 64, 80)
    want = {
        "ex3-log": {n: (1, 2, 4, 2) if n <= 32 else (1, 2, 4, 3) for n in ladder},
        "ex3-alg": {n: (2, 3, 3) if n == 8 else (2, 3, 5) if n == 80 else (2, 3, 4)
                    for n in ladder},
    }
    for name, counts in want.items():
        prob = get_problem(name)
        for n, steps in counts.items():
            for method in ("mhf", "smoothed"):
                cfg = SolverConfig(n=n, method=method)
                assert solve(prob, cfg).krylov_iters == steps, (name, n, method)


@pytest.mark.parametrize("name", ["ex1-log", "ex3-log", "ex3-alg", "identity-2d"])
def test_jacobian_reads_the_residuals_quadrature_values(name, monkeypatch):
    # Newton evaluates the residual at an iterate before the Jacobian there,
    # so no Jacobian of a solve applies E: every Kronecker apply it would
    # make goes through _kron_apply
    prob = _identity_2d() if name == "identity-2d" else get_problem(name)
    cfg = SolverConfig(n=12, alpha=0.5)
    applies, jacobians = [], []
    kron_apply, driver = mhfie.solver._kron_apply, mhfie.solver.newton_driver

    def counted(factors, v):
        applies.append(factors)
        return kron_apply(factors, v)

    def traced(residual, jacobian, x0, **kwargs):
        def checked(u):
            before = len(applies)
            jac = jacobian(u)
            jacobians.append(len(applies) - before)
            return jac

        return driver(residual, checked, x0, **kwargs)

    monkeypatch.setattr(mhfie.solver, "_kron_apply", counted)
    monkeypatch.setattr(mhfie.solver, "newton_driver", traced)
    sol = solve(prob, cfg)
    assert jacobians == [0] * sol.newton_iters and sol.newton_iters >= 1
    # the slot is keyed by the array: an equal copy gets its own E u
    disc = mhfie.solver._build(prob, cfg)
    quad_values = mhfie.solver._quad_values(disc)
    residual = mhfie.solver._residual_fn(disc, prob, quad_values)
    jacobian = mhfie.solver._jacobian_fn(disc, prob, quad_values)
    u = disc.g / disc.lam
    residual(u)
    before = len(applies)
    jacobian(u)
    assert len(applies) == before
    jacobian(u.copy())
    assert applies[before:] == [disc.kron_e]


def test_kept_kernel_factors_hold_at_most_their_bound():
    # the memo is least recently used by total bytes: a hit renews an entry,
    # the oldest go first, and a value above the cap is returned but neither
    # kept nor makes room for itself
    kept = BoundedMemo(cap=100)
    a = kept.get("a", lambda: np.zeros(5))
    kept.get("b", lambda: np.zeros(5))
    assert kept.get("a", lambda: np.ones(5)) is a
    big = kept.get("big", lambda: np.zeros(13))
    assert big.nbytes > kept.cap
    assert list(kept.entries) == ["b", "a"] and kept.nbytes == 80
    kept.get("c", lambda: np.zeros(4))
    assert list(kept.entries) == ["a", "c"] and kept.nbytes == 72
    # a W and an E at MAX_N_1D each fit the cap, charged their own
    # 8 m (m + 1) bytes; an eigenbasis at MAX_N_2D, complex on the mu = 0.6
    # axis, is charged its own m (4m + 3) complex numbers
    kernel = KernelSpec(kind="algebraic", mu=(0.6,))
    for n in (MAX_N_1D, MAX_N_2D):
        rule_c, rule_q = _axis_rules(0.5 if n == MAX_N_2D else 2.0, n)
        w = mhfie.solver._kernel_matrix(kernel, 0, rule_q, rule_c, "mhf")
        e = mhfie.solver._cardinals(rule_c, rule_q)
        assert not w.flags.writeable and not e.flags.writeable
        assert w.nbytes == e.nbytes == 8 * (n + 1) * (n + 2) < memo.cap
    m = MAX_N_2D + 1
    eigen = mhfie.solver._eigenbasis(w, e)
    assert np.iscomplexobj(eigen.values)
    assert eigen.nbytes == sum(arr.nbytes for arr in eigen) == 16 * m * (4 * m + 3) < memo.cap


def test_kept_kernel_factors_stay_consistent_under_threads():
    # more threads than cores ask a memo for six kernel factors while it
    # keeps three: every factor returned is right, and the byte count
    # matches the entries, which a lost update would break
    kernels = [KernelSpec(kind="algebraic", mu=(0.1 * k,)) for k in range(1, 7)]
    rule_c, rule_q = _axis_rules(0.5, 32)

    def factor(k: int, get):
        return get(k, lambda: mhfie.solver._kernel_matrix(kernels[k], 0, rule_q, rule_c, "mhf"))

    expected = [factor(k, lambda _, build: build()) for k in range(len(kernels))]
    kept = BoundedMemo(3 * expected[0].nbytes)
    errors = []

    def work(offset: int) -> None:
        try:
            for i in range(300):
                k = (i + offset) % len(kernels)
                if not np.array_equal(factor(k, kept.get), expected[k]):
                    errors.append(k)
        except Exception as exc:  # recorded, so the main thread sees it
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(kept.entries) == 3
    assert kept.nbytes == sum(f.nbytes for f in kept.entries.values()) == 3 * expected[0].nbytes
    # a thread that lost the race to build a key gets the instance the
    # winner kept, so both share one array
    first = np.zeros(1)

    def lose_race():
        kept.get("race", lambda: first)
        return np.ones(1)

    assert kept.get("race", lose_race) is first


def test_verify_residual_builds_no_interpolation_basis(monkeypatch):
    # the certificate evaluates the residual only; the memo keeps the basis
    # that the first solution needed, under ("basis", alpha, n)
    calls = []
    weights = mhfie.approx._bary_weights
    monkeypatch.setattr(mhfie.approx, "_bary_weights",
                        lambda t: calls.append(t.size) or weights(t))
    memo.clear()
    prob = get_problem("ex1-alg")
    cfg = SolverConfig(n=12)
    sol = solve(prob, cfg)
    solve(prob, cfg)
    assert calls == [13]
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
    assert calls == [13]


def test_newton_driver_records_step_scales():
    # a full Newton step on arctan from 3 overshoots and grows the residual,
    # so the first step must be halved twice; later steps are full
    result = newton_driver(
        lambda u: np.arctan(u),
        lambda u: np.array([[1.0 / (1.0 + float(u[0]) ** 2)]]),
        3.0,
    )
    assert abs(result.x[0]) <= 1e-12
    assert result.step_scales[0] == 0.25
    assert result.step_scales[1:] == [1.0] * (result.iters - 1)
    assert len(result.history) == result.iters + 1
    assert result.krylov_iters == []


def test_solution_records_newton_steps():
    one = solve(
        ProblemSpec(
            name="square-1d",
            dimension=1,
            lam=4.0,
            kernel=KernelSpec(kind="log", dimension=1),
            nonlinearity=Nonlinearity.square(1),
            forcing=lambda x: 1.0 + x,
        ),
        SolverConfig(n=10, alpha=0.8),
    )
    assert one.newton_iters >= 2
    assert one.step_scales == (1.0,) * one.newton_iters
    assert one.krylov_iters == ()
    two = solve(get_problem("ex3-alg"), SolverConfig(n=8, alpha=0.5))
    assert len(two.step_scales) == len(two.krylov_iters) == two.newton_iters
    assert all(1 <= k <= 20 for k in two.krylov_iters)


def _identity_2d() -> ProblemSpec:
    return ProblemSpec(
        name="identity-2d",
        dimension=2,
        lam=3.0,
        kernel=KernelSpec(kind="algebraic", mu=(0.3, 0.6), dimension=2),
        nonlinearity=Nonlinearity.identity(2),
        forcing=lambda x, y: np.cos(x) * (1.0 + y),
    )


def _dense_newton(problem, config, disc):
    """Newton on the dense W and E = kron(Ex, Ey), as the solver did before."""
    w, e = np.kron(*disc.w), np.kron(*disc.e)
    s, t = (a.ravel() for a in np.broadcast_arrays(*disc.quad_coords))
    nl = problem.nonlinearity
    u = disc.g / disc.lam
    for _ in range(config.newton_max_iter):
        f = disc.lam * u - disc.g - w @ nl.psi(s, t, e @ u)
        if np.max(np.abs(f)) <= config.newton_tol:
            return u
        jac = disc.lam * np.eye(u.size) - (w * nl.dpsi_du(s, t, e @ u)[None, :]) @ e
        u = u + np.linalg.solve(jac, -f)
    raise AssertionError("dense Newton did not converge")


@pytest.mark.parametrize("method", ["mhf", "smoothed"])
@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("name", ["ex3-log", "ex3-alg", "identity-2d"])
def test_factored_two_dimensional_solve_matches_dense_newton(name, n, method):
    prob = _identity_2d() if name == "identity-2d" else get_problem(name)
    cfg = SolverConfig(n=n, alpha=0.5, method=method)
    disc = mhfie.solver._build(prob, cfg)
    for value in vars(disc).values():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                assert arr.size <= (n + 2) ** 2
    sol = solve(prob, cfg)
    np.testing.assert_allclose(
        sol.node_values.ravel(), _dense_newton(prob, cfg, disc),
        rtol=0.0, atol=10.0 * cfg.newton_tol,
    )
    if name == "identity-2d":
        # dpsi/du = 1 makes the fast-diagonalization preconditioner exact
        assert sol.krylov_iters == (1,) * sol.newton_iters


@pytest.mark.parametrize("method", ["mhf", "smoothed"])
def test_complex_eigenpairs_solve_in_the_real_view(method):
    # identity-2d's mu = 0.6 axis has complex eigenpairs from N = 16: GMRES
    # runs on the real view of the complex eigen-coordinates
    prob = _identity_2d()
    cfg = SolverConfig(n=16, alpha=0.5, method=method)
    disc = mhfie.solver._build(prob, cfg)
    assert any(np.iscomplexobj(mhfie.solver._eigenbasis(w, e).values)
               for w, e in zip(disc.w, disc.e))
    sol = solve(prob, cfg)
    np.testing.assert_allclose(
        sol.node_values.ravel(), _dense_newton(prob, cfg, disc),
        rtol=0.0, atol=10.0 * cfg.newton_tol,
    )
    assert sol.krylov_iters == (1,) * sol.newton_iters
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol


@pytest.mark.parametrize("name", ["ex3-log", "ex3-alg", "identity-2d"])
def test_each_krylov_iteration_makes_two_kronecker_applies(name, monkeypatch):
    # in the eigen-coordinates a Krylov iteration applies the Jacobian's two
    # Kronecker factors and an elementwise preconditioner; a Newton step adds
    # the transform of -F in and of the step out, and every residual
    # evaluation applies E and W, as does a synthesized forcing
    prob = _identity_2d() if name == "identity-2d" else get_problem(name)
    applies, inside = [], []
    kron_apply, gmres = mhfie.solver._kron_apply, mhfie.solver._gmres

    def traced(*args):
        before = len(applies)
        v, iters, residual = gmres(*args)
        inside.append((len(applies) - before, iters))
        return v, iters, residual

    monkeypatch.setattr(mhfie.solver, "_kron_apply",
                        lambda factors, v: applies.append(1) or kron_apply(factors, v))
    monkeypatch.setattr(mhfie.solver, "_gmres", traced)
    sol = solve(prob, SolverConfig(n=16, alpha=0.5))
    assert inside == [(2 * k, k) for k in sol.krylov_iters]
    residuals = 1 + sum(1 + round(-math.log2(s)) for s in sol.step_scales)
    residuals += prob.exact_solution is not None
    assert len(applies) == 2 * (sum(sol.krylov_iters) + sol.newton_iters + residuals)


@pytest.mark.parametrize("name", ["ex3-alg", "identity-2d"])
def test_poisoned_kept_eigenbasis_sets_only_the_counts(name, fresh_memos):
    # a wrong kept Q^-1 W makes the Jacobian inexact; the residual, in node
    # values, is not, so the damped Newton iteration still reaches the same
    # answer, and the certificate, which builds no eigenbasis, agrees
    prob = _identity_2d() if name == "identity-2d" else get_problem(name)
    cfg = SolverConfig(n=8, alpha=0.5)
    clean = solve(prob, cfg)
    for key in _kept_factors(cfg):
        eigen = memo.entries[("eigen", *key[1:])]
        memo.entries[("eigen", *key[1:])] = eigen._replace(w=eigen.w * (1.0 + 1e-3))
    poisoned = solve(prob, cfg)
    assert (poisoned.newton_iters, poisoned.krylov_iters) != (clean.newton_iters,
                                                             clean.krylov_iters)
    assert np.max(np.abs(poisoned.node_values - clean.node_values)) <= 10.0 * cfg.newton_tol
    assert poisoned.final_residual <= cfg.newton_tol
    assert verify_residual(prob, cfg, poisoned) <= cfg.newton_tol


def test_verify_residual_builds_no_eigenbasis(monkeypatch, fresh_memos):
    # the eigen-coordinates belong to the solve: with no eigendecomposition
    # to be had, the certificate still reads the residual
    prob = _identity_2d()
    cfg = SolverConfig(n=8, alpha=0.5)
    sol = solve(prob, cfg)
    _clear_memos()

    def no_eig(*args):
        raise AssertionError("eigendecomposition built")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_ill_conditioned_eigenvectors_are_refused_before_any_krylov_iteration(
        n, monkeypatch, fresh_memos):
    # theta = 1 (kind "none") makes each axis operator K rank one: from
    # N = 6 its eigenvectors are singular or near it (|Q|_1 |Q^-1|_1 reads
    # 4e17 at N = 8), which the solve refuses before GMRES runs
    prob = ProblemSpec(
        name="none-2d",
        dimension=2,
        lam=3.0,
        kernel=KernelSpec(kind="none", dimension=2),
        nonlinearity=Nonlinearity.identity(2),
        forcing=lambda x, y: np.cos(x) * (1.0 + y),
    )
    cfg = SolverConfig(n=n, alpha=0.5)
    if n <= 4:
        sol = solve(prob, cfg)
        assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
        return

    def no_gmres(*args):
        raise AssertionError("a Krylov iteration ran")

    monkeypatch.setattr(mhfie.solver, "_gmres", no_gmres)
    message = "preconditioner axis factor is not diagonalizable"
    if n == 8:
        message += r": eigenvector condition estimate .* exceeds 1e\+08"
    with pytest.raises(SolverError, match=message):
        solve(prob, cfg)


def test_one_dimensional_solve_at_max_n():
    # every 1D problem solves and reports at MAX_N_1D on both routes, where
    # nodes of both rules and of the norm rule round to x = 1
    for name in ("ex1-log", "ex1-alg", "ex2-sqrt"):
        prob = get_problem(name)
        for method in ("mhf", "smoothed"):
            cfg = SolverConfig(n=MAX_N_1D, alpha=0.5, method=method)
            sol = solve(prob, cfg)
            assert sol.node_values.shape == (MAX_N_1D + 1,)
            assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
            norms = error_norms(sol.interpolant, prob.exact_solution, cfg.alpha)
            assert math.isfinite(norms.err_l2chi) and norms.err_inf <= 1e-10
        with pytest.raises(ValueError, match="exceeds limit"):
            solve(prob, replace(cfg, n=MAX_N_1D + 1))


@pytest.mark.parametrize("method", ["mhf", "smoothed"])
@pytest.mark.parametrize("name", ["ex1-log", "ex1-alg"])
def test_symmetric_kernels_give_flip_symmetric_operators(name, method):
    # theta(s, x) = theta(1-s, 1-x) and the rules are symmetric, so
    # J K J = K for K = W E and J the flip; each kernel gap is taken from
    # the side of 1/2 where it keeps its digits, so that holds to rounding
    # where nodes near 1 round (|JKJ - K|_F / |K|_F read 2.1e-11 at N = 80
    # for ex1-alg with gaps from the nodes alone)
    prob = get_problem(name)
    for n in (16, 32, 63, 64, 80, 91, 92, 128, MAX_N_1D):
        disc = mhfie.solver._build(prob, SolverConfig(n=n, alpha=0.5, method=method),
                                   lambda key, build: build())
        k = disc.w[0] @ disc.e[0]
        assert np.linalg.norm(k[::-1, ::-1] - k) <= 1e-14 * np.linalg.norm(k), n


@pytest.mark.parametrize("name", ["ex1-log", "ex1-alg", "ex2-sqrt"])
def test_error_norms_count_only_nodes_below_one(name):
    # from N = 83 at alpha 0.5 nodes of the norm rule round to x = 1; they
    # carry no weight that counts and are left out
    prob = get_problem(name)
    for n in (83, 91):
        sol = solve(prob, SolverConfig(n=n))
        norms = error_norms(sol.interpolant, prob.exact_solution, sol.config.alpha)
        assert math.isfinite(norms.err_inf) and math.isfinite(norms.err_l2chi)
    # at alpha 0.1 and N = 16 those nodes hold 5.5e-8 of the weight, at
    # alpha 0.2 6.2e-25
    sol = solve(prob, SolverConfig(n=16, alpha=0.1))
    with pytest.raises(ValueError, match=r"degree 48 at alpha=0\.1 .*raise alpha"):
        error_norms(sol.interpolant, prob.exact_solution, 0.1)
    sol = solve(prob, SolverConfig(n=16, alpha=0.2))
    norms = error_norms(sol.interpolant, prob.exact_solution, 0.2)
    assert math.isfinite(norms.err_inf) and math.isfinite(norms.err_l2chi)


@pytest.mark.parametrize("name", ["ex3-log", "ex3-alg"])
def test_two_dimensional_solve_at_max_n(name):
    prob = get_problem(name)
    cfg = SolverConfig(n=MAX_N_2D)
    sol = solve(prob, cfg)
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
    assert np.max(np.abs(sol.node_values - sol.node_values.T)) <= 1e-10
    norms = error_norms(
        sol.interpolant, prob.exact_solution, sol.config.alpha, dim=2, degree=cfg.n,
    )
    ref = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    assert norms.err_inf < json.loads(ref.read_text())["err_inf"][name]["48"]
    with pytest.raises(ValueError, match="exceeds"):
        SolverConfig(n=MAX_N_2D + 1).check_dimension(2)


def test_unconverged_gmres_raises_solver_error(monkeypatch):
    # no restart cycle leaves the zero iterate, whose residual is the rhs
    monkeypatch.setattr(mhfie.solver, "GMRES_MAX_CYCLES", 0)
    message = r"Newton iteration 1: GMRES .* n=8: .*Krylov residual 1\.00e\+00"
    with pytest.raises(SolverError, match=message):
        solve(get_problem("ex3-alg"), SolverConfig(n=8, alpha=0.5))


def test_two_dimensional_smooth_factor_is_rejected():
    # the 2D solve assembles per-axis factors of diagonal type only, so a 2D
    # kernel with a factor never reaches it: the kernel itself is refused
    with pytest.raises(ValueError, match="2D kernels take no factor"):
        KernelSpec(
            kind="log",
            factor=lambda s, oms, x, omx: 1.0 + s * x,
            dimension=2,
        )


@pytest.mark.parametrize("dim", [1, 2])
def test_constant_forcing_broadcasts_to_the_grid(dim):
    # a forcing callable may return a scalar; one that returns a shape the
    # grid cannot take raises instead of reaching the linear algebra
    kernel = KernelSpec(kind="log", dimension=dim)

    def problem(forcing):
        return ProblemSpec(name="constant", dimension=dim, lam=10.0, kernel=kernel,
                           nonlinearity=Nonlinearity.identity(dim), forcing=forcing)

    cfg = SolverConfig(n=8, alpha=0.5)
    ones = solve(problem(lambda *x: np.ones_like(x[0])), cfg)
    scalar = solve(problem(lambda *x: 1.0), cfg)
    np.testing.assert_array_equal(scalar.node_values, ones.node_values)
    with pytest.raises(ValueError, match=r"'constant'.*\(3,\).*grid shape"):
        solve(problem(lambda *x: np.ones(3)), cfg)


@pytest.mark.parametrize("name, n", [("ex1-log", 16), ("ex3-alg", 8)])
def test_solver_evaluates_the_complement_aware_exact_solution(name, n):
    # with exact_solution_c doubled the two forms disagree, and the
    # synthesized system must be solved by the complement-aware one
    prob = get_problem(name)
    exact_c = prob.exact_solution_c
    doubled = replace(prob, exact_solution_c=lambda *a: 2.0 * exact_c(*a))
    sol = solve(doubled, SolverConfig(n=n))
    rule = mhf_gauss_rule(MhfBasis(prob.default_alpha, n))
    x, xc = rule.nodes, rule.nodes_complement
    if prob.dimension == 1:
        args = (x, xc)
    else:
        args = (x[:, None], xc[:, None], x[None, :], xc[None, :])
    np.testing.assert_allclose(sol.node_values, 2.0 * exact_c(*args), rtol=0.0, atol=1e-12)
    plain = prob.exact_solution(*args[::2])
    assert np.max(np.abs(sol.node_values - plain)) > 0.1


def test_both_routes_and_both_axes_share_one_plan(fresh_memos):
    # an mhf and a smoothed solve of ex3-alg leave one E, keyed by n alone,
    # and one basis, keyed by (alpha, n), and both axes read the collocation
    # nodes of one mapped rule; the routes differ only in their kernel
    # factors
    prob = get_problem("ex3-alg")
    n = 16
    nodes = mhf_gauss_rule(MhfBasis(0.5, n)).nodes
    for method in ("mhf", "smoothed"):
        cfg = SolverConfig(n=n, alpha=0.5, method=method)
        sol = solve(prob, cfg)
        np.testing.assert_array_equal(sol.nodes_x, nodes)
        assert sol.nodes_y is sol.nodes_x
        assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
    assert [key for key in memo.entries if key[0] in ("cardinals", "basis")] == [
        ("cardinals", n), ("basis", 0.5, n)]
    assert sorted(key[3] for key in memo.entries if key[0] == "kernel") == ["mhf", "smoothed"]


def test_error_messages_print_coordinates_as_plain_numbers():
    # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
    prob = get_problem("ex1-log")
    rule = mhf_gauss_rule(MhfBasis(0.5, 7))
    pole = rule.nodes[2]
    failures = [
        (AssemblyError, lambda: solve(prob, CLUSTERED)),
        (ValueError, lambda: mhf_quadrature(rule, lambda x: np.where(x == pole, np.inf, x))),
        (ValueError, lambda: kernel_eval(prob.kernel, pole, pole)),
    ]
    for error, fail in failures:
        with pytest.raises(error) as info:
            fail()
        message = str(info.value)
        assert "np.float64" not in message and "=0." in message
