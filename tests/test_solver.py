"""Tests for the Nystrom assembly, Newton driver, and the solve path."""

import json
import math
import sys
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mhfie.approx
import mhfie.hermite
import mhfie.solver
from mhfie._memo import BoundedMemo, memo
from mhfie.approx import error_norms
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
    assemble_nystrom,
    newton_driver,
    solve,
    verify_residual,
)


def test_config_validation():
    with pytest.raises(ValueError, match="n must"):
        SolverConfig(n=-1)
    with pytest.raises(ValueError, match="ni must"):
        SolverConfig(n=4, ni=-2)
    with pytest.raises(ValueError, match="alpha"):
        SolverConfig(n=4, alpha=0.0)
    with pytest.raises(ValueError, match="alpha2"):
        SolverConfig(n=4, alpha2=-1.0)
    with pytest.raises(ValueError, match="method"):
        SolverConfig(n=4, method="spline")
    with pytest.raises(ValueError, match="newton_tol"):
        SolverConfig(n=4, newton_tol=0.0)
    with pytest.raises(ValueError, match="newton_max_iter"):
        SolverConfig(n=4, newton_max_iter=0)
    assert SolverConfig(n=4).ni_value == 5
    assert SolverConfig(n=4, ni=9).ni_value == 9


def test_config_dimension_limits():
    with pytest.raises(ValueError, match="exceeds"):
        SolverConfig(n=500).check_dimension(1)
    with pytest.raises(ValueError, match="exceeds"):
        SolverConfig(n=MAX_N_2D + 1).check_dimension(2)
    SolverConfig(n=MAX_N_2D).check_dimension(2)
    SolverConfig(n=64).check_dimension(1)


def test_alpha2_on_a_1d_problem_is_rejected():
    prob = get_problem("ex1-log")
    with pytest.raises(ValueError, match=r"alpha2=0\.9.*'ex1-log'"):
        solve(prob, SolverConfig(n=16, alpha=0.5, alpha2=0.9))
    with pytest.raises(ValueError, match="alpha2"):
        verify_residual(prob, SolverConfig(n=16, alpha=0.5, alpha2=0.9), np.zeros(17))
    SolverConfig(n=8, alpha2=0.9).check_dimension(2)


def test_axis_scales_default_the_second_axis_to_alpha():
    assert SolverConfig(n=8, alpha=0.5).axis_scales(1) == (0.5,)
    assert SolverConfig(n=8, alpha=0.5).axis_scales(2) == (0.5, 0.5)
    assert SolverConfig(n=8, alpha=0.5, alpha2=0.9).axis_scales(2) == (0.5, 0.9)


def test_row_sums_converge_to_smooth_integral():
    # with u = 1 the quadrature row sums approximate the exactly known
    # integral of the log kernel; the weak singularity makes this converge
    # slowly, which is precisely why forcing is synthesized through the
    # discrete operator for the convergence experiments
    prob = get_problem("ex1-log")
    errs = []
    for ni in (15, 63, 255):
        ny = assemble_nystrom(prob, SolverConfig(n=8, ni=ni, alpha=0.5))
        xs = ny.colloc_points[0]
        exact = np.array([exact_smooth_integral("log", x) for x in xs])
        errs.append(float(np.max(np.abs(ny.weights.sum(axis=1) - exact))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.06
    assert errs[2] < 0.5 * errs[0]


def test_assembled_weights_identical_across_methods():
    prob = get_problem("ex1-alg")
    wa = assemble_nystrom(prob, SolverConfig(n=12, alpha=0.7)).weights
    wb = assemble_nystrom(
        prob, SolverConfig(n=12, alpha=0.7, method="smoothed")
    ).weights
    np.testing.assert_allclose(wa, wb, rtol=1e-12)


def test_assembly_rejects_coinciding_node_families():
    with pytest.raises(AssemblyError, match="interlace"):
        assemble_nystrom(get_problem("ex1-log"), SolverConfig(n=8, ni=8))


def test_assembly_names_endpoint_clustering_when_families_interlace():
    # With ni = n+1 the families interlace, but at alpha = 0.5 the nodes
    # x[92] and s[93] cluster at x = 1 to within 8.7e-13.
    with pytest.raises(AssemblyError, match="lower n or raise alpha") as info:
        assemble_nystrom(get_problem("ex1-log"), SolverConfig(n=92, alpha=0.5))
    assert "interlace" not in str(info.value)
    with pytest.raises(AssemblyError) as info:
        assemble_nystrom(get_problem("ex1-log"), SolverConfig(n=8, ni=8))
    assert "lower n" not in str(info.value)


def test_assembly_rejects_nonfinite_kernel():
    bad = ProblemSpec(
        name="bad-kernel",
        dimension=1,
        lam=1.0,
        kernel=KernelSpec(
            kind="custom",
            fn=lambda s, x, comp: np.full(np.broadcast(s, x).shape, np.inf),
            dimension=1,
        ),
        nonlinearity=Nonlinearity.identity(1),
        forcing=lambda x: x,
    )
    with pytest.raises(AssemblyError, match="finite"):
        assemble_nystrom(bad, SolverConfig(n=4))


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
    calls = []

    def matvec(v):
        calls.append(1)
        return a @ v

    precond = (lambda r: r / diag) if preconditioned else (lambda r: r)
    step = mhfie.solver._gmres_step(SolverConfig(n=8, newton_tol=1e-12))
    v, iters = step(mhfie.solver._Operator(matvec, precond), rhs)
    direct = np.linalg.solve(a, rhs)
    assert np.linalg.norm(v - direct) <= 1e-10 * np.linalg.norm(direct)
    # one product per iteration and one true residual per cycle; restarted
    # cycles run full, so a restart shows as more iterations than its length
    cycles = math.ceil(iters / restart)
    assert len(calls) == iters + cycles
    if restart == 5:
        assert iters > restart


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
    w2 = assemble_nystrom(get_problem("ex3-alg"), SolverConfig(n=4, alpha=0.5)).weights
    axis = ProblemSpec(
        name="axis",
        dimension=1,
        lam=10.0,
        kernel=KernelSpec(kind="algebraic", mu=(0.5,), dimension=1),
        nonlinearity=Nonlinearity.identity(1),
        forcing=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )
    w1 = assemble_nystrom(axis, SolverConfig(n=4, alpha=0.5)).weights
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
            smooth_factor=lambda s, x: np.zeros(np.broadcast(s, x).shape),
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
    """Every array a plan or rule holds, through nested tuples and dataclasses."""
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
    alpha = cfg.alpha if prob.dimension == 1 else (cfg.alpha, cfg.alpha)
    norms = error_norms(sol.interpolant, prob.exact_solution, alpha,
                        dim=prob.dimension, degree=cfg.n)
    return sol, norms


def _clear_memos():
    memo.clear()
    mhfie.hermite._memoized_rule.cache_clear()


@pytest.fixture
def fresh_memos():
    """Empty memos, emptied again after a test that poisons what they keep."""
    _clear_memos()
    yield
    _clear_memos()


def _plan_key(cfg: SolverConfig) -> tuple:
    return (cfg.alpha, cfg.n, cfg.ni_value, cfg.method)


def _kept_factors(plan_key: tuple) -> dict:
    """The kernel factors the memo keeps for one plan, by memo key."""
    return {key: f for key, f in memo.entries.items()
            if key[0] == "kernel" and key[1:5] == plan_key}


@pytest.mark.parametrize("method", ["mhf", "smoothed"])
@pytest.mark.parametrize("name, n", [("ex1-log", 24), ("ex1-alg", 24), ("ex2-sqrt", 24),
                                     ("ex3-alg", 8), ("ex3-log", 16)])
def test_memoized_plans_and_rules_are_bitwise_identical(name, n, method, monkeypatch):
    prob = get_problem(name)
    cfg = SolverConfig(n=n, alpha=prob.default_alpha, method=method)
    _clear_memos()
    cold, cold_norms = _solve_and_norms(prob, cfg)

    def no_rebuild(degree):
        raise AssertionError(f"rule rebuilt at degree {degree}")

    def no_plan_rule(basis):
        raise AssertionError(f"plan rebuilt at degree {basis.degree}")

    def no_rebuild_kernel(*args):
        raise AssertionError("kernel matrix rebuilt")

    # no Hermite rule is built, and the solve maps no rule: its plan is
    # memoized; a kernel that is its singular factor alone keeps its W and,
    # in 2D, its eigenpairs
    monkeypatch.setattr(mhfie.hermite, "_build_rule", no_rebuild)
    monkeypatch.setattr(mhfie.solver, "mhf_gauss_rule", no_plan_rule)
    kept = prob.kernel.kind != "custom"
    if kept:
        monkeypatch.setattr(mhfie.solver, "_theta_matrix", no_rebuild_kernel)
        monkeypatch.setattr(np.linalg, "eig", no_rebuild_kernel)
    warm, warm_norms = _solve_and_norms(prob, cfg)
    assert np.array_equal(warm.node_values, cold.node_values)
    assert warm.final_residual == cold.final_residual
    assert warm.krylov_iters == cold.krylov_iters
    assert warm_norms == cold_norms
    plan = memo.entries[("plan", *_plan_key(cfg))]
    factors = _kept_factors(_plan_key(cfg)).values()
    assert len(factors) == int(kept)
    rule = mhfie.hermite.hermite_gauss_rule(2 * cfg.n + 16)
    arrays = _read_only_arrays(plan) + _read_only_arrays(plan.basis) + _read_only_arrays(rule)
    assert len(arrays) >= 20
    kernel_arrays = [arr for f in factors for arr in (f.w, *f.__dict__.get("eigenpairs", ()))]
    assert len(kernel_arrays) == (0 if not kept else 1 if prob.dimension == 1 else 4)
    assert not any(arr.flags.writeable for arr in arrays + kernel_arrays)


def test_memos_hold_at_most_their_bounds():
    # solves and error norms up a 1D ladder to MAX_N_1D and a 2D ladder to
    # MAX_N_2D keep plans, kernel factors and Cauchy terms in the one memo,
    # within its cap, each charged at least the bytes it keeps alive
    rules = mhfie.hermite._memoized_rule
    _clear_memos()
    # alpha 3 keeps the nodes at MAX_N_1D apart; ex3-alg solves at its default
    ladders = [("ex1-log", 3.0, list(range(40, MAX_N_1D, 60)) + [MAX_N_1D]),
               ("ex3-alg", 0.5, list(range(8, MAX_N_2D, 24)) + [MAX_N_2D])]
    for name, alpha, sizes in ladders:
        for n in sizes:
            _solve_and_norms(get_problem(name), SolverConfig(n=n, alpha=alpha))
            assert memo.nbytes <= memo.cap
            assert memo.nbytes == sum(v.nbytes for v in memo.entries.values())
    # the 1D ladder alone overflows the cap: its first entries are gone
    assert ("plan", 3.0, 40, 41, "mhf") not in memo.entries
    assert {key[0] for key in memo.entries} == {"plan", "kernel", "terms"}
    for key, value in memo.entries.items():
        if key[0] == "plan":
            held = _read_only_arrays(value) + [value.basis.weights]
        elif key[0] == "kernel":
            held = [value.w, value.e, *value.__dict__.get("eigenpairs", ())]
        else:
            held = list(value)
        assert sum(arr.nbytes for arr in held) <= value.nbytes
    prob = get_problem("ex1-log")
    sol = solve(prob, SolverConfig(n=4, alpha=prob.default_alpha))
    for degree in range(mhfie.hermite._RULE_MEMO_SIZE + 4):
        error_norms(sol.interpolant, prob.exact_solution, 0.5, degree=degree)
        assert rules.cache_info().currsize <= mhfie.hermite._RULE_MEMO_SIZE
    assert rules.cache_info().currsize == mhfie.hermite._RULE_MEMO_SIZE


@pytest.mark.parametrize("name, n", [("ex1-log", 16), ("ex3-alg", 8)])
def test_solve_certificate_and_norms_build_each_rule_once(name, n, monkeypatch):
    # the solve's plan, the certificate's fresh plan and the error norms
    # build only the distinct degrees n, n+1 and 2n+16; every other rule
    # lookup hits the memo
    prob = get_problem(name)
    cfg = SolverConfig(n=n, alpha=prob.default_alpha)
    built = []
    build = mhfie.hermite._build_rule
    monkeypatch.setattr(mhfie.hermite, "_build_rule",
                        lambda degree: built.append(degree) or build(degree))
    _clear_memos()
    sol, _ = _solve_and_norms(prob, cfg)
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
    assert sorted(built) == [n, n + 1, 2 * n + 16]
    # the two hits are the certificate's rules; the 2D axes share theirs
    info = mhfie.hermite._memoized_rule.cache_info()
    assert (info.misses, info.hits) == (3, 2)


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
    plan = mhfie.solver._build_axis_plan(*_plan_key(cfg))
    memo.get(("plan", *_plan_key(cfg)), lambda: replace(plan, e=plan.e * (1.0 + 1e-6)))
    sol = solve(prob, cfg)
    assert sol.final_residual <= cfg.newton_tol
    assert verify_residual(prob, cfg, sol) > cfg.newton_tol


@pytest.mark.parametrize("poison", ["w", "eigenpairs"])
def test_verify_residual_reads_no_kept_kernel_factor(poison, fresh_memos):
    # a wrong kept factor changes what solve does; the certificate builds its
    # own factors and reads the same residual.  identity-2d has two kernel
    # factors (mu 0.3 and 0.6) and a given forcing.
    prob = _identity_2d()
    cfg = SolverConfig(n=8, alpha=0.5)
    sol = solve(prob, cfg)
    clean = verify_residual(prob, cfg, sol)
    kept = _kept_factors(_plan_key(cfg))
    assert len(kept) == 2
    for key, factor in kept.items():
        if poison == "w":
            memo.entries[key] = replace(factor, w=factor.w * (1.0 + 1e-6))
        else:
            values, forward, backward = factor.eigenpairs
            factor.__dict__["eigenpairs"] = (1.5 * values, forward, backward)
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


@pytest.mark.parametrize("name, alpha2, eigs, cardinals", [
    ("ex3-log", None, 1, 2), ("ex3-alg", None, 1, 2), ("ex3-alg", 0.7, 2, 4),
    ("identity-2d", None, 2, 2),
])
def test_each_axis_work_is_done_once(name, alpha2, eigs, cardinals, monkeypatch):
    # axes that share a plan and a singular factor share one kernel factor,
    # one eigendecomposition and, in the error norms, one cardinal matrix; a
    # second map scale or a second exponent makes two.  A repeated solve
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
    cfg = SolverConfig(n=16, alpha=0.5, alpha2=alpha2)
    _clear_memos()
    sol = solve(prob, cfg)
    disc = mhfie.solver._build(prob, cfg)
    assert (disc.w[0] is disc.w[1]) == (eigs == 1)
    assert calls["eig"] == eigs
    error_norms(sol.interpolant, lambda x, y: 0.0 * x * y, (cfg.alpha, alpha2 or cfg.alpha),
                dim=2, degree=cfg.n)
    assert calls["cardinal"] == cardinals
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
            sol = solve(prob, SolverConfig(n=n, alpha=prob.default_alpha))
            assert sol.newton_iters == iters
            assert sol.final_residual <= 1e-13
            total += sum(sol.krylov_iters)
    assert total <= 140


def _algebraic_1d(mu: float) -> ProblemSpec:
    return ProblemSpec(name="alg", dimension=1, lam=10.0,
                       kernel=KernelSpec(kind="algebraic", mu=(mu,)),
                       nonlinearity=Nonlinearity.identity(1),
                       forcing=lambda x: 1.0 + x)


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
    # a W at MAX_N_1D with its E fits the cap; within MAX_N_2D a factor is
    # also charged for the eigenpairs a 2D solve may build
    for n, eigen in ((MAX_N_1D, 0), (MAX_N_2D, 16 * (MAX_N_2D + 1) * (2 * MAX_N_2D + 3))):
        key = (2.0, n, n + 1, "mhf")
        plan = mhfie.solver._build_axis_plan(*key)
        factor = mhfie.solver._kernel_factor(_algebraic_1d(0.5), 0, plan, key, kept.get)
        assert not factor.w.flags.writeable
        assert factor.nbytes == factor.w.nbytes + plan.e.nbytes + eigen < memo.cap


def test_kept_kernel_factors_stay_consistent_under_threads():
    # more threads than cores ask a memo for six kernel factors while it
    # keeps three: every factor returned is right, and the byte count
    # matches the entries, which a lost update would break
    probs = [_algebraic_1d(0.1 * k) for k in range(1, 7)]
    key = (0.5, 32, 33, "mhf")
    plan = mhfie.solver._build_axis_plan(*key)

    def factor(k: int, get):
        return mhfie.solver._kernel_factor(probs[k], 0, plan, key, get)

    expected = [factor(k, lambda _, build: build()) for k in range(len(probs))]
    kept = BoundedMemo(3 * expected[0].nbytes)
    errors = []

    def work(offset: int) -> None:
        try:
            for i in range(300):
                k = (i + offset) % len(probs)
                if not np.array_equal(factor(k, kept.get).w, expected[k].w):
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
    # winner kept, so both share one eigendecomposition
    first = np.zeros(1)

    def lose_race():
        kept.get("race", lambda: first)
        return np.ones(1)

    assert kept.get("race", lose_race) is first


def test_assembled_weights_are_the_callers_to_write():
    prob = get_problem("ex1-log")
    cfg = SolverConfig(n=16, alpha=prob.default_alpha)
    before = solve(prob, cfg)
    assemble_nystrom(prob, cfg).weights[:] = 0.0
    after = solve(prob, cfg)
    np.testing.assert_array_equal(after.node_values, before.node_values)


def test_verify_residual_builds_no_interpolation_basis(monkeypatch):
    # the certificate evaluates the residual only; the memoized plan builds
    # its basis once, on the first solution that needs it
    calls = []
    weights = mhfie.approx._bary_weights
    monkeypatch.setattr(mhfie.approx, "_bary_weights",
                        lambda t: calls.append(t.size) or weights(t))
    memo.clear()
    prob = get_problem("ex1-alg")
    cfg = SolverConfig(n=12, alpha=prob.default_alpha)
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
    w = assemble_nystrom(problem, config).weights
    e = np.kron(*disc.e)
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
    ni = cfg.ni_value
    for value in vars(disc).values():
        for arr in value if isinstance(value, tuple) else (value,):
            if isinstance(arr, np.ndarray):
                assert arr.size <= (ni + 1) ** 2
    sol = solve(prob, cfg)
    np.testing.assert_allclose(
        sol.node_values.ravel(), _dense_newton(prob, cfg, disc),
        rtol=0.0, atol=10.0 * cfg.newton_tol,
    )
    if name == "identity-2d":
        # dpsi/du = 1 makes the fast-diagonalization preconditioner exact
        assert sol.krylov_iters == (1,) * sol.newton_iters


def test_one_dimensional_solve_at_max_n():
    # ex1-* at MAX_N_1D still meet the node-gap AssemblyError at alpha 0.5
    prob = get_problem("ex2-sqrt")
    cfg = SolverConfig(n=MAX_N_1D, alpha=0.5)
    sol = solve(prob, cfg)
    assert sol.node_values.shape == (MAX_N_1D + 1,)
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
    with pytest.raises(ValueError, match="exceeds limit"):
        solve(prob, replace(cfg, n=MAX_N_1D + 1))


@pytest.mark.parametrize("name", ["ex3-log", "ex3-alg"])
def test_two_dimensional_solve_at_max_n(name):
    prob = get_problem(name)
    cfg = SolverConfig(n=MAX_N_2D, alpha=prob.default_alpha)
    sol = solve(prob, cfg)
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol
    assert np.max(np.abs(sol.node_values - sol.node_values.T)) <= 1e-10
    norms = error_norms(
        sol.interpolant, prob.exact_solution, (cfg.alpha, cfg.alpha), dim=2,
        degree=cfg.n,
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
    prob = ProblemSpec(
        name="smooth-2d",
        dimension=2,
        lam=10.0,
        kernel=KernelSpec(
            kind="log",
            smooth_factor=lambda s, t, x, y: 1.0 + s * t * x * y,
            dimension=2,
        ),
        nonlinearity=Nonlinearity.square(2),
        forcing=lambda x, y: np.ones_like(x * y),
    )
    with pytest.raises(AssemblyError, match="2D kernel smooth factors are not supported"):
        solve(prob, SolverConfig(n=4, alpha=0.5))


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
    cfg = SolverConfig(n=n, alpha=prob.default_alpha)
    sol = solve(doubled, cfg)
    rule = mhf_gauss_rule(MhfBasis(prob.default_alpha, n))
    x, xc = rule.nodes, rule.nodes_complement
    if prob.dimension == 1:
        args = (x, xc)
    else:
        args = (x[:, None], xc[:, None], x[None, :], xc[None, :])
    np.testing.assert_allclose(sol.node_values, 2.0 * exact_c(*args), rtol=0.0, atol=1e-12)
    plain = prob.exact_solution(*args[::2])
    assert np.max(np.abs(sol.node_values - plain)) > 0.1


def test_build_makes_one_plan_per_distinct_map_scale():
    prob = get_problem("ex3-alg")
    n = 16
    for alpha2, plans in ((None, 1), (0.5, 1), (0.7, 2)):
        keys = []

        def counting(key, build):
            if key[0] == "plan":
                keys.append(key)
            return build()

        cfg = SolverConfig(n=n, alpha=0.5, alpha2=alpha2)
        disc = mhfie.solver._build(prob, cfg, counting)
        assert len(keys) == plans
    np.testing.assert_array_equal(
        disc.colloc_points[0], mhf_gauss_rule(MhfBasis(0.5, n)).nodes
    )
    np.testing.assert_array_equal(
        disc.colloc_points[1], mhf_gauss_rule(MhfBasis(0.7, n)).nodes
    )
    sol = solve(prob, cfg)
    np.testing.assert_array_equal(sol.nodes_y, disc.colloc_points[1])
    assert verify_residual(prob, cfg, sol) <= cfg.newton_tol


def test_error_messages_print_coordinates_as_plain_numbers():
    # numpy 2 writes repr(np.float64(x)) as "np.float64(x)"
    prob = get_problem("ex1-log")
    rule = mhf_gauss_rule(MhfBasis(0.5, 7))
    pole = rule.nodes[2]
    failures = [
        (AssemblyError, lambda: solve(prob, SolverConfig(n=7, ni=7, alpha=0.5))),
        (ValueError, lambda: mhf_quadrature(rule, lambda x: np.where(x == pole, np.inf, x))),
        (ValueError, lambda: kernel_eval(prob.kernel, pole, pole)),
    ]
    for error, fail in failures:
        with pytest.raises(error) as info:
            fail()
        message = str(info.value)
        assert "np.float64" not in message and "=0.0" in message
