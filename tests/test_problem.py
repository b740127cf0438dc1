"""Tests for kernels, nonlinearities, reference quadrature, and the registry."""

import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

import mhfie.approx
import mhfie.cli
import mhfie.mhf
import mhfie.solver
from mhfie import MhfBasis, mhf_gauss_rule
from mhfie import problem as problem_module
from mhfie.approx import Interpolant1D, LagrangeBasis, project
from mhfie.mhf import map_to_real, weight_chi
from mhfie.problem import (
    KernelSpec,
    Nonlinearity,
    OracleError,
    ProblemSpec,
    _kernel_gap,
    exact_smooth_integral,
    forcing_on_grid,
    get_problem,
    kernel_eval,
    manufactured_forcing,
    problem_names,
    tanh_sinh,
)
from mhfie.solver import _quad_coeffs, _theta_matrix

# closed forms for integrals over (0,1) with the -log(r(1-r)) weight
SQRT_LOGWEIGHT = 20.0 / 9.0 - 4.0 * math.log(2.0) / 3.0  # f = sqrt(r)
LOG_LOGWEIGHT = math.pi**2 / 6.0 - 4.0  # f = log(r)


def reference_tanh_sinh(f, length, tol=1e-12, max_level=12):
    """The level-by-level tanh-sinh loop, kept as the independent reference.

    Every level builds its nodes and calls f on all of them, independently
    of the integrator's level tables and nested walk.
    """
    if length == 0.0:
        return 0.0
    prev = None
    for level in range(max_level + 1):
        h = 2.0**-level
        j = np.arange(-math.floor(6.1 / h), math.floor(6.1 / h) + 1)
        t = j * h
        u = math.pi * np.sinh(t)
        au = np.exp(-np.abs(u))
        sig = np.where(u >= 0.0, 1.0 / (1.0 + au), au / (1.0 + au))
        sig_c = np.where(u >= 0.0, au / (1.0 + au), 1.0 / (1.0 + au))
        w = length * math.pi * np.cosh(t) * sig * sig_c
        vals = w * np.asarray(f(length * sig, length * sig_c), dtype=float)
        total = h * float(np.sum(vals))
        if not math.isfinite(total):
            raise OracleError("tanh-sinh integrand produced a non-finite value")
        delta = math.inf if prev is None else abs(total - prev)
        if level >= 2 and delta <= tol:
            return total
        prev = total
    raise OracleError(
        f"tanh-sinh did not reach tolerance {tol} within {max_level} levels "
        f"(last delta {delta:.3e})"
    )


def _outcome(integrate, *args):
    """The float an integration returns, or the message of its OracleError."""
    try:
        return integrate(*args).hex()
    except OracleError as exc:
        return str(exc)


INTEGRANDS = {
    "smooth": lambda r, c: np.exp(r),
    "log": lambda r, c: np.log(r),
    "r^-1/2": lambda r, c: r**-0.5,
    "c^-1/2": lambda r, c: c**-0.5,
    "oscillatory": lambda r, c: np.cos(50.0 * r),  # leaves at level 5 or 6
}


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_tanh_sinh_matches_the_level_by_level_loop_bitwise(name):
    f = INTEGRANDS[name]
    for length in (1e-10, 0.3, 1.0):
        for tol in (1e-3, 1e-12, 1e-13, 1e-14):
            for max_level in (3, 5, 12):
                args = (f, length, tol, max_level)
                assert _outcome(tanh_sinh, *args) == _outcome(
                    reference_tanh_sinh, *args
                ), args


def test_tanh_sinh_calls_the_integrand_once_up_to_level_five():
    def counted(f, calls):
        return lambda r, c: calls.append(r.size) or f(r, c)

    for f, tol, ref_levels, sizes in (
        (INTEGRANDS["smooth"], 1e-12, 5, [391]),  # leaves at level 4
        (INTEGRANDS["oscillatory"], 1e-12, 6, [391]),  # at level 5
        (INTEGRANDS["oscillatory"], 1e-14, 7, [391, 781]),  # at level 6
    ):
        ref_calls, calls = [], []
        want = reference_tanh_sinh(counted(f, ref_calls), 1.0, tol)
        assert len(ref_calls) == ref_levels
        assert tanh_sinh(counted(f, calls), 1.0, tol) == want
        assert calls == sizes


def test_tanh_sinh_sums_only_the_nodes_of_the_levels_it_reaches():
    # NaN at every level-5 node that level 3 lacks: the integral leaves at
    # level 3, as the level-by-level loop does, and never sums them
    def f(r, c):
        out = np.exp(r)
        if r.size == 391:
            out[(np.arange(391) - 195) % 4 != 0] = np.nan
        return out

    levels = []
    want = reference_tanh_sinh(lambda r, c: levels.append(r.size) or f(r, c), 1.0, 1e-6)
    assert levels == [13, 25, 49, 97]
    assert tanh_sinh(f, 1.0, 1e-6) == want == pytest.approx(math.e - 1.0, rel=1e-7)
    # the level-4 sum reaches the NaNs
    with pytest.raises(OracleError, match="finite"):
        tanh_sinh(f, 1.0, 1e-15)


def test_tanh_sinh_level_tables_are_read_only_and_bounded(monkeypatch):
    tables = {}
    monkeypatch.setattr(problem_module, "_LEVEL_TABLES", tables)
    with pytest.raises(OracleError, match="within 13 levels"):
        tanh_sinh(lambda r, c: np.cos(1e4 * r), 1.0, tol=0.0, max_level=13)
    # level 5 serves levels 0..5; 6..12 are kept and 13 is built per call
    assert sorted(tables) == list(range(5, 13))
    for level, table in tables.items():
        assert len(table) == 3 and all(a.size == 2 * math.floor(6.1 * 2**level) + 1
                                       for a in table)
        for arr in table:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
    held = dict(tables)
    tanh_sinh(lambda r, c: np.exp(r), 1.0, tol=1e-3, max_level=3)
    # with max_level 3, f is called once at level 3 instead of level 5
    assert sorted(tables) == [3, *range(5, 13)]
    assert all(tables[level] is held[level] for level in held)


@pytest.mark.parametrize("max_level", [-1, 0, 1])
def test_tanh_sinh_rejects_max_level_below_two(max_level):
    with pytest.raises(ValueError, match="max_level must be at least 2"):
        tanh_sinh(lambda r, c: np.exp(r), 1.0, max_level=max_level)


def _benchmark_true_forcing(monkeypatch, integrate) -> np.ndarray:
    """Forcing of the benchmark's true-forcing solves at every collocation
    node: ex1-log and ex1-alg at N 16..80, ex3-log and ex3-alg on the tensor
    grid of each N in 16, 32, all at alpha 0.5, with complements."""
    monkeypatch.setattr(problem_module, "tanh_sinh", integrate)
    values = []
    for names, sizes in ((("ex1-log", "ex1-alg"), (16, 32, 48, 64, 80)),
                         (("ex3-log", "ex3-alg"), (16, 32))):
        for name in names:
            spec = get_problem(name)
            for n in sizes:
                rule = mhf_gauss_rule(MhfBasis(alpha=0.5, degree=n))
                pts = list(zip(rule.nodes.tolist(), rule.nodes_complement.tolist()))
                if spec.dimension == 1:
                    values += [manufactured_forcing(spec, x, x_comp=xc) for x, xc in pts]
                else:
                    values += [manufactured_forcing(spec, x, y, x_comp=xc, y_comp=yc)
                               for x, xc in pts for y, yc in pts]
    return np.array(values)


def test_manufactured_forcing_matches_the_level_by_level_loop_bitwise(monkeypatch):
    got = _benchmark_true_forcing(monkeypatch, tanh_sinh)
    want = _benchmark_true_forcing(monkeypatch, reference_tanh_sinh)
    assert got.size == 2 * 245 + 2 * (17**2 + 33**2)
    assert np.array_equal(got, want)


def test_tanh_sinh_smooth_integrand():
    assert tanh_sinh(lambda r, c: np.exp(r), 1.0) == pytest.approx(
        math.e - 1.0, rel=1e-13
    )
    assert tanh_sinh(lambda r, c: r * r, 2.0) == pytest.approx(8.0 / 3.0, rel=1e-13)


def test_tanh_sinh_singular_reference_values():
    got = tanh_sinh(lambda r, c: np.sqrt(r) * -(np.log(r) + np.log(c)), 1.0)
    assert got == pytest.approx(SQRT_LOGWEIGHT, rel=1e-12)
    got = tanh_sinh(lambda r, c: np.log(r) * -(np.log(r) + np.log(c)), 1.0)
    assert got == pytest.approx(LOG_LOGWEIGHT, rel=1e-12)
    # endpoint singularity of the second-kind example kernel
    got = tanh_sinh(lambda r, c: c**-0.5 * np.sqrt(r), 1.0)
    assert got == pytest.approx(math.pi / 2.0, rel=1e-12)


def test_tanh_sinh_interval_handling():
    assert tanh_sinh(lambda r, c: r, 0.0) == 0.0
    with pytest.raises(ValueError):
        tanh_sinh(lambda r, c: r, -1.0)
    with pytest.raises(ValueError):
        tanh_sinh(lambda r, c: r, float("inf"))


def test_tanh_sinh_reports_nonconvergence():
    with pytest.raises(OracleError, match="tolerance") as err:
        tanh_sinh(lambda r, c: np.sqrt(r), 1.0, tol=1e-15, max_level=3)
    # the delta between the last two levels, not a difference of one level with itself
    delta = float(str(err.value).rsplit("last delta ", 1)[1].rstrip(")"))
    assert delta > 1e-15


def test_tanh_sinh_reports_nonfinite_integrand():
    with pytest.raises(OracleError, match="finite"):
        tanh_sinh(lambda r, c: np.full_like(r, np.nan), 1.0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError, match="kind"):
        KernelSpec(kind="cubic")
    with pytest.raises(ValueError, match="mu"):
        KernelSpec(kind="algebraic", mu=(1.5,), dimension=1)
    with pytest.raises(ValueError, match="mu"):
        KernelSpec(kind="algebraic", mu=(0.5,), dimension=2)
    with pytest.raises(ValueError, match="log kernels take no mu"):
        KernelSpec(kind="log", mu=(0.3,))
    with pytest.raises(ValueError, match="none kernels take no mu"):
        KernelSpec(kind="none", mu=(0.3,))


def test_kernel_eval_pointwise_values():
    alg = KernelSpec(kind="algebraic", mu=(0.5,), dimension=1)
    assert kernel_eval(alg, 0.25, 0.5) == pytest.approx(2.0, rel=1e-14)
    log = KernelSpec(kind="log", dimension=1)
    assert kernel_eval(log, 0.25, 0.5) == pytest.approx(math.log(0.25), rel=1e-14)
    smooth = KernelSpec(
        kind="log", factor=lambda s, oms, x, omx: s + x, dimension=1
    )
    assert kernel_eval(smooth, 0.25, 0.5) == pytest.approx(
        0.75 * math.log(0.25), rel=1e-14
    )


def test_kernel_eval_guards_the_diagonal():
    alg = KernelSpec(kind="algebraic", mu=(0.5,), dimension=1)
    with pytest.raises(ValueError, match="diagonal"):
        kernel_eval(alg, 0.5, 0.5 + 1e-15)
    two_d = KernelSpec(kind="log", dimension=2)
    with pytest.raises(ValueError, match="diagonal"):
        kernel_eval(two_d, 0.3, 0.3, 0.5, 0.9)
    # on arrays the first offending pair is named, as plain floats
    s, x = np.array([0.1, 0.3, 0.5]), np.array([0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match=r"on axis 0: s=0\.3, x=0\.3$"):
        kernel_eval(alg, s, x)


@pytest.mark.parametrize("name", problem_names())
def test_kernel_eval_on_arrays_matches_scalar_calls(name):
    # every kind evaluates arrays point by point, 1D and 2D alike
    kernel = get_problem(name).kernel
    coords = np.random.default_rng(5).random((2 * kernel.dimension, 7))
    got = kernel_eval(kernel, *coords)
    want = [kernel_eval(kernel, *point) for point in coords.T]
    np.testing.assert_array_equal(got, want)


def test_kernel_eval_two_dimensional_product():
    spec = KernelSpec(kind="algebraic", mu=(0.5, 0.25), dimension=2)
    got = kernel_eval(spec, 0.25, 0.5, 0.5, 0.75)
    assert got == pytest.approx(0.25**-0.5 * 0.25**-0.25, rel=1e-13)
    with pytest.raises(ValueError, match="require"):
        kernel_eval(spec, 0.25, 0.5)


def test_kernel_eval_with_complements_gives_the_solvers_kernel_values():
    # ex1-alg at N = 400: the last collocation and quadrature nodes both
    # round to 1.0; their complements are 8.2e-25 and 7.7e-25
    kernel = get_problem("ex1-alg").kernel
    rule_c, rule_q = mhf_gauss_rule(MhfBasis(0.5, 400)), mhf_gauss_rule(MhfBasis(0.5, 401))
    theta = _theta_matrix(kernel, rule_q, rule_c)
    s, x = rule_q.nodes[-1], rule_c.nodes[-1]
    got = kernel_eval(kernel, s, x, s_comp=rule_q.nodes_complement[-1],
                      x_comp=rule_c.nodes_complement[-1])
    assert s == x == 1.0 and got == theta[-1, -1] and 4.1e12 < got < 4.3e12
    with pytest.raises(ValueError, match="diagonal"):
        kernel_eval(kernel, s, x)
    # every entry, both kinds: kernel_eval broadcasts, the solver splits rows
    for name in ("ex1-alg", "ex1-log"):
        kernel = get_problem(name).kernel
        got = kernel_eval(kernel, rule_q.nodes, rule_c.nodes[:, None],
                          s_comp=rule_q.nodes_complement,
                          x_comp=rule_c.nodes_complement[:, None])
        assert np.array_equal(got, _theta_matrix(kernel, rule_q, rule_c))
    # in 2D, each axis takes its own complements
    kernel = get_problem("ex3-alg").kernel
    rule_c, rule_q = mhf_gauss_rule(MhfBasis(0.5, 48)), mhf_gauss_rule(MhfBasis(0.5, 49))
    theta = _theta_matrix(kernel, rule_q, rule_c)
    sc, xc = rule_q.nodes_complement, rule_c.nodes_complement
    got = kernel_eval(kernel, rule_q.nodes[-1], rule_c.nodes[-1], rule_q.nodes[-2],
                      rule_c.nodes[-3], s_comp=sc[-1], x_comp=xc[-1], t_comp=sc[-2],
                      y_comp=xc[-3])
    assert got == theta[-1, -1] * theta[-3, -2]


def test_kernel_gap_splits_rows_as_it_splits_entries():
    rule_c, rule_q = mhf_gauss_rule(MhfBasis(0.5, 64)), mhf_gauss_rule(MhfBasis(0.5, 65))
    x, xc = rule_c.nodes[:, None], rule_c.nodes_complement[:, None]
    rows = _kernel_gap(rule_q.nodes, x, rule_q.nodes_complement, xc)
    entries = _kernel_gap(rule_q.nodes[None, :], x, rule_q.nodes_complement[None, :], xc)
    assert np.array_equal(rows, entries)
    # rows that do not ascend take the entrywise split
    flipped = _kernel_gap(rule_q.nodes, x[::-1], rule_q.nodes_complement, xc[::-1])
    assert np.array_equal(flipped, rows[::-1])
    # the middle node x = 0.5 takes the complements
    mid = rule_c.nodes.size // 2
    assert rule_c.nodes[mid] == 0.5
    assert np.array_equal(rows[mid], np.abs(rule_c.nodes_complement[mid] - rule_q.nodes_complement))


def test_kernel_eval_guard_is_relative_to_the_distance_to_an_endpoint():
    alg = KernelSpec(kind="algebraic", mu=(0.5,), dimension=1)
    # a gap of 1e-20 between points 1e-20 from an endpoint is no diagonal
    assert kernel_eval(alg, 1e-20, 2e-20) == pytest.approx(1e10, rel=1e-12)
    assert kernel_eval(alg, 1.0, 1.0, s_comp=1e-20, x_comp=2e-20) == pytest.approx(
        1e10, rel=1e-12)
    for s, x in ((1e-20, 1e-20 * (1.0 + 1e-15)), (0.5, 0.5 + 1e-15), (0.3, 0.3)):
        with pytest.raises(ValueError, match="diagonal"):
            kernel_eval(alg, s, x)
        with pytest.raises(ValueError, match="diagonal"):
            kernel_eval(alg, s, x, s_comp=1.0 - s, x_comp=1.0 - x)


def test_each_endpoint_coordinate_has_one_home(monkeypatch, capsys):
    """Each shared formula reaches its callers through its one function, and
    the independent references (the smoothed route's coefficients, the
    reference integrator's offsets) never see it."""
    rule = mhf_gauss_rule(MhfBasis(0.5, 24))
    rule_q = mhf_gauss_rule(MhfBasis(0.5, 25))
    interp = Interpolant1D(LagrangeBasis.from_mhf_rule(rule), np.cos(rule.logits))
    series = project(MhfBasis(0.5, 12), rule, np.sqrt)
    pts = np.array([1e-9, 0.3, 0.7, 1.0 - 1e-12])
    log_with_factor = KernelSpec(kind="log", factor=problem_module._sqrt_endpoint_factor)
    comps = dict(s_comp=1.0 - pts[::-1], x_comp=1.0 - pts)

    def quad_test():
        mhfie.cli.main(["quad-test", "--integrand", "log-logweight", "--n-list", "8,16",
                        "--out", "-"])
        return [line for line in capsys.readouterr().out.splitlines() if line[:1] != "#"]

    probes = {
        "map_to_real": lambda: map_to_real(0.5, pts),
        "weight_chi": lambda: weight_chi(0.5, pts),
        "interpolant": lambda: interp.eval(pts),
        "series": lambda: series.eval(pts),
        "mhf coeffs": lambda: _quad_coeffs(rule, "mhf"),
        "smoothed coeffs": lambda: _quad_coeffs(rule, "smoothed"),
        "quad-test": quad_test,
        "kernel_eval": lambda: kernel_eval(log_with_factor, pts[::-1], pts),
        "kernel_eval gap": lambda: kernel_eval(get_problem("ex1-alg").kernel, pts[::-1],
                                               pts, **comps),
        "theta": lambda: _theta_matrix(get_problem("ex1-log").kernel, rule_q, rule),
        "forcing": lambda: [manufactured_forcing(get_problem(name), 0.7)
                            for name in ("ex1-alg", "ex2-sqrt")],
    }
    before = {name: probe() for name, probe in probes.items()}

    def shifted(f, by):
        return lambda *args: f(*args) + by

    perturbed = {
        "_logit": (shifted(mhfie.mhf._logit, 1e-3), (mhfie.mhf, mhfie.approx)),
        "_log_logistic_pair": (
            lambda t, f=mhfie.mhf._log_logistic_pair: tuple(v + 1e-3 for v in f(t)),
            (mhfie.mhf, mhfie.cli)),
        "_kernel_gap": (shifted(problem_module._kernel_gap, 1e-3),
                        (problem_module, mhfie.solver)),
        # a given complement is kept, so only the 1.0 - x default moves
        "_complement": (lambda x, comp=None, f=problem_module._complement:
                        f(x) + 1e-3 if comp is None else comp, (problem_module,)),
    }
    sees = {
        "_logit": {"map_to_real", "weight_chi", "interpolant", "series"},
        "_log_logistic_pair": {"mhf coeffs", "quad-test"},
        "_kernel_gap": {"kernel_eval", "kernel_eval gap", "theta"},
        "_complement": {"kernel_eval", "forcing"},
    }
    for func, (patched, modules) in perturbed.items():
        with monkeypatch.context() as m:
            for module in modules:
                m.setattr(module, func, patched)
            changed = {name for name, probe in probes.items()
                       if not np.array_equal(probe(), before[name])}
        assert changed == sees[func], func


def test_kernel_eval_factor_receives_complements():
    seen = {}

    def factor(s, oms, x, omx):
        seen["args"] = (s, oms, x, omx)
        return oms

    # kind "none" has no diagonal factor, so s = x is no singularity
    spec = KernelSpec(kind="none", factor=factor, dimension=1)
    assert kernel_eval(spec, 0.75, 0.75) == pytest.approx(0.25, rel=1e-12)
    assert seen["args"] == pytest.approx((0.75, 0.25, 0.75, 0.25), rel=1e-12)


def test_exact_smooth_integral_values():
    assert exact_smooth_integral("log", 0.5) == pytest.approx(
        math.log(0.5) - 1.0, rel=1e-15
    )
    assert exact_smooth_integral("algebraic", 0.5, mu=0.5) == pytest.approx(
        2.0 * math.sqrt(2.0), rel=1e-15
    )
    got = exact_smooth_integral("algebraic", 0.25, mu=0.5)
    assert got == pytest.approx((0.5 + math.sqrt(0.75)) / 0.5, rel=1e-14)
    with pytest.raises(ValueError):
        exact_smooth_integral("algebraic", 0.5)
    with pytest.raises(ValueError):
        exact_smooth_integral("none", 0.5)


def test_exact_smooth_integral_matches_reference_quadrature():
    for x in (0.3, 0.5, 0.85):
        ref = tanh_sinh(lambda r, c: np.log(r), x) + tanh_sinh(
            lambda r, c: np.log(r), 1.0 - x
        )
        assert exact_smooth_integral("log", x) == pytest.approx(ref, rel=1e-12)


def test_nonlinearity_derivative_probe():
    with pytest.raises(ValueError, match="finite differences"):
        Nonlinearity(psi=lambda s, u: u**2, dpsi_du=lambda s, u: 3.0 * u)
    Nonlinearity(psi=lambda s, u: u**2, dpsi_du=lambda s, u: 2.0 * u)
    assert Nonlinearity.square(2).dimension == 2


def test_problem_spec_validation():
    kernel = KernelSpec(kind="log", dimension=1)
    with pytest.raises(ValueError, match="forcing or exact_solution"):
        ProblemSpec(
            name="incomplete",
            dimension=1,
            lam=1.0,
            kernel=kernel,
            nonlinearity=Nonlinearity.identity(1),
        )
    with pytest.raises(ValueError, match="lambda"):
        ProblemSpec(
            name="bad-lam",
            dimension=1,
            lam=0.0,
            kernel=kernel,
            nonlinearity=Nonlinearity.identity(1),
            forcing=lambda x: x,
        )
    with pytest.raises(ValueError, match="dimension"):
        ProblemSpec(
            name="mismatch",
            dimension=2,
            lam=1.0,
            kernel=kernel,
            nonlinearity=Nonlinearity.identity(2),
            forcing=lambda x, y: x,
        )


def constant_solution_problem(kind: str) -> ProblemSpec:
    if kind == "log":
        kernel = KernelSpec(kind="log", dimension=1)
    else:
        kernel = KernelSpec(kind="algebraic", mu=(0.5,), dimension=1)
    return ProblemSpec(
        name=f"unit-{kind}",
        dimension=1,
        lam=10.0,
        kernel=kernel,
        nonlinearity=Nonlinearity.identity(1),
        exact_solution=lambda x: np.ones_like(np.asarray(x, dtype=float)),
    )


def test_manufactured_forcing_for_constant_solution():
    # with u = 1 the integral term reduces to the closed-form smooth integral
    for kind, mu in (("log", None), ("algebraic", 0.5)):
        spec = constant_solution_problem(kind)
        for x in (0.2, 0.5, 0.9):
            want = 10.0 - exact_smooth_integral(kind, x, mu=mu)
            assert manufactured_forcing(spec, x) == pytest.approx(want, abs=1e-10)


def test_manufactured_forcing_caches_per_point(monkeypatch):
    # record the point of every one-axis kernel action
    actions = []
    integrate = problem_module._kernel_action_1d

    def counted(kernel, func, x, *args, **kwargs):
        actions.append(x)
        return integrate(kernel, func, x, *args, **kwargs)

    monkeypatch.setattr(problem_module, "_kernel_action_1d", counted)
    spec = constant_solution_problem("log")
    first = manufactured_forcing(spec, 0.4)
    assert actions == [0.4]
    assert manufactured_forcing(spec, 0.4) == first
    assert actions == [0.4]
    # in 2D each term's action on one axis is reused across the other axis
    spec2 = get_problem("ex3-log")
    manufactured_forcing(spec2, 0.3, 0.6)
    assert sorted(actions[1:]) == [0.3] * 3 + [0.6] * 3
    manufactured_forcing(spec2, 0.3, 0.7)
    assert actions[7:] == [0.7] * 3


@pytest.mark.parametrize("name", ["ex1-log", "ex2-sqrt", "ex3-log", "ex3-alg"])
def test_manufactured_forcing_is_its_formula_over_kernel_actions(name):
    # lam u - sum_r prod_axis A_r,axis, every action from the reference
    # integrator itself, bitwise, at nodes with and without their complements
    spec = get_problem(name)
    rule = mhf_gauss_rule(MhfBasis(alpha=0.5, degree=4))
    pts = list(zip(rule.nodes.tolist(), rule.nodes_complement.tolist()))
    grid = ([(p,) for p in pts] if spec.dimension == 1
            else [(p, q) for p in pts for q in pts[::2]])
    terms = problem_module._forcing_terms(spec)
    for point in grid:
        coords = [v for v, _ in point]
        for given in (True, False):
            comps = [c for _, c in point] if given else [1.0 - v for v in coords]
            total = 0.0
            for r, factors in enumerate(terms):
                total += math.prod(
                    problem_module._kernel_action_1d(spec.kernel, f, v, tol=1e-12, axis=axis,
                                                     x_comp=c)
                    for axis, (f, v, c) in enumerate(zip(factors, coords, comps))
                )
            want = spec.lam * float(problem_module.exact_values(spec, coords, comps)) - total
            keywords = dict(zip(("x_comp", "y_comp"), comps)) if given else {}
            assert manufactured_forcing(spec, *coords, **keywords) == want
            # once more, every action from the cache
            assert manufactured_forcing(spec, *coords, **keywords) == want


def test_replaced_spec_does_not_share_the_forcing_cache():
    p = get_problem("ex1-alg")
    g = manufactured_forcing(p, 0.3)
    q = dataclasses.replace(
        p,
        exact_solution=lambda x: 2 * np.sqrt(x * (1 - x)),
        exact_solution_c=lambda s, o: 2 * np.sqrt(s * o),
    )
    assert not q._cache
    # the problem is linear, so doubling the solution doubles the forcing
    assert manufactured_forcing(q, 0.3) == pytest.approx(2.0 * g, rel=1e-10)


def test_manufactured_forcing_cache_is_per_tolerance():
    spec = get_problem("ex1-log")
    loose = manufactured_forcing(spec, 0.3, tol=1e-3)
    tight = manufactured_forcing(spec, 0.3, tol=1e-12)
    assert tight == manufactured_forcing(get_problem("ex1-log"), 0.3, tol=1e-12)
    assert manufactured_forcing(spec, 0.3, tol=1e-3) == loose


def test_second_kind_example_forcing_identity():
    # for the known square-root solution the forcing collapses to a shift
    spec = get_problem("ex2-sqrt")
    for x in (0.1, 0.37, 0.5, 0.82):
        got = manufactured_forcing(spec, x)
        assert got == pytest.approx(math.sqrt(x) - math.pi / 2.0, abs=1e-10)


def test_forcing_values_prefers_explicit_forcing():
    spec = get_problem("ex2-sqrt")
    pts = np.array([0.25, 0.5])
    np.testing.assert_allclose(
        forcing_on_grid(spec, (pts,)), np.sqrt(pts) - math.pi / 2.0, rtol=1e-15
    )


def test_forcing_on_grid_takes_one_axis_per_dimension():
    # a stale flat array of points is refused rather than read as many axes
    spec = get_problem("ex2-sqrt")
    with pytest.raises(ValueError, match="1D, got 2 axes"):
        forcing_on_grid(spec, np.array([0.25, 0.5]))


def test_forcing_on_grid_evaluates_only_a_given_forcing():
    # a problem defined by its exact solution has no forcing to evaluate;
    # its true forcing comes from manufactured_forcing
    with pytest.raises(ValueError, match="'ex1-log' has no forcing; manufactured_forcing"):
        forcing_on_grid(get_problem("ex1-log"), (np.array([0.25, 0.5]),))


def test_manufactured_forcing_symmetry():
    # symmetric kernel and symmetric solution give symmetric forcing
    spec = get_problem("ex1-log")
    assert manufactured_forcing(spec, 0.25) == pytest.approx(
        manufactured_forcing(spec, 0.75), abs=1e-10
    )


@pytest.mark.parametrize("name", ["ex1-log", "ex1-alg"])
def test_manufactured_forcing_at_the_largest_ladder_nodes_warns_nothing(name):
    # the first nodes lie within 1e-24 of 0, where tanh-sinh offsets
    # underflow to 0; those nodes contribute 0 instead of log(0) or 0^-mu
    spec = get_problem(name)
    rule = mhf_gauss_rule(MhfBasis(alpha=spec.default_alpha, degree=400))
    assert rule.nodes[0] < 1e-24
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [manufactured_forcing(spec, x, x_comp=xc)
                  for x, xc in zip(rule.nodes.tolist(), rule.nodes_complement.tolist())]
    assert np.all(np.isfinite(values))


def test_manufactured_forcing_gives_the_kernel_factor_the_stored_complement():
    # the last N=400 node rounds to x = 1.0; a factor of 1 - x must see the
    # stored complement there, not 1.0 - x = 0 (which raised ZeroDivisionError)
    rule = mhf_gauss_rule(MhfBasis(alpha=0.5, degree=400))
    x, xc = rule.nodes[-1].item(), rule.nodes_complement[-1].item()
    assert x == 1.0 and 0.0 < xc < 1e-20
    spec = ProblemSpec(
        name="omx",
        dimension=1,
        lam=1.0,
        kernel=KernelSpec(kind="none", factor=lambda s, oms, x, omx: omx**-0.5),
        nonlinearity=Nonlinearity.identity(1),
        exact_solution=lambda s: np.ones_like(np.asarray(s, dtype=float)),
    )
    # u = 1: g = 1 - integral_0^1 (1-x)^(-1/2) ds = 1 - xc^(-1/2)
    assert manufactured_forcing(spec, x, x_comp=xc) == pytest.approx(1.0 - xc**-0.5,
                                                                       rel=1e-12)
    # the complement is part of the kernel action's cache key
    assert manufactured_forcing(spec, 0.5) == pytest.approx(1.0 - 2**0.5, rel=1e-12)
    assert {key[3] for key in spec._cache} == {xc, 0.5}


def test_manufactured_forcing_argument_checks():
    spec = get_problem("ex1-log")
    with pytest.raises(ValueError, match="single coordinate"):
        manufactured_forcing(spec, 0.5, 0.5)
    spec2 = get_problem("ex3-log")
    with pytest.raises(ValueError, match="both coordinates"):
        manufactured_forcing(spec2, 0.5)
    no_exact = ProblemSpec(
        name="forcing-only",
        dimension=1,
        lam=1.0,
        kernel=KernelSpec(kind="log", dimension=1),
        nonlinearity=Nonlinearity.identity(1),
        forcing=lambda x: x,
    )
    with pytest.raises(ValueError, match="exact solution"):
        manufactured_forcing(no_exact, 0.5)


def test_one_dimensional_forcing_with_smooth_factor_matches_mpmath():
    # theta = log|x-s| (1 + s x), psi = u^2 and u = sqrt(x(1-x)), against an
    # independent integrator split at the diagonal
    spec = ProblemSpec(
        name="smooth-1d",
        dimension=1,
        lam=10.0,
        kernel=KernelSpec(kind="log", factor=lambda s, oms, x, omx: 1.0 + s * x,
                          dimension=1),
        nonlinearity=Nonlinearity.square(1),
        exact_solution=lambda x: np.sqrt(x * (1.0 - x)),
    )
    with mpmath.workdps(30):
        for x in (0.2, 0.55, 0.9):
            xm = mpmath.mpf(x)
            integral = mpmath.quad(
                lambda s: mpmath.log(abs(xm - s)) * (1 + s * xm) * s * (1 - s),
                [0, xm, 1],
            )
            want = 10.0 * math.sqrt(x * (1.0 - x)) - float(integral)
            assert manufactured_forcing(spec, x) == pytest.approx(want, abs=1e-11)


def unit_2d_problem(kernel: KernelSpec) -> ProblemSpec:
    """u = 1 and psi = u^2 on the unit square, with a one-term separable form."""
    return ProblemSpec(
        name="unit-2d",
        dimension=2,
        lam=10.0,
        kernel=kernel,
        nonlinearity=Nonlinearity.square(2),
        exact_solution=lambda x, y: np.ones(np.broadcast(x, y).shape),
        psi_u_separable=(
            (
                lambda s, oms: np.ones_like(np.asarray(s, dtype=float)),
                lambda t, omt: np.ones_like(np.asarray(t, dtype=float)),
            ),
        ),
    )


def test_two_dimensional_forcing_for_constant_solution():
    # u = 1, psi = u^2: the double integral splits into the product of the
    # one-dimensional smooth integrals
    spec = unit_2d_problem(KernelSpec(kind="algebraic", mu=(0.5, 0.5), dimension=2))
    for x in (0.25, 0.5):
        ix = exact_smooth_integral("algebraic", x, mu=0.5)
        iy = exact_smooth_integral("algebraic", 0.5, mu=0.5)
        assert manufactured_forcing(spec, x, 0.5) == pytest.approx(10.0 - ix * iy, abs=1e-9)


def test_two_dimensional_forcing_requires_a_product_kernel():
    # a 2D kernel is a per-axis product of diagonal types; a factor, which
    # need not separate per axis, is refused when the kernel is made, before
    # any forcing could be manufactured from it
    with pytest.raises(ValueError, match="2D kernels take no factor"):
        KernelSpec(kind="log", factor=lambda s, oms, x, omx: 1.0 + s * x, dimension=2)


def test_two_dimensional_forcing_requires_separable_form():
    spec = get_problem("ex3-log")
    stripped = ProblemSpec(
        name="no-sep",
        dimension=2,
        lam=spec.lam,
        kernel=spec.kernel,
        nonlinearity=spec.nonlinearity,
        exact_solution=spec.exact_solution,
    )
    with pytest.raises(OracleError, match="separable"):
        manufactured_forcing(stripped, 0.5, 0.5)


def test_registry_contents():
    names = problem_names()
    assert names == ("ex1-alg", "ex1-log", "ex2-sqrt", "ex3-alg", "ex3-log")
    with pytest.raises(KeyError, match="ex1-alg"):
        get_problem("nope")


def test_registry_instances_are_fresh():
    a = get_problem("ex1-log")
    b = get_problem("ex1-log")
    assert a is not b
    manufactured_forcing(a, 0.5)
    assert a._cache and not b._cache


def test_registry_exact_solutions_solve_their_equations():
    # spot check: the registered solution and forcing satisfy the equation
    # at one interior point, integral evaluated by the reference quadrature
    spec = get_problem("ex1-alg")
    x = 0.5
    u = spec.exact_solution
    integral = tanh_sinh(
        lambda r, c: c**-0.5 * u(r), x, tol=1e-10
    ) + tanh_sinh(lambda r, c: r**-0.5 * u(x + r), 1.0 - x, tol=1e-10)
    g = manufactured_forcing(spec, x)
    assert spec.lam * u(x) - integral == pytest.approx(g, abs=1e-9)
