"""Tests for barycentric interpolation, projection, and error norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhfie.approx
from mhfie._memo import memo
from mhfie.hermite import hermite_orthonormal_table
from mhfie.mhf import MhfBasis, gamma_n, mhf_gauss_rule
from mhfie.approx import (
    Interpolant1D,
    LagrangeBasis,
    _damped_rows,
    cardinal_matrix,
    error_norms,
    eval_grid_1d,
    eval_grid_axis_2d,
    project,
    tensor_interpolant,
)

SQRT_PI = math.sqrt(math.pi)


def mhf_interpolant(alpha: float, degree: int, f) -> Interpolant1D:
    rule = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=degree))
    return Interpolant1D(
        basis=LagrangeBasis.from_mhf_rule(rule), values=f(rule.nodes)
    )


def test_reproduces_mapped_polynomials():
    """Interpolation at the mapped Gauss nodes is exact on powers of the logit."""
    rng = np.random.default_rng(7)
    for degree in (8, 32):
        rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=degree))
        coeffs = rng.standard_normal(degree + 1)

        def p(x):
            t = np.log(x) - np.log1p(-x)
            return sum(c * t**k for k, c in enumerate(coeffs))

        interp = Interpolant1D(
            basis=LagrangeBasis.from_mhf_rule(rule), values=p(rule.nodes)
        )
        pts = rng.uniform(0.02, 0.98, size=50)
        got, want = interp.eval(pts), p(pts)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-9 * scale


def test_node_hits_return_stored_values_exactly():
    rule = mhf_gauss_rule(MhfBasis(alpha=0.8, degree=12))
    values = np.sin(3.0 * rule.nodes)
    interp = Interpolant1D(basis=LagrangeBasis.from_mhf_rule(rule), values=values)
    got = interp.eval(rule.nodes)
    assert np.all(got == values)
    assert interp.eval(rule.nodes[3]) == values[3]


def _damped_rows_loop(nodes, points, scale):
    """Point-by-point form of _damped_rows, kept as the reference for its array code."""
    logd = np.empty(nodes.size)
    sgnd = np.empty(nodes.size)
    for j in range(nodes.size):
        d = np.delete(nodes[j] - nodes, j)
        logd[j] = np.log(np.abs(d)).sum()
        sgnd[j] = np.prod(np.sign(d))
    rows = np.empty((points.size, nodes.size))
    half = 0.5 * scale * scale
    for q, t in enumerate(points):
        num = t - nodes
        hit = np.abs(num) == 0.0
        if np.any(hit):
            rows[q] = np.where(hit, 1.0, 0.0)
            continue
        log_num = np.log(np.abs(num))
        total = log_num.sum()
        sgn_total = np.prod(np.sign(num))
        rows[q] = (sgn_total * np.sign(num) * sgnd) * np.exp(
            total - log_num - logd + half * (nodes * nodes - t * t)
        )
    return rows


@pytest.mark.parametrize("n", (0, 1, 2, 5, 16, 47, 80, 94, 200, 399))
def test_damped_rows_match_point_loop(n):
    """Both routes (logits at alpha 0.5 and 1, Hermite nodes at scale 1), on the
    interlacing quadrature grid and on the collocation grid itself.  The sums
    of logs run in another order than in the loop; the worst deviation
    measured was 4.5e-13 relative, at n = 399."""
    routes = []
    for alpha in (0.5, 1.0):
        rule_c = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=n))
        rule_q = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=n + 1))
        routes.append((rule_c.logits, rule_q.logits, alpha))
    routes.append((rule_c.hermite.nodes, rule_q.hermite.nodes, 1.0))
    for nodes, points, scale in routes:
        got = _damped_rows(nodes, points, scale)
        ref = _damped_rows_loop(nodes, points, scale)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))
        assert np.array_equal(_damped_rows(nodes, nodes, scale), np.eye(n + 1))


@pytest.mark.parametrize("degree", (2, 16, 80))
def test_eval_matches_cardinal_matrix(degree):
    """eval contracts w_j / (t - t_j) with the values directly; it must agree
    with the normalized cardinal matrix times the values.  The two orders of
    rounding differ by eps times the Lebesgue function of the plain
    cardinals, which at alpha 0.5 stays modest on the grid (|t| <= 8) but at
    alpha 1 grows like exp(t^2/2) and reaches 1e-3 by degree 47."""
    rule = mhf_gauss_rule(MhfBasis(alpha=0.5, degree=degree))
    basis = LagrangeBasis.from_mhf_rule(rule)
    values = np.sqrt(rule.nodes * rule.nodes_complement)
    interp = Interpolant1D(basis=basis, values=values)
    grid = eval_grid_1d()
    middle = degree // 2
    assert rule.nodes[middle] == 0.5 and 0.5 in grid  # an odd node count holds x = 0.5
    got = interp.eval(grid)
    np.testing.assert_allclose(got, cardinal_matrix(basis, grid) @ values, rtol=0, atol=1e-13)
    hits = np.flatnonzero(np.isin(grid, rule.nodes))
    assert np.array_equal(got[hits], values[np.searchsorted(rule.nodes, grid[hits])])
    assert np.array_equal(cardinal_matrix(basis, rule.nodes), np.eye(degree + 1))
    assert interp.eval(0.5) == values[middle]
    scalar = interp.eval(float(grid[1234]))
    assert isinstance(scalar, float)
    assert scalar == pytest.approx(got[1234], rel=1e-14)


@given(x=st.floats(min_value=0.02, max_value=0.98))
@settings(max_examples=150, deadline=None)
def test_cardinal_functions_sum_to_one(x):
    # checked inside the node span, where barycentric evaluation holds the
    # polynomial identity sum_j l_j = 1 to roundoff amplified only by a
    # modest Lebesgue-type factor
    rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=14))
    interp = Interpolant1D(
        basis=LagrangeBasis.from_mhf_rule(rule), values=np.ones(15)
    )
    assert interp.eval(x) == pytest.approx(1.0, rel=1e-11)


def test_duplicate_nodes_are_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        mhfie.approx._log_node_products([0.0, 5e-16, 1.0])
    with pytest.raises(ValueError, match="ascending"):
        mhfie.approx._log_node_products([1.0, 0.0])


def test_basis_degree_property():
    basis = LagrangeBasis.from_mhf_rule(mhf_gauss_rule(MhfBasis(alpha=1.0, degree=2)))
    assert basis.degree == 2


def test_projection_recovers_basis_coefficients():
    # project 3 Q_0 - 2 Q_2 and read the coefficients back
    basis = MhfBasis(alpha=0.8, degree=5)
    rule = mhf_gauss_rule(MhfBasis(alpha=0.8, degree=8))

    def f(x):
        t = 0.8 * (np.log(x) - np.log1p(-x))
        return 3.0 - 2.0 * (4.0 * t * t - 2.0)

    series = project(basis, rule, f)
    expected = np.array([3.0 + 0.0, 0.0, -2.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(series.coeffs, expected, atol=1e-12)


def test_projection_idempotence():
    basis = MhfBasis(alpha=1.0, degree=10)
    rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=14))
    series = project(basis, rule, lambda x: np.sqrt(x * (1.0 - x)))
    again = project(basis, rule, series.eval)
    np.testing.assert_allclose(again.coeffs, series.coeffs, atol=1e-11)


def test_projection_validates_rule_compatibility():
    basis = MhfBasis(alpha=1.0, degree=10)
    with pytest.raises(ValueError, match="alpha"):
        project(basis, mhf_gauss_rule(MhfBasis(alpha=0.5, degree=14)), np.sqrt)
    with pytest.raises(ValueError, match="degree"):
        project(basis, mhf_gauss_rule(MhfBasis(alpha=1.0, degree=6)), np.sqrt)


def test_parseval_inequality_and_equality():
    """sum gamma_n u_n^2 <= discrete norm, with equality on the span."""
    alpha = 0.8
    rule = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=20))

    def discrete_norm_sq(f):
        vals = f(rule.nodes)
        return float(vals**2 @ rule.weights)

    # member of the span: equality
    basis = MhfBasis(alpha=alpha, degree=6)

    def p(x):
        t = alpha * (np.log(x) - np.log1p(-x))
        return 1.5 * t**3 - t + 0.25

    series = project(basis, rule, p)
    lhs = sum(
        gamma_n(alpha, n) * series.coeffs[n] ** 2 for n in range(series.degree + 1)
    )
    assert lhs == pytest.approx(discrete_norm_sq(p), rel=1e-9)

    # general function: inequality
    f = lambda x: np.sqrt(x)
    series_f = project(MhfBasis(alpha=alpha, degree=8), rule, f)
    lhs_f = sum(
        gamma_n(alpha, n) * series_f.coeffs[n] ** 2
        for n in range(series_f.degree + 1)
    )
    assert lhs_f <= discrete_norm_sq(f) * (1.0 + 1e-9)


def test_projection_error_decreases_for_endpoint_singular_target():
    alpha = 0.8
    f = lambda x: np.sqrt(x * (1.0 - x))
    errs = []
    for degree in (8, 24, 72):
        rule = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=degree + 16))
        series = project(MhfBasis(alpha=alpha, degree=degree), rule, f)
        check = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=2 * degree + 16))
        diff = series.eval(check.nodes) - f(check.nodes)
        errs.append(math.sqrt(float(diff**2 @ check.weights)))
    assert errs[1] < errs[0] and errs[2] < errs[1]
    assert errs[2] < 1e-3


def test_derivative_superconvergence_at_inner_root_family():
    """The x-derivative error of the interpolant of sqrt(x(1-x)), sampled at
    the roots of the next-lower basis function, sits far below the global
    maximum over the evaluation grid (which peaks in the edge zones)."""
    alpha, degree = 1.0, 33
    rule = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=degree))
    f = lambda x: np.sqrt(x * (1.0 - x))
    df = lambda x: (1.0 - 2.0 * x) / (2.0 * np.sqrt(x * (1.0 - x)))
    interp = Interpolant1D(
        basis=LagrangeBasis.from_mhf_rule(rule), values=f(rule.nodes)
    )
    grid = eval_grid_1d()
    grid = grid[np.min(np.abs(grid[:, None] - rule.nodes[None, :]), axis=1) > 1e-9]
    global_err = float(np.max(np.abs(interp.eval_deriv(grid) - df(grid))))
    roots = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=degree - 2)).nodes
    root_err = float(np.max(np.abs(interp.eval_deriv(roots) - df(roots))))
    assert root_err < 0.5 * global_err


def test_derivative_evaluation_at_node_is_rejected():
    interp = mhf_interpolant(1.0, 8, lambda x: x)
    with pytest.raises(ValueError, match="node"):
        interp.eval_deriv(interp.basis.nodes_x[4])


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0])
@pytest.mark.parametrize("degree", [12, 47])
def test_derivative_rejects_every_node(alpha, degree):
    # at many nodes logit(x_j) rounds away from the stored t_j (7 of 13 at
    # alpha 0.8, degree 12), so the test in t alone misses them
    interp = mhf_interpolant(alpha, degree, lambda x: x)
    for xj in interp.basis.nodes_x:
        with pytest.raises(ValueError, match="node"):
            interp.eval_deriv(xj)


def test_derivative_matches_finite_difference():
    interp = mhf_interpolant(1.0, 24, lambda x: x * x)
    for x in (0.31, 0.5 + 1e-4, 0.82):
        h = 1e-6
        fd = (interp.eval(x + h) - interp.eval(x - h)) / (2.0 * h)
        assert interp.eval_deriv(x) == pytest.approx(fd, rel=1e-7)


def test_error_norms_zero_for_identical_functions():
    interp = mhf_interpolant(1.0, 10, lambda x: np.ones_like(x))
    norms = error_norms(interp, lambda x: interp.eval(x), 1.0, dim=1)
    assert norms.err_inf == 0.0
    assert norms.err_l2chi == 0.0


def test_error_norms_constant_offset():
    alpha = 0.8
    exact = lambda x: np.sqrt(x)
    shifted = lambda x: np.sqrt(x) + 1e-3
    norms = error_norms(shifted, exact, alpha, dim=1, degree=10)
    assert norms.err_inf == pytest.approx(1e-3, rel=1e-12)
    assert norms.err_l2chi == pytest.approx(
        1e-3 * math.sqrt(SQRT_PI / alpha), rel=1e-6
    )


def test_error_norms_requires_degree_for_plain_callables():
    with pytest.raises(ValueError, match="degree"):
        error_norms(lambda x: x, lambda x: x, 1.0, dim=1)
    norms = error_norms(lambda x: x, lambda x: x, 1.0, dim=1, degree=4)
    assert norms.err_inf == 0.0


def test_error_norms_1d_rejects_a_nonfinite_integrand():
    interp = mhf_interpolant(0.8, 8, lambda x: x)
    exact = lambda x: np.where(x > 0.9, np.nan, x)
    with pytest.raises(ValueError, match="integrand is not finite"):
        error_norms(interp, exact, 0.8, dim=1)


def test_error_norms_2d_rejects_a_nonfinite_integrand():
    interp, _ = make_tensor(0.8, 8, lambda x, y: x * y)
    exact = lambda x, y: np.where(x > 0.9, np.nan, x * y)
    with pytest.raises(ValueError, match="integrand is not finite"):
        error_norms(interp, exact, (0.8, 0.8), dim=2)


def test_eval_grids_stay_inside_the_open_interval():
    grid = eval_grid_1d()
    axis = eval_grid_axis_2d()
    for g in (grid, axis):
        assert np.all((g > 0.0) & (g < 1.0))
        assert np.all(np.diff(g) > 0.0)
    assert grid.size >= 2900
    assert 95 <= axis.size <= 101


def make_tensor(alpha, degree, values_fn):
    rule = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=degree))
    basis = LagrangeBasis.from_mhf_rule(rule)
    v = values_fn(rule.nodes[:, None], rule.nodes[None, :])
    return tensor_interpolant(basis, basis, v), rule


def test_tensor_constant_is_constant():
    interp, _ = make_tensor(1.0, 6, lambda x, y: np.ones(np.broadcast(x, y).shape))
    axis = np.array([0.1, 0.5, 0.9])
    np.testing.assert_allclose(interp.eval_grid(axis, axis), 1.0, rtol=1e-12)


def test_tensor_rank_one_separates():
    fa = lambda x: 1.0 / (1.0 + x)
    fb = lambda y: np.exp(-y)
    interp, rule = make_tensor(1.0, 10, lambda x, y: fa(x) * fb(y))
    basis = LagrangeBasis.from_mhf_rule(rule)
    ia = Interpolant1D(basis=basis, values=fa(rule.nodes))
    ib = Interpolant1D(basis=basis, values=fb(rule.nodes))
    pts = np.array([0.12, 0.48, 0.9])
    got = interp.eval_grid(pts, pts)
    want = np.outer(ia.eval(pts), ib.eval(pts))
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_tensor_grid_hit_returns_stored_entry():
    interp, rule = make_tensor(1.0, 7, lambda x, y: np.sin(x + 2.0 * y))
    assert interp.eval(rule.nodes[2], rule.nodes[5]) == interp.values[2, 5]


def test_tensor_shape_validation():
    rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=4))
    basis = LagrangeBasis.from_mhf_rule(rule)
    with pytest.raises(ValueError, match="shape"):
        tensor_interpolant(basis, basis, np.zeros((5, 4)))
    interp, _ = make_tensor(1.0, 4, lambda x, y: x + y)
    with pytest.raises(ValueError, match="matching"):
        interp.eval(np.array([0.1, 0.2]), np.array([0.3]))


def test_series_eval_matches_direct_expansion():
    alpha, degree = 0.8, 5
    basis = MhfBasis(alpha=alpha, degree=degree)
    rule = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=10))
    series = project(basis, rule, lambda x: np.sqrt(x))
    x = np.array([0.2, 0.5, 0.77])
    z = alpha * (np.log(x) - np.log1p(-x))
    table = hermite_orthonormal_table(degree, z)
    direct = series.normalized @ table
    np.testing.assert_allclose(series.eval(x), direct, rtol=1e-13)


@pytest.fixture
def empty_memo():
    memo.clear()
    yield memo
    memo.clear()


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_fixed_grid_evaluation_is_bitwise_the_uncached_one(alpha, empty_memo):
    grid = eval_grid_1d()
    for degree in (2, 8, 16, 31, 47, 80, 120):
        interp = mhf_interpolant(alpha, degree, lambda x: np.sqrt(x * (1.0 - x)))
        uncached = interp.eval(grid.copy())
        cold = interp.eval(grid)
        warm = interp.eval(grid)
        assert np.array_equal(cold, uncached) and np.array_equal(warm, uncached)
        assert np.array_equal(cardinal_matrix(interp.basis, grid),
                              cardinal_matrix(interp.basis, grid.copy()))
    assert len(empty_memo.entries) == 7


def test_fixed_axis_grid_evaluation_is_bitwise_the_uncached_one(empty_memo):
    axis = eval_grid_axis_2d()
    for degree in (4, 16, 32):
        interp, _ = make_tensor(0.5, degree, lambda x, y: np.log1p(x * y) + np.sqrt(y))
        uncached = interp.eval_grid(axis.copy(), axis.copy())
        for _ in range(2):
            assert np.array_equal(interp.eval_grid(axis, axis), uncached)
    assert len(empty_memo.entries) == 3


def test_both_routes_share_one_memo_entry(empty_memo):
    from mhfie.problem import get_problem
    from mhfie.solver import SolverConfig, solve

    prob = get_problem("ex1-log")
    solutions = [solve(prob, SolverConfig(n=24, alpha=0.5, method=m))
                 for m in ("mhf", "smoothed")]
    assert solutions[0].interpolant.basis is not solutions[1].interpolant.basis
    for s in solutions:
        error_norms(s.interpolant, prob.exact_solution, 0.5)
    # the memo also keeps the two solves' plans and kernel factors
    assert [key[:2] for key in empty_memo.entries if key[0] == "terms"] == [("terms", "1d")]


def test_memo_holds_at_most_its_byte_cap(empty_memo):
    from mhfie.solver import MAX_N_1D

    grid = eval_grid_1d()
    for degree in list(range(40, MAX_N_1D, 60)) + [MAX_N_1D]:
        interp = mhf_interpolant(0.5, degree, np.sqrt)
        interp.eval(grid)
        assert empty_memo.nbytes <= empty_memo.cap
        assert empty_memo.nbytes == sum(t.nbytes for t in empty_memo.entries.values())
    # the degree-MAX_N_1D terms fit the cap and are kept; the least recently
    # used entries make room for them
    assert 8 * grid.size * (MAX_N_1D + 1) < empty_memo.cap
    assert [t.c.shape[1] for t in empty_memo.entries.values()] == [221, 281, 341, 401]


def test_fixed_grids_and_memoized_terms_are_read_only(empty_memo):
    for make in (eval_grid_1d, eval_grid_axis_2d):
        grid = make()
        assert make() is grid
        assert not grid.flags.writeable
        mhf_interpolant(1.0, 10, np.sqrt).eval(grid)
    assert len(empty_memo.entries) == 2
    for terms in empty_memo.entries.values():
        for arr in terms:
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            terms.c[0, 0] = 0.0


def test_grid_copy_is_evaluated_without_the_memo(empty_memo):
    interp = mhf_interpolant(0.5, 20, lambda x: np.log(x))
    interp.eval(eval_grid_1d().copy())
    assert len(empty_memo.entries) == 0
    copy = eval_grid_1d().copy()
    copy[0] = interp.basis.nodes_x[3]  # a node hit in the copy only
    got = interp.eval(copy)
    assert len(empty_memo.entries) == 0
    assert got[0] == interp.values[3]
    assert np.array_equal(got[1:], interp.eval(eval_grid_1d())[1:])
