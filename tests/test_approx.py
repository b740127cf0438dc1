"""Tests for barycentric interpolation, projection, and error norms."""

import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mhfie.approx
from mhfie._memo import BoundedMemo, memo
from mhfie.hermite import hermite_gauss_rule, hermite_orthonormal_table
from mhfie.mhf import MhfBasis, gamma_n, map_to_unit, mhf_gauss_rule
from mhfie.problem import get_problem
from mhfie.solver import SolverConfig, solve
from mhfie.approx import (
    Interpolant1D,
    LagrangeBasis,
    _cauchy_terms,
    _differences,
    _damped_rows,
    _gauss_cardinal_rows,
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


def _mp_hermite(n, x):
    """H_n(x) by the raw recurrence, in mpmath arithmetic."""
    prev, cur = mpmath.mpf(0), mpmath.mpf(1)
    for k in range(n):
        prev, cur = cur, 2 * x * cur - 2 * k * prev
    return cur


def _mp_hermite_zero(n, guess):
    """The zero of H_n next to a double-precision node, by Newton steps with
    H_n' = 2n H_{n-1}; from within an ulp, three steps reach 40 digits."""
    x = mpmath.mpf(guess)
    for _ in range(3):
        x -= _mp_hermite(n, x) / (2 * n * _mp_hermite(n - 1, x))
    return x


@pytest.mark.parametrize("n", (16, 80))
def test_gauss_cardinal_rows_match_a_40_digit_cardinal(n):
    """Entries of the closed form against the Hermite-function cardinal
    h_{n+1}(zeta) / (h'_{n+1}(z) (zeta - z)) at the exact zeros z of
    H_{n+1} and zeta of H_{n+2}, at 40 digits; with h'_{n+1}(z) =
    sqrt(2(n+1)) h_n(z) it is H_{n+1}(zeta) exp((z^2 - zeta^2)/2) /
    (2(n+1) H_n(z) (zeta - z))."""
    colloc, quad = hermite_gauss_rule(n), hermite_gauss_rule(n + 1)
    e = _gauss_cardinal_rows(colloc, quad)
    rng = np.random.default_rng(n)
    with mpmath.workdps(40):
        for i, j in zip(rng.integers(0, n + 2, 8), rng.integers(0, n + 1, 8)):
            z = _mp_hermite_zero(n + 1, colloc.nodes[j])
            zeta = _mp_hermite_zero(n + 2, quad.nodes[i])
            want = (_mp_hermite(n + 1, zeta) * mpmath.exp((z * z - zeta * zeta) / 2)
                    / (2 * (n + 1) * _mp_hermite(n, z) * (zeta - z)))
            assert abs(e[i, j] - float(want)) <= 1e-14 * np.max(np.abs(e)), (i, j)


def test_cancelled_row_sums_take_the_first_form():
    """A row whose barycentric sum cancels to exactly 0, where error_norms
    used to divide by zero, comes from the first form in log magnitude;
    every other row is the second form, bitwise.

    The cancelling row is built, not found: the nodes are the dyadic
    t = +-1, +-2, +-4, +-8 and the weights are symmetric, so at x = 1/2
    (t = 0, a point of every even-degree norm rule and of the fixed grid)
    the terms w_j / (t - t_j) pair off into exact negatives, and every
    partial sum is exact, so the sum is 0.0 in any order.
    """
    t_nodes = np.array([-8.0, -4.0, -2.0, -1.0, 1.0, 2.0, 4.0, 8.0])
    basis = LagrangeBasis(
        nodes_t=t_nodes,
        weights=np.array([1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 1.0]),
        nodes_x=map_to_unit(1.0, t_nodes),
    )

    def exact(x):
        return x * (1.0 - x)

    interp = Interpolant1D(basis=basis, values=exact(basis.nodes_x))
    values = interp.values
    points = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=2 * basis.degree + 16)).nodes
    d, rows, cols = _differences(basis, points)
    c = basis.weights[None, :] / d
    rowsum = np.sum(c, axis=1)
    bad = rowsum == 0.0
    assert np.array_equal(points[bad], [0.5])
    # the terms replace exactly the cancelled rows, and give them den one
    terms = _cauchy_terms(basis, points)
    assert np.array_equal(np.flatnonzero(np.any(terms.c != c, axis=1)), np.flatnonzero(bad))
    assert np.array_equal(terms.den, np.where(bad, 1.0, rowsum))
    den = terms.den
    second, second_cards = (c @ values) / den, c / den[:, None]
    second[rows] = values[cols]
    second_cards[rows] = np.eye(values.size)[cols]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = interp.eval(points)
        cards = cardinal_matrix(basis, points)
        norms = error_norms(interp, exact, 1.0)
    assert np.all(np.isfinite(got)) and np.all(np.isfinite(cards))
    assert math.isfinite(norms.err_inf) and math.isfinite(norms.err_l2chi)
    assert np.array_equal(got[~bad], second[~bad])
    assert np.array_equal(cards[~bad], second_cards[~bad])
    t = np.log(points[bad]) - np.log1p(-points[bad])
    first = _damped_rows(basis.nodes_t, t, 0.0)
    assert np.array_equal(cards[bad], first)
    # the first form's row, contracted in the one product of every row
    assert np.array_equal(terms.c[bad], first)
    assert np.array_equal(got[bad], (terms.c @ values)[bad])


def test_error_norms_skip_nodes_whose_weight_underflows():
    """At alpha 1.25 and N = 340 the first form gives about -3e171 and -8e193
    at two points of the norm rule far past the last node, where the
    weights underflow to 0: their squares overflow, and 0 * inf made the
    weighted error NaN, reported as 0."""
    rule = mhf_gauss_rule(MhfBasis(alpha=1.25, degree=340))
    values = np.log(rule.nodes) * np.log(rule.nodes_complement)
    interp = Interpolant1D(basis=LagrangeBasis.from_mhf_rule(rule), values=values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        norms = error_norms(interp, lambda x: np.log(x) * np.log1p(-x), 1.25)
    assert 0.0 < norms.err_l2chi < 1e-13


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


def test_error_norms_2d_takes_one_scale_per_axis(monkeypatch):
    # a tensor interpolant of two bases (alpha 0.5 and 0.7) is normed with
    # the pair: each axis takes its own weight and its own cardinal matrix
    # on both the sup grid and the quadrature rule
    calls = []
    cardinal = mhfie.approx.cardinal_matrix
    monkeypatch.setattr(mhfie.approx, "cardinal_matrix",
                        lambda *args: calls.append(1) or cardinal(*args))
    bases = [LagrangeBasis.from_mhf_rule(mhf_gauss_rule(MhfBasis(alpha=a, degree=12)))
             for a in (0.5, 0.7)]
    interp = tensor_interpolant(*bases, np.ones((13, 13)))
    norms = error_norms(interp, lambda x, y: np.full(np.broadcast(x, y).shape, 1.0 - 1e-3),
                        (0.5, 0.7), dim=2)
    assert len(calls) == 4
    assert norms.err_inf == pytest.approx(1e-3, rel=1e-6)
    assert norms.err_l2chi == pytest.approx(
        1e-3 * math.sqrt(SQRT_PI / 0.5 * SQRT_PI / 0.7), rel=1e-6
    )


def test_error_norms_2d_calls_a_plain_callable_on_the_open_grid():
    # like exact, a plain callable is called once on (x[:, None], y[None, :])
    # and broadcast to the tensor grid, so one of x alone works too
    exact = lambda x, y: np.log1p(x * y) + np.sqrt(y)
    assert error_norms(exact, exact, (0.5, 0.5), dim=2, degree=4) == (0.0, 0.0)
    assert error_norms(lambda x, y: 0 * x * y, lambda x, y: 0 * x * y, (0.5, 0.5),
                       dim=2, degree=4) == (0.0, 0.0)
    assert error_norms(lambda x, y: np.sqrt(x), lambda x, y: np.sqrt(x), (0.5, 0.5),
                       dim=2, degree=4) == (0.0, 0.0)
    norms = error_norms(lambda x, y: exact(x, y) + 0.25, exact, (0.5, 0.7), dim=2, degree=4)
    assert norms.err_inf == pytest.approx(0.25, abs=1e-15)
    assert norms.err_l2chi == pytest.approx(
        0.25 * math.sqrt(SQRT_PI / 0.5 * SQRT_PI / 0.7), rel=1e-12
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

    # the two routes share one kept basis; an equal basis built apart
    # shares the entry too, because the key is the basis content
    prob = get_problem("ex1-log")
    solutions = [solve(prob, SolverConfig(n=24, alpha=0.5, method=m))
                 for m in ("mhf", "smoothed")]
    assert solutions[0].interpolant.basis is solutions[1].interpolant.basis
    apart = mhf_interpolant(0.5, 24, prob.exact_solution)
    assert apart.basis is not solutions[0].interpolant.basis
    for interp in (*(s.interpolant for s in solutions), apart):
        error_norms(interp, prob.exact_solution, 0.5)
    # one entry each for the terms on the fixed grid and the terms at the
    # norm rule's nodes; the norm rule is mhf_gauss_rule's, and the memo
    # also keeps the solves' E, basis, kernel factors and inverses
    assert [key[:2] for key in empty_memo.entries if key[0] == "terms"] == [
        ("terms", "1d"), ("terms", ("rule", 0.5, 64))]
    assert sorted({key[0] for key in empty_memo.entries}) == [
        "basis", "cardinals", "inverse", "kernel", "terms"]


def _norm_case(dim: int, alpha: float, degree: int):
    """(approximant, exact, alpha argument) of an error norm in dim dimensions."""
    if dim == 1:
        interp = mhf_interpolant(alpha, degree, lambda x: np.sqrt(x * (1.0 - x)))
        return interp, lambda x: np.sqrt(x * (1.0 - x)) + 1e-3 * x, alpha
    interp, _ = make_tensor(alpha, degree, lambda x, y: np.log1p(x * y) + np.sqrt(y))
    return interp, lambda x, y: np.log1p(x * y) + np.sqrt(y) + 1e-3 * x, (alpha, alpha)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_cold_warm_and_uncached_error_norms_are_bitwise_equal(dim, alpha, empty_memo,
                                                              monkeypatch):
    for degree in (8, 24):
        interp, exact, a = _norm_case(dim, alpha, degree)
        empty_memo.clear()
        cold = error_norms(interp, exact, a, dim=dim)
        warm = error_norms(interp, exact, a, dim=dim)
        # the memo-bypassing path: an approximant that is not an interpolant
        if dim == 1:
            plain = error_norms(lambda x: interp.eval(x), exact, a, degree=degree)
        else:
            plain = error_norms(SimpleNamespace(eval_grid=interp.eval_grid, degree=degree),
                                exact, a, dim=2)
        with monkeypatch.context() as m:
            m.setattr(mhfie.approx, "memo", BoundedMemo(0))
            mhf_gauss_rule.cache_clear()
            uncached = error_norms(interp, exact, a, dim=dim)
        assert cold == warm == plain == uncached
        assert 0.0 < cold.err_l2chi < math.inf and 0.0 < cold.err_inf < math.inf


@pytest.mark.parametrize("dim", [1, 2])
def test_warm_error_norms_build_no_rule_and_no_terms(dim, empty_memo, monkeypatch):
    interp, exact, a = _norm_case(dim, 0.5, 16)
    cold = error_norms(interp, exact, a, dim=dim)
    calls = []
    # no terms are computed, and no rule is built or mapped: the norm rule
    # is mhf_gauss_rule's
    for owner, name in ((mhfie.approx, "_compute_terms"), (mhfie.mhf, "_logistic_pair"),
                        (mhfie.hermite, "_build_rule")):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    entries = list(empty_memo.entries)
    assert error_norms(interp, exact, a, dim=dim) == cold
    assert calls == [] and list(empty_memo.entries) == entries
    # the fixed grid's terms and the terms at the norm rule's nodes; the 2D
    # axes share both
    assert [key[:2] for key in entries] == [
        ("terms", "1d" if dim == 1 else "axis-2d"), ("terms", ("rule", 0.5, 48))]
    assert empty_memo.nbytes == sum(v.nbytes for v in empty_memo.entries.values())
    assert empty_memo.nbytes <= empty_memo.cap


def test_a_copy_of_the_rule_nodes_is_evaluated_without_the_memo(empty_memo, monkeypatch):
    interp = mhf_interpolant(0.5, 12, np.sqrt)
    error_norms(interp, np.sqrt, 0.5)
    entries = dict(empty_memo.entries)
    nodes = mhf_gauss_rule(MhfBasis(0.5, 40)).nodes
    calls = []
    compute = mhfie.approx._compute_terms
    monkeypatch.setattr(mhfie.approx, "_compute_terms",
                        lambda *args: calls.append(1) or compute(*args))
    copy = interp.eval(nodes.copy())
    same = interp.eval(nodes)
    # only error_norms names the rule; an eval at its nodes computes anew
    # and keeps nothing, and no kept array is a copy of the nodes
    assert len(calls) == 2 and empty_memo.entries == entries
    basis = interp.basis
    c, den = entries[("terms", ("rule", 0.5, 40), basis.nodes_t.tobytes(),
                      basis.weights.tobytes(), basis.nodes_x.tobytes())]
    assert np.array_equal(copy, (c @ interp.values) / den) and np.array_equal(copy, same)
    for value in entries.values():
        for arr in value:
            assert not np.array_equal(arr, nodes)


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


@pytest.mark.parametrize("grid, counts", [
    (mhfie.approx._GRID_1D, (2001, 999)), (mhfie.approx._GRID_AXIS_2D, (68, 33)),
])
def test_fixed_grids_are_bitwise_the_unique_construction(grid, counts):
    t_count, uniform_count = counts
    want = np.unique(np.concatenate([
        map_to_unit(1.0, np.linspace(-8.0, 8.0, t_count)),
        np.linspace(1e-3, 1.0 - 1e-3, uniform_count),
    ]))
    assert grid.dtype == want.dtype and grid.tobytes() == want.tobytes()
