"""Tests for the mapped basis, weight, norms, and mapped Gauss rules."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mhfie.mhf import (
    MhfBasis,
    _logistic_pair,
    gamma_n,
    log_gamma_n,
    map_to_real,
    map_to_unit,
    mhf_eval,
    mhf_gauss_rule,
    mhf_pseudo_deriv,
    mhf_quadrature,
    mhf_unit_weights,
    weight_chi,
)

SQRT_PI = math.sqrt(math.pi)

# mpmath reference (60 digits): log(sqrt(pi) * 2^150 * 150!)
LOG_GAMMA_150_ALPHA1 = 709.5645478763401803576292


def test_map_closed_form_points():
    assert map_to_real(1.0, 0.5) == 0.0
    assert map_to_unit(1.0, 0.0) == 0.5
    # x = e/(1+e) has logit exactly 1
    x = math.e / (1.0 + math.e)
    assert map_to_real(2.0, x) == pytest.approx(2.0, rel=1e-14)


def test_map_rejects_points_outside_unit_interval():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(ValueError):
            map_to_real(1.0, bad)


def test_map_saturates_instead_of_overflowing():
    assert map_to_unit(1.0, 800.0) == 1.0
    assert map_to_unit(1.0, -800.0) == 0.0


@given(
    t=st.floats(min_value=-30.0, max_value=30.0),
    alpha=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_map_round_trip_from_real(t, alpha):
    x = map_to_unit(alpha, t)
    assert 0.0 <= x <= 1.0
    if 0.0 < x < 1.0:
        # the inverse amplifies the rounding of x by 1/(x(1-x))
        tol = alpha * 1e-15 / (x * (1.0 - x)) + 1e-12
        assert map_to_real(alpha, x) == pytest.approx(t, abs=tol)


@given(x=st.floats(min_value=1e-12, max_value=1.0 - 1e-12))
@settings(max_examples=200, deadline=None)
def test_map_round_trip_from_unit(x):
    t = map_to_real(0.8, x)
    assert map_to_unit(0.8, t) == pytest.approx(x, rel=1e-9, abs=1e-12)


def test_weight_chi_midpoint_value():
    # at x = 1/2 the logit vanishes, so chi = 1/(x(1-x)) = 4
    assert weight_chi(1.0, 0.5) == pytest.approx(4.0, rel=1e-15)
    assert weight_chi(0.3, 0.5) == pytest.approx(4.0, rel=1e-15)


def test_weight_chi_symmetry_and_positivity():
    # dyadic points whose complements are exactly representable
    x = np.array([0.0625, 0.25, 0.375, 0.5])
    vals = weight_chi(0.7, x)
    flipped = weight_chi(0.7, 1.0 - x)
    np.testing.assert_allclose(vals, flipped, rtol=1e-12)
    assert np.all(vals > 0.0)
    assert np.all(weight_chi(0.7, np.array([1e-8, 1.0 - 1e-8])) > 0.0)


def test_basis_validation():
    with pytest.raises(ValueError):
        MhfBasis(alpha=0.0, degree=4)
    with pytest.raises(ValueError):
        MhfBasis(alpha=-1.0, degree=4)
    with pytest.raises(ValueError):
        MhfBasis(alpha=101.0, degree=4)
    with pytest.raises(ValueError):
        MhfBasis(alpha=1.0, degree=-1)
    with pytest.raises(ValueError):
        MhfBasis(alpha=1.0, degree=2001)
    with pytest.raises(TypeError, match="degree must be an integer, got 5.0"):
        MhfBasis(alpha=0.5, degree=5.0)


def test_mhf_eval_is_hermite_of_the_logit():
    basis = MhfBasis(alpha=0.8, degree=6)
    for x in (0.1, 0.5, 0.93):
        z = 0.8 * math.log(x / (1.0 - x))
        assert mhf_eval(basis, 0, x) == 1.0
        assert mhf_eval(basis, 1, x) == pytest.approx(2.0 * z, rel=1e-13)
        assert mhf_eval(basis, 2, x) == pytest.approx(4.0 * z * z - 2.0, rel=1e-12)
    with pytest.raises(ValueError):
        mhf_eval(basis, 7, 0.5)


def test_gamma_n_closed_form_and_log_form():
    assert gamma_n(1.0, 0) == pytest.approx(SQRT_PI, rel=1e-15)
    assert gamma_n(0.5, 3) == pytest.approx(SQRT_PI * 8.0 * 6.0 / 0.5, rel=1e-14)
    assert log_gamma_n(1.0, 150) == pytest.approx(LOG_GAMMA_150_ALPHA1, rel=1e-14)
    # the two forms agree where both are representable
    for n in (0, 5, 100, 140):
        assert math.log(gamma_n(2.0, n)) == pytest.approx(
            log_gamma_n(2.0, n), rel=1e-13
        )
    with pytest.raises(ValueError):
        gamma_n(0.0, 3)
    with pytest.raises(ValueError):
        gamma_n(1.0, -1)


def test_rule_weight_sum():
    for alpha in (0.5, 1.0, 2.0):
        rule = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=30))
        assert rule.weights.sum() == pytest.approx(SQRT_PI / alpha, rel=1e-13)


def test_rule_node_symmetry_and_complements():
    rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=25))
    np.testing.assert_allclose(rule.nodes + rule.nodes[::-1], 1.0, atol=1e-15)
    np.testing.assert_allclose(
        rule.nodes + rule.nodes_complement, 1.0, atol=1e-15
    )
    assert np.all(np.diff(rule.nodes) > 0.0)


def test_logistic_pair_is_the_logistic_and_its_complement():
    t = np.array([-800.0, -40.0, -1.5, -1e-300, -0.0, 0.0, 1e-300, 1.5, 40.0, 800.0])
    sig, sig_c = _logistic_pair(t)
    # each half is the one-sided formula sigma(s) = 1/(1+e^-s) = e^s/(1+e^s)
    # on its own side, bit for bit, so the pair mirrors exactly
    for s, got in ((t, sig), (-t, sig_c)):
        e = np.exp(-np.abs(s))
        np.testing.assert_array_equal(got, np.where(s >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e)))
    np.testing.assert_array_equal(sig_c, sig[::-1])
    # the small side keeps its relative accuracy where 1 - sigma would cancel
    assert sig_c[-2] == pytest.approx(math.exp(-40.0), rel=1e-15)
    assert (sig[0], sig_c[0], sig[-1], sig_c[-1]) == (0.0, 1.0, 1.0, 0.0)
    assert map_to_unit(2.0, 80.0) == sig[-2]


def test_rule_nodes_cluster_at_endpoints():
    rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=100))
    assert rule.nodes[0] < 1e-3
    assert rule.nodes_complement[-1] < 1e-3
    # clustering tightens as the degree grows
    coarse = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=20))
    assert rule.nodes[0] < coarse.nodes[0]


def test_discrete_orthogonality():
    """The rule reproduces the orthogonality relations of the basis."""
    for alpha in (0.5, 1.0):
        rule = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=12))
        q = np.array(
            [
                [mhf_eval(MhfBasis(alpha=alpha, degree=8), n, x) for x in rule.nodes]
                for n in range(9)
            ]
        )
        gram = (q * rule.weights[None, :]) @ q.T
        for m in range(9):
            for n in range(9):
                if m == n:
                    assert gram[m, n] == pytest.approx(
                        gamma_n(alpha, n), rel=1e-12
                    )
                else:
                    assert abs(gram[m, n]) <= 1e-10 * gamma_n(alpha, max(m, n))


def test_quadrature_gaussian_moments():
    # integral of t^k against chi equals Gamma((k+1)/2)/alpha^(k+1), even k
    for alpha in (0.5, 1.0):
        rule = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=10))
        t = rule.logits
        for k in (0, 2, 6):
            exact = math.gamma((k + 1) / 2.0) / alpha ** (k + 1)
            assert float(t**k @ rule.weights) == pytest.approx(exact, rel=1e-13)


def test_quadrature_accepts_scalar_callables():
    rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=8))
    vector = mhf_quadrature(rule, lambda x: np.ones_like(x))
    scalar = mhf_quadrature(rule, lambda x: 1.0)
    assert vector == pytest.approx(SQRT_PI, rel=1e-14)
    assert scalar == vector


def test_quadrature_reports_bad_node_by_index():
    rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=8))

    def f(x):
        vals = np.asarray(x, dtype=float).copy()
        vals[2] = np.nan
        return vals

    with pytest.raises(ValueError, match="j=2"):
        mhf_quadrature(rule, f)


def test_unit_weights_integrate_against_lebesgue_measure():
    # sum c_j f(x_j) approximates the plain integral of f over (0,1)
    rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=60))
    c = mhf_unit_weights(rule)
    assert np.all(np.isfinite(c))
    assert float(np.ones_like(c) @ c) == pytest.approx(1.0, abs=2e-3)
    assert float(rule.nodes @ c) == pytest.approx(0.5, abs=2e-3)


def test_unit_weights_survive_large_degree():
    # the exp(+z^2) factor would overflow near degree 40 if materialized
    rule = mhf_gauss_rule(MhfBasis(alpha=1.0, degree=300))
    c = mhf_unit_weights(rule)
    assert np.all(np.isfinite(c))
    assert float(np.sum(c)) == pytest.approx(1.0, abs=1e-3)


def test_pseudo_derivative_lowers_the_index():
    basis = MhfBasis(alpha=0.7, degree=9)
    for n in (1, 4, 9):
        for x in (0.2, 0.5, 0.8):
            expected = 2.0 * n * 0.7 * mhf_eval(MhfBasis(alpha=0.7, degree=9), n - 1, x)
            assert mhf_pseudo_deriv(basis, n, x) == pytest.approx(expected, rel=1e-13)
    assert mhf_pseudo_deriv(basis, 0, 0.37) == 0.0


def test_pseudo_derivative_matches_finite_differences():
    """x(1-x) d/dx of Q_n against a centered difference in x."""
    basis = MhfBasis(alpha=0.6, degree=7)
    for n in (1, 3, 7):
        for x in (0.23, 0.5, 0.77):
            h = 1e-6
            fd = (mhf_eval(basis, n, x + h) - mhf_eval(basis, n, x - h)) / (2.0 * h)
            expected = x * (1.0 - x) * fd
            assert mhf_pseudo_deriv(basis, n, x) == pytest.approx(expected, rel=1e-8)


def test_pseudo_derivative_recurrence_closure():
    # applying the lowering rule twice reproduces the three-term recurrence:
    # Q_n = 2 alpha t Q_{n-1} - 2(n-1) Q_{n-2}
    basis = MhfBasis(alpha=1.3, degree=10)
    for n in (2, 5, 10):
        for x in (0.31, 0.5, 0.9):
            t = map_to_real(1.0, x)
            lhs = mhf_eval(basis, n, x)
            rhs = 2.0 * 1.3 * t * mhf_eval(basis, n - 1, x) - 2.0 * (
                n - 1
            ) * mhf_eval(basis, n - 2, x)
            assert lhs == pytest.approx(rhs, rel=1e-11)
