"""Tests for Hermite evaluation and Gauss-Hermite rules."""

import math

import numpy as np
import pytest

from mhfie.hermite import (
    MAX_RULE_DEGREE,
    HermiteRule,
    hermite_eval,
    hermite_eval_scaled,
    hermite_gauss_rule,
    hermite_orthonormal_table,
    hermite_scaled_table,
)

SQRT_PI = math.sqrt(math.pi)

# Independent 25-digit reference values (computed with mpmath at 60 digits):
# h_n(z) = H_n(z) exp(-z^2/2) / sqrt(sqrt(pi) 2^n n!)
H_SCALED_200_AT_1 = 0.07007842489267640059621015
H_SCALED_60_AT_5P5 = 0.06218644686399751143725721

# Extreme node z_0 and log-weight log w_0 of the degree-N Gauss-Hermite rule
# (N+1 nodes), computed with mpmath at 60 digits: Newton on H_{N+1} with
# mpmath.hermite from the double node, then
# log w_0 = log(2^N (N+1)! sqrt(pi) / ((N+1)^2 H_N(z_0)^2)).
# Keyed by N; values are (z_0, log w_0) to 20 digits.
EXTREME_NODE_AND_LOG_WEIGHT = {
    765: (-38.606269107143452606, -1491.1848608476029455),
    1000: (-44.231589552327138563, -1957.2193909352999891),
    2000: (-62.803203821088230935, -3945.1445562127641968),
}


def test_low_degree_closed_forms():
    for z in (-1.7, 0.0, 0.3, 2.5):
        assert hermite_eval(0, z) == 1.0
        assert hermite_eval(1, z) == pytest.approx(2.0 * z, rel=1e-15)
        assert hermite_eval(2, z) == pytest.approx(4.0 * z * z - 2.0, rel=1e-14)
        assert hermite_eval(3, z) == pytest.approx(8.0 * z**3 - 12.0 * z, rel=1e-13)


def test_eval_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.5)
    with pytest.raises(ValueError):
        hermite_eval(3, float("nan"))
    with pytest.raises(ValueError):
        hermite_eval_scaled(-2, 0.5)


def test_eval_overflow_is_reported():
    # H_n(z) grows like (2z)^n; degree 400 at z=30 is far beyond double range
    with pytest.raises(OverflowError):
        hermite_eval(400, 30.0)


def test_scaled_eval_matches_reference_values():
    assert hermite_eval_scaled(200, 1.0) == pytest.approx(
        H_SCALED_200_AT_1, rel=1e-13
    )
    assert hermite_eval_scaled(60, 5.5) == pytest.approx(
        H_SCALED_60_AT_5P5, rel=1e-13
    )


def test_scaled_eval_agrees_with_raw_at_moderate_degree():
    for n in (0, 1, 5, 12):
        for z in (-2.2, 0.4, 1.9):
            gamma = SQRT_PI * 2.0**n * math.factorial(n)
            expected = hermite_eval(n, z) * math.exp(-0.5 * z * z) / math.sqrt(gamma)
            assert hermite_eval_scaled(n, z) == pytest.approx(expected, rel=1e-12)


def test_scaled_eval_underflows_to_zero():
    assert hermite_eval_scaled(3, 50.0) == 0.0


def test_scaled_table_matches_pointwise_eval():
    z = np.array([-3.0, -0.5, 0.0, 1.25, 4.0])
    table = hermite_scaled_table(10, z)
    assert table.shape == (11, 5)
    for n in (0, 3, 10):
        for j, zj in enumerate(z):
            assert table[n, j] == pytest.approx(
                hermite_eval_scaled(n, zj), rel=1e-13, abs=1e-300
            )


def test_orthonormal_table_strips_the_gaussian():
    z = np.array([-1.5, 0.25, 2.0])
    bare = hermite_orthonormal_table(6, z)
    weighted = hermite_scaled_table(6, z)
    np.testing.assert_allclose(
        bare * np.exp(-0.5 * z * z)[None, :], weighted, rtol=1e-13
    )


def test_rule_degree_one_closed_form():
    rule = hermite_gauss_rule(1)
    np.testing.assert_allclose(
        rule.nodes, [-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)], rtol=1e-15
    )
    np.testing.assert_allclose(rule.weights, [SQRT_PI / 2.0, SQRT_PI / 2.0], rtol=1e-15)


def test_rule_degree_zero():
    rule = hermite_gauss_rule(0)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-15)


def test_rule_weight_sum_and_symmetry():
    for degree in (4, 17, 64, 200):
        rule = hermite_gauss_rule(degree)
        assert rule.weights.sum() == pytest.approx(SQRT_PI, rel=1e-13)
        np.testing.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=0.0)
        np.testing.assert_allclose(rule.weights, rule.weights[::-1], rtol=0.0)


def symmetric_moment(rule, k: int) -> float:
    """Quadrature sum of z^k, accumulating symmetric node pairs together.

    Pairing j with N-j keeps the exact cancellation of odd powers that the
    rule's antisymmetric nodes provide; a flat dot product would instead
    leave roundoff proportional to the largest term, which for high powers
    dwarfs the (zero) odd moments.  Powers go through |z|^k with the sign
    applied afterwards because libm pow is not exactly odd in its base.
    """
    mag = np.abs(rule.nodes) ** k
    sign = np.where(rule.nodes < 0.0, (-1.0) ** k, 1.0)
    terms = rule.weights * mag * sign
    half = terms.size // 2
    paired = terms[:half] + terms[::-1][:half]
    middle = terms[half] if terms.size % 2 else 0.0
    return float(np.sum(paired) + middle)


def test_rule_moment_exactness():
    """A degree-N rule integrates z^k exp(-z^2) exactly for k <= 2N+1."""
    for degree in (3, 8, 20):
        rule = hermite_gauss_rule(degree)
        for k in range(2 * degree + 2):
            value = symmetric_moment(rule, k)
            if k % 2 == 1:
                assert abs(value) < 1e-12
            else:
                exact = math.gamma((k + 1) / 2.0)
                assert value == pytest.approx(exact, rel=1e-12)


def test_rule_matches_numpy_hermgauss():
    # every degree up to 70 covers both node-count parities of the
    # half-size eigenproblem
    for degree in range(71):
        rule = hermite_gauss_rule(degree)
        ref_nodes, ref_weights = np.polynomial.hermite.hermgauss(degree + 1)
        np.testing.assert_allclose(rule.nodes, ref_nodes, atol=5e-14)
        np.testing.assert_allclose(rule.weights, ref_weights, rtol=5e-12, atol=1e-300)


def test_rule_nodes_ascend_with_exact_middle_node():
    for degree in range(41):
        rule = hermite_gauss_rule(degree)
        assert np.all(np.diff(rule.nodes) > 0.0)
        np.testing.assert_array_equal(rule.weights, np.exp(rule.log_weights))
        if degree % 2 == 0:
            middle = rule.nodes[degree // 2]
            assert middle == 0.0 and not np.signbit(middle)


def test_log_weights_consistent_with_weights():
    rule = hermite_gauss_rule(40)
    mask = rule.weights > 0.0
    np.testing.assert_allclose(
        np.exp(rule.log_weights[mask]), rule.weights[mask], rtol=1e-11
    )


def test_log_weights_survive_underflow():
    # at degree 700 the extreme nodes sit at |z|=36.90 where exp(-z^2) would
    # underflow; the log form must stay finite and monotone toward the edge
    rule = hermite_gauss_rule(700)
    assert np.all(np.isfinite(rule.log_weights))
    assert rule.log_weights[0] < rule.log_weights[rule.degree // 2]


@pytest.mark.parametrize("degree", [765, 1000, MAX_RULE_DEGREE])
def test_rule_holds_up_to_max_degree(degree):
    # from degree 765 up exp(-z^2/2) underflows at the extreme nodes, so the
    # recurrence behind the Newton polish and the weights must run rescaled
    rule = hermite_gauss_rule(degree)
    for arr in (rule.nodes, rule.weights, rule.log_weights):
        assert np.all(np.isfinite(arr))
    np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
    np.testing.assert_array_equal(rule.weights, np.exp(rule.log_weights))
    assert rule.weights.sum() == pytest.approx(SQRT_PI, rel=1e-14)
    for k in (2, 4):
        exact = math.gamma((k + 1) / 2.0)
        assert symmetric_moment(rule, k) == pytest.approx(exact, rel=1e-14)
    z0, log_w0 = EXTREME_NODE_AND_LOG_WEIGHT[degree]
    assert rule.nodes[0] == pytest.approx(z0, rel=1e-15)
    # an absolute error of 2e-12 in log w_0 is a relative 2e-12 in w_0
    assert rule.log_weights[0] == pytest.approx(log_w0, abs=2e-12)


@pytest.mark.parametrize("degree", [200, 765, 1000, MAX_RULE_DEGREE])
def test_rule_nodes_are_roots_to_roundoff(degree):
    # the Newton step h_{N+1} / (sqrt(2(N+1)) h_N), taken from the plain
    # orthonormal table, must be at roundoff level: without the polish the
    # eigenvalues alone leave steps of 2.5e-14 (degree 200) to 1.6e-13
    rule = hermite_gauss_rule(degree)
    z = rule.nodes[np.abs(rule.nodes) < 20.0]
    table = hermite_orthonormal_table(degree + 1, z)
    step = table[degree + 1] / (math.sqrt(2.0 * (degree + 1)) * table[degree])
    assert np.max(np.abs(step)) < 1e-14


def test_rule_rejects_out_of_range_degree():
    with pytest.raises(ValueError):
        hermite_gauss_rule(-1)
    with pytest.raises(ValueError):
        hermite_gauss_rule(2001)


def test_rule_arrays_are_read_only():
    rule = hermite_gauss_rule(6)
    assert isinstance(rule, HermiteRule)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
