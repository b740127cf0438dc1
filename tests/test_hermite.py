"""Tests for Hermite evaluation and Gauss-Hermite rules."""

import collections
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg

import mhfie.hermite
from mhfie.hermite import (
    MAX_RULE_DEGREE,
    HermiteRule,
    _build_rule,
    _hermite_rows,
    _initial_roots,
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
# Past |z| = 38.6 exp(-z^2/2) alone underflows, while h_n(z) does not.
H_SCALED_FAR = {(2000, 40.0): 0.107662611888671, (1000, 38.5): 0.0897951021240785}

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


def scaled_mp(n: int, z: float) -> float:
    """h_n(z) from mpmath at 50 digits, rounded to a double."""
    with mpmath.workdps(50):
        zm = mpmath.mpf(z)
        return float(
            mpmath.hermite(n, zm)
            * mpmath.exp(-zm * zm / 2)
            / mpmath.sqrt(mpmath.sqrt(mpmath.pi) * 2**n * mpmath.factorial(n))
        )


def test_scaled_eval_and_table_where_the_gaussian_underflows():
    for (n, z), rounded in H_SCALED_FAR.items():
        expected = scaled_mp(n, z)
        assert expected == pytest.approx(rounded, rel=1e-14)
        assert hermite_eval_scaled(n, z) == pytest.approx(expected, rel=1e-12)
        table = hermite_scaled_table(n, np.array([-z, z]))
        np.testing.assert_allclose(table[n], [expected, expected], rtol=1e-12)


def test_scaled_table_against_mpmath_up_to_max_degree():
    # The monic values may grow by 2^1000 between rescalings and the row
    # scale sqrt(2^k / k!) falls to 2^-8527 at k = 2000; only their
    # product, taken through integer exponents, is a double.  Values below
    # the smallest normal double may round to 0.0, as h_n itself does.
    z = np.array([0.3, 5.0, 12.0, 40.0, 62.8])
    rows = [0, 1, 17, 100, 500, 1000, 1999, 2000]
    table = hermite_scaled_table(MAX_RULE_DEGREE, z)
    expected = np.array([[scaled_mp(n, zj) for zj in z] for n in rows])
    np.testing.assert_allclose(table[rows], expected, rtol=1e-12, atol=np.finfo(float).tiny)


def test_scaled_eval_at_degree_ten_thousand():
    # the range the docstring promises: the row scale is 2^-54229 and
    # exp(-z^2/2) is e^-5000, far outside double range on their own
    expected = scaled_mp(10**4, 100.0)
    assert hermite_eval_scaled(10**4, 100.0) == pytest.approx(expected, rel=1e-13)


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


def test_rule_gaussian_moments_over_the_benchmark_degrees():
    # One degree in nine over 200-764, the rule-hi benchmark's range: the
    # flat quadrature sums of z^k, k <= 4, stay within 2e-15 of the exact
    # moments.  A float log of |q_N| 2^e, with e in the thousands, would
    # leave errors near 1e-13 in the weights.
    worst = 0.0
    for degree in range(200, 765, 9):
        rule = _build_rule(degree)
        for k in range(5):
            value = float(rule.weights @ rule.nodes**k)
            if k % 2 == 0:
                exact = math.gamma((k + 1) / 2.0)
                worst = max(worst, abs(value - exact) / exact)
            else:
                worst = max(worst, abs(value) / math.gamma((k + 2) / 2.0))
    assert worst <= 2e-15


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


def eigen_rule(degree: int):
    """Reference rule from the half-size Golub-Welsch eigenproblem.

    The squared nonnegative nodes are the eigenvalues of the Laguerre Jacobi
    matrix with parameter -1/2 (even node count) or +1/2 (odd count, plus
    the exact node 0.0); one Newton step on the monic recurrence polishes
    them, and the weight takes q_N there to first order.  Returns
    the nodes and log-weights, both mirrored and renormalized to sqrt(pi).
    """
    count = degree + 1
    size, odd = divmod(count, 2)
    a = 0.5 if odd else -0.5
    j = np.arange(size, dtype=float)
    squares = np.empty(0)
    if size:
        squares = scipy.linalg.eigvalsh_tridiagonal(
            2.0 * j + (a + 1.0), np.sqrt(j[1:] * (j[1:] + a))
        )
    z = np.concatenate([np.zeros(odd), np.sqrt(squares)])
    q_deg, q_top, exponent = collections.deque(_hermite_rows(count, z), maxlen=1).pop()
    delta = -q_top / (count * q_deg)
    # q_N' = N q_{N-1} = 2 (z q_N - q_{N+1}) by the monic recurrence
    mantissa, e = np.frexp(q_deg + delta * 2.0 * (z * q_deg - q_top))
    z = z + delta
    e = e + exponent
    log_w = -2.0 * (np.log(np.abs(mantissa)) + (e - e.min()) * math.log(2.0))
    nodes = np.concatenate([-z[odd:][::-1], z])
    log_weights = np.concatenate([log_w[odd:][::-1], log_w])
    log_weights = log_weights + math.log(SQRT_PI / np.sum(np.exp(log_weights)))
    return nodes, log_weights


ORACLE_DEGREES = sorted(
    set(range(21)) | {764, 765, MAX_RULE_DEGREE}
    | {int(d) for d in np.geomspace(22, 1990, 37)}
)


@pytest.mark.parametrize("degree", ORACLE_DEGREES)
def test_rule_matches_the_eigenvalue_rule(degree):
    # Each rule's log-weights carry the recurrence's rounding, which grows
    # like sqrt(N) eps (at degree 64 the eigenvalue rule itself is 6.2 eps
    # from a 40-digit mpmath value), so they are compared on that scale.
    eps = np.finfo(float).eps
    rule = hermite_gauss_rule(degree)
    nodes, log_weights = eigen_rule(degree)
    assert np.all(np.diff(rule.nodes) > 0.0)
    np.testing.assert_array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.all(np.abs(rule.nodes - nodes) <= 2.0 * eps * np.maximum(np.abs(nodes), 1.0))
    scale = np.maximum(np.abs(log_weights), 1.0) + math.sqrt(degree + 1)
    assert np.all(np.abs(rule.log_weights - log_weights) <= 4.0 * eps * scale)
    # the asymptotic guesses lie within a few thousandths of the zero spacing
    guesses = _initial_roots(degree + 1)
    gap = np.max(np.abs(guesses - nodes[(degree + 1) // 2:]), initial=0.0)
    assert gap * math.sqrt(2.0 * (degree + 1)) <= 3.1e-3


def test_rule_rejects_out_of_range_degree():
    with pytest.raises(ValueError):
        hermite_gauss_rule(-1)
    with pytest.raises(ValueError):
        hermite_gauss_rule(2001)


def test_rule_degree_must_be_an_integer():
    # the memo keys by the normalized degree, so the answer for 5.0 cannot
    # depend on whether degree 5 was built before
    for _ in range(2):
        with pytest.raises(TypeError, match="degree must be an integer, got 5.0"):
            hermite_gauss_rule(5.0)
        hermite_gauss_rule(5)
    rule = hermite_gauss_rule(np.int64(5))
    assert type(rule.degree) is int
    assert rule is hermite_gauss_rule(5)


def test_rule_arrays_are_read_only():
    rule = hermite_gauss_rule(6)
    assert isinstance(rule, HermiteRule)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


@pytest.mark.parametrize("degree", [0, 1, 63, 64, 65, 764, 2000])
def test_rule_is_bitwise_the_rule_rescaled_every_16_steps(degree, monkeypatch):
    # the recurrence rescales by exact powers of two, so how often it does
    # so leaves every bit of the rule as it was
    rule = _build_rule(degree)
    monkeypatch.setattr(mhfie.hermite, "_rescale_stride", lambda nmax, z: 16)
    pinned = _build_rule(degree)
    for name in ("nodes", "weights", "log_weights"):
        assert np.array_equal(getattr(rule, name), getattr(pinned, name)), name
