"""Hermite polynomials and Gauss-Hermite quadrature on the real line.

Everything here uses the physicists' convention: H_0(z) = 1, H_1(z) = 2z,
H_{n+1}(z) = 2z H_n(z) - 2n H_{n-1}(z), orthogonal under exp(-z^2) with
norm gamma_n = sqrt(pi) 2^n n!.

Raw Hermite values overflow quickly (H_n grows like sqrt(gamma_n) e^{z^2/2}),
so large-degree work goes through the normalized Hermite functions

    h_n(z) = H_n(z) exp(-z^2/2) / sqrt(gamma_n),

which stay bounded for all n and z.  They are computed from the monic
polynomials q_n = H_n / 2^n, whose recurrence

    q_{n+1} = z q_n - (n/2) q_{n-1}

has exact coefficients.  h_n = q_n sqrt(2^n / n!) exp(-z^2/2) / pi^(1/4):
q_n and the normalization are each carried as a mantissa and an integer
power of two, and the normalization is applied per row outside the loop.

One rescaled loop of that recurrence, _hermite_rows, serves the tables,
hermite_eval_scaled and the Gauss-Hermite rule.  The rule needs no
normalization, which is common to every node and removed when the weights
are scaled to sum to sqrt(pi), and no eigensolver: asymptotic expansions
place every nonnegative node to a few thousandths of the local zero
spacing (Tricomi's interior formula and Gatteschi's Airy-type formula near
the largest zero; Gatteschi, J. Comput. Appl. Math. 144, 2002), and one
pass of the recurrence there, with the Hermite differential equation for
the higher derivatives, corrects them to roundoff (compare Glaser, Liu &
Rokhlin, SIAM J. Sci. Comput. 29, 2007; Townsend, Trogdon & Olver, IMA J.
Numer. Anal. 36, 2016).  Because
exp(-z^2) is even, only the nonnegative nodes are computed and the rule is
mirrored.  hermite_gauss_rule keeps the rules it builds in one bounded memo
keyed by degree, and mhf_gauss_rule maps each rule it reads from there once
into a memo of the same bound keyed by (alpha, degree); every caller, the
residual certificate included, shares both.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HermiteRule",
    "hermite_eval",
    "hermite_eval_scaled",
    "hermite_gauss_rule",
    "hermite_scaled_table",
    "hermite_orthonormal_table",
]

SQRT_PI = math.sqrt(math.pi)

MAX_RULE_DEGREE = 2000
# Rules kept by each of the memos under hermite_gauss_rule and
# mhf_gauss_rule.  The bound caps memory: a degree-2000 rule holds three
# arrays of 2001 doubles, about 48 KB, and its mapped rule four more and
# the Gauss-Hermite rule, so the two memos keep at most about 5 MB alive.
_RULE_MEMO_SIZE = 32


def hermite_eval(n: int, z: float) -> float:
    """Evaluate H_n(z) by the three-term recurrence.

    The raw loop is the independent reference for _hermite_rows.  Raises
    OverflowError once the value leaves double range; callers that need
    large n should use hermite_eval_scaled instead.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"evaluation point must be finite, got {z}")
    if n == 0:
        return 1.0
    hprev, h = 1.0, 2.0 * z
    for k in range(1, n):
        hprev, h = h, 2.0 * z * h - 2.0 * k * hprev
    if not math.isfinite(h):
        raise OverflowError(f"H_{n}({z}) overflows double precision")
    return h


def hermite_eval_scaled(n: int, z: float) -> float:
    """Evaluate the normalized Hermite function h_n(z).

    Bounded by about 0.816 for every n and z, so this is safe for degrees
    and arguments far beyond the raw recurrence (n up to 10^4, |z| up to
    10^2 and beyond; tested against mpmath at n = 10^4, z = 100).  It
    returns 0.0 only where h_n(z) itself underflows, as for n = 3, z = 50.
    The recurrence runs to its last row only, and the row scale
    sqrt(2^n / n!) / pi^(1/4) is applied once, from n! split exactly into a
    mantissa and an integer exponent, as _table applies it per row.
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"evaluation point must be finite, got {z}")
    _, q, e = collections.deque(_hermite_rows(n, np.array([z])), maxlen=1).pop()
    factorial = math.factorial(n)
    shift = factorial.bit_length() - 1
    # s_n^2 = 2^n / (n! sqrt(pi)) = m 2^f; the int quotient is correctly rounded
    m, f = 1.0 / (SQRT_PI * (factorial / (1 << shift))), n - shift
    half = f >> 1
    total = int(e[0]) + half
    scale = math.exp((total * _LN2_HI - 0.5 * z * z) + total * _LN2_LO)
    return float(q[0]) * scale * math.sqrt(math.ldexp(m, f - 2 * half))


def _rescale_stride(nmax: int, z: np.ndarray) -> int:
    """Steps between the rescalings of _hermite_rows: floor(1000 / log2 G).

    One step multiplies max(|q_k|, |q_{k-1}|) by at most
    G = max|z| + nmax/2, and the maximum starts at 1 and is left below 1 by
    every rescaling, so between rescalings the values stay below 2^1000,
    short of overflow at 2^1024.  For every rule (|z| < 64,
    nmax <= MAX_RULE_DEGREE + 1) that is about every 99 steps, and every 81
    for n = 10^4, z = 100.  A G below 2 (or a NaN z) counts as 2, and an
    infinite z makes the stride 1.
    """
    growth = float(np.max(np.abs(z), initial=0.0)) + 0.5 * nmax
    return max(1, int(1000.0 / math.log2(max(2.0, growth))))


def _hermite_rows(nmax: int, z: np.ndarray):
    """Yield (q_{k-1}, q_k, e_k), k = 0..nmax: H_k(z) / 2^k = q_k 2^e_k.

    The monic recurrence q_{k+1} = z q_k - (k/2) q_{k-1} runs from q_0 = 1
    (q_{-1} = 0) on three buffers, in place, and scales the pair it carries
    by exact powers of two every _rescale_stride(nmax, z) steps, so q_k
    cannot overflow however fast H_k grows.
    The pair is yielded at one exponent; e_k is one array object from one
    rescale to the next.  The buffers are overwritten as the loop goes on,
    so read a row before asking for the next one.
    """
    stride = _rescale_stride(nmax, z)
    exponent = np.zeros(z.shape, dtype=int)
    prev, cur, nxt = np.zeros_like(z), np.ones_like(z), np.empty_like(z)
    yield prev, cur, exponent
    for k in range(nmax):
        # Outputs are passed positionally: parsing out= as a keyword costs
        # about a tenth of a step at the sizes of the rules.
        np.multiply(prev, -0.5 * k, prev)
        np.multiply(z, cur, nxt)
        np.add(nxt, prev, nxt)
        prev, cur, nxt = cur, nxt, prev
        if k and k % stride == 0:
            _, e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))
            np.ldexp(cur, -e, out=cur)
            np.ldexp(prev, -e, out=prev)
            exponent = exponent + e
        yield prev, cur, exponent


# log(2) in two parts (Cody and Waite, as in fdlibm's exp): the first has 32
# significant bits, so its product with any integer below 2^21 is exact.
_LN2_HI, _LN2_LO = 0.6931471803691238, 1.9082149292705877e-10


def _table(nmax: int, z: np.ndarray, log_gauss) -> np.ndarray:
    """Rows 0..nmax of H_k(z) exp(log_gauss) / sqrt(gamma_k).

    Row k is q_k 2^e_k s_k exp(log_gauss) with s_k = sqrt(2^k / k!) / pi^(1/4).
    s_k^2 is carried as a mantissa m and an integer exponent f, and the
    integer exponents are added before the one conversion to a float log, so
    neither the row scale nor q_k 2^e_k over- or underflows alone and no
    rounded float log of either enters the result.
    """
    table = np.empty((nmax + 1, z.size))
    exponent, m, f = None, 1.0 / SQRT_PI, 0
    for k, (_, q, e) in enumerate(_hermite_rows(nmax, z)):
        if k:
            m, df = math.frexp(m * (2.0 / k))
            f += df
        half = f >> 1  # s_k = sqrt(m 2^(f - 2 half)) 2^half
        if e is not exponent:
            exponent, base = e, half
            total = e + base
            scale = np.exp((total * _LN2_HI + log_gauss) + total * _LN2_LO)
        row = table[k]
        np.multiply(q, scale, row)
        row *= math.ldexp(math.sqrt(math.ldexp(m, f - 2 * half)), half - base)
    return table


def hermite_scaled_table(nmax: int, z: np.ndarray) -> np.ndarray:
    """Table of normalized Hermite functions h_n(z), shape (nmax+1, len(z))."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return _table(nmax, z, -0.5 * z * z)


def hermite_orthonormal_table(nmax: int, z: np.ndarray) -> np.ndarray:
    """Table of orthonormal Hermite polynomials H_n(z)/sqrt(gamma_n).

    Unlike hermite_scaled_table this omits the Gaussian factor, so entries
    grow like exp(z^2/2); intended for evaluating expansions at moderate z.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return _table(nmax, z, 0.0)


@dataclass(frozen=True)
class HermiteRule:
    """Gauss-Hermite rule with N+1 nodes, exact on P_{2N+1} against exp(-z^2).

    Nodes ascend and are exactly antisymmetric, z_j = -z_{N-j}; for even N
    the middle node is exactly 0.0.  The weights are
    w_j = exp(-z_j^2) / ((N+1) h_N(z_j)^2), evaluated in log space from the
    monic recurrence: log_weights holds log(w_j), exactly symmetric,
    and weights is exactly exp(log_weights).  The log form stays meaningful
    where the weights themselves underflow (|z| large).  Sum of weights is
    sqrt(pi).
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray


# The first ten zeros a_k of the Airy function Ai (DLMF Table 9.9.1).
_AIRY_ZEROS = np.array([
    -2.338107410459767, -4.0879494441309706, -5.5205598280955511,
    -6.786708090071759, -7.9441335871208531, -9.0226508533409804,
    -10.040174341558086, -11.008524303733263, -11.936015563236263,
    -12.828776752865757,
])
# Gatteschi's expansion of the k-th largest squared zero of H_n, with
# nu = 2n+1 and x = a_k s, s = (2/nu)^(2/3): z^2 ~ nu P(x) + Q(x) / nu.
# Row p of _GATTESCHI_TERMS holds a_k^p times the coefficient of x^p in P
# (first six rows) or in Q (last three), so the squared zeros are one
# product of the rows with (nu s^p, ..., s^p / nu, ...).
_GATTESCHI_P = (1.0, 1.0, 1 / 5, -3 / 175, 23 / 7875, -1894 / 3031875)
_GATTESCHI_Q = (9 / 140, 16 / 1575, -544 / 121275)
_GATTESCHI_TERMS = np.array(
    [c * _AIRY_ZEROS**p for coeffs in (_GATTESCHI_P, _GATTESCHI_Q)
     for p, c in enumerate(coeffs)]
)


# The weights' error is the recurrence's rounding, about sqrt(N) eps
# relative, and it is independent between evaluation points even a few ulps
# apart.  The rule therefore runs its pass over three copies of the guesses,
# scaled by these factors, and averages each node's log-weights over them,
# which cuts that error by sqrt(3): over degrees 200-764 the worst error of
# the Gaussian moments 0 to 4 falls from about 2.2e-15 with one copy to
# 1.2e-15, and the 99th percentile from 1.5e-15 to 8.8e-16.  The pass is bound
# by call overhead for small rules, so the extra copies cost little there.
_SAMPLE_SCALES = 1.0 + 2.0**-30 * np.arange(3.0)


def _initial_roots(count: int) -> np.ndarray:
    """Nonnegative zeros of H_count, ascending, from asymptotic expansions.

    Tricomi's formula gives the k-th largest zero as z^2 = nu cos^2(T/2) -
    (5 / (4 sin^4(T/2)) - 1 / sin^2(T/2) - 1/4) / (3 nu), with nu = 2n+1 and
    T - sin T = (4k-1) pi / nu solved by two Newton steps from
    (6r)^(1/3) + r/10; Gatteschi's Airy-type formula replaces the largest
    min(10, m/4) of the m positive zeros, where Tricomi's loses accuracy.
    An odd count adds the exact zero 0.0.  Over counts 2..2001 every zero
    lies within 3.1e-3 / sqrt(2n) of the true one, a few thousandths of the
    local zero spacing.
    """
    size = count // 2
    nu = 2.0 * count + 1.0
    r = np.arange(4.0 * size - 1.0, 0.0, -4.0) * (math.pi / nu)
    t = np.cbrt(6.0 * r) + 0.1 * r
    for _ in range(2):
        t = t - (t - np.sin(t) - r) / (1.0 - np.cos(t))
    s = np.sin(0.5 * t) ** 2
    z = np.sqrt((nu + 1.0 / (12.0 * nu)) - nu * s - (1.25 / s - 1.0) / ((3.0 * nu) * s))
    airy = min(len(_AIRY_ZEROS), size // 4)
    if airy:
        scale = (2.0 / nu) ** (2.0 / 3.0)
        powers = [scale**p for p in range(len(_GATTESCHI_P))]
        weights = [nu * c for c in powers] + [c / nu for c in powers[: len(_GATTESCHI_Q)]]
        z[size - airy:] = np.sqrt(np.array(weights) @ _GATTESCHI_TERMS[:, airy - 1::-1])
    return np.concatenate([np.zeros(count % 2), z])


def _as_integer(value, name: str) -> int:
    """value as an int: operator.index accepts Python and numpy integers
    alike and rejects floats, integral ones included, with a TypeError."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _check_degree(degree) -> int:
    """degree as an int in [0, MAX_RULE_DEGREE]; one out of range raises
    ValueError."""
    degree = _as_integer(degree, "degree")
    if not 0 <= degree <= MAX_RULE_DEGREE:
        raise ValueError(f"degree must be in [0, {MAX_RULE_DEGREE}], got {degree}")
    return degree


def hermite_gauss_rule(degree: int) -> HermiteRule:
    """The (degree+1)-point Gauss-Hermite rule, built once per process.

    The degree is checked and normalized to an int before the lookup, so
    np.int64(5) and 5 share one entry and 5.0 raises TypeError whatever the
    memo holds.  The memo keeps the last _RULE_MEMO_SIZE degrees used; the
    rule is frozen and its arrays are read-only, so every caller may share
    it.  See _build_rule for the construction.
    """
    return _memoized_rule(_check_degree(degree))


@functools.lru_cache(maxsize=_RULE_MEMO_SIZE)
def _memoized_rule(degree: int) -> HermiteRule:
    """A miss builds through this module's attribute _build_rule."""
    return _build_rule(degree)


def _build_rule(degree: int) -> HermiteRule:
    """Build the (degree+1)-point Gauss-Hermite rule anew.

    With N = degree and n = N+1 nodes, the nonnegative nodes start from the
    asymptotic zeros of _initial_roots.  One pass of the rescaled monic
    recurrence over them gives q = q_n and q_N, so q' = n q_N, and the
    Hermite equation q'' = 2z q' - 2n q gives the higher derivatives by
    q^(k+2) = 2z q^(k+1) - 2(n-k) q^(k).  The Newton step -q/q', reverted
    through the Taylor series of q to third order and then refined by one
    Newton step on its degree-5 Taylor polynomial, moves each guess to the
    root; the derivative of that polynomial there gives q_N at the node,
    and with it the weight w = exp(-z^2) / (n h_N(z)^2), evaluated in log
    space so that it keeps its relative accuracy far into the tail.  Each
    log-weight is the mean over three evaluation points 2^-30 apart
    (relative), which cuts the recurrence's rounding in it by sqrt(3).  The
    guesses lie within a few thousandths of the zero spacing, so the
    neglected Taylor terms stay far below roundoff, and no second pass is
    needed.  Mirroring the nodes and log-weights makes the rule exactly
    symmetric under z -> -z (an odd count keeps the exact node 0.0); the
    log-weights are then shifted so the weights sum to sqrt(pi), and
    weights is exactly exp(log_weights).
    """
    count = degree + 1
    odd = count % 2
    z = _initial_roots(count)
    # Three copies of the guesses (see _SAMPLE_SCALES); the nodes come from
    # the first, unscaled one.
    size = z.size
    z = np.multiply.outer(_SAMPLE_SCALES, z).ravel()

    # q_N and q_{N+1} at one exponent from one pass of the recurrence.
    q_deg, q_top, exponent = collections.deque(_hermite_rows(count, z), maxlen=1).pop()
    # Derivatives b_k = q^(k) / q' at the guesses, b_0 = -u and b_1 = 1, u
    # the Newton step; c_k = b_k / k! are the Taylor coefficients and
    # k c_k = b_k / (k-1)! those of the derivative.  At z = 0 the odd q_{N+1} is exactly zero,
    # and so is every step.
    u = q_top / (-count * q_deg)
    two_z = 2.0 * z
    b = [-u, 1.0, two_z + (2.0 * count) * u]
    for k in range(1, 4):
        b.append(two_z * b[-1] - 2.0 * (count - k) * b[-2])
    c2, c3, c4, c5 = b[2] / 2.0, b[3] / 6.0, b[4] / 24.0, b[5] / 120.0
    k3, k4, k5 = b[3] / 2.0, b[4] / 6.0, b[5] / 24.0

    def slope(d):  # derivative of the Taylor polynomial -u + d + c2 d^2 + ...
        return 1.0 + d * (b[2] + d * (k3 + d * (k4 + d * k5)))

    d = u * (1.0 + u * (u * (2.0 * c2 * c2 - c3) - c2))
    d = d - (d * (1.0 + d * (c2 + d * (c3 + d * (c4 + d * c5)))) - u) / slope(d)
    z = z[:size] + d[:size]
    # q_N at the node, from q' = n q_N, as a mantissa and an integer exponent.
    mantissa, e = np.frexp(q_deg * slope(d))
    e = e + exponent

    # With h_N = q_N 2^e s_N exp(-z^2/2) / pi^(1/4), s_N = sqrt(2^N / N!),
    # the Gaussian cancels: log w_j = log(sqrt(pi) / ((N+1) s_N^2))
    # - 2 log|q_N| - 2 e log(2).  The first term is common to every node, so
    # it is left to the renormalization below, and the exponents, which reach
    # thousands, are taken relative to the smallest before the one conversion
    # to a float log: a rounded log of a large |q_N| would cost the weights
    # digits.
    log_w = -2.0 * (np.log(np.abs(mantissa)) + (e - e.min()) * math.log(2.0))
    log_w = log_w.reshape(_SAMPLE_SCALES.size, size).sum(axis=0) / _SAMPLE_SCALES.size
    nodes = np.concatenate([-z[odd:][::-1], z])
    log_weights = np.concatenate([log_w[odd:][::-1], log_w])
    # The exact zeroth moment sqrt(pi) fixes the common factor.
    log_weights = log_weights + math.log(SQRT_PI / np.sum(np.exp(log_weights)))
    weights = np.exp(log_weights)

    for arr in (nodes, weights, log_weights):
        arr.setflags(write=False)
    return HermiteRule(degree=degree, nodes=nodes, weights=weights, log_weights=log_weights)
