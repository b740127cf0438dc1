"""Hermite polynomials and Gauss-Hermite quadrature on the real line.

Everything here uses the physicists' convention: H_0(z) = 1, H_1(z) = 2z,
H_{n+1}(z) = 2z H_n(z) - 2n H_{n-1}(z), orthogonal under exp(-z^2) with
norm gamma_n = sqrt(pi) 2^n n!.

Raw Hermite values overflow quickly (H_n grows like sqrt(gamma_n) e^{z^2/2}),
so large-degree work goes through the normalized Hermite functions

    h_n(z) = H_n(z) exp(-z^2/2) / sqrt(gamma_n),

which stay bounded for all n and z and satisfy the stable recurrence

    h_{n+1} = z sqrt(2/(n+1)) h_n - sqrt(n/(n+1)) h_{n-1}.

One loop of that recurrence builds the tables (and hermite_eval_scaled);
the Gauss-Hermite rule runs a rescaled copy of it that keeps three rows.
Because exp(-z^2) is even, the rule's Golub-Welsch matrix has a zero
diagonal, and the squared nonnegative nodes are the eigenvalues of a
Laguerre Jacobi matrix (parameter -1/2 or +1/2) of half the size; the rule
solves that half-size eigenproblem and mirrors the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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


def hermite_eval(n: int, z: float) -> float:
    """Evaluate H_n(z) by the three-term recurrence.

    Raises OverflowError once the value leaves double range; callers that
    need large n should use hermite_eval_scaled instead.
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
    10^2 and beyond).  For |z| large enough that exp(-z^2/2) underflows the
    result is a clean 0.0.  The value is the last row of
    hermite_scaled_table(n, z).
    """
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    z = float(z)
    if not math.isfinite(z):
        raise ValueError(f"evaluation point must be finite, got {z}")
    return float(hermite_scaled_table(n, z)[-1, 0])


def _normalized_table(nmax: int, z: np.ndarray, row0: np.ndarray) -> np.ndarray:
    """Rows 0..nmax of the normalized recurrence started from row0.

    Row k is row0 times the orthonormal polynomial H_k(z)/sqrt(gamma_k)
    scaled by pi^(1/4), so row0 = pi^(-1/4) gives the orthonormal
    polynomials and row0 = exp(-z^2/2) pi^(-1/4) the Hermite functions.
    """
    table = np.empty((nmax + 1, z.size))
    table[0] = row0
    if nmax >= 1:
        table[1] = math.sqrt(2.0) * z * table[0]
    for k in range(1, nmax):
        table[k + 1] = z * math.sqrt(2.0 / (k + 1)) * table[k] - math.sqrt(
            k / (k + 1)
        ) * table[k - 1]
    return table


def hermite_scaled_table(nmax: int, z: np.ndarray) -> np.ndarray:
    """Table of normalized Hermite functions h_n(z), shape (nmax+1, len(z))."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return _normalized_table(nmax, z, np.exp(-0.5 * z * z) / math.pi**0.25)


def hermite_orthonormal_table(nmax: int, z: np.ndarray) -> np.ndarray:
    """Table of orthonormal Hermite polynomials H_n(z)/sqrt(gamma_n).

    Unlike hermite_scaled_table this omits the Gaussian factor, so entries
    grow like exp(z^2/2); intended for evaluating expansions at moderate z.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    return _normalized_table(nmax, z, np.full(z.size, math.pi**-0.25))


@dataclass(frozen=True)
class HermiteRule:
    """Gauss-Hermite rule with N+1 nodes, exact on P_{2N+1} against exp(-z^2).

    Nodes ascend and are exactly antisymmetric, z_j = -z_{N-j}; for even N
    the middle node is exactly 0.0.  The weights are
    w_j = exp(-z_j^2) / ((N+1) h_N(z_j)^2), evaluated in log space from the
    normalized recurrence: log_weights holds log(w_j), exactly symmetric,
    and weights is exactly exp(log_weights).  The log form stays meaningful
    where the weights themselves underflow (|z| large).  Sum of weights is
    sqrt(pi).
    """

    degree: int
    nodes: np.ndarray
    weights: np.ndarray
    log_weights: np.ndarray


# Rescale the recurrence every _RESCALE_STRIDE steps.  One step multiplies
# max(|p_k|, |p_{k-1}|) by at most sqrt(2)|z| + 1 < 2^7 for the nodes of any
# rule up to MAX_RULE_DEGREE (|z| < sqrt(2*MAX_RULE_DEGREE + 3) < 64), so
# between rescalings the values stay below 2^112, far from overflow.
_RESCALE_STRIDE = 16


def _scaled_triple(
    n: int, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rescaled normalized Hermite functions at the points z, n >= 1.

    Returns (p_n, p_{n-1}, p_{n-2}, e) with h_k(z) = p_k 2^e exp(-z^2/2) /
    pi^(1/4) for k = n-2, n-1, n (p_{-1} = 0).  The recurrence runs from
    p_0 = 1 and is rescaled by exact powers of two, so neither the Gaussian
    factor nor the growth of p_k can underflow or overflow; ratios such as
    p_n / p_{n-1} equal h_n / h_{n-1} without ever forming either.
    """
    exponent = np.zeros(z.shape, dtype=int)
    hprev2 = np.zeros_like(z)
    hprev = np.ones_like(z)
    h = math.sqrt(2.0) * z
    for k in range(1, n):
        hprev2, hprev, h = (
            hprev,
            h,
            z * math.sqrt(2.0 / (k + 1)) * h - math.sqrt(k / (k + 1)) * hprev,
        )
        if k % _RESCALE_STRIDE == 0:
            _, e = np.frexp(np.maximum(np.abs(h), np.abs(hprev)))
            h, hprev, hprev2 = np.ldexp(h, -e), np.ldexp(hprev, -e), np.ldexp(hprev2, -e)
            exponent += e
    return h, hprev, hprev2, exponent


def hermite_gauss_rule(degree: int) -> HermiteRule:
    """Build the (degree+1)-point Gauss-Hermite rule.

    With N = degree and m = N+1 nodes, the zero diagonal of the Golub-Welsch
    matrix lets the squared nonnegative nodes come from a half-size
    eigenproblem: the floor(m/2) eigenvalues of the Laguerre Jacobi matrix
    with parameter -1/2 (m even: diagonal 2j+1/2, off-diagonal
    sqrt(j(j-1/2))) or +1/2 (m odd: diagonal 2j+3/2, off-diagonal
    sqrt(j(j+1/2)), plus the exact node 0.0).  Only eigenvalues are
    computed.  One pass of the rescaled normalized recurrence over these
    ceil(m/2) nonnegative nodes gives p_{N+1}, p_N and p_{N-1}; the Newton
    step delta = -p_{N+1} / (sqrt(2(N+1)) p_N) polishes each node, and the
    weight w = exp(-z^2) / ((N+1) h_N(z)^2) takes p_N at the polished node
    as p_N + delta sqrt(2N) p_{N-1}, whose relative error O(delta^2 N) lies
    far below roundoff.  The weights are evaluated in log space so that they
    keep their relative accuracy far into the tail.  Mirroring the nodes and
    log-weights makes the rule exactly symmetric under z -> -z; the
    log-weights are then shifted so the weights sum to sqrt(pi), and weights
    is exactly exp(log_weights).
    """
    if not 0 <= degree <= MAX_RULE_DEGREE:
        raise ValueError(f"rule degree must be in [0, {MAX_RULE_DEGREE}], got {degree}")
    count = degree + 1
    # The square of the zero-diagonal Golub-Welsch matrix splits into its
    # even- and odd-indexed rows; the block that the truncation at N+1 rows
    # leaves whole is the Jacobi matrix of the Laguerre weight x^a exp(-x)
    # (Golub & Welsch 1969; Gautschi 2004).
    size, odd = divmod(count, 2)
    a = 0.5 if odd else -0.5
    j = np.arange(size, dtype=float)
    squares = np.empty(0)  # degree 0 has no positive node
    if size:
        try:
            squares = scipy.linalg.eigvalsh_tridiagonal(
                2.0 * j + (a + 1.0), np.sqrt(j[1:] * (j[1:] + a))
            )
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - defensive
            raise RuntimeError(
                f"Gauss-Hermite eigensolve failed for degree {degree}: {exc}"
            ) from exc
    # The nonnegative nodes, ascending; an odd count adds the exact root 0.0.
    z = np.concatenate([np.zeros(odd), np.sqrt(squares)])

    # One Newton polish on the roots of h_{N+1}, whose derivative there is
    # sqrt(2(N+1)) h_N.  At z = 0 the odd p_{N+1} is exactly zero.
    p_top, p_deg, p_sub, exponent = _scaled_triple(count, z)
    delta = -p_top / (math.sqrt(2.0 * count) * p_deg)
    z = z + delta
    # p_N at the polished node, from p_N' = sqrt(2N) p_{N-1}.
    p_deg = p_deg + delta * math.sqrt(2.0 * degree) * p_sub

    # With h_N = p_N 2^e exp(-z^2/2) / pi^(1/4) the Gaussian cancels:
    # log w_j = log(sqrt(pi)) - log(N+1) - 2 log|p_N| - 2 e log(2).
    log_w = (
        0.5 * math.log(math.pi)
        - math.log(count)
        - 2.0 * (np.log(np.abs(p_deg)) + exponent * math.log(2.0))
    )
    nodes = np.concatenate([-z[odd:][::-1], z])
    log_weights = np.concatenate([log_w[odd:][::-1], log_w])
    # The rounded recurrence coefficients leave about the same relative
    # error, growing like sqrt(N) eps, in every weight; the exact zeroth
    # moment sqrt(pi) removes that common factor.
    log_weights = log_weights + math.log(SQRT_PI / np.sum(np.exp(log_weights)))
    weights = np.exp(log_weights)

    for arr in (nodes, weights, log_weights):
        arr.setflags(write=False)
    return HermiteRule(degree=degree, nodes=nodes, weights=weights, log_weights=log_weights)
