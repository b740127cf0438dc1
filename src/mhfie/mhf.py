"""Mapped Hermite functions on the unit interval.

The map z = alpha*log(x/(1-x)) sends (0,1) to the real line; composing
Hermite polynomials with it gives the basis

    Q_n(x) = H_n(alpha * log(x/(1-x))),

orthogonal on (0,1) under the weight

    chi(x) = exp(-alpha^2 log^2(x/(1-x))) / (x(1-x)),

with norms gamma_n = sqrt(pi) 2^n n! / alpha.  Pulling the Gauss-Hermite
rule through the inverse map x = sigma(z/alpha) (sigma the logistic) yields
a quadrature on (0,1) whose nodes cluster at both endpoints, exact for
polynomials of degree 2N+1 in log(x/(1-x)) against chi.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hermite import (
    _RULE_MEMO_SIZE,
    SQRT_PI,
    HermiteRule,
    _check_degree,
    hermite_eval,
    hermite_gauss_rule,
)

__all__ = [
    "MhfBasis",
    "MhfRule",
    "map_to_real",
    "map_to_unit",
    "weight_chi",
    "mhf_eval",
    "gamma_n",
    "log_gamma_n",
    "mhf_gauss_rule",
    "mhf_quadrature",
    "mhf_unit_weights",
    "mhf_pseudo_deriv",
]

MAX_ALPHA = 100.0


@dataclass(frozen=True)
class MhfBasis:
    """Mapped Hermite basis Q_0..Q_degree with scale parameter alpha."""

    alpha: float
    degree: int

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_degree(self.degree)


def _check_alpha(alpha) -> None:
    """Raise ValueError unless alpha is in (0, MAX_ALPHA]; MhfBasis and
    SolverConfig both check their map scale here."""
    if not 0.0 < alpha <= MAX_ALPHA:
        raise ValueError(f"alpha must be in (0, {MAX_ALPHA}], got {alpha}")


@dataclass(frozen=True)
class MhfRule:
    """Mapped Gauss rule: nodes x_j = sigma(z_j/alpha), weights w_j/alpha.

    logits stores log(x_j/(1-x_j)) = z_j/alpha and nodes_complement stores
    1-x_j, both evaluated without cancellation; downstream code that needs
    distances to the endpoints should prefer these over recomputing from
    the nodes.
    """

    basis: MhfBasis
    nodes: np.ndarray
    weights: np.ndarray
    logits: np.ndarray
    nodes_complement: np.ndarray
    hermite: HermiteRule


def _check_unit_interval(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(~((x > 0.0) & (x < 1.0))):
        bad = x if x.ndim == 0 else x[~((x > 0.0) & (x < 1.0))].flat[0]
        raise ValueError(f"argument must lie in the open interval (0, 1), got {bad}")
    return x


def _logistic_pair(t) -> tuple:
    """(sigma(t), 1 - sigma(t)) with sigma(t) = 1/(1+exp(-t)), both without
    cancellation: one exp(-|t|) and its two quotients, selected by the sign
    of t.  Saturates, never errors."""
    t = np.asarray(t, dtype=float)
    u = np.exp(-np.abs(t))
    d = 1.0 + u
    big, small = 1.0 / d, u / d
    positive = t >= 0.0
    return np.where(positive, big, small), np.where(positive, small, big)


def map_to_real(alpha: float, x):
    """Forward map z = alpha*(log x - log(1-x)); x must lie in (0,1)."""
    x = _check_unit_interval(x)
    out = alpha * (np.log(x) - np.log1p(-x))
    return float(out) if out.ndim == 0 else out


def map_to_unit(alpha: float, zhat):
    """Inverse map x = sigma(zhat/alpha); saturates to 0/1 for large |zhat|."""
    out = _logistic_pair(np.asarray(zhat, dtype=float) / alpha)[0]
    return float(out) if out.ndim == 0 else out


def weight_chi(alpha: float, x):
    """Orthogonality weight chi(x), evaluated in log space.

    chi(x) = exp(-alpha^2 t^2 - log x - log(1-x)) with t = log(x/(1-x));
    positive and finite throughout (0,1), underflowing gracefully near the
    endpoints.
    """
    x = _check_unit_interval(x)
    t = np.log(x) - np.log1p(-x)
    out = np.exp(-(alpha * t) ** 2 - np.log(x) - np.log1p(-x))
    return float(out) if out.ndim == 0 else out


def mhf_eval(basis: MhfBasis, n: int, x) -> float:
    """Evaluate Q_n(x) = H_n(map_to_real(alpha, x)) for 0 <= n <= degree."""
    if not 0 <= n <= basis.degree:
        raise ValueError(f"index must be in [0, {basis.degree}], got {n}")
    return hermite_eval(n, map_to_real(basis.alpha, x))


def log_gamma_n(alpha: float, n: int) -> float:
    """log of gamma_n = sqrt(pi) 2^n n! / alpha."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    return 0.5 * math.log(math.pi) + n * math.log(2.0) + math.lgamma(n + 1) - math.log(alpha)


def gamma_n(alpha: float, n: int) -> float:
    """Norm gamma_n = sqrt(pi) 2^n n! / alpha of Q_n under chi.

    Exact products for moderate n, log space beyond the factorial range
    (the value itself saturates to inf once it exceeds double range).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    if n <= 140:
        return SQRT_PI * math.ldexp(float(math.factorial(n)), n) / alpha
    return math.exp(log_gamma_n(alpha, n))


@functools.lru_cache(maxsize=_RULE_MEMO_SIZE)
def mhf_gauss_rule(basis: MhfBasis) -> MhfRule:
    """Mapped Gauss rule for the basis: exact on P^log_{2N+1} against chi.

    Built once per process from the memoized Gauss-Hermite rule of the
    basis degree, like hermite_gauss_rule: the memo keeps the last
    _RULE_MEMO_SIZE bases used, keyed by (alpha, degree), and the rule is
    frozen and its arrays are read-only, so every caller may share it.
    """
    herm = hermite_gauss_rule(basis.degree)
    logits = herm.nodes / basis.alpha
    nodes, complement = _logistic_pair(logits)
    weights = herm.weights / basis.alpha
    for arr in (nodes, weights, logits, complement):
        arr.setflags(write=False)
    return MhfRule(
        basis=basis,
        nodes=nodes,
        weights=weights,
        logits=logits,
        nodes_complement=complement,
        hermite=herm,
    )


def _values_at_nodes(f, nodes: np.ndarray) -> np.ndarray:
    """Evaluate f over the nodes, accepting vectorized or scalar callables."""
    try:
        vals = np.asarray(f(nodes), dtype=float)
        if vals.shape != nodes.shape:
            raise ValueError
    except (TypeError, ValueError):
        vals = np.array([float(f(x)) for x in nodes])
    return vals


def mhf_quadrature(rule: MhfRule, f) -> float:
    """Approximate integral of f against chi over (0,1) with the mapped rule."""
    vals = _values_at_nodes(f, rule.nodes)
    if not np.all(np.isfinite(vals)):
        j = int(np.flatnonzero(~np.isfinite(vals))[0])
        raise ValueError(
            f"integrand is not finite at node j={j}, x={float(rule.nodes[j])!r}"
        )
    return float(vals @ rule.weights)


def mhf_unit_weights(rule: MhfRule) -> np.ndarray:
    """Weights c_j with sum_j f(x_j) c_j ~ integral of f over (0,1).

    These are chi_j / chi(x_j), assembled in log space: the exp(+z^2) that
    cancels the Gaussian in the Hermite weights never materializes, so the
    computation survives arbitrarily large rule degrees.
    """
    t = rule.logits
    alpha = rule.basis.alpha
    log_sigma = -np.logaddexp(0.0, -t)
    log_sigma_c = -np.logaddexp(0.0, t)
    return np.exp(
        rule.hermite.log_weights
        - math.log(alpha)
        + (alpha * t) ** 2
        + log_sigma
        + log_sigma_c
    )


def mhf_pseudo_deriv(basis: MhfBasis, n: int, x) -> float:
    """Pseudo-derivative x(1-x) d/dx of Q_n, equal to 2 n alpha Q_{n-1}(x).

    Each application lowers the index by one, so k applications give
    (2 alpha)^k n!/(n-k)! Q_{n-k}.  Returns 0 for n = 0.
    """
    if not 0 <= n <= basis.degree:
        raise ValueError(f"index must be in [0, {basis.degree}], got {n}")
    if n == 0:
        _check_unit_interval(x)
        return 0.0
    return 2.0 * n * basis.alpha * hermite_eval(n - 1, map_to_real(basis.alpha, x))
