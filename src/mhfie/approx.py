"""Interpolation and projection in the mapped Hermite setting.

Interpolation at mapped nodes is ordinary barycentric Lagrange
interpolation in the transformed variable t = log(x/(1-x)).  That one
observation carries the whole module: the "generalized Lagrange
functions" on (0,1) are plain Lagrange polynomials in t, so the usual
barycentric machinery applies unchanged and interpolating at the mapped
Gauss nodes reproduces P^log_N = span{1, t, ..., t^N} exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._memo import memo
from .hermite import hermite_scaled_table, hermite_orthonormal_table
from .mhf import (
    MhfBasis,
    MhfRule,
    _check_unit_interval,
    _values_at_nodes,
    log_gamma_n,
    map_to_unit,
    mhf_gauss_rule,
)

__all__ = [
    "LagrangeBasis",
    "Interpolant1D",
    "Interpolant2D",
    "tensor_interpolant",
    "MhfSeries",
    "project",
    "ErrorNorms",
    "error_norms",
    "eval_grid_1d",
    "eval_grid_axis_2d",
]

DUPLICATE_GAP = 1e-14


@dataclass(frozen=True)
class LagrangeBasis:
    """Barycentric Lagrange basis in the logit t = log(x/(1-x)).

    nodes_t are the ascending interpolation nodes in t and nodes_x the same
    nodes in (0,1); points x are sent through the logit before evaluation.
    weights carry a common scale factor only, which cancels in the
    barycentric formula.
    """

    nodes_t: np.ndarray
    weights: np.ndarray
    nodes_x: np.ndarray

    @property
    def degree(self) -> int:
        return len(self.nodes_t) - 1

    @classmethod
    def from_mhf_rule(cls, rule: MhfRule) -> "LagrangeBasis":
        return cls(
            nodes_t=rule.logits,
            weights=_bary_weights(rule.logits),
            nodes_x=rule.nodes,
        )


def _log_node_products(t: np.ndarray) -> tuple:
    """Sign and log magnitude of prod_{k != j}(t_j - t_k) for each node t_j.

    The products of node differences overflow or underflow for hundreds of
    nodes, so each is carried as its sign and the sum of log|t_j - t_k| over
    one difference matrix (Higham, IMA J. Numer. Anal. 24, 2004).  The nodes
    must be strictly ascending and separated by at least DUPLICATE_GAP
    relative to their magnitude.
    """
    t = np.asarray(t, dtype=float)
    n = t.size
    if n == 0:
        raise ValueError("at least one node is required")
    if np.any(np.diff(t) <= 0):
        raise ValueError("nodes must be strictly ascending")
    scale = max(1.0, float(np.max(np.abs(t))))
    if n > 1 and np.min(np.diff(t)) < DUPLICATE_GAP * scale:
        raise ValueError("duplicate interpolation nodes (gap below 1e-14 relative)")
    diff = t[:, None] - t[None, :]
    np.fill_diagonal(diff, 1.0)
    log_mag = np.sum(np.log(np.abs(diff)), axis=1)
    # ascending nodes: t_j - t_k < 0 for exactly the n-1-j nodes above t_j
    sign = np.where((n - 1 - np.arange(n)) % 2 == 0, 1.0, -1.0)
    return sign, log_mag


def _bary_weights(t: np.ndarray) -> np.ndarray:
    """Barycentric weights 1/prod_{k != j}(t_j - t_k), up to a common scale.

    The common scale, which cancels in the barycentric formula, is chosen so
    the largest weight has magnitude one.
    """
    sign, log_mag = _log_node_products(t)
    w = sign * np.exp(np.min(log_mag) - log_mag)
    w.setflags(write=False)
    return w


def _node_hits(nodes: np.ndarray, points: np.ndarray) -> tuple:
    """(point indices, node indices) of the points equal to an ascending node."""
    idx = np.minimum(np.searchsorted(nodes, points), nodes.size - 1)
    rows = np.flatnonzero(nodes[idx] == points)
    return rows, idx[rows]


def _damped_rows(nodes: np.ndarray, points: np.ndarray, scale: float) -> np.ndarray:
    """Gaussian-damped cardinal rows l_j(t) * exp(scale^2*(t_j^2 - t^2)/2).

    Plain cardinal functions at Hermite-type nodes are unusable on the
    quadrature grid: past the outermost node (the interlacing rule always
    has two such points) they grow without bound as the degree grows -
    measured at 2e1 / 8.6e3 / 7.6e9 for degrees 8 / 16 / 32 even in exact
    arithmetic - and even inside the span they reach ~1e10 near the edges
    by degree 64, which poisons the conditioning of the collocation matrix.
    The Gaussian-weighted cardinals fix both: they agree with the plain
    ones at every node, stay uniformly modest over the whole line, and
    reproduce the Gaussian-decaying functions this discretization
    approximates.  Everything is accumulated in log magnitude so no
    intermediate product overflows.
    """
    sgnd, logd = _log_node_products(nodes)
    num = points[:, None] - nodes[None, :]
    rows, cols = _node_hits(nodes, points)
    num[rows, cols] = 1.0  # exact hits become unit rows below
    log_num = np.log(np.abs(num))
    sgn_num = np.sign(num)
    total = np.sum(log_num, axis=1)[:, None]
    sgn_total = np.prod(sgn_num, axis=1)[:, None]
    half = 0.5 * scale * scale
    out = (sgn_total * sgn_num * sgnd) * np.exp(
        total - log_num - logd + half * (nodes * nodes - (points * points)[:, None])
    )
    out[rows] = 0.0
    out[rows, cols] = 1.0
    return out


def _differences(basis: LagrangeBasis, x) -> tuple:
    """Differences t - t_j at the points x, and the points that hit a node.

    Hits are tested both in t and against the stored original nodes, so a
    point equal to a node is recognized even where the logit transform of it
    rounds away from the stored logit.  Returns (d, rows, cols): the
    differences, with the hit entries set to one, and (point, node) index
    pairs of the hits, the x-hits last.
    """
    pts = _check_unit_interval(np.atleast_1d(np.asarray(x, dtype=float)))
    t = np.log(pts) - np.log1p(-pts)
    d = t[:, None] - basis.nodes_t[None, :]
    t_rows, t_cols = _node_hits(basis.nodes_t, t)
    d[t_rows, t_cols] = 1.0
    x_rows, x_cols = _node_hits(basis.nodes_x, pts)
    return d, np.concatenate([t_rows, x_rows]), np.concatenate([t_cols, x_cols])


class _CauchyTerms(NamedTuple):
    """Terms c = w_j / (t - t_j) at a set of points, finite at node hits."""

    c: np.ndarray
    rowsum: np.ndarray  # sum of each row of c
    rows: np.ndarray  # (point, node) index pairs of the node hits
    cols: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self)


def _fixed_grid(t_count: int, uniform_count: int) -> np.ndarray:
    """Read-only union of logistic(t), t uniform on [-8, 8], and uniform points
    on [1e-3, 1-1e-3]."""
    mapped = map_to_unit(1.0, np.linspace(-8.0, 8.0, t_count))
    uniform = np.linspace(1e-3, 1.0 - 1e-3, uniform_count)
    grid = np.unique(np.concatenate([mapped, uniform]))
    grid.setflags(write=False)
    return grid


_GRID_1D = _fixed_grid(2001, 999)
_GRID_AXIS_2D = _fixed_grid(68, 33)


def _compute_terms(basis: LagrangeBasis, x) -> _CauchyTerms:
    """Cauchy terms at any points, computed anew and read-only, so the memo
    may share them; d is divided in place."""
    d, rows, cols = _differences(basis, x)
    c = np.divide(basis.weights[None, :], d, out=d)
    terms = _CauchyTerms(c, np.sum(c, axis=1), rows, cols)
    for arr in terms:
        arr.setflags(write=False)
    return terms


def _cauchy_terms(basis: LagrangeBasis, x) -> _CauchyTerms:
    """Cauchy terms of the basis at the points x; memoized for the fixed grids.

    Only the arrays returned by eval_grid_1d() and eval_grid_axis_2d() are
    looked up, by identity; any other points, a copy of a grid included,
    are computed anew.  The memo's key is the grid and the basis content,
    so equal bases built apart (the mhf and smoothed collocation bases at
    one (alpha, N)) share an entry.  Memoized terms are read-only.
    """
    if x is _GRID_1D:
        grid = "1d"
    elif x is _GRID_AXIS_2D:
        grid = "axis-2d"
    else:
        return _compute_terms(basis, x)
    key = ("terms", grid, basis.nodes_t.tobytes(), basis.weights.tobytes(),
           basis.nodes_x.tobytes())
    return memo.get(key, lambda: _compute_terms(basis, x))


def cardinal_matrix(basis: LagrangeBasis, x) -> np.ndarray:
    """Cardinal values l_j(x) for points in the original variable.

    Exact hits are detected against the stored original nodes, so
    evaluation at a node returns the unit row (and interpolants return the
    stored value) exactly.
    """
    c, rowsum, rows, cols = _cauchy_terms(basis, x)
    out = c / rowsum[:, None]
    out[rows] = 0.0
    out[rows, cols] = 1.0
    return out


@dataclass(frozen=True)
class Interpolant1D:
    basis: LagrangeBasis
    values: np.ndarray

    @property
    def degree(self) -> int:
        return self.basis.degree

    def eval(self, x):
        """Values at x by the barycentric formula (c @ values) / sum(c).

        A point equal to a node returns the stored value exactly.
        """
        values = np.asarray(self.values, dtype=float)
        c, rowsum, rows, cols = _cauchy_terms(self.basis, x)
        out = (c @ values) / rowsum
        out[rows] = values[cols]
        return float(out[0]) if np.ndim(x) == 0 else out

    def eval_deriv(self, x):
        """Derivative with respect to the original variable x.

        Differentiates the barycentric form in t, then applies the chain
        rule dt/dx = 1/(x(1-x)).  Evaluation points must avoid the
        interpolation nodes; a point that equals a node in t or in x raises
        ValueError.
        """
        d, rows, _ = _differences(self.basis, x)
        if rows.size:
            raise ValueError("derivative evaluation at an interpolation node")
        pts = np.atleast_1d(np.asarray(x, dtype=float))
        c = self.basis.weights[None, :] / d
        denom = np.sum(c, axis=1)
        p = (c @ self.values) / denom
        dp = np.sum(c / d * (p[:, None] - self.values[None, :]), axis=1) / denom
        dp = dp / (pts * (1.0 - pts))
        return float(dp[0]) if np.ndim(x) == 0 else dp


@dataclass(frozen=True)
class Interpolant2D:
    basis_x: LagrangeBasis
    basis_y: LagrangeBasis
    values: np.ndarray  # shape (nx, ny)

    @property
    def degree(self) -> int:
        return max(self.basis_x.degree, self.basis_y.degree)

    def eval_grid(self, x, y) -> np.ndarray:
        """Values on the tensor grid of the two point sets, shape (len(x), len(y))."""
        lx = cardinal_matrix(self.basis_x, x)
        ly = lx if self.basis_y is self.basis_x and y is x else cardinal_matrix(self.basis_y, y)
        return lx @ self.values @ ly.T

    def eval(self, x, y):
        x1, y1 = np.atleast_1d(x), np.atleast_1d(y)
        if x1.shape != y1.shape:
            raise ValueError("x and y must have matching shapes")
        lx = cardinal_matrix(self.basis_x, x1)
        ly = cardinal_matrix(self.basis_y, y1)
        out = np.einsum("pi,ij,pj->p", lx, self.values, ly)
        return float(out[0]) if np.ndim(x) == 0 else out


def tensor_interpolant(basis_x: LagrangeBasis, basis_y: LagrangeBasis, values) -> Interpolant2D:
    values = np.asarray(values, dtype=float)
    expected = (basis_x.degree + 1, basis_y.degree + 1)
    if values.shape != expected:
        raise ValueError(f"values must have shape {expected}, got {values.shape}")
    return Interpolant2D(basis_x=basis_x, basis_y=basis_y, values=values)


@dataclass(frozen=True)
class MhfSeries:
    """Truncated expansion sum_n coeffs[n] Q_n in a mapped Hermite basis."""

    basis: MhfBasis
    coeffs: np.ndarray
    normalized: np.ndarray  # coefficients against Q_n / sqrt(gamma^H_n)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def eval(self, x):
        pts = _check_unit_interval(np.atleast_1d(np.asarray(x, dtype=float)))
        z = self.basis.alpha * (np.log(pts) - np.log1p(-pts))
        table = hermite_orthonormal_table(self.degree, z)
        out = self.normalized @ table
        return float(out[0]) if np.ndim(x) == 0 else out


def project(basis: MhfBasis, rule: MhfRule, f) -> MhfSeries:
    """Weighted L2 projection onto span{Q_0..Q_N} via the mapped Gauss rule.

    Computes u_n = gamma_n^{-1} sum_j f(x_j) Q_n(x_j) chi_j through the
    normalized Hermite functions, so the Gaussian factors cancel in log
    space and the sums stay scaled for large degrees.
    """
    if rule.basis.alpha != basis.alpha:
        raise ValueError(
            f"rule alpha {rule.basis.alpha} does not match basis alpha {basis.alpha}"
        )
    if rule.basis.degree < basis.degree:
        raise ValueError(
            f"rule degree {rule.basis.degree} is below basis degree {basis.degree}"
        )
    fvals = _values_at_nodes(f, rule.nodes)
    z = rule.hermite.nodes
    table = hermite_scaled_table(basis.degree, z)
    half_weights = np.exp(rule.hermite.log_weights + 0.5 * z * z)
    normalized = table @ (fvals * half_weights)
    # gamma^H_n = sqrt(pi) 2^n n!  (alpha-free); u_n = c_n / sqrt(gamma^H_n)
    log_gh = np.array([log_gamma_n(1.0, n) for n in range(basis.degree + 1)])
    coeffs = normalized * np.exp(-0.5 * log_gh)
    for arr in (coeffs, normalized):
        arr.setflags(write=False)
    return MhfSeries(basis=basis, coeffs=coeffs, normalized=normalized)


class ErrorNorms(NamedTuple):
    err_inf: float
    err_l2chi: float


def eval_grid_1d() -> np.ndarray:
    """Fixed evaluation grid on (0,1): 2001 endpoint-clustered mapped points
    x = sigma(t), t uniform on [-8, 8], plus 999 uniform points on
    [1e-3, 1-1e-3].  Built once; every call returns the same read-only array,
    on which interpolants evaluate from memoized Cauchy terms."""
    return _GRID_1D


def eval_grid_axis_2d() -> np.ndarray:
    """Per-axis analog of eval_grid_1d with about 101 points, likewise shared
    and read-only."""
    return _GRID_AXIS_2D


def error_norms(approx, exact, alpha, dim: int = 1, degree: Optional[int] = None) -> ErrorNorms:
    """Sup-norm error on the fixed grid and weighted L2 error by oversampled
    quadrature (mapped rule of degree 2N+16 per axis, one per distinct alpha,
    mapped from the memoized Gauss-Hermite rule of that degree).

    alpha is a scalar in one dimension, a pair in two; degree defaults to
    the approximant's own degree when it exposes one.  The approximant is
    evaluated on the tensor grid of the per-axis points (eval_grid in 2D,
    eval or the plain callable in 1D) and exact on their indexing="ij"
    meshgrid (in 1D, on the points themselves).
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    if degree is None:
        degree = getattr(approx, "degree", None)
        if degree is None:
            raise ValueError("degree must be given for plain-callable approximants")
    values = approx.eval_grid if dim == 2 else getattr(approx, "eval", approx)

    def diff(axes):
        # the tensor grid of the axes; in 1D the axis itself, which spares
        # the sweep's error norms a meshgrid call per evaluation
        mesh = np.meshgrid(*axes, indexing="ij", copy=False) if dim == 2 else axes
        d = np.asarray(values(*axes), dtype=float) - np.asarray(exact(*mesh), dtype=float)
        return d, mesh

    grid = (eval_grid_1d(),) if dim == 1 else (eval_grid_axis_2d(),) * 2
    err_inf = float(np.max(np.abs(diff(grid)[0])))
    alphas = [float(a) for a in (alpha if dim == 2 else (alpha,))]
    rules = {a: mhf_gauss_rule(MhfBasis(alpha=a, degree=2 * degree + 16)) for a in set(alphas)}
    rules = [rules[a] for a in alphas]
    d, mesh = diff([rule.nodes for rule in rules])
    if not np.all(np.isfinite(d)):
        at = tuple(np.argwhere(~np.isfinite(d))[0])
        point = ", ".join(f"{name}={float(m[at])!r}" for name, m in zip("xy", mesh))
        raise ValueError(f"integrand is not finite at {point}")
    # sum over x first, then y: another order changes the last bits
    total = d**2
    for rule in rules:
        total = rule.weights @ total
    return ErrorNorms(err_inf=err_inf, err_l2chi=math.sqrt(max(0.0, float(total))))
