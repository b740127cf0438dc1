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
from .hermite import HermiteRule, hermite_scaled_table, hermite_orthonormal_table
from .mhf import (
    MhfBasis,
    MhfRule,
    _check_unit_interval,
    _logit,
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

    @property
    def nbytes(self) -> int:
        return self.nodes_t.nbytes + self.weights.nbytes + self.nodes_x.nbytes

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
    """(point indices, node indices) of the points equal to an ascending node.

    Where several nodes round to one value (x = 1.0 at alpha 0.5 from
    N = 181), the k-th point of that value takes the k-th of those nodes,
    or the last, so the nodes themselves hit one each.
    """
    idx = np.minimum(np.searchsorted(nodes, points), nodes.size - 1)
    rows = np.flatnonzero(nodes[idx] == points)
    cols = idx[rows]
    if cols.size > 1:
        order = np.argsort(cols, kind="stable")
        ranked = cols[order]
        cols[order] = ranked + np.arange(ranked.size) - np.searchsorted(ranked, ranked)
        cols = np.minimum(cols, np.searchsorted(nodes, points[rows], side="right") - 1)
    return rows, cols


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


def _gauss_cardinal_rows(colloc: HermiteRule, quad: HermiteRule) -> np.ndarray:
    """_damped_rows at the nodes of quad for the nodes of colloc, scale one,
    in closed form from the two rules; quad must have one node more.

    With n = colloc.degree, the nodes z_j are the zeros of h_{n+1} and the
    points zeta_i those of h_{n+2}.  There the damped cardinals are the
    Hermite-function cardinals (Boyd, Chebyshev and Fourier Spectral
    Methods, 2001, ch. 17)

        E_ij = h_{n+1}(zeta_i) / (h'_{n+1}(z_j) (zeta_i - z_j)),

    with h'_{n+1}(z_j) = sqrt(2(n+1)) h_n(z_j).  The rule's weight formula
    w = exp(-z^2) / ((N+1) h_N(z)^2) gives both magnitudes from the
    log-weights, log|h_n(z_j)| = -(z_j^2 + log((n+1) w_j)) / 2 and
    log|h_{n+1}(zeta_i)| = -(zeta_i^2 + log((n+2) w^q_i)) / 2, and for
    ascending nodes the signs are (-1)^(n-j) and (-1)^(n+1-i).  So E is a
    Cauchy matrix scaled by O(N) exponentials.  Rules of consecutive degrees
    interlace, so no difference is zero.
    """
    n = colloc.degree
    z, zeta = colloc.nodes, quad.nodes
    log_hn = -0.5 * (z * z + math.log(n + 1) + colloc.log_weights)
    log_hq = -0.5 * (zeta * zeta + math.log(n + 2) + quad.log_weights)
    sign = np.where((n + 1 - np.arange(n + 2)) % 2 == 0, 1.0, -1.0)  # (-1)^(n+1-i)
    col = sign[1:] * np.exp(-log_hn) / math.sqrt(2.0 * (n + 1))  # sign[j+1] = (-1)^(n-j)
    row = sign * np.exp(log_hq)
    out = np.subtract.outer(zeta, z)
    np.divide(row[:, None], out, out=out)
    out *= col
    return out


def _differences(basis: LagrangeBasis, x) -> tuple:
    """Differences t - t_j at the points x, and the points that hit a node.

    A point equal to a stored node in x hits it wherever that node rounds,
    x = 1.0 included, and takes the node's stored logit; every other point
    must lie in (0,1) and hits a node when its logit equals the stored one.
    Returns (d, rows, cols): the differences, with the hit entries set to
    one, and the (point, node) index pairs of the hits.
    """
    pts = np.array(x, dtype=float, ndmin=1)  # a copy
    rows, cols = _node_hits(basis.nodes_x, pts)
    pts[rows] = 0.5  # in (0,1); a hit takes its node's logit
    t = _logit(_check_unit_interval(pts))
    t[rows] = basis.nodes_t[cols]
    d = t[:, None] - basis.nodes_t[None, :]
    rows, cols = _node_hits(basis.nodes_t, t)
    d[rows, cols] = 1.0
    return d, rows, cols


class _CauchyTerms(NamedTuple):
    """Barycentric terms at a set of points: row i of c over den[i] is the
    cardinal row at point i (see _compute_terms)."""

    c: np.ndarray
    den: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.c.nbytes + self.den.nbytes


def _fixed_grid(t_count: int, uniform_count: int) -> np.ndarray:
    """Read-only union of logistic(t), t uniform on [-8, 8], and uniform points
    on [1e-3, 1-1e-3], sorted without repeats.  Sorting and dropping equal
    neighbours gives np.unique's grid without the numpy.ma import that
    np.unique costs at first use."""
    mapped = map_to_unit(1.0, np.linspace(-8.0, 8.0, t_count))
    uniform = np.linspace(1e-3, 1.0 - 1e-3, uniform_count)
    grid = np.sort(np.concatenate([mapped, uniform]))
    grid = grid[np.concatenate(([True], grid[1:] != grid[:-1]))]
    grid.setflags(write=False)
    return grid


_GRID_1D = _fixed_grid(2001, 999)
_GRID_AXIS_2D = _fixed_grid(68, 33)


def _compute_terms(basis: LagrangeBasis, x) -> _CauchyTerms:
    """Cauchy terms at any points, computed anew and read-only, so the memo
    may share them; d is divided in place.

    Most rows are the second barycentric form's: c = w_j / (t - t_j) and
    den their sum.  Two kinds of row are folded in here, with den one, so
    that every row is evaluated as (c @ values) / den:

    - A point that hits a node gets the unit row of that node.
    - Near the ends of the node span, and past them, the terms of a row
      cancel, and their sum can come out exactly 0 (at alpha 2 and N = 280,
      at 4 points of the error norms' rule); a non-finite sum is as
      unusable.  Such a row is the cardinal row by the first (modified
      Lagrange) form l_j(t) = w_j prod_k (t - t_k) / (t - t_j) in log
      magnitude, which is _damped_rows at scale zero.
    """
    d, rows, cols = _differences(basis, x)
    c = np.divide(basis.weights[None, :], d, out=d)
    den = np.sum(c, axis=1)
    den[rows] = 1.0  # hit rows are unit rows below, never cancelled
    cancelled = np.flatnonzero((den == 0.0) | ~np.isfinite(den))
    if cancelled.size:
        pts = np.atleast_1d(np.asarray(x, dtype=float))[cancelled]
        c[cancelled] = _damped_rows(basis.nodes_t, _logit(pts), 0.0)
        den[cancelled] = 1.0
    c[rows] = 0.0
    c[rows, cols] = 1.0
    terms = _CauchyTerms(c, den)
    for arr in terms:
        arr.setflags(write=False)
    return terms


def _cauchy_terms(basis: LagrangeBasis, x, tag=None) -> _CauchyTerms:
    """Cauchy terms of the basis at the points x, memoized for fixed point sets.

    tag names the point set x when the caller knows it: ("rule", alpha,
    degree) for the counted nodes of that mapped rule, as error_norms passes them.
    Without a tag, only the arrays returned by eval_grid_1d() and
    eval_grid_axis_2d() are looked up, by identity; any other points, a
    copy of a grid or of a rule's nodes included, are computed anew.  The
    memo's key is the tag and the basis content, so equal bases built apart
    (a solution's and one rebuilt from the same rule) share an entry; the
    mhf and smoothed solutions at one (alpha, N) share one basis.  Memoized
    terms are read-only.
    """
    if tag is None:
        if x is _GRID_1D:
            tag = "1d"
        elif x is _GRID_AXIS_2D:
            tag = "axis-2d"
        else:
            return _compute_terms(basis, x)
    key = ("terms", tag, basis.nodes_t.tobytes(), basis.weights.tobytes(),
           basis.nodes_x.tobytes())
    return memo.get(key, lambda: _compute_terms(basis, x))


def cardinal_matrix(basis: LagrangeBasis, x, tag=None) -> np.ndarray:
    """Cardinal values l_j(x) for points in the original variable.

    Exact hits are detected against the stored original nodes, so
    evaluation at a node returns the unit row (and interpolants return the
    stored value) exactly.  A row whose barycentric sum cancels to 0 is
    taken by the first form (_compute_terms).  tag is _cauchy_terms'.
    """
    c, den = _cauchy_terms(basis, x, tag)
    return c / den[:, None]


@dataclass(frozen=True)
class Interpolant1D:
    basis: LagrangeBasis
    values: np.ndarray

    @property
    def degree(self) -> int:
        return self.basis.degree

    def eval(self, x):
        """Values at x by the barycentric formula (c @ values) / sum(c).

        A point equal to a node returns the stored value exactly.  A row
        whose sum cancels to 0 is taken by the first form (_compute_terms).
        """
        out = self._on_grid((x,), (None,))
        return float(out[0]) if np.ndim(x) == 0 else out

    def _on_grid(self, axes: tuple, tags: tuple) -> np.ndarray:
        """Values at the points axes[0], from the Cauchy terms under tags[0]."""
        c, den = _cauchy_terms(self.basis, axes[0], tags[0])
        return (c @ np.asarray(self.values, dtype=float)) / den

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
        return self._on_grid((x, y), (None, None))

    def _on_grid(self, axes: tuple, tags: tuple) -> np.ndarray:
        """eval_grid on the axes, from the Cauchy terms under the per-axis tags."""
        (x, y), (tx, ty) = axes, tags
        lx = cardinal_matrix(self.basis_x, x, tx)
        same = self.basis_y is self.basis_x and y is x and ty == tx
        ly = lx if same else cardinal_matrix(self.basis_y, y, ty)
        # A transposed right operand sends OpenBLAS with two threads down a
        # GEMM path that stalls for milliseconds at the 2D norm rule's size.
        return lx @ self.values @ np.ascontiguousarray(ly.T)

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
        z = self.basis.alpha * _logit(pts)
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


def _open_grid(axes: tuple) -> tuple:
    """Per-axis arrays that broadcast to their tensor grid: (a,) or (a[:, None], b[None, :])."""
    if len(axes) == 1:
        return axes
    a, b = axes
    return a[:, None], b[None, :]


def error_norms(approx, exact, alpha, dim: int = 1, degree: Optional[int] = None) -> ErrorNorms:
    """Sup-norm error on the fixed grid and weighted L2 error by oversampled
    quadrature (mapped rule of degree 2N+16 per axis, one per distinct alpha).

    alpha is one scale for every axis, as the solver takes it, or a sequence
    of dim scales; degree defaults to the approximant's own degree when it
    exposes one.  An interpolant is evaluated on the tensor grid of the
    per-axis points; any other approximant, like exact, is called once on
    their open grid (x[:, None], y[None, :]) and broadcast to the tensor
    grid (in 1D, by eval or the plain callable on the points themselves).
    The norm rules come from mhf_gauss_rule's memo and an interpolant's
    Cauchy terms at their nodes from the package's memo, so a repeated call
    costs one product and one call of exact per point set.  Only rule nodes
    with positive weight and x below 1 count (at alpha 0.5 nodes round to 1
    from N = 83); dropped weight above eps of the rule's sum raises ValueError.
    """
    if dim not in (1, 2):
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    alphas = [float(alpha)] * dim if np.ndim(alpha) == 0 else [float(a) for a in alpha]
    if len(alphas) != dim:
        raise ValueError(f"alpha must be a scalar or {dim} scales for dim={dim}, "
                         f"got {len(alphas)}")
    if degree is None:
        degree = getattr(approx, "degree", None)
        if degree is None:
            raise ValueError("degree must be given for plain-callable approximants")
    # an interpolant evaluates from Cauchy terms under the tags; any other
    # approximant on the open grid
    on_grid = getattr(approx, "_on_grid", None)
    plain = approx if dim == 2 else getattr(approx, "eval", approx)

    def diff(axes, tags):
        if on_grid is not None:
            got = on_grid(axes, tags)
        else:
            got = np.broadcast_to(plain(*_open_grid(axes)), tuple(a.size for a in axes))
        return np.asarray(got, dtype=float) - np.asarray(exact(*_open_grid(axes)), dtype=float)

    grid = (eval_grid_1d(),) if dim == 1 else (eval_grid_axis_2d(),) * 2
    err_inf = float(np.max(np.abs(diff(grid, (None,) * dim))))
    rule_degree = 2 * degree + 16
    counted = {}  # per distinct scale, the norm rule's nodes and weights that count
    for a in alphas:
        rule = mhf_gauss_rule(MhfBasis(alpha=a, degree=rule_degree))
        nodes, weights = counted[a] = rule.nodes, rule.weights
        # nodes ascend and weights are least at the ends: if nothing drops,
        # the rule's own arrays keep their terms' tag and a shared axis, in O(1)
        if not (weights[0] > 0.0 and nodes[-1] < 1.0):
            keep = (weights > 0.0) & (nodes < 1.0)
            if np.sum(weights[~keep]) > np.finfo(float).eps * np.sum(weights):
                raise ValueError(f"the norm rule of degree {rule_degree} at alpha={a!r} loses "
                                 "weight at nodes that round to x = 1; raise alpha")
            counted[a] = nodes[keep], weights[keep]
    axes, weights = zip(*(counted[a] for a in alphas))
    d = diff(axes, tuple(("rule", a, rule_degree) for a in alphas))
    if not np.all(np.isfinite(d)):
        at = np.argwhere(~np.isfinite(d))[0]
        point = ", ".join(f"{name}={float(a[i])!r}" for name, a, i in zip("xy", axes, at))
        raise ValueError(f"integrand is not finite at {point}")
    # sum over x first, then y: another order changes the last bits
    total = d**2
    for w in weights:
        total = w @ total
    return ErrorNorms(err_inf=err_inf, err_l2chi=math.sqrt(max(0.0, float(total))))
