"""Nystrom-collocation solvers for the weakly singular integral equations.

Two equivalent discretizations are provided.  "mhf" collocates with the
mapped Hermite interpolant on (0,1) and applies the mapped Gauss rule with
weights chi_k / chi(s_k); "smoothed" first substitutes x = sigma(xhat/alpha)
to move the problem to the real line, collocates with a plain polynomial at
Hermite-Gauss points and quadratures with weights exp(log w_k + s_k^2)
times the logistic Jacobian.  The two discrete systems coincide under the
change of variables, so their node values must agree to solver tolerance -
a property the test suite leans on heavily.

Every system, linear or not, goes through one damped Newton iteration
with the exact Jacobian lam*I - W diag(dpsi/du) E and initial guess g/lam;
a linear equation (psi(u) = u, the Fredholm case) is solved by its first,
full step.  In one dimension W and E are dense and each step is a dense LU
solve.  In two dimensions the kernel and the grids are tensor products, so
only the per-axis factors are kept: W = Wx (x) Wy and E = Ex (x) Ey act as
Wx Psi Wy^T and Ex U Ey^T in O(N^3), and each Newton step is solved by
GMRES (Saad & Schultz 1986), preconditioned by the fast diagonalization
(Lynch, Rice & Thomas 1964) of lam*I - c (Wx Ex) (x) (Wy Ey), c the mean of
dpsi/du.  Nothing on the 2D solve path holds an O(N^4) array.  The 2D steps
are inexact on purpose: newton_driver passes each step the forcing
eta = min(0.1, 0.01 |F|_inf), and GMRES stops once the linear residual is
below eta |F| (or the fixed floors of _gmres_step), which keeps Newton's
quadratic convergence with fewer Krylov iterations (Dembo, Eisenstat &
Steihaug 1982).  The dense 1D step is exact and ignores the forcing.

One builder makes the system for both dimensions: per axis it takes the
axis plan, the kernel factor, the cardinal factor, the quadrature
coordinates and the collocation nodes, so the one-dimensional system is
the one-axis case of the two-dimensional one.

The collocation and quadrature rules, the quadrature coefficients and the
damped cardinal matrix E of one axis depend only on (alpha, n, ni, method),
never on the problem.  They are built once into a read-only axis plan, kept
in the package's one byte-bounded memo (mhfie._memo) under the key
("plan", alpha, n, ni, method), from which solve, assemble_nystrom and both
axes of a 2D solve take them.  A kernel that is its singular factor alone
depends only on (kind, mu) and the plan, so its read-only kernel factor
W = theta * coeffs and, from the first 2D solve that asks, the eigenpairs of
W E that the preconditioner diagonalizes are kept as a second entry, under
("kernel", alpha, n, ni, method, kind, mu); both axes of a 2D solve with one
plan and one exponent share them, so each is built once.  Custom kernels and
kernels with a smooth factor depend on the problem and are built per call.
Only a process that repeats a key gains, such as a study of several problems
or forcings at one discretization; a convergence ladder solves each key once.

verify_residual neither reads nor writes the memo: it builds its plans,
quadrature coefficients, E and kernel factors anew, into a memo of its own
that lives for the one call, so its certificate stays independent of the
arrays the solve used.  What it shares
with the solve is the Gauss-Hermite rule under each mapped rule, which
hermite_gauss_rule keeps in its own memo: a pure function of one integer
degree whose arrays cannot be written.  A plan builds its interpolation
basis on first use, which the certificate never makes.

For problems that carry an exact solution the forcing vector is
synthesized through the discrete operator itself (see
_synthesize_forcing), so the reported errors isolate the approximation
power of the collocation space; problems defined only by a forcing
callable are evaluated with that forcing at the collocation nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._memo import MEMO_BYTES, BoundedMemo, memo
from .approx import (
    Interpolant1D,
    LagrangeBasis,
    _damped_rows,
    tensor_interpolant,
)
from .mhf import MhfBasis, MhfRule, mhf_gauss_rule, mhf_unit_weights
from .problem import ProblemSpec, _axis_singular, exact_values, forcing_on_grid

__all__ = [
    "METHOD_MHF",
    "METHOD_SMOOTHED",
    "AssemblyError",
    "SolverError",
    "NonConvergenceError",
    "SolverConfig",
    "NewtonResult",
    "NystromMatrix",
    "Solution",
    "assemble_nystrom",
    "newton_driver",
    "solve",
    "verify_residual",
]

METHOD_MHF = "mhf"
METHOD_SMOOTHED = "smoothed"

MAX_N_1D = 400
MAX_N_2D = 80
NODE_GAP = 1e-12
# GMRES on the 2D Newton steps: stop at the largest of forcing * |rhs|,
# GMRES_RTOL * |rhs| and GMRES_ATOL_FACTOR * newton_tol (2-norms).  The
# forcing newton_driver passes shrinks with the residual, so the last steps
# are exact to well below the Newton tolerance; the preconditioned iteration
# needs a few to a few tens of iterations, far inside GMRES_RESTART *
# GMRES_MAX_CYCLES.
GMRES_RTOL = 1e-10
GMRES_ATOL_FACTOR = 0.1
GMRES_RESTART = 30
GMRES_MAX_CYCLES = 4


class AssemblyError(RuntimeError):
    """The discrete operator could not be built (e.g. node coincidence)."""


class SolverError(RuntimeError):
    """The linear algebra underlying a solve failed."""


class NonConvergenceError(RuntimeError):
    """Newton failed to reach tolerance; carries the iterate and history."""

    def __init__(self, message, best=None, history=None):
        super().__init__(message)
        self.best = best
        self.history = list(history) if history is not None else []


@dataclass(frozen=True)
class SolverConfig:
    """Discretization and Newton parameters.

    ni defaults to n+1: Hermite-Gauss node families of consecutive sizes
    interlace, so collocation and quadrature points can never coincide.
    """

    n: int
    ni: Optional[int] = None
    alpha: float = 1.0
    alpha2: Optional[float] = None
    method: str = METHOD_MHF
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        if self.ni is not None and self.ni < 0:
            raise ValueError(f"ni must be nonnegative, got {self.ni}")
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.alpha2 is not None and not (
            self.alpha2 > 0.0 and math.isfinite(self.alpha2)
        ):
            raise ValueError(f"alpha2 must be positive, got {self.alpha2}")
        if self.method not in (METHOD_MHF, METHOD_SMOOTHED):
            raise ValueError(f"unknown method {self.method!r}")
        if self.newton_tol <= 0.0:
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if self.newton_max_iter < 1:
            raise ValueError(f"newton_max_iter must be >= 1, got {self.newton_max_iter}")

    @property
    def ni_value(self) -> int:
        return self.n + 1 if self.ni is None else self.ni

    def axis_scales(self, dim: int) -> tuple:
        """Map scale of each of dim axes: alpha, then alpha2 (default alpha)."""
        return (self.alpha, self.alpha if self.alpha2 is None else self.alpha2)[:dim]

    def check_dimension(self, dim: int, problem: str = "") -> None:
        """Raise ValueError for settings a problem of this dimension cannot use:
        n above the limit, or alpha2 on a one-dimensional problem.  ni is
        bounded, in either dimension, by the rule's own MAX_RULE_DEGREE."""
        if dim == 1 and self.alpha2 is not None:
            raise ValueError(
                f"alpha2={self.alpha2} sets the second axis, but problem "
                f"{problem!r} is one-dimensional"
            )
        limit = MAX_N_1D if dim == 1 else MAX_N_2D
        if self.n > limit:
            raise ValueError(
                f"n={self.n}, ni={self.ni_value} exceeds limit {limit} in {dim}D"
            )


@dataclass(frozen=True)
class NystromMatrix:
    """Quadrature-weighted kernel matrix W.

    Rows follow collocation points, columns quadrature points; in two
    dimensions both indices are composite (x-major / s-major flattening) so
    weights is always a plain dense matrix (in 2D the Kronecker product of
    the per-axis factors, formed for the caller only).
    """

    weights: np.ndarray
    colloc_points: tuple
    quad_points: tuple
    dimension: int


@dataclass(frozen=True)
class Solution:
    problem_name: str
    config: SolverConfig
    node_values: np.ndarray
    nodes_x: np.ndarray
    nodes_y: Optional[np.ndarray]
    interpolant: object
    newton_iters: int
    final_residual: float
    residual_history: tuple
    step_scales: tuple  # accepted damping scale per Newton iteration
    krylov_iters: tuple  # GMRES iterations per Newton step; empty for dense LU


def _quad_coeffs(rule: MhfRule, method: str) -> np.ndarray:
    """Per-node coefficients chi_k / chi(s_k), by each method's own route.

    mhf: log-space quotient of the mapped weight and the chi weight
    (mhf_unit_weights).
    smoothed: modified Hermite weights exp(log w_k + z_k^2) times the
    logistic Jacobian sigma'(z_k/alpha)/alpha.  Same numbers either way,
    which is exactly the point of the equivalence testing.
    """
    if method == METHOD_MHF:
        return mhf_unit_weights(rule)
    z = rule.hermite.nodes
    modified = np.exp(rule.hermite.log_weights + z * z)
    return modified * rule.nodes * rule.nodes_complement / rule.basis.alpha


def _theta_matrix(problem: ProblemSpec, rule_q: MhfRule, rule_c: MhfRule,
                  axis: int = 0) -> np.ndarray:
    """Kernel values theta(s_k, x_i) on quadrature x collocation nodes."""
    kernel = problem.kernel
    x = rule_c.nodes[:, None]
    s = rule_q.nodes[None, :]
    if kernel.kind == "custom":
        comp = rule_q.nodes_complement[None, :]
        theta = np.broadcast_to(
            np.asarray(kernel.fn(s, x, comp), dtype=float),
            (rule_c.nodes.size, rule_q.nodes.size),
        ).copy()
    else:
        gap = np.abs(x - s)
        gmin = float(np.min(gap))
        if gmin <= NODE_GAP:
            i, k = np.unravel_index(int(np.argmin(gap)), gap.shape)
            # Rules of consecutive degrees interlace; their nodes still meet
            # where the map clusters them at an endpoint.
            advice = ("nodes cluster at an endpoint; lower n or raise alpha"
                      if abs(rule_q.basis.degree - rule_c.basis.degree) == 1
                      else "pick ni so the node families interlace (default ni=n+1)")
            raise AssemblyError(
                f"collocation node x[{i}]={float(rule_c.nodes[i])!r} and quadrature node "
                f"s[{k}]={float(rule_q.nodes[k])!r} are {gmin:.2e} apart; {advice}"
            )
        theta = _axis_singular(kernel, axis)(gap)
        if kernel.smooth_factor is not None:
            theta = theta * np.asarray(kernel.smooth_factor(s, x), dtype=float)
    if not np.all(np.isfinite(theta)):
        i, k = np.unravel_index(int(np.argmax(~np.isfinite(theta))), theta.shape)
        raise AssemblyError(
            f"kernel value is not finite at collocation node {i}, quadrature node {k}"
        )
    return theta


def _interp_matrix(method: str, rule_c: MhfRule, rule_q: MhfRule) -> np.ndarray:
    """Dense matrix of damped cardinal functions at the quadrature nodes.

    The mhf route works in the logit variable with damping scale alpha, the
    smoothed route in the Hermite variable with scale one; the two differ
    only by that affine change of variable, which the product form and the
    Gaussian factor both cancel, so the routes build identical matrices.
    """
    if method == METHOD_MHF:
        return _damped_rows(rule_c.logits, rule_q.logits, rule_c.basis.alpha)
    return _damped_rows(rule_c.hermite.nodes, rule_q.hermite.nodes, 1.0)


@dataclass(frozen=True, eq=False)
class _KernelFactor:
    """Kernel factor W = theta * coeffs of one axis (read-only) and the
    cardinal factor E of its plan."""

    w: np.ndarray
    e: np.ndarray

    @functools.cached_property
    def eigenpairs(self) -> tuple:
        """(l, Q, Q^-1) with W E = Q diag(l) Q^-1, read-only; built on the
        first 2D solve that needs them, once per factor."""
        values, forward = np.linalg.eig(self.w @ self.e)
        try:
            backward = np.linalg.inv(forward)
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"preconditioner axis factor is not diagonalizable: {exc}"
            ) from exc
        for arr in (values, forward, backward):
            arr.setflags(write=False)
        return values, forward, backward

    @property
    def nbytes(self) -> int:
        """Bytes kept alive once complete: W, the E it references and, where
        a 2D solve can use it (n <= MAX_N_2D), at most m + 2 m^2 complex
        eigenpair values."""
        m = self.w.shape[0]
        eigen = 16 * m * (2 * m + 1) if m <= MAX_N_2D + 1 else 0
        return self.w.nbytes + self.e.nbytes + eigen


@dataclass(frozen=True)
class _AxisPlan:
    """Problem-independent parts of one axis; every array is read-only."""

    rule_c: MhfRule
    rule_q: MhfRule
    coeffs: np.ndarray  # chi_k / chi(s_k) at the quadrature nodes
    e: np.ndarray  # damped cardinals of rule_c at the nodes of rule_q

    @functools.cached_property
    def basis(self) -> LagrangeBasis:
        """Interpolation basis at the collocation nodes, built on first use:
        a solution needs it, the residual certificate does not."""
        return LagrangeBasis.from_mhf_rule(self.rule_c)

    @property
    def nbytes(self) -> int:
        """Bytes kept alive: both mapped rules with their Gauss-Hermite rules,
        coeffs, E and the barycentric weights of the basis, built or not."""
        rules = sum(arr.nbytes for rule in (self.rule_c, self.rule_q)
                    for arr in (rule.nodes, rule.weights, rule.logits, rule.nodes_complement,
                                rule.hermite.nodes, rule.hermite.weights,
                                rule.hermite.log_weights))
        return rules + self.coeffs.nbytes + self.e.nbytes + self.rule_c.nodes.nbytes


def _build_axis_plan(alpha: float, n: int, ni: int, method: str) -> _AxisPlan:
    """Build the rules, quadrature coefficients and E of one axis anew."""
    rule_c = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=n))
    rule_q = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=ni))
    coeffs = _quad_coeffs(rule_q, method)
    e = _interp_matrix(method, rule_c, rule_q)
    for arr in (coeffs, e):
        arr.setflags(write=False)
    return _AxisPlan(rule_c, rule_q, coeffs, e)


def _kernel_factor(problem: ProblemSpec, axis: int, plan: _AxisPlan, key: tuple,
                   get: Callable) -> _KernelFactor:
    """W = theta * coeffs for the problem's kernel on one axis, whose plan
    has the key (alpha, n, ni, method).

    A kernel that is its singular factor alone depends only on (kind, mu)
    and the plan, so its factor is taken from get; a custom kernel or one
    with a smooth factor is built anew on every call.
    """

    def build() -> _KernelFactor:
        w = _theta_matrix(problem, plan.rule_q, plan.rule_c, axis) * plan.coeffs[None, :]
        w.setflags(write=False)
        return _KernelFactor(w, plan.e)

    kernel = problem.kernel
    if kernel.kind == "custom" or kernel.smooth_factor is not None:
        return build()
    mu = kernel.mu[axis] if kernel.kind == "algebraic" else None
    return get(("kernel", *key, kernel.kind, mu), build)


@dataclass
class _Discretization:
    """The discrete system lam*u - W psi(E u) = g, kept as per-axis factors.

    w and e hold one dense factor per axis; in two dimensions W = w[0] (x) w[1]
    and E = e[0] (x) e[1] are never formed.  quad_coords broadcast against the
    values on the quadrature grid (a column and a row in 2D); u and g are flat,
    x-major in 2D.
    """

    dimension: int
    lam: float
    g: np.ndarray
    kernels: tuple  # per axis _KernelFactor; axes that share a plan and kernel share one
    w: tuple
    e: tuple
    quad_coords: tuple
    colloc_points: tuple
    interp_from_values: Callable
    shape: tuple


def _kron_apply(factors: tuple, v: np.ndarray) -> np.ndarray:
    """A v for one factor; (Ax (x) Ay) v as Ax V Ay^T for two, V the matrix of v."""
    if len(factors) == 1:
        return factors[0] @ v
    ax, ay = factors
    return ax @ np.reshape(v, (ax.shape[1], ay.shape[1])) @ ay.T


def _integral_term(problem: ProblemSpec, w: tuple, e: tuple, quad_coords: tuple,
                   u: np.ndarray) -> np.ndarray:
    """W psi(E u) at the collocation nodes, flat."""
    psi = np.asarray(problem.nonlinearity.psi(*quad_coords, _kron_apply(e, u)), dtype=float)
    return np.ravel(_kron_apply(w, psi))


def _synthesize_forcing(problem: ProblemSpec, u_nodes: np.ndarray,
                        w: tuple, e: tuple, quad_coords: tuple) -> np.ndarray:
    """Forcing consistent with the discrete operator for a known solution.

    g = lam*u - W psi(E u) makes the exact node values an exact solution of
    the discrete system, so convergence reports measure the approximation
    power of the collocation space rather than the quadrature consistency
    error (which decays only slowly for the singular kernels and would
    otherwise dominate every experiment).
    """
    return problem.lam * u_nodes - _integral_term(problem, w, e, quad_coords, u_nodes)


def _open_grid(axes: tuple) -> tuple:
    """Per-axis arrays that broadcast to their tensor grid: (a,) or (a[:, None], b[None, :])."""
    if len(axes) == 1:
        return axes
    a, b = axes
    return a[:, None], b[None, :]


def _build(problem: ProblemSpec, config: SolverConfig,
           get: Callable = memo.get) -> _Discretization:
    """The discrete system, built axis by axis; 1D is the one-axis case.

    get(key, build) supplies the axis plans and kept kernel factors: the
    memo's for solve and assemble_nystrom; verify_residual passes that of a
    memo of its own, which lives for the one call.
    """
    dim = problem.dimension
    config.check_dimension(dim, problem.name)
    if dim == 2 and problem.kernel.smooth_factor is not None:
        raise AssemblyError(
            f"problem {problem.name!r}: 2D kernel smooth factors are not supported "
            "by the factored solver, which needs a kernel that separates per axis"
        )
    keys = [(a, config.n, config.ni_value, config.method) for a in config.axis_scales(dim)]
    # one plan per distinct map scale: both axes share it by default, and
    # through it one kernel factor unless the exponents differ
    plans = {key: get(("plan", *key), functools.partial(_build_axis_plan, *key))
             for key in set(keys)}
    axis_plans = [plans[key] for key in keys]
    kernels = tuple(_kernel_factor(problem, axis, plans[key], key, get)
                    for axis, key in enumerate(keys))
    w = tuple(k.w for k in kernels)
    # per axis: cardinal factor, quadrature nodes, and collocation nodes
    # with their complements
    e, quad_nodes, nodes, complements = zip(*[
        (p.e, p.rule_q.nodes, p.rule_c.nodes, p.rule_c.nodes_complement)
        for p in axis_plans
    ])
    quad_coords = _open_grid(quad_nodes)
    if problem.exact_solution is not None:
        u_nodes = exact_values(problem, _open_grid(nodes), _open_grid(complements))
        g = _synthesize_forcing(problem, u_nodes.ravel(), w, e, quad_coords)
    else:
        g = forcing_on_grid(problem, nodes).ravel()

    def interp(values: np.ndarray):
        bases = [p.basis for p in axis_plans]
        if dim == 1:
            return Interpolant1D(basis=bases[0], values=values)
        return tensor_interpolant(*bases, values)

    return _Discretization(
        dimension=dim,
        lam=problem.lam,
        g=g,
        kernels=kernels,
        w=w,
        e=e,
        quad_coords=quad_coords,
        colloc_points=nodes,
        interp_from_values=interp,
        shape=(config.n + 1,) * dim,
    )


def assemble_nystrom(problem: ProblemSpec, config: SolverConfig) -> NystromMatrix:
    """Quadrature-weighted kernel matrix for the problem at this config.

    In two dimensions the dense Kronecker product is formed here, on request;
    the solvers only ever apply its factors.
    """
    disc = _build(problem, config)
    return NystromMatrix(
        # a copy: the 1D factor may be the read-only one the plan keeps
        weights=disc.w[0].copy() if disc.dimension == 1 else np.kron(*disc.w),
        colloc_points=disc.colloc_points,
        quad_points=tuple(a.ravel() for a in np.broadcast_arrays(*disc.quad_coords)),
        dimension=disc.dimension,
    )


def _residual_fn(disc: _Discretization, problem: ProblemSpec) -> Callable:
    def residual(u: np.ndarray) -> np.ndarray:
        return disc.lam * u - disc.g - _integral_term(
            problem, disc.w, disc.e, disc.quad_coords, u
        )

    return residual


class _Operator(NamedTuple):
    """Square linear operator given by its action, with its preconditioner.

    Both are callables on flat vectors; _gmres applies precond on the right.
    """

    matvec: Callable
    precond: Callable


class _FastDiagonalization:
    """Inverse of lam*I - c (Wx Ex) (x) (Wy Ey) (Lynch, Rice & Thomas 1964).

    With A = Q L Q^-1 for each axis product, the inverse is
    (Qx (x) Qy) diag(1 / (lam - c lx_i ly_j)) (Qx (x) Qy)^-1, applied per
    axis.  The eigendecompositions are the kernel factors' eigenpairs: made
    once per distinct (W, E) pair, so two axes that share a kernel factor
    share them, and kept with a kernel factor the memo keeps, so a repeated
    solve makes none.  c may change with every Newton step.  Complex
    eigenpairs are carried in complex arithmetic and the result, real in
    exact arithmetic, is taken as its real part.  The preconditioner only
    speeds GMRES up: each step's accuracy is set by its residual target.
    """

    def __init__(self, disc: _Discretization):
        self.lam = disc.lam
        (lx, qx, bx), (ly, qy, by) = (k.eigenpairs for k in disc.kernels)
        self.forward, self.backward = (qx, qy), (bx, by)
        self.products = lx[:, None] * ly[None, :]

    def inverse(self, c: float) -> Callable:
        scale = 1.0 / (self.lam - c * self.products)

        def apply(r: np.ndarray) -> np.ndarray:
            t = scale * _kron_apply(self.backward, r)
            return np.ravel(_kron_apply(self.forward, t).real)

        return apply


def _factored_jacobian(disc: _Discretization, d: np.ndarray,
                       fast: _FastDiagonalization) -> _Operator:
    """J v = lam v - Wx (d o (Ex V Ey^T)) Wy^T, applied per axis.

    Its preconditioner is the fast-diagonalization inverse at c = mean(d),
    which is J^-1 itself when d is constant (the identity nonlinearity).
    """

    def jv(v: np.ndarray) -> np.ndarray:
        v = np.ravel(v)
        return disc.lam * v - np.ravel(_kron_apply(disc.w, d * _kron_apply(disc.e, v)))

    return _Operator(jv, fast.inverse(float(np.mean(d))))


def _jacobian_fn(disc: _Discretization, problem: ProblemSpec) -> Callable:
    """u -> Jacobian: a dense matrix in 1D, a preconditioned _Operator in 2D."""
    dpsi = problem.nonlinearity.dpsi_du
    if disc.dimension == 1:
        (w,), (e,) = disc.w, disc.e
        eye = np.eye(w.shape[0])

        def jacobian(u: np.ndarray) -> np.ndarray:
            d = np.asarray(dpsi(*disc.quad_coords, e @ u), dtype=float)
            return disc.lam * eye - (w * d[None, :]) @ e

        return jacobian
    fast = _FastDiagonalization(disc)

    def factored(u: np.ndarray) -> _Operator:
        uq = _kron_apply(disc.e, u)
        d = np.broadcast_to(np.asarray(dpsi(*disc.quad_coords, uq), dtype=float), uq.shape)
        return _factored_jacobian(disc, d, fast)

    return factored


def _dense_step(jac, rhs: np.ndarray, forcing: Optional[float] = None):
    """Newton step from a dense Jacobian by LU; there are no Krylov iterations.

    The step is exact to rounding, so the forcing is ignored.

    A Jacobian with a NaN or infinite entry raises SolverError before any
    factorization.  An exactly singular one raises SolverError with the
    reciprocal 1-norm condition number, computed on that failure path only,
    and so does a non-finite step.
    """
    a = np.atleast_2d(np.asarray(jac, dtype=float))
    if not np.all(np.isfinite(a)):
        raise SolverError(
            f"Jacobian is not finite ({a.size - np.count_nonzero(np.isfinite(a))} "
            f"of {a.size} entries are NaN or infinite)"
        )
    try:
        step = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError:
        with np.errstate(all="ignore"):
            rcond = 1.0 / float(np.linalg.cond(a, 1))
        raise SolverError(
            f"Jacobian is singular (reciprocal condition estimate {rcond:.2e})"
        ) from None
    if not np.all(np.isfinite(step)):
        raise SolverError("Newton step is not finite")
    return step, None


def _gmres(matvec: Callable, precond: Callable, rhs: np.ndarray, target: float):
    """Restarted GMRES from zero, right-preconditioned (Saad & Schultz 1986).

    Each cycle builds an Arnoldi basis of at most GMRES_RESTART vectors for
    matvec(precond(.)) by modified Gram-Schmidt and tracks the least-squares
    residual by Givens rotations; a cycle ends when that estimate reaches the
    target, and the iterate is accepted only when the true residual
    |rhs - matvec(v)| reaches it too.  Runs at most GMRES_MAX_CYCLES cycles.
    Returns v, the number of iterations and the last true residual norm.
    """
    v = np.zeros_like(rhs)
    r, beta = rhs, float(np.linalg.norm(rhs))
    iters = 0
    for _ in range(GMRES_MAX_CYCLES):
        if beta <= target:
            break
        basis = np.empty((GMRES_RESTART + 1, rhs.size))
        basis[0] = r / beta
        h = np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
        rotations, g = [], [beta]
        for j in range(GMRES_RESTART):
            w = matvec(precond(basis[j]))
            for i in range(j + 1):
                h[i, j] = basis[i] @ w
                w = w - h[i, j] * basis[i]
            norm = float(np.linalg.norm(w))
            iters += 1
            col = h[: j + 1, j]
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], norm)
            c, s = col[j] / rho, norm / rho
            rotations.append((c, s))
            col[j] = rho
            g[j], g_next = c * g[j], -s * g[j]
            g.append(g_next)
            if abs(g_next) <= target or norm == 0.0:
                break
            basis[j + 1] = w / norm
        k = len(rotations)
        y = np.linalg.solve(np.triu(h[:k, :k]), g[:k])
        v = v + precond(y @ basis[:k])
        r = rhs - matvec(v)
        beta = float(np.linalg.norm(r))
    return v, iters, beta


def _gmres_step(config: SolverConfig) -> Callable:
    """Newton step from a factored 2D Jacobian by preconditioned GMRES.

    step(jac, rhs, forcing) stops at the true linear residual
    max(forcing |rhs|, GMRES_RTOL |rhs|, GMRES_ATOL_FACTOR newton_tol); with
    no forcing the first term drops.  So the step is inexact on purpose:
    newton_driver's forcing solves it only as exactly as Newton needs
    (Dembo, Eisenstat & Steihaug 1982).  A step whose true residual misses
    its target raises SolverError.
    """
    atol = GMRES_ATOL_FACTOR * config.newton_tol

    def step(jac: _Operator, rhs: np.ndarray, forcing: Optional[float] = None):
        norm = float(np.linalg.norm(rhs))
        target = max(GMRES_RTOL * norm, atol)
        if forcing is not None:
            target = max(forcing * norm, target)
        v, iters, residual = _gmres(jac.matvec, jac.precond, rhs, target)
        if not residual <= target:
            raise SolverError(
                f"GMRES did not converge at n={config.n}: relative Krylov residual "
                f"{residual / norm:.2e} after {iters} iterations"
            )
        return v, iters

    return step


class NewtonResult(NamedTuple):
    """Final iterate of newton_driver with its per-iteration record."""

    x: np.ndarray
    iters: int
    history: list
    step_scales: list
    krylov_iters: list


def newton_driver(residual, jacobian, x0, tol: float = 1e-12, max_iter: int = 50,
                  solve_step: Callable = _dense_step) -> NewtonResult:
    """Damped Newton iteration on a residual map.

    Each step solves jacobian(x) step = -f(x) as
    solve_step(jacobian(x), -f, forcing), which returns the step and its
    Krylov iteration count, or None for a direct solve; the default factors a
    dense Jacobian and ignores the forcing.  The forcing
    eta = min(0.1, 0.01 |f|_inf) is the relative linear residual an
    iterative step may leave: an inexact step, intended, that keeps Newton's
    quadratic convergence because eta = O(|f|) (Dembo, Eisenstat & Steihaug,
    SIAM J. Numer. Anal. 19, 1982; Eisenstat & Walker, SIAM J. Sci. Comput.
    17, 1996).  Full steps are halved (at most 30 times) until the max-norm
    of the residual strictly decreases; failure to decrease, or running out
    of iterations, raises NonConvergenceError carrying the monotone residual
    history.  Returns the iterate, the iteration count, the residual
    history, the accepted scale of every step and the Krylov iterations of
    every step.
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    f = np.atleast_1d(np.asarray(residual(x), dtype=float))
    norm = float(np.max(np.abs(f)))
    history, scales, krylov = [norm], [], []
    for it in range(1, max_iter + 1):
        if norm <= tol:
            return NewtonResult(x, it - 1, history, scales, krylov)
        try:
            step, k = solve_step(jacobian(x), -f, min(0.1, 0.01 * norm))
        except np.linalg.LinAlgError as exc:
            raise SolverError(f"singular Jacobian at iteration {it}: {exc}") from exc
        except SolverError as exc:
            raise SolverError(f"Newton iteration {it}: {exc}") from exc
        if k is not None:
            krylov.append(k)
        scale = 1.0
        for _ in range(31):
            trial = x + scale * step
            f_trial = np.atleast_1d(np.asarray(residual(trial), dtype=float))
            norm_trial = float(np.max(np.abs(f_trial)))
            if norm_trial < norm:
                break
            scale *= 0.5
        else:
            raise NonConvergenceError(
                f"Newton stalled at iteration {it}: residual {norm:.3e} cannot "
                f"decrease after 30 halvings",
                best=x,
                history=history,
            )
        x, f, norm = trial, f_trial, norm_trial
        history.append(norm)
        scales.append(scale)
    if norm <= tol:
        return NewtonResult(x, max_iter, history, scales, krylov)
    raise NonConvergenceError(
        f"Newton did not reach tolerance {tol:.1e} in {max_iter} iterations "
        f"(final residual {norm:.3e})",
        best=x,
        history=history,
    )


def solve(problem: ProblemSpec, config: SolverConfig) -> Solution:
    """Damped Newton solve from g / lam: dense LU steps in 1D, GMRES in 2D.

    config.method picks the discretization route; a linear problem takes
    one full step.  final_residual is the last entry of residual_history,
    which newton_driver leaves at or below newton_tol.
    """
    disc = _build(problem, config)
    result = newton_driver(
        _residual_fn(disc, problem),
        _jacobian_fn(disc, problem),
        disc.g / disc.lam,
        tol=config.newton_tol,
        max_iter=config.newton_max_iter,
        solve_step=_dense_step if disc.dimension == 1 else _gmres_step(config),
    )
    values = result.x.reshape(disc.shape)
    return Solution(
        problem_name=problem.name,
        config=config,
        node_values=values,
        nodes_x=disc.colloc_points[0],
        nodes_y=disc.colloc_points[1] if disc.dimension == 2 else None,
        interpolant=disc.interp_from_values(values),
        newton_iters=result.iters,
        final_residual=result.history[-1],
        residual_history=tuple(result.history),
        step_scales=tuple(result.step_scales),
        krylov_iters=tuple(result.krylov_iters),
    )


def verify_residual(problem: ProblemSpec, config: SolverConfig, solution) -> float:
    """Max-norm residual of node values against a freshly built operator.

    Accepts a Solution or a bare node-value array.  The mapped rules,
    quadrature coefficients, damped cardinal matrix and kernel matrix are
    rebuilt here, in a memo that lives for this call only, and the memo the
    solves share is neither read nor written, so this is the independent
    certificate check.  Only the
    read-only Gauss-Hermite rules under the mapped rules come from the rule
    memo that every caller shares.
    """
    disc = _build(problem, config, BoundedMemo(MEMO_BYTES).get)
    values = solution.node_values if isinstance(solution, Solution) else solution
    u = np.asarray(values, dtype=float).ravel()
    return float(np.max(np.abs(_residual_fn(disc, problem)(u))))
