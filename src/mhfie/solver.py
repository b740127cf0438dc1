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
full step.  In one dimension W and E are dense.  Where psi' is one constant
c on the quadrature nodes (every linear problem), the Jacobian is
lam*I - c K with K = W E, and its inverse is kept in the memo under
("inverse", alpha, n, method, kind, mu, factor, lam, c): built on the first
step at that key, so a warm solve is bitwise the cold one, and each step is
that inverse times the right-hand side, so a repeated solve factors
nothing.  A cold solve pays one inverse instead of one LU factorization:
under 0.1 ms more at N <= 64, about 8 ms against 2 ms at N = 400.  A psi'
that varies takes a dense LU solve per step.
In two dimensions the kernel and the grids are tensor products, so
only the per-axis factors are kept: W = Wx (x) Wy and E = Ex (x) Ey act as
Wx Psi Wy^T and Ex U Ey^T in O(N^3), and each Newton step is solved by
GMRES (Saad & Schultz 1986) in the eigen-coordinates t = (Qx (x) Qy)^-1 v
of the kept axis operators K = W E = Q diag(l) Q^-1, where the fast
diagonalization (Lynch, Rice & Thomas 1964) of lam*I - c Kx (x) Ky, c the
mean of dpsi/du, is the diagonal 1 / (lam - c lx_i ly_j).  Nothing on the
2D solve path holds an O(N^4) array.  GMRES keeps each preconditioned
Krylov vector beside its basis vector (flexible GMRES, Saad 1993) and each
one's image under the Jacobian, so a Krylov iteration costs one Jacobian
apply, (Qx^-1 Wx (x) Qy^-1 Wy)(d o (Ex Qx (x) Ey Qy) t): two Kronecker
applies, and an elementwise preconditioner; a restart cycle forms its true
residual from the kept images.  A Newton step adds one transform of -F into
t and one of the step back out; the residual, its max-norm test and the
line search stay in node values.  In both dimensions the
Jacobian at an iterate reads the E u that the residual computed at that
same iterate (_quad_values).  The 2D steps are inexact on purpose:
newton_driver passes each step the forcing
eta = min(0.1, 0.01 |F|_inf), and GMRES stops once the linear residual,
measured in the eigen-coordinates, is below eta |Q^-1 F| (or the fixed
floors of _gmres_step), which keeps Newton's quadratic convergence with
fewer Krylov iterations (Dembo, Eisenstat & Steihaug 1982).  The dense 1D
step is exact and ignores the forcing.

E holds the damped cardinals of the collocation nodes at the quadrature
nodes.  The quadrature rule has degree n+1, one node more than the
collocation rule, so in z the collocation nodes are the zeros of h_{n+1} and
the quadrature nodes those of h_{n+2}: the two families interlace and never
coincide, and E is the Hermite-function cardinal matrix
E_ij = h_{n+1}(zeta_i) / (h'_{n+1}(z_j) (zeta_i - z_j)).  Both Hermite-function
values follow from the two Gauss-Hermite rules' log-weights, so E costs
O(N) exponentials and one Cauchy matrix (approx._gauss_cardinal_rows), the
same for both routes.

One builder makes the system for both dimensions: per axis it takes the
mapped rules, the kernel factor, the cardinal factor, the quadrature
coordinates and the collocation nodes, so the one-dimensional system is
the one-axis case of the two-dimensional one.

Both axes use one map scale alpha, as in the paper; unless the config sets
one, it is the problem's default_alpha.  The mapped rules come
from mhf_gauss_rule's memo, pure functions of (alpha, degree).  The
package's one byte-bounded memo (mhfie._memo) keeps each other array the
solve reuses as its own complete, read-only entry: E under ("cardinals", n),
built in z from the Gauss-Hermite rules, so one E serves every alpha and
both routes; the interpolation basis under ("basis", alpha, n), built for
the first Solution; an axis's kernel factor W = theta * coeffs under
("kernel", alpha, n, method, kind, mu, factor), shared by the problems and
the axes that share these; the 1D inverses above; and the _Eigenbasis of
the first 2D solve under ("eigen", *the kernel key).  W is built before E,
so a solve whose kernel values are not finite builds no E.  The kernel
values come from problem._axis_theta; the solver reads only whether a
diagonal type is present.  Only a process that repeats a key gains, such
as a study of several problems or forcings at one discretization.

verify_residual neither reads nor writes that memo: it builds its
quadrature coefficients, E and kernel factors anew, into a dict of its own
that lives for the one call, so its certificate stays independent of the
arrays the solve used, and it makes no basis.  It shares with the solve
only the mapped rules with their Gauss-Hermite rules, which the rule memos
keep for every caller: pure functions of (alpha, degree) whose arrays
cannot be written.

For problems that carry an exact solution the forcing vector is
synthesized through the discrete operator itself (see
_synthesize_forcing), so the reported errors isolate the approximation
power of the collocation space; problems defined only by a forcing
callable are evaluated with that forcing at the collocation nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from ._memo import memo
from .approx import (
    Interpolant1D,
    LagrangeBasis,
    _gauss_cardinal_rows,
    _open_grid,
    tensor_interpolant,
)
from .hermite import _as_integer
from .mhf import MhfBasis, MhfRule, _check_alpha, mhf_gauss_rule, mhf_unit_weights
from .problem import (KernelSpec, ProblemSpec, _axis_theta, _kernel_gap, exact_values,
                      forcing_on_grid)

__all__ = [
    "METHOD_MHF",
    "METHOD_SMOOTHED",
    "AssemblyError",
    "SolverError",
    "NonConvergenceError",
    "SolverConfig",
    "NewtonResult",
    "Solution",
    "newton_driver",
    "solve",
    "verify_residual",
]

METHOD_MHF = "mhf"
METHOD_SMOOTHED = "smoothed"

MAX_N_1D = 400
MAX_N_2D = 80
# GMRES on the 2D Newton steps: stop at the largest of forcing * |rhs|,
# GMRES_RTOL * |rhs| and GMRES_ATOL_FACTOR * newton_tol (2-norms in the
# eigen-coordinates of the axis operators, where GMRES runs).  The
# forcing newton_driver passes shrinks with the residual, so the last steps
# are exact to well below the Newton tolerance; the preconditioned iteration
# needs a few to a few tens of iterations, far inside GMRES_RESTART *
# GMRES_MAX_CYCLES.
GMRES_RTOL = 1e-10
GMRES_ATOL_FACTOR = 0.1
GMRES_RESTART = 30
GMRES_MAX_CYCLES = 4
# Largest eigenvector condition estimate |Q|_1 |Q^-1|_1 of an axis operator
# that the 2D solve works with: at N = 80 the ex3 kernels read at most 3e2
# and an algebraic one with mu = 0.6 4e2, while a rank-one K (kind "none")
# reads 4e17 at N = 8.
EIGEN_COND_MAX = 1e8


class AssemblyError(RuntimeError):
    """The discrete operator could not be built (e.g. a kernel value is not finite)."""


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

    n is the degree of the collocation rule (n+1 nodes); the quadrature rule
    always has degree n+1.  alpha is the map scale of every axis, checked
    against the rule's own range (see the module docstring).  None, the
    default, stands for the problem's default_alpha: for_problem resolves
    it, and solve and verify_residual resolve it before they build.
    """

    n: int
    alpha: Optional[float] = None
    method: str = METHOD_MHF
    newton_tol: float = 1e-12
    newton_max_iter: int = 50

    def __post_init__(self):
        if _as_integer(self.n, "n") < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        if self.alpha is not None:
            _check_alpha(self.alpha)
        if self.method not in (METHOD_MHF, METHOD_SMOOTHED):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol}")
        if _as_integer(self.newton_max_iter, "newton_max_iter") < 1:
            raise ValueError(f"newton_max_iter must be >= 1, got {self.newton_max_iter}")

    def check_dimension(self, dim: int) -> None:
        """Raise ValueError if n is above the limit of this dimension."""
        limit = MAX_N_1D if dim == 1 else MAX_N_2D
        if self.n > limit:
            raise ValueError(f"n={self.n} exceeds limit {limit} in {dim}D")

    def for_problem(self, problem: ProblemSpec) -> SolverConfig:
        """This config with alpha resolved: problem.default_alpha if alpha
        is None, else the config itself."""
        if self.alpha is not None:
            return self
        return replace(self, alpha=problem.default_alpha)


@dataclass(frozen=True)
class Solution:
    problem_name: str
    config: SolverConfig
    node_values: np.ndarray
    # at alpha 0.5 the last node is 1.0 from N = 181; exact values need nodes_complement
    nodes_x: np.ndarray
    nodes_y: Optional[np.ndarray]
    interpolant: object
    newton_iters: int
    final_residual: float
    residual_history: tuple
    step_scales: tuple  # accepted damping scale per Newton iteration
    krylov_iters: tuple  # GMRES iterations per Newton step; empty for dense steps


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


def _theta_matrix(kernel: KernelSpec, rule_q: MhfRule, rule_c: MhfRule,
                  axis: int = 0) -> np.ndarray:
    """Kernel values theta(s_k, x_i) on quadrature x collocation nodes.

    Each gap |x - s| keeps its digits: it comes from the stored complements
    by the shared rule (problem._kernel_gap).  A value that is not finite,
    as where nodes or complements underflow to 0, raises AssemblyError.
    """
    x, s, xc, sc = rule_c.nodes, rule_q.nodes, rule_c.nodes_complement, rule_q.nodes_complement
    gap = (np.empty((x.size, s.size)) if kernel.kind == "none"  # kind "none" reads its shape
           else _kernel_gap(s, x[:, None], sc, xc[:, None]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        theta = _axis_theta(kernel, axis, gap, s[None, :], sc[None, :],
                            x[:, None], xc[:, None])
    if not np.all(np.isfinite(theta)):
        i, k = np.unravel_index(int(np.argmax(~np.isfinite(theta))), theta.shape)
        raise AssemblyError(f"kernel value is not finite at x[{i}]={float(x[i])!r}, "
                            f"s[{k}]={float(s[k])!r}; nodes cluster at an endpoint; "
                            "lower n or raise alpha")
    return theta


def _kernel_key(kernel: KernelSpec, axis: int, config: SolverConfig) -> tuple:
    """The memo key of one axis's kernel factor W: its (kind, mu), the
    kernel's factor function and the discretization, not the problem."""
    mu = kernel.mu[axis] if kernel.kind == "algebraic" else None
    return ("kernel", config.alpha, config.n, config.method, kernel.kind, mu, kernel.factor)


def _kernel_matrix(kernel: KernelSpec, axis: int, rule_q: MhfRule, rule_c: MhfRule,
                   method: str) -> np.ndarray:
    """W = theta * coeffs for the kernel on one axis, read-only, coeffs the
    quadrature coefficients of rule_q by the method's route."""
    w = _theta_matrix(kernel, rule_q, rule_c, axis) * _quad_coeffs(rule_q, method)[None, :]
    w.setflags(write=False)
    return w


def _cardinals(rule_c: MhfRule, rule_q: MhfRule) -> np.ndarray:
    """Damped cardinals E of rule_c at the nodes of rule_q, read-only.  The
    mhf route's cardinals (logits, damping scale alpha) and the smoothed
    route's (z, scale one) differ only by an affine change of variable,
    which the product form and the Gaussian factor both cancel, so both
    take E in closed form from the Gauss-Hermite rules, whatever alpha."""
    e = _gauss_cardinal_rows(rule_c.hermite, rule_q.hermite)
    e.setflags(write=False)
    return e


class _Eigenbasis(NamedTuple):
    """The eigendecomposition K = W E = Q diag(l) Q^-1 of one axis operator
    with the factors Q^-1 W and E Q of the 2D Jacobian in its
    eigen-coordinates; every array is read-only."""

    values: np.ndarray
    forward: np.ndarray
    backward: np.ndarray
    w: np.ndarray
    e: np.ndarray

    @property
    def nbytes(self) -> int:
        return sum(arr.nbytes for arr in self)


def _eigenbasis(w: np.ndarray, e: np.ndarray) -> _Eigenbasis:
    """The _Eigenbasis of K = W E.  A singular Q, or one whose condition
    estimate |Q|_1 |Q^-1|_1 exceeds EIGEN_COND_MAX, raises SolverError: the
    2D solve's coordinates would lose that axis's digits."""
    values, forward = np.linalg.eig(w @ e)
    try:
        backward = np.linalg.inv(forward)
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"preconditioner axis factor is not diagonalizable: {exc}"
        ) from exc
    cond = np.linalg.norm(forward, 1) * np.linalg.norm(backward, 1)
    if not cond <= EIGEN_COND_MAX:
        raise SolverError(
            "preconditioner axis factor is not diagonalizable: eigenvector "
            f"condition estimate |Q|_1 |Q^-1|_1 = {cond:.1e} exceeds {EIGEN_COND_MAX:.0e}"
        )
    basis = _Eigenbasis(values, forward, backward, backward @ w, e @ forward)
    for arr in basis:
        arr.setflags(write=False)
    return basis


@dataclass
class _Discretization:
    """The discrete system lam*u - W psi(E u) = g, kept as per-axis factors.

    w and e hold one dense factor per axis; in two dimensions W = w[0] (x) w[1]
    and E = e[0] (x) e[1] are never formed.  kron_w and kron_e are the same
    factors in the form _kron_apply takes, the second one transposed and
    contiguous; they belong to this build, not to the memo.  quad_coords
    broadcast against the values on the quadrature grid (a column and a row
    in 2D); u and g are flat, x-major in 2D.
    """

    dimension: int
    lam: float
    g: np.ndarray
    keys: tuple  # per axis kernel key; axes with one exponent share one
    w: tuple
    e: tuple
    kron_w: tuple  # w and e as _kron_apply takes them, made per build
    kron_e: tuple
    quad_coords: tuple
    colloc_points: tuple
    interp_from_values: Callable
    shape: tuple


def _kron_pair(factors: tuple) -> tuple:
    """Per-axis factors in the form _kron_apply takes: one factor as it is;
    for two, (Ax, Ay^T) with Ay^T made contiguous once, here."""
    if len(factors) == 1:
        return factors
    ax, ay = factors
    return ax, np.ascontiguousarray(ay.T)


def _kron_apply(factors: tuple, v: np.ndarray) -> np.ndarray:
    """A v for one factor; for a pair (Ax, Ay^T) from _kron_pair,
    (Ax (x) Ay) v as Ax V Ay^T, V the matrix of the flat v."""
    if len(factors) == 1:
        return factors[0] @ v
    ax, ay_t = factors
    return ax @ v.reshape(ax.shape[1], ay_t.shape[0]) @ ay_t


def _integral_term(problem: ProblemSpec, w: tuple, quad_coords: tuple,
                   uq: np.ndarray) -> np.ndarray:
    """W psi(E u) at the collocation nodes, flat, from uq = E u on the
    quadrature grid and W as _kron_apply takes it."""
    psi = np.asarray(problem.nonlinearity.psi(*quad_coords, uq), dtype=float)
    return _kron_apply(w, psi).ravel()


def _synthesize_forcing(problem: ProblemSpec, u_nodes: np.ndarray,
                        kron_w: tuple, kron_e: tuple, quad_coords: tuple) -> np.ndarray:
    """Forcing consistent with the discrete operator for a known solution.

    g = lam*u - W psi(E u) makes the exact node values an exact solution of
    the discrete system, so convergence reports measure the approximation
    power of the collocation space rather than the quadrature consistency
    error (which decays only slowly for the singular kernels and would
    otherwise dominate every experiment).
    """
    return problem.lam * u_nodes - _integral_term(
        problem, kron_w, quad_coords, _kron_apply(kron_e, u_nodes))


def _build(problem: ProblemSpec, config: SolverConfig,
           get: Callable = memo.get) -> _Discretization:
    """The discrete system, built axis by axis; 1D is the one-axis case.

    config.alpha must be resolved (SolverConfig.for_problem), so no memo key
    holds None.  get(key, build) supplies each axis's kernel factor W, the
    cardinal factor E and the interpolation basis: the memo's for solve;
    verify_residual passes one that reads a dict of its own, which lives
    for the one call.  W is asked for first, so a solve whose kernel values
    are not finite builds no E.
    """
    dim = problem.dimension
    config.check_dimension(dim)
    alpha, n = config.alpha, config.n
    # both axes share the rules, E and the basis, and one kernel factor
    # unless the exponents differ
    rule_c = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=n))
    rule_q = mhf_gauss_rule(MhfBasis(alpha=alpha, degree=n + 1))
    keys = tuple(_kernel_key(problem.kernel, axis, config) for axis in range(dim))
    w = tuple(get(key, functools.partial(_kernel_matrix, problem.kernel, axis, rule_q,
                                         rule_c, config.method))
              for axis, key in enumerate(keys))
    # per axis: cardinal factor, quadrature nodes, and collocation nodes
    # with their complements
    e, quad_nodes, nodes, complements = (
        (arr,) * dim
        for arr in (get(("cardinals", n), functools.partial(_cardinals, rule_c, rule_q)),
                    rule_q.nodes, rule_c.nodes, rule_c.nodes_complement)
    )
    kron_w, kron_e = _kron_pair(w), _kron_pair(e)
    quad_coords = _open_grid(quad_nodes)
    if problem.exact_solution is not None:
        u_nodes = exact_values(problem, _open_grid(nodes), _open_grid(complements))
        g = _synthesize_forcing(problem, u_nodes.ravel(), kron_w, kron_e, quad_coords)
    else:
        g = forcing_on_grid(problem, nodes).ravel()

    def interp(values: np.ndarray):
        basis = get(("basis", alpha, n), functools.partial(LagrangeBasis.from_mhf_rule, rule_c))
        if dim == 1:
            return Interpolant1D(basis=basis, values=values)
        return tensor_interpolant(basis, basis, values)

    return _Discretization(
        dimension=dim,
        lam=problem.lam,
        g=g,
        keys=keys,
        w=w,
        e=e,
        kron_w=kron_w,
        kron_e=kron_e,
        quad_coords=quad_coords,
        colloc_points=nodes,
        interp_from_values=interp,
        shape=(config.n + 1,) * dim,
    )


def _quad_values(disc: _Discretization) -> Callable:
    """u -> E u on the quadrature grid, read-only, keeping the last pair.

    Newton evaluates the residual at an iterate and then the Jacobian at that
    same array, so a residual and a Jacobian that share one of these compute
    E u once per iterate.  The one slot is keyed by the identity of u and
    holds u itself, so the key cannot be reused by another array; any other
    array, equal or not, gets its own product.  Made per call of solve or
    verify_residual, so nothing outlives that call.
    """
    slot = [None, None]

    def apply(u: np.ndarray) -> np.ndarray:
        if slot[0] is not u:
            uq = _kron_apply(disc.kron_e, u)
            uq.setflags(write=False)
            slot[:] = u, uq
        return slot[1]

    return apply


def _residual_fn(disc: _Discretization, problem: ProblemSpec,
                 quad_values: Callable) -> Callable:
    """u -> lam u - g - W psi(E u), E u from quad_values."""

    def residual(u: np.ndarray) -> np.ndarray:
        return disc.lam * u - disc.g - _integral_term(
            problem, disc.kron_w, disc.quad_coords, quad_values(u)
        )

    return residual


def _same(v: np.ndarray) -> np.ndarray:
    return v


class _Operator(NamedTuple):
    """Square linear operator given by its action, with its preconditioner.

    Both are callables on flat real vectors; _gmres applies precond on the
    right.  They act on the coordinates that into takes a right-hand side
    to and back takes a solution from, by default the vector itself.
    """

    matvec: Callable
    precond: Callable
    into: Callable = _same
    back: Callable = _same


class _FastDiagonalization:
    """The eigen-coordinates of the 2D Jacobian, in which lam*I - c Kx (x) Ky
    is diagonal (Lynch, Rice & Thomas 1964).

    With K = W E = Q diag(l) Q^-1 per axis, t = (Qx (x) Qy)^-1 v takes
    J = lam I - (Wx (x) Wy) D (Ex (x) Ey) to
    lam I - (Qx^-1 Wx (x) Qy^-1 Wy) D (Ex Qx (x) Ey Qy), and the inverse of
    lam I - c Kx (x) Ky to the elementwise 1 / (lam - c lx_i ly_j).  Each
    axis's _Eigenbasis is kept in the memo under ("eigen", *its kernel key),
    so two axes that share a kernel factor share one, and a repeated solve
    makes none.  The contiguous second-axis transposes that _kron_apply
    takes are made here, once per solve, and are not kept.  Complex
    eigenpairs make t complex; GMRES then runs on its real view
    (.view(float)), whose real inner product is Re<a, b>, and a step is the
    real part of (Qx (x) Qy) t, real in exact arithmetic.  The
    preconditioner only speeds GMRES up: each step's accuracy is set by its
    true residual, which the Jacobian's own outputs give.
    """

    def __init__(self, disc: _Discretization):
        self.lam = disc.lam
        (lx, qx, bx, wx, ex), (ly, qy, by, wy, ey) = (
            memo.get(("eigen", *key[1:]), functools.partial(_eigenbasis, w, e))
            for key, w, e in zip(disc.keys, disc.w, disc.e))
        self.forward, self.backward = _kron_pair((qx, qy)), _kron_pair((bx, by))
        self.w, self.e = _kron_pair((wx, wy)), _kron_pair((ex, ey))
        self.products = (lx[:, None] * ly[None, :]).ravel()
        self.dtype = self.products.dtype

    def into(self, v: np.ndarray) -> np.ndarray:
        """(Qx (x) Qy)^-1 v, as a real view."""
        return _kron_apply(self.backward, v).ravel().view(float)

    def back(self, t: np.ndarray) -> np.ndarray:
        """The real part of (Qx (x) Qy) t, t a real view."""
        return _kron_apply(self.forward, t.view(self.dtype)).real.ravel()

    def inverse(self, c: float) -> Callable:
        """t -> t / (lam - c lx_i ly_j) on real views."""
        scale, dtype = 1.0 / (self.lam - c * self.products), self.dtype

        def apply(r: np.ndarray) -> np.ndarray:
            return (scale * r.view(dtype)).view(float)

        return apply


def _factored_jacobian(disc: _Discretization, d: np.ndarray,
                       fast: _FastDiagonalization) -> _Operator:
    """J t = lam t - (Qx^-1 Wx) (d o (Ex Qx T Qy^T Ey^T)) (Qy^-1 Wy)^T on
    flat real views of the eigen-coordinates t: two Kronecker applies.

    Its preconditioner is the fast-diagonalization inverse at c = mean(d),
    which is J^-1 itself when d is constant (the identity nonlinearity);
    into and back carry a Newton step's -F into t and its solution out.
    """
    lam, w, e, dtype = disc.lam, fast.w, fast.e, fast.dtype

    def jv(t: np.ndarray) -> np.ndarray:
        t = t.view(dtype)
        return (lam * t - _kron_apply(w, d * _kron_apply(e, t)).ravel()).view(float)

    return _Operator(jv, fast.inverse(float(np.mean(d))), fast.into, fast.back)


class _JacobianInverse(NamedTuple):
    """The kept, read-only inverse of a dense 1D Jacobian: _dense_step
    multiplies by it instead of factoring."""

    matrix: np.ndarray


def _kept_inverse(lam: float, c: float, key: tuple, w: np.ndarray,
                  e: np.ndarray) -> _JacobianInverse:
    """(lam I - c K)^-1 with K = W E, kept in the memo under
    ("inverse", *the kernel key, lam, c) and charged its 8 m^2 bytes.  Built
    on first use with _checked_factor's typed failures, so a Jacobian that
    is not finite or is singular raises SolverError and keeps nothing."""

    def build() -> np.ndarray:
        a = lam * np.eye(w.shape[0]) - c * (w @ e)
        inverse = _checked_factor(a, np.linalg.inv)
        inverse.setflags(write=False)
        return inverse

    return _JacobianInverse(memo.get(("inverse", *key[1:], lam, c), build))


def _jacobian_fn(disc: _Discretization, problem: ProblemSpec,
                 quad_values: Callable) -> Callable:
    """u -> Jacobian: in 1D the kept _JacobianInverse of lam I - c K where
    psi' is one constant c on the quadrature nodes, else the dense matrix;
    a preconditioned _Operator in 2D.

    The inverse is read from the memo, or built there on the first step at
    its key (_kept_inverse), so a repeated linear solve factors nothing and
    a warm solve takes the very steps of the cold one.  E u comes from
    quad_values; sharing the residual's (solve does) reuses the product the
    residual made at the same iterate.
    """
    dpsi = problem.nonlinearity.dpsi_du
    if disc.dimension == 1:
        (w,), (e,), (key,) = disc.w, disc.e, disc.keys

        def jacobian(u: np.ndarray):
            d = np.asarray(dpsi(*disc.quad_coords, quad_values(u)), dtype=float)
            if np.all(d == d.flat[0]):
                # W diag(d) E = d K
                return _kept_inverse(disc.lam, float(d.flat[0]), key, w, e)
            return disc.lam * np.eye(w.shape[0]) - (w * d[None, :]) @ e

        return jacobian
    fast = _FastDiagonalization(disc)

    def factored(u: np.ndarray) -> _Operator:
        uq = quad_values(u)
        d = np.broadcast_to(np.asarray(dpsi(*disc.quad_coords, uq), dtype=float), uq.shape)
        return _factored_jacobian(disc, d, fast)

    return factored


def _checked_factor(jac, factor: Callable) -> np.ndarray:
    """factor(a) for the dense Jacobian a, with typed failures.

    A Jacobian with a NaN or infinite entry raises SolverError before any
    factorization.  An exactly singular one raises SolverError with the
    reciprocal 1-norm condition number, computed on that failure path only.
    """
    a = np.atleast_2d(np.asarray(jac, dtype=float))
    if not np.all(np.isfinite(a)):
        raise SolverError(
            f"Jacobian is not finite ({a.size - np.count_nonzero(np.isfinite(a))} "
            f"of {a.size} entries are NaN or infinite)"
        )
    try:
        return factor(a)
    except np.linalg.LinAlgError:
        with np.errstate(all="ignore"):
            rcond = 1.0 / float(np.linalg.cond(a, 1))
        raise SolverError(
            f"Jacobian is singular (reciprocal condition estimate {rcond:.2e})"
        ) from None


def _dense_step(jac, rhs: np.ndarray, forcing: Optional[float] = None):
    """Newton step from a dense Jacobian; there are no Krylov iterations.

    A _JacobianInverse (the kept inverse of a 1D Jacobian with constant
    psi') gives the step as one product, and any other Jacobian is solved
    by LU, with _checked_factor's typed failures.  The step is exact to
    rounding, so the forcing is ignored; a non-finite step raises
    SolverError.
    """
    if isinstance(jac, _JacobianInverse):
        step = jac.matrix @ rhs
    else:
        step = _checked_factor(jac, lambda a: np.linalg.solve(a, rhs))
    if not np.all(np.isfinite(step)):
        raise SolverError("Newton step is not finite")
    return step, None


def _gmres(matvec: Callable, precond: Callable, rhs: np.ndarray, target: float):
    """Restarted GMRES from zero, right-preconditioned, keeping the
    preconditioned vectors (Saad & Schultz 1986; flexible GMRES, Saad 1993).

    Each cycle builds an Arnoldi basis b_j of at most GMRES_RESTART vectors
    for matvec(precond(.)) by modified Gram-Schmidt, keeps z_j = precond(b_j)
    and its image matvec(z_j) beside it, and tracks the least-squares
    residual by Givens rotations on Python floats.  A cycle ends when that
    estimate reaches the target and adds Z y to the iterate, y by back
    substitution in the k x k triangle.  So every iteration calls precond
    once and matvec once, and nothing else does: matvec is linear, so a
    cycle takes the true residual rhs - matvec(v) as r - sum_j y_j
    matvec(z_j), r the one the cycle started from, from the kept images,
    never from the Givens estimate.  The iterate is accepted only when that
    reaches the target too.  The basis, Z and the images are lists that
    grow by one vector per iteration; the vectors precond and matvec return
    are kept as they are, so each must return a new array (or its
    argument).  Runs at most GMRES_MAX_CYCLES cycles.  Returns v, the
    number of iterations and the last true residual norm.  A singular
    preconditioned operator raises LinAlgError.
    """
    v = np.zeros_like(rhs)
    r, beta = rhs, math.sqrt(rhs @ rhs)
    iters = 0
    for _ in range(GMRES_MAX_CYCLES):
        if beta <= target:
            break
        basis, kept, images = [r / beta], [], []
        cols, rotations, g = [], [], [beta]  # cols[j]: column j of the triangle
        for j in range(GMRES_RESTART):
            kept.append(precond(basis[j]))
            images.append(matvec(kept[j]))
            w = images[j]
            col = []
            for b in basis:
                col.append(float(b @ w))
                w = w - col[-1] * b
            norm = math.sqrt(w @ w)
            iters += 1
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            rho = math.hypot(col[j], norm)
            if rho == 0.0:
                raise np.linalg.LinAlgError("the preconditioned operator is singular")
            c, s = col[j] / rho, norm / rho
            rotations.append((c, s))
            col[j] = rho
            cols.append(col)
            g[j], g_next = c * g[j], -s * g[j]
            g.append(g_next)
            if abs(g_next) <= target or norm == 0.0:
                break
            basis.append(w / norm)
        y = g[: len(cols)]
        for j in reversed(range(len(cols))):
            y[j] /= cols[j][j]
            for i in range(j):
                y[i] -= y[j] * cols[j][i]
        for yj, z, image in zip(y, kept, images):
            v += yj * z
            r = r - yj * image
        beta = math.sqrt(r @ r)
    return v, iters, beta


def _gmres_step(config: SolverConfig) -> Callable:
    """Newton step from a factored 2D Jacobian by preconditioned GMRES.

    step(jac, rhs, forcing) takes rhs into the operator's coordinates
    (jac.into; for the 2D Jacobian the eigen-coordinates t), runs GMRES
    there and returns jac.back of its solution.  GMRES stops at the true
    linear residual max(forcing |b|, GMRES_RTOL |b|,
    GMRES_ATOL_FACTOR newton_tol), b = jac.into(rhs), every 2-norm taken in
    those coordinates; with no forcing the first term drops.  So the step
    is inexact on purpose: newton_driver's forcing solves it only as
    exactly as Newton needs (Dembo, Eisenstat & Steihaug 1982).  A step
    whose true residual misses its target raises SolverError.
    """
    atol = GMRES_ATOL_FACTOR * config.newton_tol

    def step(jac: _Operator, rhs: np.ndarray, forcing: Optional[float] = None):
        b = jac.into(rhs)
        norm = math.sqrt(b @ b)
        target = max(GMRES_RTOL * norm, atol)
        if forcing is not None:
            target = max(forcing * norm, target)
        v, iters, residual = _gmres(jac.matvec, jac.precond, b, target)
        if not residual <= target:
            raise SolverError(
                f"GMRES did not converge at n={config.n}: relative Krylov residual "
                f"{residual / norm:.2e} after {iters} iterations"
            )
        return jac.back(v), iters

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
    """Damped Newton solve from g / lam: dense steps in 1D, GMRES in 2D.

    config.method picks the discretization route; a linear problem takes
    one full step.  An alpha of None is the problem's default_alpha, and
    Solution.config is the resolved config.  final_residual is the last
    entry of residual_history, which newton_driver leaves at or below
    newton_tol.
    """
    config = config.for_problem(problem)
    disc = _build(problem, config)
    quad_values = _quad_values(disc)
    result = newton_driver(
        _residual_fn(disc, problem, quad_values),
        _jacobian_fn(disc, problem, quad_values),
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

    Accepts a Solution or a bare node-value array, which must hold the
    (n+1)^dim node values of the config; another count raises ValueError
    before anything is built.  An alpha of None is the problem's
    default_alpha, as in solve.  The quadrature coefficients, damped cardinal
    matrix and kernel matrix are rebuilt here, into a dict that lives for
    this call only, and the memo the solves share is neither read nor
    written, so this is the independent certificate check.  Only the
    mapped rules, with the Gauss-Hermite rules under them, come from the
    rule memos that every caller shares: pure functions of (alpha, degree)
    whose arrays cannot be written.
    """
    values = solution.node_values if isinstance(solution, Solution) else solution
    u = np.asarray(values, dtype=float).ravel()
    count = (config.n + 1) ** problem.dimension
    if u.size != count:
        raise ValueError(
            f"expected {count} node values for n={config.n} in {problem.dimension}D, "
            f"got {u.size}"
        )
    kept = {}

    def get(key, build: Callable):
        if key not in kept:
            kept[key] = build()
        return kept[key]

    disc = _build(problem, config.for_problem(problem), get)
    return float(np.max(np.abs(_residual_fn(disc, problem, _quad_values(disc))(u))))
