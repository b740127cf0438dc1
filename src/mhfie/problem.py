"""Problem descriptions: kernels, nonlinearities, forcing, and a registry.

Equations have the form

    lambda u(x) = g(x) + integral_0^1 theta(s, x) psi(s, u(s)) ds

on (0,1) (and the tensor analog on the unit square), with theta weakly
singular: |x-s|^(-mu) or log|x-s| times a smooth factor, or a custom
kernel with endpoint singularities only.

Forcing for manufactured solutions is produced by a reference integrator:
the integral is split at the diagonal singularity and each piece handled
by adaptive tanh-sinh (double-exponential) quadrature, with the singular
kernel factor evaluated from the endpoint offset directly so that the
clustering survives in floating point.  The unit abscissae of each level
(levels 0..12, at most 2.4 MB) are built once per process into read-only
tables.  The levels are nested, so one evaluation of the integrand on the
391 nodes of level 5 serves levels 0..5, where every integral of the
registry's manufactured forcing converges.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .mhf import _logistic_pair

__all__ = [
    "OracleError",
    "tanh_sinh",
    "KernelSpec",
    "Nonlinearity",
    "ProblemSpec",
    "kernel_eval",
    "exact_smooth_integral",
    "exact_values",
    "manufactured_forcing",
    "forcing_on_grid",
    "estimate_solvability",
    "get_problem",
    "problem_names",
]

DIAG_GUARD = 1e-14


class OracleError(RuntimeError):
    """Reference quadrature failed to converge; the experiment must abort."""


# ---------------------------------------------------------------------------
# tanh-sinh reference quadrature
# ---------------------------------------------------------------------------

_T_MAX = 6.1  # beyond this the double-exponential weights underflow
_FIRST_LEVEL = 5  # the one level evaluated for every coarser one (391 nodes)
_MAX_MEMO_LEVEL = 12  # the finest level whose table is kept, 2.4 MB for 0..12
_LEVEL_TABLES: dict = {}


def _level_table(level: int) -> tuple:
    """Read-only unit abscissae (sigma(u), 1 - sigma(u), cosh t) of one level.

    t = j 2^-level for |t| <= _T_MAX and u = pi sinh t, so the node map is
    r = length * sigma(u).  Tables of levels up to _MAX_MEMO_LEVEL are built
    once per process; a finer level is built on every call.
    """
    table = _LEVEL_TABLES.get(level)
    if table is None:
        h = 2.0**-level
        j = np.arange(-math.floor(_T_MAX / h), math.floor(_T_MAX / h) + 1)
        t = j * h
        table = (*_logistic_pair(math.pi * np.sinh(t)), np.cosh(t))
        for arr in table:
            arr.setflags(write=False)
        if level <= _MAX_MEMO_LEVEL:
            table = _LEVEL_TABLES.setdefault(level, table)
    return table


def _weighted_values(f, length: float, level: int) -> np.ndarray:
    """w * f(r, length - r) at every node of one level, w the map's derivative."""
    sig, sig_c, cosh = _level_table(level)
    w = length * math.pi * cosh * sig * sig_c
    return w * np.asarray(f(length * sig, length * sig_c), dtype=float)


def tanh_sinh(f, length: float, tol: float = 1e-12,
              max_level: int = _MAX_MEMO_LEVEL) -> float:
    """Integrate f over (0, length) by adaptive tanh-sinh quadrature.

    f(r, length - r) receives the offsets from both endpoints, each
    computed from the logistic form of the node map without cancellation,
    so integrable endpoint singularities can be evaluated at full
    precision arbitrarily close to the endpoints.  f must accept arrays.

    Level l has the nodes t = j 2^-l, |t| <= 6.1, whose unit abscissae come
    from a per-process table (levels up to 12).  Levels halve the step
    until successive values agree within tol (absolute), checked from
    level 2 on; exceeding max_level (at least 2) raises OracleError.  The
    levels are nested (Takahasi & Mori 1974): level l's nodes are every
    2^(5-l)-th node of level 5, so f is called once, at level 5 (or at
    max_level if lower), for levels 0..5, each of which sums a strided
    view of those values; each finer level calls f once more on all of
    its nodes.  A level whose sum is not finite raises OracleError.
    """
    if max_level < 2:
        raise ValueError(
            f"max_level must be at least 2, the first level checked for "
            f"convergence, got {max_level}"
        )
    if length == 0.0:
        return 0.0
    if length < 0.0 or not math.isfinite(length):
        raise ValueError(f"interval length must be positive, got {length}")
    first = min(_FIRST_LEVEL, max_level)
    nested = _weighted_values(f, length, first)
    center = nested.size // 2
    prev = None
    for level in range(max_level + 1):
        h = 2.0**-level
        if level <= first:
            stride = 2 ** (first - level)
            reach = math.floor(_T_MAX / h) * stride
            vals = nested[center - reach:center + reach + 1:stride]
        else:
            vals = _weighted_values(f, length, level)
        total = h * float(vals.sum())
        if not math.isfinite(total):
            raise OracleError("tanh-sinh integrand produced a non-finite value")
        delta = math.inf if prev is None else abs(total - prev)
        if level >= 2 and delta <= tol:
            return total
        prev = total
    raise OracleError(
        f"tanh-sinh did not reach tolerance {tol} within {max_level} levels "
        f"(last delta {delta:.3e})"
    )


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """Weakly singular kernel description.

    kind "algebraic": theta(s,x) = |x-s|^(-mu) * k(s,x), mu in (0,1)
    (per-dimension tuple in 2D); kind "log": theta(s,x) = log|x-s| * k(s,x).
    kind "custom" carries the kernel whole as fn(s, x, one_minus_s) - the
    complement argument lets endpoint-singular kernels such as
    (1-s)^(-1/2) be evaluated at full precision; custom kernels must not
    be singular on the diagonal and take no smooth_factor.
    """

    kind: str
    mu: Optional[tuple] = None
    smooth_factor: Optional[Callable] = None
    fn: Optional[Callable] = None
    dimension: int = 1

    def __post_init__(self):
        if self.kind not in ("algebraic", "log", "custom"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.kind == "algebraic":
            mu = self.mu if isinstance(self.mu, tuple) else (self.mu,)
            if len(mu) != self.dimension or any(
                m is None or not 0.0 < m < 1.0 for m in mu
            ):
                raise ValueError(
                    f"algebraic kernels need mu in (0,1) per dimension, got {self.mu}"
                )
            object.__setattr__(self, "mu", mu)
        if self.kind == "custom":
            if self.fn is None:
                raise ValueError("custom kernels require fn")
            if self.dimension != 1:
                raise ValueError("custom kernels are only supported in one dimension")
            if self.smooth_factor is not None:
                raise ValueError(
                    "custom kernels carry the whole kernel in fn; a smooth_factor "
                    "would be ignored"
                )


def _axis_singular(kernel: KernelSpec, axis: int):
    """Diagonal factor for one axis: returns f(|x-s|) as a function of the gap."""
    if kernel.kind == "algebraic":
        mu = kernel.mu[axis]
        return lambda r: r**-mu
    if kernel.kind == "log":
        return np.log
    raise ValueError(f"kernel kind {kernel.kind!r} has no diagonal factor")


def kernel_eval(spec: KernelSpec, s, x, t=None, y=None):
    """Point evaluation of the kernel; guards the diagonal singularity.

    For algebraic/log kinds a gap |x-s| (or |y-t|) below 1e-14 raises,
    naming the offending pair.  Custom kernels receive (s, x, 1-s).
    """
    if spec.kind == "custom":
        return spec.fn(s, x, 1.0 - np.asarray(s, dtype=float))
    if spec.dimension == 2 and (t is None or y is None):
        raise ValueError("two-dimensional kernels require s, t, x, y")
    sources, targets = (s, t)[: spec.dimension], (x, y)[: spec.dimension]
    val = 1.0
    for axis, (si, xi) in enumerate(zip(sources, targets)):
        gap = abs(xi - si)
        if gap < DIAG_GUARD:
            raise ValueError(
                f"kernel is singular at the diagonal on axis {axis}: "
                f"s={float(si)!r}, x={float(xi)!r}"
            )
        val = val * _axis_singular(spec, axis)(gap)
    if spec.smooth_factor is not None:
        val = val * spec.smooth_factor(*sources, *targets)
    return val


def exact_smooth_integral(kind: str, x, mu: Optional[float] = None):
    """Closed forms of integral_0^1 theta(s,x) ds for the two singular kinds.

    algebraic: (x^(1-mu) + (1-x)^(1-mu)) / (1-mu); log: x log x +
    (1-x) log(1-x) - 1.
    """
    x = np.asarray(x, dtype=float)
    if kind == "algebraic":
        if mu is None or not 0.0 < mu < 1.0:
            raise ValueError(f"mu in (0,1) is required, got {mu}")
        out = (x ** (1.0 - mu) + (1.0 - x) ** (1.0 - mu)) / (1.0 - mu)
    elif kind == "log":
        out = x * np.log(x) + (1.0 - x) * np.log1p(-x) - 1.0
    else:
        raise ValueError(f"no closed form for kernel kind {kind!r}")
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

_PROBE_U = (-1.5, -0.4, 0.3, 1.2)
_PROBE_S = (0.25, 0.5, 0.75)


@dataclass(frozen=True)
class Nonlinearity:
    """psi(s, u) (or psi(s, t, u) in 2D) with its u-derivative.

    The derivative is probed against a centered difference at construction;
    a relative mismatch beyond 1e-5 raises immediately rather than letting
    a wrong Jacobian stall the solver later.
    """

    psi: Callable
    dpsi_du: Callable
    dimension: int = 1

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        for u in _PROBE_U:
            h = 1e-6 * max(1.0, abs(u))
            for s in _PROBE_S:
                coords = (s,) * self.dimension
                fd = (self.psi(*coords, u + h) - self.psi(*coords, u - h)) / (2.0 * h)
                d = self.dpsi_du(*coords, u)
                if abs(fd - d) > 1e-5 * max(1.0, abs(d)):
                    raise ValueError(
                        f"dpsi_du disagrees with finite differences at "
                        f"coords={coords}, u={u}: {d} vs {fd}"
                    )

    @classmethod
    def identity(cls, dimension: int = 1) -> "Nonlinearity":
        return cls(
            psi=lambda *a: a[-1],
            dpsi_du=lambda *a: np.ones_like(np.asarray(a[-1], dtype=float)),
            dimension=dimension,
        )

    @classmethod
    def square(cls, dimension: int = 2) -> "Nonlinearity":
        return cls(psi=lambda *a: a[-1] ** 2, dpsi_du=lambda *a: 2.0 * a[-1],
                   dimension=dimension)


# ---------------------------------------------------------------------------
# problem specification
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ProblemSpec:
    """A Fredholm-Hammerstein problem instance.

    forcing None means "manufacture it from exact_solution" via the
    reference integrator.  In two dimensions manufacturing additionally
    needs psi_u_separable: pairs (a_r, b_r) with
    psi(s, t, u(s,t)) = sum_r a_r(s) b_r(t), which covers every registry
    problem; the double integral then factors into one-dimensional pieces.

    exact_solution_c is an optional complement-aware form of the exact
    solution, u(s) written as a function of (s, 1-s) (per axis in 2D, so
    (x, 1-x, y, 1-y)).  The reference integrator and the solver use it so
    solutions such as log(s)log(1-s) stay finite when s rounds to 1; the
    separable factors a_r, b_r use the same (s, 1-s) signature.
    """

    name: str
    dimension: int
    lam: float
    kernel: KernelSpec
    nonlinearity: Nonlinearity
    forcing: Optional[Callable] = None
    exact_solution: Optional[Callable] = None
    exact_solution_c: Optional[Callable] = None
    psi_u_separable: Optional[Sequence[tuple]] = None
    default_alpha: float = 1.0
    # per-axis kernel actions of the manufactured forcing; init=False, so
    # every instance, one made by dataclasses.replace included, starts empty
    _cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.lam == 0.0 or not math.isfinite(self.lam):
            raise ValueError(f"lambda must be nonzero and finite, got {self.lam}")
        if self.kernel.dimension != self.dimension:
            raise ValueError("kernel dimension does not match the problem")
        if self.nonlinearity.dimension != self.dimension:
            raise ValueError("nonlinearity dimension does not match the problem")
        if self.forcing is None and self.exact_solution is None:
            raise ValueError("either forcing or exact_solution must be given")


# ---------------------------------------------------------------------------
# manufactured forcing via the reference integrator
# ---------------------------------------------------------------------------


def _kernel_action_1d(kernel: KernelSpec, func, x: float, tol: float = 1e-12) -> float:
    """integral_0^1 theta(s, x) func(s, 1-s) ds via split tanh-sinh quadrature.

    Diagonal kinds are split at s = x; on each piece the singular factor is
    evaluated from the offset r = |s - x| directly.  func receives both s
    and 1-s, each at full precision near its endpoint, and must accept
    arrays.
    """
    if kernel.kind == "custom":
        return tanh_sinh(
            lambda r, comp: np.asarray(kernel.fn(r, x, comp), dtype=float)
            * np.asarray(func(r, comp), dtype=float),
            1.0,
            tol=tol,
        )
    sing = _axis_singular(kernel, 0)
    if kernel.smooth_factor is None:
        smooth = lambda s: 1.0
    else:
        smooth = lambda s: np.asarray(kernel.smooth_factor(s, x), dtype=float)

    one_minus_x = 1.0 - x
    # left piece: s = x - r, so s equals the complement offset exactly
    left = tanh_sinh(
        lambda r, s: sing(r) * smooth(s)
        * np.asarray(func(s, one_minus_x + r), dtype=float),
        x,
        tol=0.5 * tol,
    )
    # right piece: s = x + r and 1 - s equals the complement offset exactly
    right = tanh_sinh(
        lambda r, comp: sing(r)
        * smooth(x + r)
        * np.asarray(func(x + r, comp), dtype=float),
        1.0 - x,
        tol=0.5 * tol,
    )
    return left + right


def _axis_kernel(kernel: KernelSpec, axis: int) -> KernelSpec:
    """The kernel of one axis: a one-dimensional kernel itself, or the factor
    on that axis of a two-dimensional product kernel."""
    if kernel.dimension == 1:
        return kernel
    if kernel.smooth_factor is not None:
        raise OracleError(
            "manufactured forcing in 2D requires a product kernel (smooth factor 1)"
        )
    mu = None if kernel.mu is None else (kernel.mu[axis],)
    return KernelSpec(kind=kernel.kind, mu=mu, dimension=1)


def exact_values(spec: ProblemSpec, points: tuple, complements: tuple) -> np.ndarray:
    """Exact solution at points, one coordinate per axis (broadcast together).

    The one place that prefers exact_solution_c(x, 1-x[, y, 1-y]), with the
    per-axis complements given, over exact_solution(x[, y]).
    """
    if spec.exact_solution_c is None:
        return np.asarray(spec.exact_solution(*points), dtype=float)
    args = [v for pair in zip(points, complements) for v in pair]
    return np.asarray(spec.exact_solution_c(*args), dtype=float)


def _forcing_terms(spec: ProblemSpec) -> Sequence[tuple]:
    """psi(., u) as sum_r prod_axis f_r,axis, each factor a function of
    (s, 1-s): the one term psi(s, u(s)) in 1D, psi_u_separable in 2D."""
    if spec.dimension == 1:
        psi = spec.nonlinearity.psi
        return ((lambda s, oms: psi(s, exact_values(spec, (s,), (oms,))),),)
    if spec.psi_u_separable is None:
        raise OracleError(
            f"problem {spec.name!r} has no separable decomposition of psi(u); "
            "2D manufactured forcing needs one"
        )
    return spec.psi_u_separable


def _axis_action(spec: ProblemSpec, axis: int, term: int, func, x: float,
                 tol: float) -> float:
    """integral_0^1 theta_axis(s, x) func(s, 1-s) ds, cached per
    (axis, term, x, tol) on the spec."""
    key = (axis, term, x, tol)
    if key not in spec._cache:
        spec._cache[key] = _kernel_action_1d(
            _axis_kernel(spec.kernel, axis), func, x, tol=tol
        )
    return spec._cache[key]


def manufactured_forcing(spec: ProblemSpec, x, y=None, tol: float = 1e-12,
                         x_comp=None, y_comp=None) -> float:
    """Forcing g at a point such that exact_solution solves the problem.

    g = lambda u - sum_r prod_axis A(axis, f_r,axis, x_axis), where
    psi(., u) = sum_r prod_axis f_r,axis (one term in 1D, psi_u_separable
    in 2D) and each one-axis action A goes through the reference tanh-sinh
    integrator, split at the diagonal.  x_comp/y_comp are optional
    precomputed values of 1-x and 1-y for points very close to 1.
    """
    if spec.exact_solution is None:
        raise ValueError("manufactured forcing requires an exact solution")
    if spec.dimension == 1 and y is not None:
        raise ValueError("one-dimensional problems take a single coordinate")
    if spec.dimension == 2 and y is None:
        raise ValueError("two-dimensional problems need both coordinates")
    point = tuple(float(v) for v in (x, y)[: spec.dimension])
    comps = tuple(
        1.0 - v if c is None else c for v, c in zip(point, (x_comp, y_comp))
    )
    total = 0.0
    for r, factors in enumerate(_forcing_terms(spec)):
        total += math.prod(
            _axis_action(spec, axis, r, f, v, tol)
            for axis, (f, v) in enumerate(zip(factors, point))
        )
    return spec.lam * float(exact_values(spec, point, comps)) - total


def forcing_on_grid(spec: ProblemSpec, axes: tuple) -> np.ndarray:
    """Forcing on the tensor grid of the per-axis points in axes.

    The result has shape (len(axes[0]), ...), x-major.  An explicit forcing
    is called once on the indexing="ij" meshgrid and its result broadcast to
    that shape; otherwise the forcing is manufactured point by point.
    """
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    if len(axes) != spec.dimension:
        raise ValueError(
            f"problem {spec.name!r} is {spec.dimension}D, got {len(axes)} axes"
        )
    shape = tuple(a.size for a in axes)
    if spec.forcing is not None:
        values = np.asarray(spec.forcing(*np.meshgrid(*axes, indexing="ij")), dtype=float)
        out = np.empty(shape)
        try:
            out[...] = values
        except ValueError:
            raise ValueError(
                f"problem {spec.name!r}: forcing returned shape {values.shape}, "
                f"which does not broadcast to the grid shape {shape}"
            ) from None
        return out
    values = [manufactured_forcing(spec, *point) for point in itertools.product(*axes)]
    return np.reshape(values, shape)


def estimate_solvability(spec: ProblemSpec, samples: int = 41) -> dict:
    """Sampled estimates of the standing solvability quantities.

    M bounds the smooth kernel factor, P the singular integral, c1 the
    Lipschitz constant of psi in u over the range of the exact solution
    (or [-2, 2] without one); their product over |lambda| should stay
    below 1 for the fixed-point argument to apply.
    """
    grid = np.linspace(0.02, 0.98, samples)
    if spec.kernel.kind == "custom":
        p = max(
            abs(
                _kernel_action_1d(
                    spec.kernel, lambda s, oms: np.ones_like(s), x, tol=1e-9
                )
            )
            for x in np.linspace(0.05, 0.95, 7)
        )
        m = 1.0
    else:
        axes = range(spec.dimension)
        p = 1.0
        for axis in axes:
            kind = spec.kernel.kind
            mu = spec.kernel.mu[axis] if kind == "algebraic" else None
            p *= float(np.max(np.abs(exact_smooth_integral(kind, grid, mu=mu))))
        if spec.kernel.smooth_factor is None:
            m = 1.0
        else:
            # Every source and target argument, in kernel_eval's order; a
            # 2D factor takes four, so it is sampled on every fourth point.
            axis = grid if spec.dimension == 1 else grid[::4]
            points = np.meshgrid(*(axis,) * (2 * spec.dimension), indexing="ij")
            m = float(np.max(np.abs(spec.kernel.smooth_factor(*points))))
    if spec.exact_solution is None:
        urange = np.linspace(-2.0, 2.0, samples)
    else:
        points = np.meshgrid(*(grid,) * spec.dimension, indexing="ij")
        uvals = np.asarray(spec.exact_solution(*points), dtype=float)
        lo, hi = float(np.min(uvals)), float(np.max(uvals))
        pad = 0.5 * max(1.0, hi - lo)
        urange = np.linspace(lo - pad, hi + pad, samples)
    c1 = float(
        max(
            np.max(np.abs(spec.nonlinearity.dpsi_du(*(s,) * spec.dimension, urange)))
            for s in grid[:: max(1, samples // 8)]
        )
    )
    return {"M": m, "P": p, "c1": c1, "product": m * p * c1,
            "contraction": m * p * c1 / abs(spec.lam)}


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _log_endpoint_solution(x):
    return np.log(x) * np.log1p(-x)


def _log_endpoint_solution_c(s, one_minus_s):
    return np.log(s) * np.log(one_minus_s)


def _sqrt_endpoint_solution(x):
    return np.sqrt(x) * np.sqrt(1.0 - x)


def _sqrt_endpoint_solution_c(s, one_minus_s):
    return np.sqrt(s) * np.sqrt(one_minus_s)


def _make_ex1_log() -> ProblemSpec:
    return ProblemSpec(
        name="ex1-log",
        dimension=1,
        lam=10.0,
        kernel=KernelSpec(kind="log", dimension=1),
        nonlinearity=Nonlinearity.identity(1),
        exact_solution=_log_endpoint_solution,
        exact_solution_c=_log_endpoint_solution_c,
        default_alpha=0.5,
    )


def _make_ex1_alg() -> ProblemSpec:
    return ProblemSpec(
        name="ex1-alg",
        dimension=1,
        lam=10.0,
        kernel=KernelSpec(kind="algebraic", mu=(0.5,), dimension=1),
        nonlinearity=Nonlinearity.identity(1),
        exact_solution=_sqrt_endpoint_solution,
        exact_solution_c=_sqrt_endpoint_solution_c,
        default_alpha=0.5,
    )


def _make_ex2_sqrt() -> ProblemSpec:
    return ProblemSpec(
        name="ex2-sqrt",
        dimension=1,
        lam=1.0,
        kernel=KernelSpec(
            kind="custom",
            fn=lambda s, x, comp: comp**-0.5,
            dimension=1,
        ),
        nonlinearity=Nonlinearity.identity(1),
        forcing=lambda x: np.sqrt(x) - 0.5 * math.pi,
        exact_solution=np.sqrt,
        exact_solution_c=lambda s, oms: np.sqrt(s),
        default_alpha=0.5,
    )


def _make_ex3_log() -> ProblemSpec:
    a = _log_endpoint_solution
    ac = _log_endpoint_solution_c
    return ProblemSpec(
        name="ex3-log",
        dimension=2,
        lam=10.0,
        kernel=KernelSpec(kind="log", dimension=2),
        nonlinearity=Nonlinearity.square(2),
        exact_solution=lambda x, y: a(x) + a(y),
        exact_solution_c=lambda x, xc, y, yc: ac(x, xc) + ac(y, yc),
        # (a(x) + a(y))^2 = a^2 x 1 + 2 a x a + 1 x a^2
        psi_u_separable=(
            (
                lambda s, oms: ac(s, oms) ** 2,
                lambda t, omt: np.ones_like(np.asarray(t, dtype=float)),
            ),
            (lambda s, oms: 2.0 * ac(s, oms), ac),
            (
                lambda s, oms: np.ones_like(np.asarray(s, dtype=float)),
                lambda t, omt: ac(t, omt) ** 2,
            ),
        ),
        default_alpha=0.5,
    )


def _make_ex3_alg() -> ProblemSpec:
    p = _sqrt_endpoint_solution
    pc = _sqrt_endpoint_solution_c
    return ProblemSpec(
        name="ex3-alg",
        dimension=2,
        lam=10.0,
        kernel=KernelSpec(kind="algebraic", mu=(0.5, 0.5), dimension=2),
        nonlinearity=Nonlinearity.square(2),
        exact_solution=lambda x, y: p(x) * p(y),
        exact_solution_c=lambda x, xc, y, yc: pc(x, xc) * pc(y, yc),
        # (p(x) p(y))^2 = p^2 x p^2
        psi_u_separable=(
            (lambda s, oms: pc(s, oms) ** 2, lambda t, omt: pc(t, omt) ** 2),
        ),
        default_alpha=0.5,
    )


_REGISTRY = {
    "ex1-log": _make_ex1_log,
    "ex1-alg": _make_ex1_alg,
    "ex2-sqrt": _make_ex2_sqrt,
    "ex3-log": _make_ex3_log,
    "ex3-alg": _make_ex3_alg,
}


def problem_names() -> tuple:
    return tuple(sorted(_REGISTRY))


def get_problem(name: str) -> ProblemSpec:
    """Fresh instance of a registry problem (caches are per-instance)."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: {', '.join(problem_names())}"
        ) from None
    return factory()
