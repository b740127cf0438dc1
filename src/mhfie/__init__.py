"""Mapped Hermite collocation for weakly singular integral equations.

Solves Fredholm-Hammerstein equations on (0,1) and the unit square whose
kernels carry algebraic or logarithmic diagonal singularities and whose
solutions may be singular at the endpoints.  The basis is Hermite
polynomials composed with the logistic map, which turns endpoint
singularities into smooth decaying profiles on the real line.
"""

from .hermite import (
    HermiteRule,
    hermite_eval,
    hermite_eval_scaled,
    hermite_gauss_rule,
)
from .mhf import (
    MhfBasis,
    MhfRule,
    gamma_n,
    map_to_real,
    map_to_unit,
    mhf_eval,
    mhf_gauss_rule,
    mhf_pseudo_deriv,
    mhf_quadrature,
    mhf_unit_weights,
    weight_chi,
)
from .approx import (
    ErrorNorms,
    Interpolant1D,
    Interpolant2D,
    LagrangeBasis,
    MhfSeries,
    error_norms,
    project,
    tensor_interpolant,
)
from .problem import (
    KernelSpec,
    Nonlinearity,
    OracleError,
    ProblemSpec,
    exact_smooth_integral,
    get_problem,
    kernel_eval,
    manufactured_forcing,
    problem_names,
    tanh_sinh,
)
from .solver import (
    AssemblyError,
    NewtonResult,
    NonConvergenceError,
    Solution,
    SolverConfig,
    SolverError,
    newton_driver,
    solve,
    verify_residual,
)

__version__ = "0.1.0"

__all__ = [
    "HermiteRule",
    "hermite_eval",
    "hermite_eval_scaled",
    "hermite_gauss_rule",
    "MhfBasis",
    "MhfRule",
    "gamma_n",
    "map_to_real",
    "map_to_unit",
    "mhf_eval",
    "mhf_gauss_rule",
    "mhf_pseudo_deriv",
    "mhf_quadrature",
    "mhf_unit_weights",
    "weight_chi",
    "ErrorNorms",
    "Interpolant1D",
    "Interpolant2D",
    "LagrangeBasis",
    "MhfSeries",
    "error_norms",
    "project",
    "tensor_interpolant",
    "KernelSpec",
    "Nonlinearity",
    "OracleError",
    "ProblemSpec",
    "exact_smooth_integral",
    "get_problem",
    "kernel_eval",
    "manufactured_forcing",
    "problem_names",
    "tanh_sinh",
    "AssemblyError",
    "NewtonResult",
    "NonConvergenceError",
    "Solution",
    "SolverConfig",
    "SolverError",
    "newton_driver",
    "solve",
    "verify_residual",
]
