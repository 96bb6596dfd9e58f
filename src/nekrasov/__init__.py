"""Steady periodic gravity water waves via Nekrasov's integral equations.

Spectral solution of the deep- and finite-depth equations for the surface
tangent angle, global branch continuation, physical wave reconstruction,
and the extreme-wave limit with its crest diagnostics.
"""

from .grid import AngleField, SineGrid, get_grid
from .kernel import (DEEP, KernelSpec, SingularEvaluationError,
                     apply_linearized, characteristic_values,
                     kernel_deep_closed, kernel_series, linearized_factors)
from .solver import (AmplitudeBound, BreakdownError, DivergenceError,
                     SolveResult, SystemState, check_amplitude_bound,
                     crest_trough_asymmetry, inner_accumulate, solve,
                     solve_seeded, solve_system)
from .series import (MAX_ORDER, RationalSineSeries, UnsupportedOrderError,
                     eval_series, expand_solution,
                     height_coefficients_from_expansion, series_coefficients,
                     wave_height_series)
from .continuation import (Branch, BranchExtrema, BranchPoint, ConeReport,
                           ReconstructionOverflowError, branch_extrema,
                           cone_membership, scale_branch_point, trace_branch)
from .profile import (GeometryWarning, ReconstructionError, WaveProfile,
                      physical_params, profile_from_map_coefficients,
                      reconstruct_profile)
from .extreme import (ConvexityReport, ExtremeSolution, GrantFit,
                      convexity_check, extreme_profile, fit_asymptotics,
                      grant_number, solve_extreme, stokes_limit,
                      verify_constant_solution)

__version__ = "0.1.0"

__all__ = [
    "AngleField", "SineGrid", "get_grid",
    "DEEP", "KernelSpec", "SingularEvaluationError", "apply_linearized",
    "characteristic_values", "kernel_deep_closed", "kernel_series",
    "linearized_factors",
    "AmplitudeBound", "BreakdownError", "DivergenceError", "SolveResult",
    "SystemState", "check_amplitude_bound", "crest_trough_asymmetry",
    "inner_accumulate", "solve", "solve_seeded", "solve_system",
    "MAX_ORDER", "RationalSineSeries", "UnsupportedOrderError", "eval_series",
    "expand_solution", "height_coefficients_from_expansion",
    "series_coefficients", "wave_height_series",
    "Branch", "BranchExtrema", "BranchPoint", "ConeReport",
    "ReconstructionOverflowError", "branch_extrema", "cone_membership",
    "scale_branch_point", "trace_branch",
    "GeometryWarning", "ReconstructionError", "WaveProfile", "physical_params",
    "profile_from_map_coefficients", "reconstruct_profile",
    "ConvexityReport", "ExtremeSolution", "GrantFit", "convexity_check",
    "extreme_profile", "fit_asymptotics", "grant_number", "solve_extreme",
    "stokes_limit", "verify_constant_solution",
    "__version__",
]
