"""Self-similar viscous profiles for scalar conservation laws.

Solve the profile two-point problem eps * u'' = (f'(u) - xi) * u' between
prescribed far-field states, integrate the unbounded corner profile for the
quadratic flux, build exact entropy solutions of the limiting Riemann
problem, and run the quantitative checks that tie the three together.
"""

from .errors import (
    ConfigError,
    CoverageError,
    InvalidParameterError,
    NonConvergenceError,
    ProfileFormatError,
    WavefanError,
)
from .flux import (
    FluxSpec,
    burgers_flux,
    derivative,
    derivative_range,
    evaluate,
    format_flux_token,
    lipschitz_of_derivative,
    parse_flux_token,
    polynomial_flux,
    second_derivative,
    sup_derivative,
)
from .riemann import (
    ConstantState,
    RarefactionFan,
    RiemannSolution,
    Shock,
    describe_waves,
    eval_riemann,
    solve_exact,
    wave_speed_span,
)
from .corner_layer import (
    CornerProfile,
    first_integral_H,
    solve_corner,
)
from .profile_bvp import (
    Profile,
    ProfileProblem,
    SolveOptions,
    SolveReport,
    build_mesh,
    dafermos_flow,
    initial_guess,
    newton_solve,
    reconstruct_derivative,
    residual,
    residual_noise,
    solve_profile,
)
from .verification import (
    DiagnosticsRecord,
    ProbeResult,
    check_corner_expansion,
    check_monotone,
    check_symmetry,
    l1_window_error,
    run_battery,
    sliding_constant_M,
    sliding_supersolution_margin,
    sweeping_supersolution_margin,
    translation_invariance_check,
    uniqueness_probe,
    windowed_by_slope,
)
from .cli_io import emit_plotdata, parse_config, read_profile, write_profile

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
