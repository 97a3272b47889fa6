"""Threshold times and overshoot of AR(1) processes with phase-type
positive innovations: analytic transforms, optimal stopping via
continuous fit, and a Monte Carlo oracle."""

from .errors import (
    ArphaseError,
    ConvergenceError,
    NumericalConsistencyError,
    PoleError,
    SingularSystemError,
    ValidationError,
)
from .gains import GainFunction
from .innovations import Innovation, NegativePart, t_laplace_matrix
from .montecarlo import (
    Estimate,
    default_max_steps,
    estimate_joint,
    estimate_phi,
    overshoot_given_phase,
    simulate_paths,
)
from .passage import (
    CrossingTransform,
    ResidueSystem,
    closed_form_exp,
    closed_form_exp_general,
    derivative_identity_check,
    overshoot_expectation,
)
from .phasetype import (
    PhaseTypeDist,
    SpectralData,
    cdf_vector,
    laplace,
    matrix_function,
    pdf,
    restart_vector,
    sample_chains,
    validate,
)
from .qseries import euler_phi, q_pochhammer, q_pochhammer_inf
from .stopping import (
    StoppingSolution,
    VerificationReport,
    continuous_fit_probe,
    f_of_b,
    psi_of,
    solve_threshold_exp_identity,
    solve_threshold_general,
    threshold_value,
    verify_solution,
)
from .transforms import AR1Model, TransformEngine

__all__ = [name for name in dir() if not name.startswith("_")]
