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
from .innovations import Innovation, NegativePart
from .montecarlo import (
    Estimate,
    default_max_steps,
    estimate_phi,
    joint_estimate,
    overshoot_given_phase,
    phi_estimates,
    simulate_paths,
)
from .passage import (
    CrossingTransform,
    ResidueSystem,
    closed_form_exp,
    derivative_identity_check,
    overshoot_expectation,
)
from .phasetype import (
    PhaseTypeDist,
    SpectralData,
    cdf_vector,
    sample_chains,
    validate,
)
from .qseries import q_pochhammer_inf
from .stopping import (
    StoppingSolution,
    VerificationReport,
    fixed_threshold,
    psi_of,
    solve_threshold,
    solve_threshold_exp_identity,
    solve_threshold_general,
    threshold_value,
    verify_solution,
)
from .transforms import AR1Model, TransformEngine

__all__ = [name for name in dir() if not name.startswith("_")]
