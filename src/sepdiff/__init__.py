"""Tagged-particle self-diffusion in finite exclusion processes.

Exact computation on the ranked configuration space of the environment
seen from the tagged particle, event-driven Monte Carlo cross-validation,
and the energy/dual-norm machinery used to diagnose convergence.
"""

from .diffusion import (
    DEFAULT_CORRECTION_SIGN,
    approximation_residual_diagnostic,
    block_env_indices,
    choose_K,
    compute_D,
    compute_D_matrix,
    conditional_expectation,
    free_term,
    hminus1_convergence_diagnostic,
    local_drift_functions,
    multiscale_diagnostic,
    occupancy_difference_observable,
    occupancy_observable,
    sweep,
)
from .errors import (
    ConfigError,
    InconclusiveError,
    NonPositiveDError,
    NotAProbabilityError,
    NotConnectedError,
    NotConvergedError,
    NotMeanZeroError,
    OriginMassError,
    OutOfRangeError,
    PropertyViolatedError,
    ReducibleError,
    SepdiffError,
    SizeCapError,
    SupportTooLargeError,
    TorusSizeError,
    WrongCountError,
)
from .generator import (
    SparseOperator,
    center,
    check_ergodicity,
    dirichlet_form,
    full_generator,
    inner,
    symmetric_part,
)
from .kernel import (
    JumpKernel,
    KernelClass,
    TorusGeometry,
    build_kernel,
    classify,
    symmetrize,
    validate,
)
from .montecarlo import (
    TransitionTable,
    arbitrate_sign,
    estimate_diffusion,
    extrapolated_direction_stats,
    replica_rng,
)
from .sobolev import (
    approximation_residual,
    h1_norm,
    hminus1_norm,
    resolvent_sweep,
    sector_constant,
    solve_general,
    spectral_gap,
    verify_prop1,
)
from .statespace import StateSpace

__version__ = "0.1.0"
