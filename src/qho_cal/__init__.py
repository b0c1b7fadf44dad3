"""Work statistics for a weakly driven, damped quantum harmonic oscillator.

Stochastic quantum-jump trajectories with two work estimators per
trajectory: the projective two-measurement value and the calorimetric
(two-level inference, guardian photon) value. A deterministic Lindblad
integrator and closed-form/perturbative moment formulas serve as
independent cross-checks.
"""

from .analytics import (
    TruncationPolicy,
    mu,
    perturbative_matrix,
    perturbative_moments,
    transfer_table,
    transmission_TN,
    unitary_projective_moments,
    unitary_table,
)
from .errors import (
    ConfigError,
    GridMismatchError,
    InsufficientDataError,
    PrecisionLossWarning,
    QhoCalError,
    RegimeWarning,
    SimulationError,
    TruncationWarning,
)
from .fock import (
    displacement_matrix,
    ladder_operators,
    matrix_exponential,
    quadratures,
)
from .lindblad import integrate, thermal_state
from .model import (
    PhysicalParams,
    Rates,
    bath_occupation,
    guardian_probs,
    jump_operators,
    make_rates,
    nh_generator,
)
from .trajectories import (
    EnsembleConfig,
    TrajectoryBatch,
    iter_ensemble,
)
from .work import (
    MomentSummary,
    measure_ensemble,
    work_moments,
)

__version__ = "0.1.0"
