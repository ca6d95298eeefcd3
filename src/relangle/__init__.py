"""Toolkit for estimating the relative angle between two spin systems.

Implements the optimal (joint, rotationally invariant) measurement and the
optimal local measurement for a pair of spin coherent states, together with
the Bayesian machinery (priors over the angle, posteriors, information gain
in bits), separability thresholds via the partial transpose, and Monte Carlo
oracles for validating the closed forms.
"""

from .angular import (
    Direction,
    Rotation,
    SpinQuantumNumber,
    StateVector,
    angle_between,
    angular_momentum_operators,
    coherent_state,
    rotation_matrix,
    spin,
)
from .coupling import (
    DENSE_DIMENSION_CAP,
    CouplingBlock,
    CouplingDecomposition,
    Projector,
    clebsch_gordan,
    decomposition,
    projector,
    total_j_values,
)
from .errors import CapacityError, ConsistencyError, ImpossibleOutcomeError
from .estimation import (
    KERNEL_TWICE_J_LIMIT,
    AngleDensity,
    DiscreteAngleDistribution,
    EstimationReport,
    OutcomeReport,
    RotInvariantPovm,
    average_information_gain,
    bayes_update,
    born_limit_check,
    infogain_curve,
    information_gain,
    map_estimate,
    outcome_probabilities,
    outcome_probability,
    parallel_antiparallel_prior,
    povm_outcome_probabilities,
    povm_probabilities_from_state,
    uniform_direction_prior,
)
from .locc import (
    LoccProtocolConfig,
    PartialTransposeResult,
    ProtocolStatistics,
    locc_protocol_statistics,
    optimal_local_povm,
    partial_transpose,
    ppt_threshold,
)
from .sim import ExperimentSummary, haar_rotation, run_experiment, sample_outcome
from .states import (
    DensityMatrix,
    InvariantState,
    collective_rotate,
    invariant_average,
    product_coherent_pair,
    werner_state,
)

__version__ = "0.1.0"
