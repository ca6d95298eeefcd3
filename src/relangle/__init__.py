"""Toolkit for estimating the relative angle between two spin systems.

Implements the optimal (joint, rotationally invariant) measurement and a
local one, the optimal separable one for a spin-1/2 probe, for any pair of
spin coherent states, together with the Bayesian machinery (priors over the
angle, posteriors, information gain in bits), separability thresholds from the
partial-transpose spectrum, and Monte Carlo oracles for the closed forms.
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
    optimal_local_povm,
    outcome_probabilities,
    outcome_probability,
    parallel_antiparallel_prior,
    povm_outcome_probabilities,
    povm_probabilities_from_state,
    uniform_direction_prior,
)
from .locc import (
    LOCC_TWICE_J_LIMIT,
    PPT_TWICE_J_LIMIT,
    LoccProtocolConfig,
    PartialTransposeResult,
    ProtocolStatistics,
    locc_protocol_statistics,
    partial_transpose,
    partial_transpose_spectrum,
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
