"""Local measurement machinery for a spin-1/2 paired with a spin-j.

Covers partial transposition and negativity, the separability (PPT) threshold
of the rotationally invariant two-outcome family, the closed-form optimal
local POVM, and a simulation of the aligned/anti-aligned local protocol in
which the large spin is measured along a fan of coherent states and the
spin-1/2 along the reported direction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .angular import Rotation, SpinQuantumNumber, rotation_matrix, spin
from .coupling import projector, total_j_values
from .errors import ConsistencyError
from .estimation import RotInvariantPovm, outcome_probabilities, povm_outcome_probabilities
from .states import InvariantState

__all__ = [
    "PartialTransposeResult",
    "partial_transpose",
    "ppt_threshold",
    "optimal_local_povm",
    "LoccProtocolConfig",
    "ProtocolStatistics",
    "locc_protocol_statistics",
]

ALIGNED = "aligned"
ANTIALIGNED = "antialigned"


@dataclass(frozen=True, eq=False)
class PartialTransposeResult:
    """Partial transpose of a Hermitian operator with its spectrum summary."""

    transposed: np.ndarray
    min_eigenvalue: float
    negativity: float


def partial_transpose(op: np.ndarray, dims: tuple[int, int]) -> PartialTransposeResult:
    """Transpose the second tensor factor of a Hermitian operator."""
    op = np.asarray(op, dtype=complex)
    d1, d2 = int(dims[0]), int(dims[1])
    if op.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"operator shape {op.shape} does not match dims {dims}")
    if np.max(np.abs(op - op.conj().T)) > 1e-10:
        raise ValueError("partial transpose expects a Hermitian operator")
    transposed = (
        op.reshape(d1, d2, d1, d2).transpose(0, 3, 2, 1).reshape(d1 * d2, d1 * d2)
    )
    eigenvalues = np.linalg.eigvalsh(transposed)
    negativity = float(-eigenvalues[eigenvalues < 0.0].sum())
    return PartialTransposeResult(transposed, float(eigenvalues[0]), negativity)


def ppt_threshold(j) -> float:
    """Smallest weight x for which (low-J projector) + x (high-J projector)
    has a positive partial transpose, for the pair (1/2, j).

    Found by bisection on the sign of the minimum partial-transpose
    eigenvalue, after checking on a coarse sample that this eigenvalue is
    monotone in x.
    """
    j = spin(j)
    if j.twice_j == 0:
        raise ValueError("the larger spin must be at least 1/2")
    half = SpinQuantumNumber(1)
    j_low, j_high = total_j_values(half, j)
    pi_low = projector(half, j, j_low).matrix
    pi_high = projector(half, j, j_high).matrix
    dims = (2, j.dimension)

    def min_eigenvalue(x: float) -> float:
        return partial_transpose(pi_low + x * pi_high, dims).min_eigenvalue

    samples = [min_eigenvalue(x) for x in np.linspace(0.0, 1.0, 21)]
    if any(later < earlier - 1e-12 for earlier, later in zip(samples, samples[1:])):
        raise ConsistencyError("partial-transpose spectrum is not monotone in the weight")
    if samples[0] >= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if min_eigenvalue(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def optimal_local_povm(j) -> RotInvariantPovm:
    """The most informative separable two-outcome POVM for the pair (1/2, j).

    The aligned element carries weight (2j+1)/(2j+2) on the high-J block; the
    anti-aligned element is the low-J projector plus the remaining 1/(2j+2)
    of the high-J block.  For j = 1/2 this is the singlet projector plus one
    third of the triplet versus two thirds of the triplet.
    """
    j = spin(j)
    if j.twice_j == 0:
        raise ValueError("the larger spin must be at least 1/2")
    half = SpinQuantumNumber(1)
    j_values = tuple(total_j_values(half, j))
    weights = _optimal_local_weights([j.twice_j])[0]
    return RotInvariantPovm(half, j, (ALIGNED, ANTIALIGNED), j_values, weights)


def _optimal_local_weights(twice_js) -> np.ndarray:
    """Weights of ``optimal_local_povm`` for each j = twice_j / 2, stacked: shape
    (pairs, 2, 2), outcomes (aligned, anti-aligned) by blocks (low J, high J)."""
    twice_js = np.asarray(twice_js, dtype=float)
    high_weight = (twice_js + 1.0) / (twice_js + 2.0)
    weights = np.zeros((high_weight.size, 2, 2))
    weights[:, 0, 1] = high_weight
    weights[:, 1, 0] = 1.0
    weights[:, 1, 1] = 1.0 - high_weight
    return weights


@dataclass(frozen=True)
class LoccProtocolConfig:
    """Fan of 2j+1 coherent-state directions, equally spaced in one plane.

    The plane contains the z axis and has azimuth ``plane_phi``; direction m
    sits at polar angle 2 pi m / (2j + 1) within that plane.
    """

    j: SpinQuantumNumber
    plane_phi: float = 0.0

    @property
    def angles(self) -> np.ndarray:
        count = self.j.twice_j + 1
        return 2.0 * math.pi * np.arange(count) / count


@dataclass(frozen=True, eq=False)
class ProtocolStatistics:
    """Aligned/anti-aligned probabilities of the local protocol at one angle,
    next to the closed-form separable-POVM reference."""

    aligned: float
    antialigned: float
    reference_aligned: float
    reference_antialigned: float

    @property
    def max_deviation(self) -> float:
        return max(
            abs(self.aligned - self.reference_aligned),
            abs(self.antialigned - self.reference_antialigned),
        )


def _protocol_elements(config: LoccProtocolConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dense aligned/anti-aligned POVM elements of the local protocol.

    The fan of coherent states is not orthogonal for j > 1/2; it is completed
    into a POVM as the canonical tight frame E_m = S^{-1/2} |m><m| S^{-1/2}
    with S the frame operator.
    """
    j = config.j
    dim = j.dimension
    top_large = np.zeros(dim, dtype=complex)
    top_large[0] = 1.0
    top_half = np.array([1.0, 0.0], dtype=complex)
    large_states = []
    half_states = []
    for theta in config.angles:
        r = Rotation(config.plane_phi, float(theta), 0.0)
        large_states.append(rotation_matrix(j, r) @ top_large)
        half_states.append(rotation_matrix(SpinQuantumNumber(1), r) @ top_half)
    frame = sum(np.outer(v, v.conj()) for v in large_states)
    eigenvalues, vectors = np.linalg.eigh(frame)
    if eigenvalues[0] < 1e-10 * eigenvalues[-1]:
        raise ConsistencyError("coherent-state frame is singular")
    inv_sqrt = (vectors * (1.0 / np.sqrt(eigenvalues))) @ vectors.conj().T
    aligned = np.zeros((2 * dim, 2 * dim), dtype=complex)
    identity_half = np.eye(2, dtype=complex)
    total_large = np.zeros((dim, dim), dtype=complex)
    for v_half, v_large in zip(half_states, large_states):
        element = inv_sqrt @ np.outer(v_large, v_large.conj()) @ inv_sqrt
        aligned += np.kron(np.outer(v_half, v_half.conj()), element)
        total_large += element
    antialigned = np.kron(identity_half, total_large) - aligned
    return aligned, antialigned


def locc_protocol_statistics(config: LoccProtocolConfig, alpha: float) -> ProtocolStatistics:
    """Protocol outcome probabilities for a product pair at relative angle
    alpha, averaged over the collective orientation, next to the closed-form
    statistics of the optimal separable POVM."""
    j = config.j
    half = SpinQuantumNumber(1)
    aligned_element, antialigned_element = _protocol_elements(config)
    weights = outcome_probabilities(half, j, alpha)
    rho = InvariantState(half, j, weights).reconstruct()
    p_aligned = float(np.trace(aligned_element @ rho.matrix).real)
    p_antialigned = float(np.trace(antialigned_element @ rho.matrix).real)
    reference = povm_outcome_probabilities(optimal_local_povm(j), np.array([alpha]))[:, 0]
    return ProtocolStatistics(p_aligned, p_antialigned, float(reference[0]), float(reference[1]))
