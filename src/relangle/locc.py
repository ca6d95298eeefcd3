"""Local measurement machinery for a spin-1/2 paired with a spin-j.

Covers partial transposition and negativity, the partial-transpose spectrum
of any rotationally invariant operator in closed form (6j symbols), the
separability (PPT) threshold of the invariant two-outcome family that it
gives exactly, and the aligned/anti-aligned local protocol, in which the
large spin is measured along a fan of coherent states and the spin-1/2 along
the reported direction.  Its elements are sums of rank-one frame vectors,
reduced from those vectors to their weights on the total-spin blocks and
evaluated like any invariant POVM, next to the optimal local POVM of
``estimation``.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .angular import SpinQuantumNumber, _coherent_amplitudes, spin
from .coupling import decomposition, total_j_values
from .errors import CapacityError, ConsistencyError
from .estimation import RotInvariantPovm, optimal_local_povm, povm_outcome_probabilities

__all__ = [
    "PartialTransposeResult",
    "partial_transpose",
    "partial_transpose_spectrum",
    "PPT_TWICE_J_LIMIT",
    "ppt_threshold",
    "LoccProtocolConfig",
    "ProtocolStatistics",
    "locc_protocol_statistics",
]

# Largest 2j that ppt_threshold accepts.  Its exact Racah sums multiply
# factorials of about 2j, and their cost grows about as (2j)^2: 0.04 s at
# this limit and 0.2 s at 2j = 10000 on a 2-vCPU VM.
PPT_TWICE_J_LIMIT = 4000


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


def _sixj(twice_j1: int, twice_j2: int) -> np.ndarray:
    """table[J', J] = {j1 j2 J; j1 j2 J'} for J, J' = |j1 - j2| .. j1 + j2 (increasing).

    With a = j1 + j2 + J, b = j1 + j2 + J' and s = 2j1 + 2j2, Racah's formula reads

        D(a) D(b) sum_t (-1)^t (t+1)! / [(t-a)!^2 (t-b)!^2 (s-t)! (a+b-2j2-t)! (a+b-2j1-t)!],
        D(a) = (s-a)! (a-2j1)! (a-2j2)! / (a+1)!,

    so every symbol of this shape is rational.  The terms are brought over one
    common denominator, the product of each factorial's largest value on the
    range of t; the sum and the prefactors stay Python integers, and one
    division rounds each entry to the correctly rounded float of the exact
    rational.  The table is symmetric in J and J'.
    """
    factorial, s = math.factorial, twice_j1 + twice_j2
    sums = range((s + abs(twice_j1 - twice_j2)) // 2, s + 1)
    table = np.empty((len(sums), len(sums)))

    def triangle(a: int) -> tuple[int, int]:
        return factorial(s - a) * factorial(a - twice_j1) * factorial(a - twice_j2), factorial(a + 1)

    def factorials(lows, highs, t_low: int, t_high: int) -> int:
        return (math.prod(factorial(t_high - low) for low in lows)
                * math.prod(factorial(high - t_low) for high in highs))

    for q, a in enumerate(sums):
        for p, b in enumerate(sums[:q + 1]):
            lows, highs = (a, a, b, b), (s, a + b - twice_j2, a + b - twice_j1)
            t_min, t_max = max(lows), min(highs)
            common = factorials(lows, highs, t_min, t_max)
            total = sum((-1) ** t * factorial(t + 1) * (common // factorials(lows, highs, t, t))
                        for t in range(t_min, t_max + 1))
            (num_a, den_a), (num_b, den_b) = triangle(a), triangle(b)
            table[p, q] = table[q, p] = total * num_a * num_b / (common * den_a * den_b)
    return table


def partial_transpose_spectrum(j1, j2, weights) -> np.ndarray:
    """Eigenvalues of the partial transpose of X = sum_J w_J Pi_J on (j1, j2).

    The partial transpose of an invariant operator is invariant again after
    a local rotation of the second spin, so it is constant on each block J'
    (multiplicity 2J' + 1), with eigenvalue

        lambda_J' = (-1)^(2j1 + 2j2) sum_J w_J (2J + 1) {j1 j2 J; j1 j2 J'}

    (Schliemann, PRA 68, 012309 (2003); Breuer, J. Phys. A 38, 9019 (2005)).
    ``weights`` runs over J in increasing order along its last axis; the
    result runs over J' the same way.  The partial transpose keeps the
    trace, so ConsistencyError unless sum_J' (2J'+1) lambda_J' equals
    sum_J (2J+1) w_J within 1e-9.
    """
    j1, j2 = spin(j1), spin(j2)
    weights = np.asarray(weights, dtype=float)
    multiplicities = np.array([J.dimension for J in total_j_values(j1, j2)], dtype=float)
    if weights.shape[-1:] != multiplicities.shape:
        raise ValueError(f"expected {multiplicities.size} block weights for ({j1}, {j2}), "
                         f"got shape {weights.shape}")
    sign = -1.0 if (j1.twice_j + j2.twice_j) % 2 else 1.0
    spectrum = (sign * multiplicities * weights) @ _sixj(j1.twice_j, j2.twice_j)
    gap = np.max(np.abs(spectrum @ multiplicities - weights @ multiplicities))
    if not gap <= 1e-9:
        raise ConsistencyError(f"partial-transpose spectrum misses the trace by {gap:.3g}")
    return spectrum


def ppt_threshold(j) -> float:
    """Smallest weight x for which (low-J projector) + x (high-J projector)
    has a positive partial transpose, for the pair (1/2, j).

    Each partial-transpose eigenvalue lambda_J'(x) is linear in x, and exact
    from ``partial_transpose_spectrum``; the threshold is the largest root
    among those that rise with x, or 0 when none is negative at x = 0.  It
    equals 1 / (2j + 2).  ConsistencyError if an eigenvalue that does not
    rise is still negative there; CapacityError past 2j = ``PPT_TWICE_J_LIMIT``.
    """
    j = spin(j)
    if j.twice_j == 0:
        raise ValueError("the larger spin must be at least 1/2")
    if j.twice_j > PPT_TWICE_J_LIMIT:
        raise CapacityError(f"spin j = {j} (2j = {j.twice_j}) exceeds the PPT threshold's "
                            f"limit 2j <= {PPT_TWICE_J_LIMIT}")
    at_zero, slope = partial_transpose_spectrum(SpinQuantumNumber(1), j, np.eye(2))
    rising = slope > 0.0
    threshold = float(np.max(-at_zero[rising] / slope[rising], initial=0.0))
    lowest = float(np.min(at_zero + threshold * slope))
    if lowest < -1e-12:
        raise ConsistencyError(f"partial-transpose eigenvalue {lowest:.3g} stays negative "
                               f"at the threshold {threshold} for j = {j}")
    return threshold


@dataclass(frozen=True)
class LoccProtocolConfig:
    """Fan of 2j+1 coherent-state directions, equally spaced in one plane.

    The plane contains the z axis and has azimuth ``plane_phi``; direction m
    sits at polar angle 2 pi m / (2j + 1) within that plane.  ``j`` is coerced
    with ``spin``; a non-finite ``plane_phi`` raises ValueError.
    """

    j: SpinQuantumNumber
    plane_phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "j", spin(self.j))
        if not math.isfinite(self.plane_phi):
            raise ValueError(f"plane_phi must be finite, got {self.plane_phi}")

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
    """Frame rows of the local protocol's aligned element and of its two elements' sum.

    Rows v_r stand for the operator sum_r |v_r><v_r|.  The fan of coherent
    states |m> is not orthogonal for j > 1/2; it is completed into a POVM as
    the canonical tight frame S^{-1/2} |m>, with S the frame operator.  The
    aligned rows are |1/2, m> (x) S^{-1/2} |m>, and the sum's rows
    e_k (x) S^{-1/2} |m> for both basis states e_k of the spin-1/2, so the
    anti-aligned element is the sum minus the aligned one.
    """
    j, phi = config.j, config.plane_phi
    large = np.array([_coherent_amplitudes(j.twice_j, theta, phi) for theta in config.angles])
    half = np.array([_coherent_amplitudes(1, theta, phi) for theta in config.angles])
    eigenvalues, vectors = np.linalg.eigh(large.T @ large.conj())
    if eigenvalues[0] < 1e-10 * eigenvalues[-1]:
        raise ConsistencyError("coherent-state frame is singular")
    completed = large @ ((vectors / np.sqrt(eigenvalues)) @ vectors.conj().T).T  # rows S^{-1/2} |m>
    aligned = (half[:, :, None] * completed[:, None, :]).reshape(len(half), -1)
    total = (np.eye(2)[:, None, :, None] * completed[:, None, :]).reshape(2 * len(half), -1)
    return aligned, total


def _protocol_povm(config: LoccProtocolConfig) -> RotInvariantPovm:
    """The protocol as the invariant POVM it is once the state is averaged over
    rotations: the optimal local POVM's outcomes, with weights Tr(Pi_J E_k) / (2J + 1),
    read from the elements' frame rows.  The frame sums to the identity only as
    well as S^{-1/2} is computed, which worsens as j grows: ConsistencyError when
    a block's weights miss 1 by over 1e-12.
    """
    local = optimal_local_povm(config.j)
    blocks = decomposition(local.j1, local.j2)
    aligned, total = (blocks._rank_one_block_probabilities(rows) for rows in _protocol_elements(config))
    weights = np.array([aligned, total - aligned]) / [J.dimension for J in local.j_values]
    residual = float(np.max(np.abs(weights.sum(axis=0) - 1.0)))
    if not residual <= 1e-12:
        raise ConsistencyError(f"the tight frame for j = {config.j} misses the identity by {residual:.3g}")
    return replace(local, weights=weights)


def locc_protocol_statistics(config: LoccProtocolConfig, alpha: float) -> ProtocolStatistics:
    """Protocol outcome probabilities for a product pair at relative angle
    alpha, averaged over the collective orientation, next to the closed-form
    statistics of the optimal separable POVM."""
    protocol, reference = (povm_outcome_probabilities(povm, [alpha])[:, 0].tolist()
                           for povm in (_protocol_povm(config), optimal_local_povm(config.j)))
    return ProtocolStatistics(*protocol, *reference)
