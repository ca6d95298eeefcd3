"""Local measurement machinery for a spin-1/2 paired with a larger spin j.

Covers partial transposition and negativity, the partial-transpose spectrum
of any rotationally invariant operator in closed form (6j symbols), the
separability (PPT) threshold of the invariant two-outcome family that it
gives exactly, and the aligned/anti-aligned local protocol, in which the
large spin is measured with coherent states whose directions form a
spherical design of strength 2j, and the spin-1/2 along the reported
direction.  Each term of its aligned element is a collective rotation of
|j, j> (x) |1/2, 1/2>, which the twirl over collective rotations ignores, so
for any design the twirled element weighs block J by the closed form of the
optimal local POVM of ``estimation``, (2j+1)/(2J+1) T[J, 0].  The design adds
one fact, that its frame operator is the identity, which makes the elements
complete; the protocol checks that fact and is then that POVM.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import SpinQuantumNumber, _brief, _coherent_amplitudes, spin
from .coupling import _total_js
from .errors import CapacityError, ConsistencyError
from .estimation import RotInvariantPovm, _gauss_legendre, optimal_local_povm, povm_outcome_probabilities

__all__ = [
    "PartialTransposeResult",
    "partial_transpose",
    "partial_transpose_spectrum",
    "PPT_TWICE_J_LIMIT",
    "ppt_threshold",
    "LOCC_TWICE_J_LIMIT",
    "LoccProtocolConfig",
    "ProtocolStatistics",
    "locc_protocol_statistics",
]

# Largest 2j that ppt_threshold accepts.  Its exact Racah sums multiply
# factorials of about 2j, and their cost grows about as (2j)^2: 0.04 s at
# this limit and 0.2 s at 2j = 10000 on a 2-vCPU VM.
PPT_TWICE_J_LIMIT = 4000

# Largest 2j that LoccProtocolConfig accepts.  The twirl gives the protocol the closed-form
# local weights whatever the design; the design gives F = I, and so completeness, which is
# checked on the (2j+1)^2 frame operator.  Up to here F misses the identity by at most
# 6e-15, far below the 1e-12 checked, whatever the BLAS build.
LOCC_TWICE_J_LIMIT = 64


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
    if not np.max(np.abs(op - op.conj().T)) <= 1e-10:  # NaN fails too
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
    multiplicities = np.array([J.dimension for J in _total_js(j1.twice_j, j2.twice_j)], dtype=float)
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
        raise CapacityError(f"spin j = {_brief(j)} (2j = {_brief(j.twice_j)}) exceeds the PPT "
                            f"threshold's limit 2j <= {PPT_TWICE_J_LIMIT}")
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
    """The local protocol for (1/2, j).  Its coherent-state directions are a product design:
    floor(j) + 1 Gauss-Legendre nodes in cos(theta) times 2j + 1 meridians equally spaced in
    azimuth from ``plane_phi``.  ``j`` is coerced with ``spin``; j = 0 or a non-finite
    ``plane_phi`` raises ValueError, and 2j past ``LOCC_TWICE_J_LIMIT`` CapacityError.
    """

    j: SpinQuantumNumber
    plane_phi: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "j", spin(self.j))
        if self.j.twice_j == 0:
            raise ValueError("the larger spin must be at least 1/2")
        if self.j.twice_j > LOCC_TWICE_J_LIMIT:
            raise CapacityError(f"spin j = {_brief(self.j)} (2j = {_brief(self.j.twice_j)}) "
                                f"exceeds the LOCC protocol's limit 2j <= {LOCC_TWICE_J_LIMIT}")
        if not math.isfinite(self.plane_phi):
            raise ValueError(f"plane_phi must be finite, got {self.plane_phi}")


@dataclass(frozen=True, eq=False)
class ProtocolStatistics:
    """Aligned/anti-aligned probabilities of the local protocol at one angle.

    Twirled, the protocol is the closed-form optimal local POVM of ``estimation``, so these
    are that POVM's probabilities.  ``max_deviation`` is what the design adds: max |F - I|
    over the entries of its frame operator F.  It bounds how far the protocol as built is
    from the closed form, since its twirled weights are the closed form times tr F / (2j + 1).
    """

    aligned: float
    antialigned: float
    max_deviation: float


@lru_cache(maxsize=LOCC_TWICE_J_LIMIT // 2 + 1)
def _design_rule(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``_gauss_legendre(node_count)``, read-only: the design's polar rule, one per j."""
    rule = _gauss_legendre(node_count)
    for array in rule:
        array.setflags(write=False)
    return rule


def _protocol_elements(config: LoccProtocolConfig) -> np.ndarray:
    """Rows v_r of the protocol's frame F = sum_r |v_r><v_r|.

    Direction (theta_a, phi_b) carries c = w_a / (2 (2j + 1)), with w_a the Gauss-Legendre
    weight of cos(theta_a).  F = sum (2j + 1) c |Omega><Omega| is the identity: the azimuths
    cancel its off-diagonal entries, and the nodes integrate each diagonal entry, a
    polynomial of degree 2j in cos(theta), exactly.  The rows are sqrt((2j + 1) c) |j, Omega>.
    The aligned element, sum_r |1/2, Omega_r><1/2, Omega_r| (x) |v_r><v_r|, twirls to the
    closed form times tr F / (2j + 1), so it is not built.
    """
    count = config.j.twice_j + 1
    cosines, weights = _design_rule(config.j.twice_j // 2 + 1)
    phis = config.plane_phi + 2.0 * math.pi * np.arange(count)[:, None] / count  # one row each
    return np.concatenate([math.sqrt(0.5 * w) * _coherent_amplitudes(config.j.twice_j, theta, phis)
                           for theta, w in zip(np.arccos(cosines).tolist(), weights.tolist())])


def _protocol_povm(config: LoccProtocolConfig) -> tuple[RotInvariantPovm, float]:
    """The protocol as the invariant POVM it is once the state is averaged over rotations,
    the optimal local POVM of (1/2, j), and max |F - I|.  ConsistencyError unless F is the
    identity within 1e-12 in every entry: only then do the elements sum to the identity.
    """
    frame = _protocol_elements(config)
    residual = float(np.max(np.abs(frame.T @ frame.conj() - np.eye(config.j.dimension))))
    if not residual <= 1e-12:
        raise ConsistencyError(f"the coherent-state frame for j = {config.j} misses the identity "
                               f"by {residual:.3g}")
    return optimal_local_povm(config.j), residual


def locc_protocol_statistics(config: LoccProtocolConfig, alpha: float) -> ProtocolStatistics:
    """Protocol outcome probabilities for a product pair (1/2, j) at relative angle alpha,
    averaged over the collective orientation, with the frame check's residual."""
    povm, residual = _protocol_povm(config)
    aligned, antialigned = povm_outcome_probabilities(povm, [alpha])[:, 0].tolist()
    return ProtocolStatistics(aligned, antialigned, residual)
