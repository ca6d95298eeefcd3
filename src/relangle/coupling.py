"""Coupling of two spins into total angular momentum blocks.

The product space of spins (j1, j2) splits into one block per total spin J
from |j1 - j2| to j1 + j2.  Clebsch-Gordan coefficients follow the
Condon-Shortley phase convention and are evaluated from the Racah closed form
with log-factorials, which keeps full accuracy for spins up to a few tens.
Product-basis indices are i1 * dim2 + i2 with both factors ordered by
decreasing m, matching the kron convention used throughout the package.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import SpinQuantumNumber, spin
from .errors import CapacityError

__all__ = [
    "DENSE_DIMENSION_CAP",
    "check_dense_capacity",
    "total_j_values",
    "clebsch_gordan",
    "CouplingBlock",
    "CouplingDecomposition",
    "Projector",
    "decomposition",
    "projector",
]

# Largest product dimension (2j1+1)(2j2+1) served by the dense machinery.
DENSE_DIMENSION_CAP = 4096


def total_j_values(j1, j2) -> list[SpinQuantumNumber]:
    """Total spins |j1 - j2|, ..., j1 + j2 in increasing order."""
    j1, j2 = spin(j1), spin(j2)
    lo = abs(j1.twice_j - j2.twice_j)
    hi = j1.twice_j + j2.twice_j
    return [SpinQuantumNumber(tj) for tj in range(lo, hi + 2, 2)]


def _log_half_factorial(twice_n: int) -> float:
    # log((n/2)!) where twice_n is an even, non-negative doubled integer
    return math.lgamma(twice_n // 2 + 1)


def clebsch_gordan(j1, j2, twice_m1: int, twice_m2: int, J, twice_M: int) -> float:
    """Coefficient <j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Magnetic quantum numbers are passed doubled (2m).  Returns 0 when
    M != m1 + m2 or when J violates the triangle condition; labels off the
    m-ladder of their spin raise ValueError.
    """
    j1, j2, J = spin(j1), spin(j2), spin(J)
    for label, jj, tm in (("m1", j1, twice_m1), ("m2", j2, twice_m2), ("M", J, twice_M)):
        if not jj.is_valid_twice_m(tm):
            raise ValueError(f"{label}: 2m={tm} is not on the m-ladder of spin {jj}")
    tj1, tj2, tJ = j1.twice_j, j2.twice_j, J.twice_j
    if twice_M != twice_m1 + twice_m2:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 - tJ) % 2 != 0:
        return 0.0
    lf = _log_half_factorial
    log_norm = 0.5 * (
        math.log(tJ + 1)
        + lf(tj1 + tj2 - tJ)
        + lf(tj1 - tj2 + tJ)
        + lf(-tj1 + tj2 + tJ)
        - lf(tj1 + tj2 + tJ + 2)
        + lf(tj1 + twice_m1)
        + lf(tj1 - twice_m1)
        + lf(tj2 + twice_m2)
        + lf(tj2 - twice_m2)
        + lf(tJ + twice_M)
        + lf(tJ - twice_M)
    )
    k_min = max(0, (tj2 - tJ - twice_m1) // 2, (tj1 - tJ + twice_m2) // 2)
    k_max = min((tj1 + tj2 - tJ) // 2, (tj1 - twice_m1) // 2, (tj2 + twice_m2) // 2)
    total = 0.0
    for k in range(k_min, k_max + 1):
        log_den = (
            lf(2 * k)
            + lf(tj1 + tj2 - tJ - 2 * k)
            + lf(tj1 - twice_m1 - 2 * k)
            + lf(tj2 + twice_m2 - 2 * k)
            + lf(tJ - tj2 + twice_m1 + 2 * k)
            + lf(tJ - tj1 - twice_m2 + 2 * k)
        )
        total += (-1.0) ** k * math.exp(log_norm - log_den)
    return total


@dataclass(frozen=True, eq=False)
class CouplingBlock:
    """One total-spin block: J and the isometry into the product space."""

    J: SpinQuantumNumber
    isometry: np.ndarray  # shape (dim1 * dim2, 2J + 1), columns ordered by decreasing M


@dataclass(frozen=True, eq=False)
class CouplingDecomposition:
    """Block decomposition of the (j1, j2) product space by total spin."""

    j1: SpinQuantumNumber
    j2: SpinQuantumNumber
    blocks: tuple[CouplingBlock, ...]

    @property
    def j_values(self) -> list[SpinQuantumNumber]:
        return [block.J for block in self.blocks]

    def block(self, J) -> CouplingBlock:
        J = spin(J)
        for candidate in self.blocks:
            if candidate.J == J:
                return candidate
        raise ValueError(f"J={J} is not a total spin of the pair ({self.j1}, {self.j2})")

    def block_probabilities(self, matrix: np.ndarray) -> np.ndarray:
        """Tr(Pi_J rho) for every block, in increasing-J order."""
        return np.array(
            [
                float(np.einsum("ik,ij,jk->", b.isometry, matrix, b.isometry).real)
                for b in self.blocks
            ]
        )


@dataclass(frozen=True, eq=False)
class Projector:
    """Orthogonal projector onto the total-spin-J block of a product space."""

    J: SpinQuantumNumber
    matrix: np.ndarray


def check_dense_capacity(j1: SpinQuantumNumber, j2: SpinQuantumNumber) -> None:
    """Raise CapacityError when the (j1, j2) product space exceeds the dense cap."""
    dim = j1.dimension * j2.dimension
    if dim > DENSE_DIMENSION_CAP:
        raise CapacityError(
            f"product dimension {dim} exceeds the dense cap {DENSE_DIMENSION_CAP}; "
            "use the closed-form routines for large spins"
        )


@lru_cache(maxsize=128)
def _decomposition(twice_j1: int, twice_j2: int) -> CouplingDecomposition:
    j1 = SpinQuantumNumber(twice_j1)
    j2 = SpinQuantumNumber(twice_j2)
    dim2 = j2.dimension
    blocks = []
    for J in total_j_values(j1, j2):
        isometry = np.zeros((j1.dimension * dim2, J.dimension))
        for col, twice_M in enumerate(J.twice_m_values()):
            for row1, twice_m1 in enumerate(j1.twice_m_values()):
                twice_m2 = twice_M - twice_m1
                if not j2.is_valid_twice_m(twice_m2):
                    continue
                row2 = (j2.twice_j - twice_m2) // 2
                isometry[row1 * dim2 + row2, col] = clebsch_gordan(
                    j1, j2, twice_m1, twice_m2, J, twice_M
                )
        isometry.setflags(write=False)
        blocks.append(CouplingBlock(J, isometry))
    return CouplingDecomposition(j1, j2, tuple(blocks))


def decomposition(j1, j2) -> CouplingDecomposition:
    """Isometries from every total-spin block into the (j1, j2) product space."""
    j1, j2 = spin(j1), spin(j2)
    check_dense_capacity(j1, j2)
    return _decomposition(j1.twice_j, j2.twice_j)


def projector(j1, j2, J) -> Projector:
    """Projector onto the total-spin-J block of the (j1, j2) product space.

    Built on each call, not cached: dense states and POVM elements sum one
    projector per block, and caching them would hold a dim^2 matrix per block.
    """
    j1, j2, J = spin(j1), spin(j2), spin(J)
    check_dense_capacity(j1, j2)
    if J not in total_j_values(j1, j2):
        raise ValueError(f"J={J} outside the range for ({j1}, {j2})")
    isometry = _decomposition(j1.twice_j, j2.twice_j).block(J).isometry
    return Projector(J, isometry @ isometry.T)
