"""Coupling of two spins into total angular momentum blocks.

The product space of spins (j1, j2) splits into one block per total spin J
from |j1 - j2| to j1 + j2.  Product-basis indices are i1 * dim2 + i2 with both
factors ordered by decreasing m, matching the kron convention used throughout
the package.

Only product states with m1 + m2 = M couple to (J, M), so the Clebsch-Gordan
matrix is one orthogonal matrix per magnetic sector M: the eigenvectors of the
tridiagonal restriction of J^2, found for every sector M >= 0 in one batched
eigh call and kept up to the sign of each column.  Block weights, being
quadratic in every column, never need those signs.  Sector -M is the mirror
image (m1, m2) -> (-m1, -m2) of sector M with column J scaled by
(-1)^(j1 + j2 - J).  Signed reads (Clebsch-Gordan coefficients and block
isometries) scale each column by its Condon-Shortley sign, built on the first
such read: <J, M - 1|J-|J, M> > 0 ties each sector to the one above, and at
M = J the coefficient with the larger spin at its top m is a one-term Racah
sum.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .angular import SpinQuantumNumber, _brief, _check_label_digits, spin
from .errors import CapacityError

__all__ = [
    "DENSE_DIMENSION_CAP",
    "total_j_values",
    "clebsch_gordan",
    "CouplingBlock",
    "CouplingDecomposition",
    "Projector",
    "decomposition",
    "projector",
]

# Largest product dimension (2j1+1)(2j2+1) served by the dense machinery and the sector
# tables.  It bounds memory: one dense complex matrix at the cap is 4096^2 x 16 B = 268 MB,
# against 2.1 MB for the largest sector table, that of the pair (63/2, 63/2).
DENSE_DIMENSION_CAP = 4096


def total_j_values(j1, j2) -> list[SpinQuantumNumber]:
    """Total spins |j1 - j2|, ..., j1 + j2 in increasing order, as a new list."""
    j1, j2 = spin(j1), spin(j2)
    return list(_total_js(j1.twice_j, j2.twice_j))


@lru_cache(maxsize=256)
def _total_js(twice_j1: int, twice_j2: int) -> tuple[SpinQuantumNumber, ...]:
    """``total_j_values`` of the pair as a shared tuple, for the package's own callers."""
    lo = abs(twice_j1 - twice_j2)
    return tuple(SpinQuantumNumber(tj) for tj in range(lo, twice_j1 + twice_j2 + 2, 2))


def _total_spin_labels(twice_j1: int, twice_j2: int) -> list[str]:
    """The text of each total spin of the pair, as ``str`` writes it.  A pair is refused in
    terms of the spins, as ``spin`` refuses a spin, if its largest total spin j1 + j2, whose
    label is the longest, has more digits than Python writes as text."""
    _check_label_digits(Fraction(twice_j1 + twice_j2, 2), "total spin j1 + j2 =")
    return [str(J) for J in _total_js(twice_j1, twice_j2)]


def clebsch_gordan(j1, j2, twice_m1: int, twice_m2: int, J, twice_M: int) -> float:
    """Coefficient <j1 m1; j2 m2 | J M> in the Condon-Shortley convention.

    Magnetic quantum numbers are passed doubled (2m).  Returns exactly 0 when
    M != m1 + m2, when J violates the triangle condition, and for
    <j1 0; j2 0 | J 0> with j1 + j2 + J odd; labels off the m-ladder of their
    spin raise ValueError.  The entry is read from the pair's cached sector
    table and scaled by its Condon-Shortley sign, so pairs past the dense cap
    raise CapacityError.
    """
    j1, j2, J = spin(j1), spin(j2), spin(J)
    for label, jj, tm in (("m1", j1, twice_m1), ("m2", j2, twice_m2), ("M", J, twice_M)):
        if not jj.is_valid_twice_m(tm):
            raise ValueError(f"{label}: 2m={tm} is not on the m-ladder of spin {jj}")
    check_dense_capacity(j1, j2)
    tj1, tj2, tJ = j1.twice_j, j2.twice_j, J.twice_j
    if twice_M != twice_m1 + twice_m2:
        return 0.0
    if tJ < abs(tj1 - tj2) or tJ > tj1 + tj2 or (tj1 + tj2 - tJ) % 2 != 0:
        return 0.0
    if twice_m1 == twice_m2 == 0 and (tj1 + tj2 + tJ) // 2 % 2 == 1:
        return 0.0
    sign = 1.0
    if twice_M < 0:  # read the mirror coefficient <j1 -m1; j2 -m2 | J -M>
        twice_m1, twice_M = -twice_m1, -twice_M
        sign = (-1.0) ** ((tj1 + tj2 - tJ) // 2)
    sector = (tj1 + tj2 - twice_M) // 2
    row = (tj1 - twice_m1) // 2 if tj1 <= tj2 else (tj2 - twice_M + twice_m1) // 2
    column = (tJ - abs(tj1 - tj2)) // 2
    dec = _decomposition(tj1, tj2)
    return sign * float(dec.sectors[sector, row, column] * dec._signs[sector, column])


@dataclass(frozen=True, eq=False)
class CouplingBlock:
    """One total-spin block: J and the isometry into the product space."""

    J: SpinQuantumNumber
    isometry: np.ndarray  # shape (dim1 * dim2, 2J + 1), columns ordered by decreasing M


@dataclass(frozen=True, eq=False)
class CouplingDecomposition:
    """Block decomposition of the (j1, j2) product space, held by M sector.

    Sector i is M = j1 + j2 - i, for every M >= 0.  Its rows are the product
    states with m1 + m2 = M by decreasing m of the smaller spin (j1 on a tie),
    at product indices ``rows[i]``; its column k is the k-th total spin in
    increasing order.  Every sector is padded to n = min(2j1+1, 2j2+1) rows
    and columns, with zero entries and row index 0.

    ``sectors`` holds each column up to its sign: block weights do not depend
    on it.  ``_signs`` (sectors, n) holds the Condon-Shortley factor +-1 of
    every column, built on the first signed read (``block`` and
    ``clebsch_gordan``) and then kept on the decomposition.
    """

    j1: SpinQuantumNumber
    j2: SpinQuantumNumber
    rows: np.ndarray  # shape (sectors, n)
    sectors: np.ndarray  # shape (sectors, n, n), orthogonal on the unpadded rows and columns

    @cached_property
    def _signs(self) -> np.ndarray:
        # In sector M = J the entry with the larger spin at its top m is
        # positive, times (-1)^(j1 + j2 - J) when that spin is j2; below it the
        # sign of <J, M - 1|J-|J, M> ties each sector to the last.  (The entry
        # at m1 = j1 is positive in every sector, but can be 1e-18.)
        twice_j1, twice_j2 = self.j1.twice_j, self.j2.twice_j
        small, big = sorted((twice_j1, twice_j2))
        sector, row, _, twice_mb, lower_s = _ladder(small, big)
        lower_b = np.sqrt(np.maximum(big * (big + 2) - twice_mb * (twice_mb - 2), 0))
        top = small - row  # column k first appears in sector M = J
        vectors = self.sectors
        # J- of each sector in the rows of the next: the larger spin's lowering
        # keeps the row, the smaller spin's moves it down one.
        lowered = lower_b[:-1, :, None] * vectors[:-1]
        lowered[:, 1:] += lower_s[:-1, None] * vectors[:-1, :-1]
        factor = np.ones((len(sector), small + 1))
        factor[1:] = np.where(sector[1:] > top, np.sign(np.sum(vectors[1:] * lowered, axis=1)), 1.0)
        factor[top, row] = np.sign(vectors[top, top, row]) * (-1.0) ** (top * (twice_j1 <= twice_j2))
        signs = np.cumprod(factor, axis=0)
        signs.setflags(write=False)
        return signs

    @property
    def j_values(self) -> tuple[SpinQuantumNumber, ...]:
        return _total_js(self.j1.twice_j, self.j2.twice_j)

    @property
    def _mirrored(self) -> int:
        # number of sectors with M > 0, whose mirror -M is not stored
        return (self.j1.twice_j + self.j2.twice_j + 1) // 2

    def block(self, J) -> CouplingBlock:
        """The block of total spin J, its dense isometry assembled from the sectors."""
        J = spin(J)
        if J not in self.j_values:
            raise ValueError(f"J={J} is not a total spin of the pair ({self.j1}, {self.j2})")
        first = (self.j1.twice_j + self.j2.twice_j - J.twice_j) // 2  # the sector M = J
        k = self.rows.shape[1] - 1 - first
        sector, row = np.nonzero(self.sectors[:, :, k])
        column = sector - first  # J - M: columns run over decreasing M
        index = self.rows[sector, row]
        values = self.sectors[sector, row, k] * self._signs[sector, k]
        dim = self.j1.dimension * self.j2.dimension
        isometry = np.zeros((dim, J.dimension))
        isometry[index, column] = values
        mirror = sector < self._mirrored
        sign = (-1.0) ** first  # (-1)^(j1 + j2 - J)
        isometry[dim - 1 - index[mirror], J.twice_j - column[mirror]] = sign * values[mirror]
        return CouplingBlock(J, isometry)

    def block_probabilities(self, matrix: np.ndarray) -> np.ndarray:
        """Tr(Pi_J rho) for every block, in increasing-J order.

        Sector M contributes the diagonal of V^T rho_M V, with rho_M the rows
        and columns of rho in the sector.  The block of sector -M, gathered in
        mirrored order, is added to that of M first: column signs cancel in
        the quadratic form, so V is read unsigned.  V is real, so only the
        real part of rho enters.  An operator that is not dim x dim raises
        ValueError.
        """
        dim = self.j1.dimension * self.j2.dimension
        if np.shape(matrix) != (dim, dim):
            raise ValueError(
                f"operator of shape {np.shape(matrix)} on the ({self.j1}, {self.j2}) product "
                f"space; expected ({dim}, {dim})")
        real = np.real(matrix)
        rows = self.rows
        blocks = real[rows[:, :, None], rows[:, None, :]]
        mirrored = rows[: self._mirrored]
        blocks[: len(mirrored)] += real[::-1, ::-1][mirrored[:, :, None], mirrored[:, None, :]]
        return (self.sectors * (blocks @ self.sectors)).sum(axis=(0, 1))

    def _rank_one_block_probabilities(self, vectors: np.ndarray) -> np.ndarray:
        """Tr(Pi_J sum_r |v_r><v_r|) for a stack of vectors v_r (rows), in increasing-J order.

        Sector M contributes sum_r |V^T v_rM|^2, with v_rM the entries of v_r
        in the sector: O(dim n) per vector, with no dim^2 matrix.  V is real,
        so the real and imaginary parts enter as separate vectors.  Sector -M
        is sector M of the reversed vectors, whose column signs drop out of
        the squares; sector M = 0 is its own mirror and is counted once.
        """
        parts = np.concatenate((vectors.real, vectors.imag))
        gathered = np.concatenate((parts, parts[:, ::-1]))[:, self.rows]
        gathered[len(parts):, self._mirrored:] = 0.0
        return np.square(gathered[:, :, None, :] @ self.sectors).sum(axis=(0, 1, 2))


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
            f"product dimension {_brief(dim)} exceeds the dense cap {DENSE_DIMENSION_CAP}; "
            "use the closed-form routines for large spins"
        )


def _ladder(small: int, big: int):
    """Sector index (a column vector), row, 2m of the smaller and of the
    larger spin in each slot, and twice <m - 1|J-|m> of the smaller spin, for
    doubled spins small <= big; the smaller spin (j1 on a tie) has
    m = small/2 - row."""
    sector = np.arange((small + big) // 2 + 1)[:, None]
    row = np.arange(small + 1)
    twice_ms = small - 2 * row
    twice_mb = big - 2 * (sector - row)
    lower_s = np.sqrt(small * (small + 2) - twice_ms * (twice_ms - 2))
    return sector, row, twice_ms, twice_mb, lower_s


@lru_cache(maxsize=128)
def _decomposition(twice_j1: int, twice_j2: int) -> CouplingDecomposition:
    small, big = sorted((twice_j1, twice_j2))
    n = small + 1
    sector, row, twice_ms, twice_mb, lower_s = _ladder(small, big)
    unpadded = row <= sector
    # twice the raising operator's matrix elements, zero past the end of the ladder
    raise_b = np.sqrt(np.maximum(big * (big + 2) - twice_mb * (twice_mb + 2), 0))
    # 4 J^2 on each sector; padded slots get -4 so that they sort first
    off = lower_s[:-1] * raise_b[:, :-1]
    j_squared = np.zeros((len(sector), n, n))
    j_squared[:, row, row] = np.where(
        unpadded, small * (small + 2) + big * (big + 2) + 2 * twice_ms * twice_mb, -4)
    j_squared[:, row[1:], row[:-1]] = off
    j_squared[:, row[:-1], row[1:]] = off
    vectors = np.linalg.eigh(j_squared)[1]
    top = n - 1 - row  # column k first appears in sector M = J
    vectors = np.where(unpadded[:, :, None] & (sector >= top)[:, None, :], vectors, 0.0)
    i1 = row if twice_j1 <= twice_j2 else sector - row
    rows = np.where(unpadded, i1 * (twice_j2 + 1) + sector - i1, 0)
    vectors.setflags(write=False)
    rows.setflags(write=False)
    return CouplingDecomposition(SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2),
                                 rows, vectors)


def decomposition(j1, j2) -> CouplingDecomposition:
    """The (j1, j2) product space by M sector, cached; see CouplingDecomposition."""
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
    if J not in _total_js(j1.twice_j, j2.twice_j):
        raise ValueError(f"J={J} outside the range for ({j1}, {j2})")
    isometry = _decomposition(j1.twice_j, j2.twice_j).block(J).isometry
    return Projector(J, isometry @ isometry.T)
