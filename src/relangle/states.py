"""Joint states of two spins: product coherent pairs, collective rotations,
group averaging to rotationally invariant form, and the Werner family.

Group averaging never integrates numerically: for a multiplicity-free block
decomposition the average over all collective rotations equals the block
mixture with weights Tr(Pi_J rho), so it is computed exactly from those
weights.
"""

from dataclasses import dataclass

import numpy as np

from .angular import Direction, Rotation, SpinQuantumNumber, coherent_state, rotation_matrix, spin
from .coupling import _total_js, decomposition, projector
from .errors import ConsistencyError

__all__ = [
    "DensityMatrix",
    "InvariantState",
    "product_coherent_pair",
    "collective_rotate",
    "invariant_average",
    "werner_state",
]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Density matrix on a two-spin product space with factor dims (2j1+1, 2j2+1).

    A pure state can be held as its unit vector psi instead
    (``DensityMatrix._pure``): ``matrix`` is then |psi><psi|, built on first
    access, and ``invariant_average`` reads the block weights from psi.
    """

    matrix: np.ndarray
    dims: tuple[int, int]

    @classmethod
    def _pure(cls, vector: np.ndarray, dims: tuple[int, int]) -> "DensityMatrix":
        """The pure state |vector><vector|, held as its vector."""
        state = object.__new__(cls)
        object.__setattr__(state, "_vector", vector)
        object.__setattr__(state, "dims", dims)
        state.__post_init__()
        return state

    def __post_init__(self):
        d1, d2 = self.dims
        vector = vars(self).get("_vector")
        if vector is not None:
            vector = np.array(vector, dtype=complex)
            if vector.shape != (d1 * d2,):
                raise ValueError(f"vector shape {vector.shape} does not match dims {self.dims}")
            norm = float(np.vdot(vector, vector).real)
            if not abs(norm - 1.0) <= 1e-12:
                raise ValueError(f"state vector has squared norm {norm}, expected 1")
            vector.setflags(write=False)
        else:
            matrix = np.array(self.matrix, dtype=complex)
            if matrix.shape != (d1 * d2, d1 * d2):
                raise ValueError(f"matrix shape {matrix.shape} does not match dims {self.dims}")
            # rho^dagger - rho on a C-ordered copy of the transpose: subtracting the
            # strided view matrix.conj().T costs several times more at dim ~ 300.
            # Always a copy: for an F-ordered matrix, matrix.T is already C-contiguous
            defect = matrix.T.copy()
            np.conjugate(defect, out=defect)
            defect -= matrix
            if not np.max(np.abs(defect)) <= 1e-12:
                raise ValueError("density matrix is not Hermitian")
            trace = float(np.trace(matrix).real)
            if not abs(trace - 1.0) <= 1e-12:
                raise ValueError(f"density matrix has trace {trace}, expected 1")
            matrix.setflags(write=False)
            object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_vector", vector)
        object.__setattr__(self, "dims", (int(d1), int(d2)))

    def __getattr__(self, name):
        # reached only for attributes the instance lacks: a pure state's matrix
        # until it is first read
        if name != "matrix":
            raise AttributeError(name)
        matrix = np.outer(self._vector, self._vector.conj())
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        return matrix

    @property
    def spins(self) -> tuple[SpinQuantumNumber, SpinQuantumNumber]:
        return SpinQuantumNumber(self.dims[0] - 1), SpinQuantumNumber(self.dims[1] - 1)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.matrix)[0])


@dataclass(frozen=True, eq=False)
class InvariantState:
    """Rotationally invariant two-spin state: a probability weight per J block."""

    j1: SpinQuantumNumber
    j2: SpinQuantumNumber
    weights: dict

    def __post_init__(self):
        cleaned = {}
        for J, p in self.weights.items():
            J = spin(J)
            p = float(p)
            if not p >= -1e-10:
                raise ValueError(f"block weight {p} for J={J} is negative or NaN")
            cleaned[J] = max(p, 0.0)
        if tuple(sorted(cleaned)) != _total_js(self.j1.twice_j, self.j2.twice_j):
            raise ValueError("block weights do not cover the total-spin range")
        total = sum(cleaned.values())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"block weights sum to {total}, expected 1")
        object.__setattr__(self, "weights", cleaned)

    def weight(self, J) -> float:
        return self.weights[spin(J)]

    def weight_array(self) -> np.ndarray:
        """Weights in increasing-J order."""
        return np.array([self.weights[J] for J in _total_js(self.j1.twice_j, self.j2.twice_j)])

    def reconstruct(self) -> DensityMatrix:
        """Dense form sum_J p_J Pi_J / (2J + 1)."""
        dim = self.j1.dimension * self.j2.dimension
        matrix = np.zeros((dim, dim), dtype=complex)
        for J in _total_js(self.j1.twice_j, self.j2.twice_j):
            matrix += (self.weights[J] / J.dimension) * projector(self.j1, self.j2, J).matrix
        return DensityMatrix(matrix, (self.j1.dimension, self.j2.dimension))


def product_coherent_pair(j1, j2, n1: Direction, n2: Direction) -> DensityMatrix:
    """Pure product state of two spin coherent states pointing along n1 and n2."""
    j1, j2 = spin(j1), spin(j2)
    psi = np.multiply.outer(coherent_state(j1, n1).amplitudes, coherent_state(j2, n2).amplitudes)
    return DensityMatrix._pure(psi.ravel(), (j1.dimension, j2.dimension))


def collective_rotate(rho: DensityMatrix, r: Rotation) -> DensityMatrix:
    """Conjugate by the collective rotation R_{j1} x R_{j2}."""
    j1, j2 = rho.spins
    u = np.kron(rotation_matrix(j1, r), rotation_matrix(j2, r))
    return DensityMatrix(u @ rho.matrix @ u.conj().T, rho.dims)


def invariant_average(rho: DensityMatrix) -> InvariantState:
    """Average over all collective rotations, expressed as block weights.

    The weights are Tr(Pi_J rho); for a multiplicity-free decomposition this
    reproduces the group average exactly.  A pure state held as its vector
    psi gives them as <psi|Pi_J|psi>, without its dense matrix.
    """
    j1, j2 = rho.spins
    dec = decomposition(j1, j2)
    if rho._vector is None:
        probabilities = dec.block_probabilities(rho.matrix)
    else:
        probabilities = dec._rank_one_block_probabilities(rho._vector[None])
    total = float(probabilities.sum())
    if not abs(total - 1.0) <= 1e-10:
        raise ConsistencyError(f"block weights sum to {total}, expected 1")
    weights = dict(zip(dec.j_values, probabilities))
    return InvariantState(j1, j2, weights)


def werner_state(p: float) -> DensityMatrix:
    """Two-qubit mixture of the singlet projector (weight p) with the
    normalized triplet projector (weight 1 - p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must lie in [0, 1], got {p}")
    half = spin("1/2")
    singlet = projector(half, half, 0).matrix
    triplet = projector(half, half, 1).matrix
    matrix = p * singlet + (1.0 - p) / 3.0 * triplet
    return DensityMatrix(matrix.astype(complex), (2, 2))
