"""SU(2) building blocks: spin labels, angular momentum operators, rotation
matrices, and spin coherent states.

Half-integer spins are stored exactly as the integer 2j, and magnetic quantum
numbers use the same doubled convention, so no floating-point spin labels ever
enter an API.  Matrix representations order basis states by decreasing m:
index 0 corresponds to m = +j and index 2j to m = -j.  Rotations use the z-y-z
Euler convention, R = exp(-i a Jz) exp(-i b Jy) exp(-i g Jz).
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .polynomials import log_binomials

__all__ = [
    "SpinQuantumNumber",
    "spin",
    "Rotation",
    "Direction",
    "StateVector",
    "angle_between",
    "angular_momentum_operators",
    "rotation_matrix",
    "coherent_state",
]


@dataclass(frozen=True, order=True)
class SpinQuantumNumber:
    """A spin j >= 0, stored as the integer ``twice_j = 2j``."""

    twice_j: int

    def __post_init__(self):
        if not isinstance(self.twice_j, (int, np.integer)):
            raise TypeError(f"twice_j must be an integer, got {self.twice_j!r}")
        if self.twice_j < 0:
            raise ValueError(f"twice_j must be non-negative, got {self.twice_j}")
        object.__setattr__(self, "twice_j", int(self.twice_j))

    @property
    def dimension(self) -> int:
        """Dimension 2j + 1 of the spin-j representation."""
        return self.twice_j + 1

    @property
    def as_float(self) -> float:
        return self.twice_j / 2.0

    def twice_m_values(self) -> range:
        """All doubled magnetic quantum numbers, from +2j down to -2j."""
        return range(self.twice_j, -self.twice_j - 2, -2)

    def is_valid_twice_m(self, twice_m: int) -> bool:
        """Whether ``twice_m`` lies on the m-ladder of this spin."""
        return abs(twice_m) <= self.twice_j and (self.twice_j - twice_m) % 2 == 0

    @classmethod
    def from_string(cls, text: str) -> "SpinQuantumNumber":
        """Parse a half-integer such as ``"1/2"``, ``"3"`` or ``"2.5"``."""
        try:
            value = Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse spin value {text!r}") from exc
        return spin(value)

    def __str__(self) -> str:
        if self.twice_j % 2 == 0:
            return str(self.twice_j // 2)
        return f"{self.twice_j}/2"


def spin(value) -> SpinQuantumNumber:
    """Coerce a string, integer, exact half-valued float, or Fraction to a spin."""
    if isinstance(value, SpinQuantumNumber):
        return value
    if isinstance(value, str):
        return SpinQuantumNumber.from_string(value)
    if isinstance(value, (int, np.integer)):
        return SpinQuantumNumber(2 * int(value))
    if isinstance(value, float):
        value = Fraction(value)
    if isinstance(value, Fraction):
        if value.denominator not in (1, 2):
            raise ValueError(f"{value} is not a half-integer spin")
        return SpinQuantumNumber(int(value * 2))
    raise TypeError(f"cannot interpret {value!r} as a spin quantum number")


@dataclass(frozen=True)
class Rotation:
    """Euler angles (radians) of a rotation in the z-y-z convention."""

    euler_alpha: float
    euler_beta: float
    euler_gamma: float

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(0.0, 0.0, 0.0)

    def inverse(self) -> "Rotation":
        return Rotation(-self.euler_gamma, -self.euler_beta, -self.euler_alpha)

    def compose(self, other: "Rotation") -> "Rotation":
        """Rotation equal to applying ``other`` first and ``self`` second.

        Computed on the defining representation, so at half-integer j the
        rotation matrix of the result can differ from the matrix product by a
        global sign.
        """
        u = _su2_matrix(self) @ _su2_matrix(other)
        return _euler_from_su2(u)

    def so3_matrix(self) -> np.ndarray:
        """The 3x3 orthogonal matrix acting on direction vectors."""
        return (
            _rot3_z(self.euler_alpha)
            @ _rot3_y(self.euler_beta)
            @ _rot3_z(self.euler_gamma)
        )


def _rot3_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _rot3_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _su2_matrix(r: Rotation) -> np.ndarray:
    half_sum = 0.5 * (r.euler_alpha + r.euler_gamma)
    half_diff = 0.5 * (r.euler_alpha - r.euler_gamma)
    c, s = math.cos(0.5 * r.euler_beta), math.sin(0.5 * r.euler_beta)
    return np.array(
        [
            [c * cmath.exp(-1j * half_sum), -s * cmath.exp(-1j * half_diff)],
            [s * cmath.exp(1j * half_diff), c * cmath.exp(1j * half_sum)],
        ]
    )


def _euler_from_su2(u: np.ndarray) -> Rotation:
    lower = abs(u[1, 0])
    diag = abs(u[1, 1])
    beta = 2.0 * math.atan2(lower, diag)
    if lower < 1e-15:
        return Rotation(2.0 * cmath.phase(u[1, 1]), 0.0, 0.0)
    if diag < 1e-15:
        return Rotation(2.0 * cmath.phase(u[1, 0]), math.pi, 0.0)
    alpha = cmath.phase(u[1, 1] * u[1, 0])
    gamma = cmath.phase(u[1, 1] * u[1, 0].conjugate())
    return Rotation(alpha, beta, gamma)


@dataclass(frozen=True)
class Direction:
    """Point on the unit sphere: polar angle theta in [0, pi], azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", float(min(max(self.theta, 0.0), math.pi)))
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

    @classmethod
    def from_vector(cls, v) -> "Direction":
        v = np.asarray(v, dtype=float)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("zero vector has no direction")
        return cls(math.acos(max(-1.0, min(1.0, v[2] / norm))), math.atan2(v[1], v[0]))


def angle_between(n1: Direction, n2: Direction) -> float:
    """Angle in [0, pi] between two directions."""
    dot = float(n1.unit_vector @ n2.unit_vector)
    return math.acos(max(-1.0, min(1.0, dot)))


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state of a single spin; amplitudes ordered by decreasing m."""

    j: SpinQuantumNumber
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.j.dimension,):
            raise ValueError(
                f"expected {self.j.dimension} amplitudes for spin {self.j}, "
                f"got shape {amps.shape}"
            )
        norm_sq = float(np.vdot(amps, amps).real)
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"state vector is not normalized: |psi|^2 = {norm_sq}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def overlap(self, other: "StateVector") -> complex:
        if self.j != other.j:
            raise ValueError("states belong to different spins")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def angular_momentum_operators(j) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Matrices (Jx, Jy, Jz) for spin j, with Jz = diag(j, j-1, ..., -j)."""
    j = spin(j)
    tj = j.twice_j
    twice_ms = np.array(list(j.twice_m_values()))
    jz = np.diag(twice_ms / 2.0).astype(complex)
    # raising amplitudes sqrt(j(j+1) - m(m+1)) for each column with m < j
    raise_amps = np.array(
        [0.5 * math.sqrt(tj * (tj + 2) - tm * (tm + 2)) for tm in twice_ms[1:]]
    )
    jp = np.zeros((j.dimension, j.dimension), dtype=complex)
    jp[np.arange(j.dimension - 1), np.arange(1, j.dimension)] = raise_amps
    jm = jp.conj().T
    return (jp + jm) / 2.0, (jp - jm) / 2.0j, jz


@lru_cache(maxsize=64)
def _jy_eigensystem(twice_j: int):
    _, jy, _ = angular_momentum_operators(SpinQuantumNumber(twice_j))
    eigenvalues, vectors = np.linalg.eigh(jy)
    eigenvalues.setflags(write=False)
    vectors.setflags(write=False)
    return eigenvalues, vectors


def rotation_matrix(j, r: Rotation) -> np.ndarray:
    """Unitary exp(-i a Jz) exp(-i b Jy) exp(-i g Jz) on the spin-j space.

    The middle factor is evaluated by exact diagonalization of Jy, which
    stays numerically stable at large j.
    """
    j = spin(j)
    ms = np.array(list(j.twice_m_values())) / 2.0
    eigenvalues, vectors = _jy_eigensystem(j.twice_j)
    middle = (vectors * np.exp(-1j * r.euler_beta * eigenvalues)) @ vectors.conj().T
    return (
        np.exp(-1j * r.euler_alpha * ms)[:, None]
        * middle
        * np.exp(-1j * r.euler_gamma * ms)[None, :]
    )


def coherent_state(j, n: Direction) -> StateVector:
    """Spin coherent state |j n>: the J.n eigenstate with maximal eigenvalue j.

    Defined as the rotation with Euler angles (phi, theta, 0) applied to the
    highest-weight state |j, m=j>, evaluated in closed form.
    """
    j = spin(j)
    return StateVector(j, _coherent_amplitudes(j.twice_j, n.theta, n.phi))


def _coherent_amplitudes(twice_j: int, theta: float, phi: float) -> np.ndarray:
    """Amplitudes of exp(-i phi Jz) exp(-i theta Jy) |j, m=j>, by decreasing m.

    At k = j - m the amplitude is
    sqrt(C(2j, k)) cos^(2j-k)(theta/2) sin^k(theta/2) exp(-i phi (j - k)),
    for any real theta: the powers keep their signs.  The moduli are summed
    in logarithms, so any j works, and then rescaled to unit norm: the
    rounding of the logarithms grows like j, and would otherwise move the
    norm by 1e-12 near 2j = 4000.  cos(theta/2) is taken as
    sin((pi - theta)/2), which is exactly zero at theta = pi, so every
    amplitude is exact at theta = 0 and pi.
    """
    k, rest, half_log_binomials, twice_m = _coherent_ladder(twice_j)
    cos_half, sin_half = math.sin(0.5 * (math.pi - theta)), math.sin(0.5 * theta)
    moduli = half_log_binomials + _times_log(rest, cos_half)
    moduli += _times_log(k, sin_half)
    np.exp(moduli, out=moduli)
    moduli /= math.sqrt(moduli @ moduli)
    # past theta = pi (or below 0) the odd powers of the negative factor flip sign
    if cos_half < 0.0:
        moduli[1 - twice_j % 2::2] *= -1.0
    if sin_half < 0.0:
        moduli[1::2] *= -1.0
    return moduli * np.exp(-0.5j * phi * twice_m)


@lru_cache(maxsize=16)
def _coherent_ladder(twice_j: int) -> tuple[np.ndarray, ...]:
    """k = j - m, 2j - k, ln C(2j, k) / 2 and 2m, for k = 0 .. 2j."""
    k = np.arange(twice_j + 1)
    ladder = k, twice_j - k, 0.5 * log_binomials(twice_j), twice_j - 2 * k
    for array in ladder:
        array.setflags(write=False)
    return ladder


def _times_log(powers: np.ndarray, base: float) -> np.ndarray:
    """powers * ln|base|, taking 0 * ln 0 as 0."""
    if base == 0.0:
        return np.where(powers > 0, -np.inf, 0.0)
    return powers * math.log(abs(base))
