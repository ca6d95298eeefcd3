"""SU(2) building blocks: spin labels, angular momentum operators, rotation
matrices, and spin coherent states.

Half-integer spins are stored exactly as the integer 2j, and magnetic quantum
numbers use the same doubled convention, so no floating-point spin labels ever
enter an API.  Matrix representations order basis states by decreasing m:
index 0 corresponds to m = +j and index 2j to m = -j.  Rotations use the z-y-z
Euler convention, R = exp(-i a Jz) exp(-i b Jy) exp(-i g Jz).
"""

import math
import re
import sys
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
            raise ValueError(f"twice_j must be non-negative, got {_brief(self.twice_j)}")
        object.__setattr__(self, "twice_j", int(self.twice_j))

    @property
    def dimension(self) -> int:
        """Dimension 2j + 1 of the spin-j representation."""
        return self.twice_j + 1

    def twice_m_values(self) -> range:
        """All doubled magnetic quantum numbers, from +2j down to -2j."""
        return range(self.twice_j, -self.twice_j - 2, -2)

    def is_valid_twice_m(self, twice_m: int) -> bool:
        """Whether ``twice_m`` lies on the m-ladder of this spin."""
        return abs(twice_m) <= self.twice_j and (self.twice_j - twice_m) % 2 == 0

    @classmethod
    def from_string(cls, text: str) -> "SpinQuantumNumber":
        """Parse a half-integer such as ``"1/2"``, ``"3"`` or ``"2.5"``, as ``spin`` does."""
        return spin(_spin_value(text))

    def __str__(self) -> str:
        return _spin_label(self.twice_j)


def _spin_label(twice_j: int) -> str:
    """The text of the spin twice_j / 2: "3" or "3/2"."""
    return f"{twice_j}/2" if twice_j % 2 else str(twice_j // 2)


# Past this many digits an error message writes a number in scientific form.
_BRIEF_DIGITS = 15


def _brief(value) -> str:
    """An int, Fraction or spin as error messages write it: as ``str`` does while its
    numerator and denominator have at most 15 digits, else to 6 digits in scientific form.
    A message naming a huge spin so stays one short line.  No integer is turned into text,
    which takes time quadratic in its digits and is refused past Python's limit on them.

    The scientific form comes from math.log10 of the integers, which reads only their
    leading bits; its error, about 1e-16 times the exponent, leaves 6 digits exact.
    """
    if isinstance(value, SpinQuantumNumber):
        value = Fraction(value.twice_j, 2)
    value = Fraction(value)
    if abs(value.numerator) < 10**_BRIEF_DIGITS and value.denominator < 10**_BRIEF_DIGITS:
        return str(value)
    exponent = math.log10(abs(value.numerator)) - math.log10(value.denominator)
    power = math.floor(exponent)
    mantissa = f"{10.0 ** (exponent - power):.6g}"
    if mantissa == "10":  # 9.999995 and up round to the next power of ten
        mantissa, power = "1", power + 1
    return f"{'-' * (value < 0)}{mantissa}e{power:+d}"


# Past this many characters an error message quotes only the start of a text.
_SHOWN_CHARACTERS = 40


def _shown(text: str) -> str:
    """A text as an error message quotes it: its repr, or past _SHOWN_CHARACTERS characters
    the repr of its start and its length, so that the message stays one short line."""
    if len(text) <= _SHOWN_CHARACTERS:
        return repr(text)
    return f"{text[:_SHOWN_CHARACTERS // 2]!r}... ({len(text)} characters)"


# The exponent of a number's text as Fraction reads it: "e", an optional sign, digits.
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _digit_limit() -> int:
    """Python's limit on the digits of integer text (``sys.get_int_max_str_digits``), 0 for none."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _spin_value(text: str) -> Fraction:
    """The number a spin's text such as ``"1/2"``, ``"3"`` or ``"2.5e1"`` names; ValueError if
    it names none.  An exponent e past twice Python's limit on the digits of integer text is
    refused from the text, before Fraction builds 10**|e|: the digits before and after the
    point number at most the limit each, so the value is 0, below 1/10 or past 10**limit, and
    no spin that ``spin`` accepts."""
    limit = _digit_limit()
    try:
        exponent = _EXPONENT.search(text)
        if not (limit and exponent and abs(int(exponent[1])) > 2 * limit):
            return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse spin value {_shown(text)}") from exc
    raise ValueError(f"spin {_shown(text.strip())} has more than {limit} digits, "
                     "past Python's limit for integer text")


def spin(value) -> SpinQuantumNumber:
    """Coerce a string, integer, exact half-valued float, or Fraction to a spin.

    A spin whose label ("j", or "2j/2" for a half-integer) holds an integer of more digits than
    Python writes as text (``sys.get_int_max_str_digits``; none where that is 0) is refused."""
    if isinstance(value, SpinQuantumNumber):
        return value
    if isinstance(value, str):
        value = _spin_value(value)
    elif isinstance(value, np.integer):
        value = int(value)  # Fraction would keep the numpy scalar, which has no bit_length
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value} is not a half-integer spin")
    elif not isinstance(value, (int, float, Fraction)):
        raise TypeError(f"cannot interpret {value!r} as a spin quantum number")
    value = Fraction(value)
    limit = _digit_limit()
    # a numerator below 8**limit, of at most 3 * limit bits, is below 10**limit: no power built
    if limit and value.numerator.bit_length() > 3 * limit and value.numerator >= 10**limit:
        raise ValueError(f"spin {_brief(value)} has more than {limit} digits, "
                         "past Python's limit for integer text")
    if value.denominator not in (1, 2):
        raise ValueError(f"{_brief(value)} is not a half-integer spin")
    return SpinQuantumNumber(int(value * 2))


@dataclass(frozen=True)
class Rotation:
    """Euler angles (radians) of a rotation in the z-y-z convention."""

    euler_alpha: float
    euler_beta: float
    euler_gamma: float


@dataclass(frozen=True)
class Direction:
    """Point on the unit sphere: polar angle theta in [0, pi], finite azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi}")
        object.__setattr__(self, "theta", float(min(max(self.theta, 0.0), math.pi)))
        object.__setattr__(self, "phi", float(self.phi) % (2.0 * math.pi))

    @property
    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )


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
        if not abs(norm_sq - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"state vector is not normalized: |psi|^2 = {norm_sq}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)


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


def _coherent_amplitudes(twice_j: int, theta: float, phi: float | np.ndarray) -> np.ndarray:
    """Amplitudes of exp(-i phi Jz) exp(-i theta Jy) |j, m=j>, by decreasing m; for
    a column of azimuths phi, of shape (n, 1), one row of amplitudes per azimuth.

    At k = j - m the amplitude is
    sqrt(C(2j, k)) cos^(2j-k)(theta/2) sin^k(theta/2) exp(-i phi (j - k)),
    for theta in [0, pi], where both factors are non-negative.  The moduli
    are summed in logarithms, so any j works, and then rescaled to unit norm:
    the rounding of the logarithms grows like j, and would otherwise move the
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
    """powers * ln(base) for base >= 0, taking 0 * ln 0 as 0."""
    if base == 0.0:
        return np.where(powers > 0, -np.inf, 0.0)
    return powers * math.log(base)
