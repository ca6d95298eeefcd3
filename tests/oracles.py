"""Independent references that the unit tests check the library against.

Rotations on the defining SU(2) and SO(3) representations, random rotations
and directions, directions from 3-vectors, and the dense matrix of a
rotationally invariant POVM element.  None of them is on a library path; each
is written from its definition.
"""

import cmath
import math

import numpy as np

from relangle import Direction, Rotation, projector


def su2_matrix(r: Rotation) -> np.ndarray:
    """The spin-1/2 matrix exp(-i a Jz) exp(-i b Jy) exp(-i g Jz), in closed form."""
    half_sum = 0.5 * (r.euler_alpha + r.euler_gamma)
    half_diff = 0.5 * (r.euler_alpha - r.euler_gamma)
    c, s = math.cos(0.5 * r.euler_beta), math.sin(0.5 * r.euler_beta)
    return np.array(
        [
            [c * cmath.exp(-1j * half_sum), -s * cmath.exp(-1j * half_diff)],
            [s * cmath.exp(1j * half_diff), c * cmath.exp(1j * half_sum)],
        ]
    )


def euler_from_su2(u: np.ndarray) -> Rotation:
    """z-y-z Euler angles of an SU(2) matrix, up to its global sign."""
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


def compose(r1: Rotation, r2: Rotation) -> Rotation:
    """The rotation that applies r2 first and r1 second, computed on SU(2): at half-integer j
    its rotation matrix can differ from the matrix product by a global sign."""
    return euler_from_su2(su2_matrix(r1) @ su2_matrix(r2))


def inverse(r: Rotation) -> Rotation:
    return Rotation(-r.euler_gamma, -r.euler_beta, -r.euler_alpha)


def so3_matrix(r: Rotation) -> np.ndarray:
    """The 3x3 orthogonal matrix of the rotation, acting on direction vectors."""

    def about_z(angle):
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    c, s = math.cos(r.euler_beta), math.sin(r.euler_beta)
    about_y = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    return about_z(r.euler_alpha) @ about_y @ about_z(r.euler_gamma)


def random_rotation(rng) -> Rotation:
    """Euler angles drawn uniformly from their ranges (not Haar: a spread of test cases)."""
    return Rotation(
        rng.uniform(0, 2 * math.pi),
        rng.uniform(0, math.pi),
        rng.uniform(0, 2 * math.pi),
    )


def random_direction(rng) -> Direction:
    """A direction uniform on the sphere."""
    return Direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


def direction_from_vector(v) -> Direction:
    """The direction of a non-zero 3-vector."""
    v = np.asarray(v, dtype=float)
    cos_theta = v[2] / np.linalg.norm(v)
    return Direction(math.acos(max(-1.0, min(1.0, cos_theta))), math.atan2(v[1], v[0]))


def povm_element_matrix(povm, k: int) -> np.ndarray:
    """Dense matrix of the POVM's element k: its block weights times the dense projectors."""
    dim = povm.j1.dimension * povm.j2.dimension
    matrix = np.zeros((dim, dim))
    for weight, J in zip(povm.weights[k], povm.j_values):
        if weight != 0.0:
            matrix += weight * projector(povm.j1, povm.j2, J).matrix
    return matrix
