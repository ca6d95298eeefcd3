import math
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from relangle import (
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
from relangle.angular import _brief, _spin_label

from oracles import (
    compose,
    direction_from_vector,
    inverse,
    random_direction,
    random_rotation,
    so3_matrix,
)

HALF = spin("1/2")


class TestSpinQuantumNumber:
    def test_dimension_and_m_ladder(self):
        j = spin("3/2")
        assert j.dimension == 4
        assert list(j.twice_m_values()) == [3, 1, -1, -3]

    @pytest.mark.parametrize("text,twice", [("1/2", 1), ("3", 6), ("2.5", 5), ("0", 0)])
    def test_parsing(self, text, twice):
        assert SpinQuantumNumber.from_string(text).twice_j == twice

    @pytest.mark.parametrize("value,twice", [
        (3, 6), (np.int64(3), 6), (np.int32(1), 2), (np.uint8(0), 0), (1.5, 3),
        (np.float64(2.5), 5), (Fraction(7, 2), 7), ("7/2", 7), (spin("5/2"), 5),
    ], ids=["int", "int64", "int32", "uint8", "float", "float64", "Fraction", "text", "spin"])
    def test_coerces_every_accepted_type(self, value, twice):
        assert spin(value) == SpinQuantumNumber(twice)

    def test_string_roundtrip(self):
        for twice in range(0, 11):
            j = SpinQuantumNumber(twice)
            assert SpinQuantumNumber.from_string(str(j)) == j

    def test_label_helper_is_the_spin_text(self):
        # the text of a spin is that of the fraction 2j / 2: "3" or "3/2"
        large = 10**400
        for twice in [*range(0, 2001), 2 * large, 2 * large + 1]:
            label = _spin_label(twice)
            assert label == str(SpinQuantumNumber(twice)) == str(Fraction(twice, 2))
        assert _spin_label(2 * large + 1) == f"{2 * large + 1}/2"

    def test_brief_text_of_numbers_in_messages(self):
        # str's text up to 15 digits in numerator and denominator, scientific past that,
        # including numbers whose str would pass Python's 4300-digit limit
        for value in (0, 7, -3, 10**15 - 1, Fraction(3, 2), Fraction(-1, 2),
                      Fraction(2, 10**15 - 1)):
            assert _brief(value) == str(value)
        assert _brief(spin("3/2")) == "3/2" and _brief(spin(5)) == "5"
        assert _brief(10**15) == "1e+15"
        assert _brief(123456789012345678) == "1.23457e+17"
        assert _brief(-4 * 10**400 - 1) == "-4e+400"
        assert _brief(Fraction(10**400, 3)) == "3.33333e+399"
        assert _brief(SpinQuantumNumber(2 * 10**5000 + 1)) == "1e+5000"
        assert _brief(99999949999999999) == "9.99999e+16"
        assert _brief(99999990000000000) == "1e+17"  # rounds up to the next power of ten
        # read from the leading bits: turning this integer into text takes about 20 s
        huge = 3 * 10**1000000
        started = time.perf_counter()
        assert _brief(huge) == "3e+1000000" and _brief(Fraction(1, huge)) == "3.33333e-1000001"
        assert time.perf_counter() - started < 1.0

    def test_rejects_invalid(self):
        with pytest.raises(ValueError, match="twice_j must be non-negative, got -1e"):
            SpinQuantumNumber(-(10**5000))
        with pytest.raises(ValueError, match=r"^3\.33333e\+399 is not a half-integer spin$"):
            spin(Fraction(10**400, 3))
        with pytest.raises(ValueError):
            SpinQuantumNumber(-1)
        with pytest.raises(ValueError):
            spin(0.3)
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"^{value} is not a half-integer spin$"):
                spin(value)
        for text in ("x", "1/0"):
            with pytest.raises(ValueError, match=f"^cannot parse spin value '{text}'$"):
                SpinQuantumNumber.from_string(text)
        with pytest.raises(ValueError, match=r"^cannot parse spin value 'x{20}'\.\.\. \(3000 "):
            spin("x" * 3000)  # the text's start, in one short line
        with pytest.raises(TypeError, match="twice_j must be an integer, got 1.5"):
            SpinQuantumNumber(1.5)
        with pytest.raises(TypeError, match="cannot interpret .* as a spin quantum number"):
            spin(object())

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on the digits of integer text")
    @pytest.mark.parametrize("make", [
        lambda digits: "1e10000000", lambda digits: "1E+10000000", lambda digits: "1e-10000000",
        lambda digits: "2.5e1_000_000", lambda digits: f"1e{digits}",
        lambda digits: 10**digits, lambda digits: Fraction(10**digits),
        lambda digits: Fraction(2 * 10**digits + 1, 2),
    ], ids=["1e10000000", "1E+10000000", "1e-10000000", "2.5e1_000_000", "text", "int",
            "Fraction", "half-integer"])
    def test_spin_past_the_integer_text_limit_is_refused(self, make):
        # the library once built 10**10000000 for 8.5 s, and took "1e5000" and 10**5000
        # as spins whose str() raised ValueError
        digits = sys.get_int_max_str_digits()
        value = make(digits)
        started = time.perf_counter()
        with pytest.raises(ValueError, match=f"has more than {digits} digits, past Python's "
                                             "limit for integer text$"):
            spin(value)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on the digits of integer text")
    def test_spin_label_at_the_integer_text_limit_is_accepted(self):
        largest = 10**sys.get_int_max_str_digits() - 1  # the largest label, j or 2j of 2j/2
        assert spin(largest).twice_j == spin(str(largest)).twice_j == 2 * largest
        assert spin(Fraction(largest, 2)).twice_j == largest

    def test_ordering(self):
        assert spin("1/2") < spin(1) < spin("3/2")


class TestOperators:
    def test_jz_defining_representation(self):
        _, _, jz = angular_momentum_operators(HALF)
        assert np.allclose(jz, np.diag([0.5, -0.5]))

    @pytest.mark.parametrize("twice_j", range(1, 11))
    def test_commutation_relations(self, twice_j):
        jx, jy, jz = angular_momentum_operators(SpinQuantumNumber(twice_j))
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-13

    def test_casimir_spin_one(self):
        jx, jy, jz = angular_momentum_operators(spin(1))
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.allclose(np.linalg.eigvalsh(casimir), 2.0)

    def test_hermitian(self):
        for op in angular_momentum_operators(spin("5/2")):
            assert np.max(np.abs(op - op.conj().T)) < 1e-14


class TestRotationMatrix:
    def test_identity(self):
        for j in (HALF, spin(2)):
            u = rotation_matrix(j, Rotation(0.0, 0.0, 0.0))
            assert np.max(np.abs(u - np.eye(j.dimension))) < 1e-13

    def test_spin_flip(self):
        u = rotation_matrix(HALF, Rotation(0.0, math.pi, 0.0))
        assert abs(abs(u[1, 0]) - 1.0) < 1e-13

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(11)
        for twice_j in (1, 2, 3, 5, 8):
            jx, jy, jz = angular_momentum_operators(SpinQuantumNumber(twice_j))
            r = random_rotation(rng)
            oracle = (
                scipy.linalg.expm(-1j * r.euler_alpha * jz)
                @ scipy.linalg.expm(-1j * r.euler_beta * jy)
                @ scipy.linalg.expm(-1j * r.euler_gamma * jz)
            )
            assert np.max(np.abs(rotation_matrix(twice_j / 2, r) - oracle)) < 1e-10

    def test_unitary_and_homomorphic(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            twice_j = rng.integers(1, 11)
            j = SpinQuantumNumber(int(twice_j))
            r1, r2 = random_rotation(rng), random_rotation(rng)
            u1 = rotation_matrix(j, r1)
            assert np.max(np.abs(u1.conj().T @ u1 - np.eye(j.dimension))) < 1e-12
            product = u1 @ rotation_matrix(j, r2)
            composed = rotation_matrix(j, compose(r1, r2))
            # global sign is unphysical at half-integer j
            err = min(
                np.max(np.abs(product - composed)), np.max(np.abs(product + composed))
            )
            assert err < 1e-10

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = random_rotation(rng)
            u = rotation_matrix(spin("3/2"), compose(r, inverse(r)))
            err = min(np.max(np.abs(u - np.eye(4))), np.max(np.abs(u + np.eye(4))))
            assert err < 1e-12
            # the inverse angles give the inverse matrix exactly, with no sign left over
            u = rotation_matrix(spin("3/2"), inverse(r)) @ rotation_matrix(spin("3/2"), r)
            assert np.max(np.abs(u - np.eye(4))) < 1e-12


class TestDirection:
    def test_unit_vector_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = random_direction(rng)
            assert abs(np.linalg.norm(n.unit_vector) - 1.0) < 1e-14

    def test_from_vector_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = random_direction(rng)
            again = direction_from_vector(n.unit_vector)
            assert np.max(np.abs(again.unit_vector - n.unit_vector)) < 1e-12

    def test_theta_out_of_range(self):
        with pytest.raises(ValueError):
            Direction(4.0, 0.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_azimuth_raises(self, phi):
        with pytest.raises(ValueError, match="phi must be finite"):
            Direction(1.0, phi)

    def test_so3_matches_direction_rotation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            r = random_rotation(rng)
            q = so3_matrix(r)
            assert np.max(np.abs(q @ q.T - np.eye(3))) < 1e-13
            # rotating +z by (phi, theta, 0) lands on the (theta, phi) direction
            n = random_direction(rng)
            mapped = so3_matrix(Rotation(n.phi, n.theta, 0.0)) @ np.array([0.0, 0.0, 1.0])
            assert np.max(np.abs(mapped - n.unit_vector)) < 1e-13


class TestCoherentState:
    def test_plus_z_is_highest_weight(self):
        state = coherent_state(spin(2), Direction(0.0, 0.0))
        expected = np.zeros(5)
        expected[0] = 1.0
        assert np.max(np.abs(state.amplitudes - expected)) < 1e-13

    def test_overlap_law_spin_half(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n1, n2 = random_direction(rng), random_direction(rng)
            alpha = angle_between(n1, n2)
            psi1, psi2 = coherent_state(HALF, n1).amplitudes, coherent_state(HALF, n2).amplitudes
            overlap = abs(np.vdot(psi1, psi2)) ** 2
            assert abs(overlap - math.cos(alpha / 2) ** 2) < 1e-12

    @pytest.mark.parametrize("twice_j", range(1, 11))
    def test_overlap_law_general(self, twice_j):
        rng = np.random.default_rng(twice_j)
        j = SpinQuantumNumber(twice_j)
        for _ in range(10):
            n1, n2 = random_direction(rng), random_direction(rng)
            alpha = angle_between(n1, n2)
            psi1, psi2 = coherent_state(j, n1).amplitudes, coherent_state(j, n2).amplitudes
            overlap = abs(np.vdot(psi1, psi2)) ** 2
            assert abs(overlap - math.cos(alpha / 2) ** (2 * twice_j)) < 1e-11

    def test_eigen_equation(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            twice_j = int(rng.integers(1, 11))
            j = SpinQuantumNumber(twice_j)
            n = random_direction(rng)
            jx, jy, jz = angular_momentum_operators(j)
            jn = n.unit_vector[0] * jx + n.unit_vector[1] * jy + n.unit_vector[2] * jz
            psi = coherent_state(j, n).amplitudes
            residual = np.linalg.norm(jn @ psi - (twice_j / 2.0) * psi)
            assert residual < 1e-11

    def test_matches_rotation_matrix_column(self):
        rng = np.random.default_rng(11)
        for twice_j in range(41):
            j = SpinQuantumNumber(twice_j)
            for _ in range(5):
                n = random_direction(rng)
                column = rotation_matrix(j, Rotation(n.phi, n.theta, 0.0))[:, 0]
                assert np.max(np.abs(coherent_state(j, n).amplitudes - column)) < 1e-13

    @pytest.mark.parametrize("twice_j", [1, 2, 7, 40, 400])
    def test_exact_at_the_poles(self, twice_j):
        j = SpinQuantumNumber(twice_j)
        up = coherent_state(j, Direction(0.0, 0.0)).amplitudes
        down = coherent_state(j, Direction(math.pi, 0.0)).amplitudes
        assert np.array_equal(up, np.eye(twice_j + 1)[0])
        assert np.array_equal(down, np.eye(twice_j + 1)[-1])
        # a nonzero azimuth only sets the phase of the one nonzero amplitude
        tilted = coherent_state(j, Direction(math.pi, 1.3)).amplitudes
        assert np.array_equal(tilted[:-1], np.zeros(twice_j))
        assert abs(abs(tilted[-1]) - 1.0) < 1e-15

    @pytest.mark.parametrize("twice_j", [101, 400, 10_000])
    def test_unit_norm_at_large_spin(self, twice_j):
        rng = np.random.default_rng(twice_j)
        for _ in range(5):
            psi = coherent_state(SpinQuantumNumber(twice_j), random_direction(rng)).amplitudes
            assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

    def test_state_vector_requires_normalization(self):
        with pytest.raises(ValueError):
            StateVector(HALF, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amplitudes", [[1.0], [1.0, 0.0, 0.0], [[1.0, 0.0]]])
    def test_state_vector_of_another_length_refused(self, amplitudes):
        with pytest.raises(ValueError, match="expected 2 amplitudes for spin 1/2"):
            StateVector(HALF, np.array(amplitudes))

    @pytest.mark.parametrize("amplitudes", [[math.nan, 0.0], [1.0, math.nan], [math.inf, 0.0]])
    def test_state_vector_rejects_nan_and_inf(self, amplitudes):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(HALF, np.array(amplitudes))
