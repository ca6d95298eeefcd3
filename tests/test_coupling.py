import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from relangle import (
    CapacityError,
    RotInvariantPovm,
    SpinQuantumNumber,
    angular_momentum_operators,
    clebsch_gordan,
    decomposition,
    invariant_average,
    product_coherent_pair,
    projector,
    rotation_matrix,
    spin,
    total_j_values,
)
from relangle.coupling import _decomposition, _total_js

from oracles import random_direction, random_rotation

HALF = spin("1/2")


def total_j_squared(j1, j2):
    ops1 = angular_momentum_operators(j1)
    ops2 = angular_momentum_operators(j2)
    eye1, eye2 = np.eye(j1.dimension), np.eye(j2.dimension)
    total = [np.kron(a, eye2) + np.kron(eye1, b) for a, b in zip(ops1, ops2)]
    return sum(op @ op for op in total)


def exact_clebsch_gordan(tj1, tj2, tm1, tm2, tJ, tM):
    """Racah's sum for <j1 m1; j2 m2 | J M> in exact rationals, rounded once.

    Arguments are doubled quantum numbers.  The coefficient is sqrt(norm) * sum
    with both factors rational, so its square is exact before the rounding.
    """
    if tM != tm1 + tm2:
        return 0.0

    def f(twice_n):
        return math.factorial(twice_n // 2)

    norm = Fraction(
        (tJ + 1) * f(tJ + tj1 - tj2) * f(tJ - tj1 + tj2) * f(tj1 + tj2 - tJ) * f(tJ + tM)
        * f(tJ - tM) * f(tj1 - tm1) * f(tj1 + tm1) * f(tj2 - tm2) * f(tj2 + tm2),
        f(tj1 + tj2 + tJ + 2),
    )
    total = Fraction(0)
    for k in range((tj1 + tj2 - tJ) // 2 + 1):
        args = (2 * k, tj1 + tj2 - tJ - 2 * k, tj1 - tm1 - 2 * k, tj2 + tm2 - 2 * k,
                tJ - tj2 + tm1 + 2 * k, tJ - tj1 - tm2 + 2 * k)
        if min(args) >= 0:
            total += Fraction((-1) ** k, math.prod(f(a) for a in args))
    return math.copysign(math.sqrt(norm * total * total), total)


def casimir(j):
    """j(j + 1), the eigenvalue of J^2 on spin j."""
    half = j.twice_j / 2
    return half * (half + 1)


def apply_total_j_squared(j1, j2, vectors):
    """J^2 = j1(j1+1) + j2(j2+1) + 2 J1.J2 applied to the columns of vectors on
    the product space, through the single-spin operators, without forming a
    dim^2 matrix."""
    psi = vectors.reshape(j1.dimension, j2.dimension, -1)
    result = (casimir(j1) + casimir(j2)) * psi
    for a, b in zip(angular_momentum_operators(j1), angular_momentum_operators(j2)):
        result = result + 2 * np.einsum("ij,kl,jlc->ikc", a, b, psi, optimize=True)
    return result.reshape(vectors.shape)


def signed(dec):
    """A copy of dec whose sectors carry their Condon-Shortley column signs."""
    return dataclasses.replace(dec, sectors=dec.sectors * dec._signs[:, None, :])


def cg_table(j1, j2, J, twice_M):
    """Full (m1, m2) table of coefficients for one (J, M)."""
    table = np.zeros((j1.dimension, j2.dimension))
    for i1, tm1 in enumerate(j1.twice_m_values()):
        tm2 = twice_M - tm1
        if j2.is_valid_twice_m(tm2):
            i2 = (j2.twice_j - tm2) // 2
            table[i1, i2] = clebsch_gordan(j1, j2, tm1, tm2, J, twice_M)
    return table


class TestTotalJValues:
    def test_two_halves(self):
        assert total_j_values(HALF, HALF) == [spin(0), spin(1)]

    def test_half_with_j(self):
        for twice_j in (1, 2, 5, 9):
            j = SpinQuantumNumber(twice_j)
            assert total_j_values(HALF, j) == [
                SpinQuantumNumber(twice_j - 1),
                SpinQuantumNumber(twice_j + 1),
            ]

    def test_spin_zero(self):
        assert total_j_values(spin(0), spin(3)) == [spin(3)]

    def test_dimension_count(self):
        j1, j2 = spin("3/2"), spin(2)
        dims = sum(J.dimension for J in total_j_values(j1, j2))
        assert dims == j1.dimension * j2.dimension

    def test_each_call_returns_a_new_list(self):
        first = total_j_values(spin(2), spin(5))
        first.clear()
        assert total_j_values(spin(2), spin(5)) == [SpinQuantumNumber(tj) for tj in range(6, 16, 2)]

    def test_internal_callers_share_one_tuple_per_pair(self):
        _total_js.cache_clear()
        spins = _total_js(4, 10)
        assert spins == tuple(total_j_values(spin(2), spin(5)))
        assert decomposition(spin(2), spin(5)).j_values is spins
        assert RotInvariantPovm.projective(spin(2), spin(5)).j_values is spins
        assert _total_js.cache_info().misses == 1


class TestClebschGordan:
    def test_singlet_value_against_diagonalization_oracle(self):
        # oracle: J^2 eigenvector of the 4-dim product space with eigenvalue 0,
        # sign fixed so the (m1=+1/2, m2=-1/2) component is positive
        j2 = total_j_squared(HALF, HALF)
        eigenvalues, vectors = np.linalg.eigh(j2)
        singlet = vectors[:, np.argmin(np.abs(eigenvalues))]
        if singlet[1] < 0:
            singlet = -singlet
        value = clebsch_gordan(HALF, HALF, 1, -1, spin(0), 0)
        assert abs(value - singlet[1]) < 1e-14
        assert abs(value - 1.0 / math.sqrt(2.0)) < 1e-14
        assert abs(clebsch_gordan(HALF, HALF, -1, 1, spin(0), 0) + 1.0 / math.sqrt(2.0)) < 1e-14

    def test_selection_rule(self):
        assert clebsch_gordan(spin(1), spin(1), 2, 2, spin(1), 0) == 0.0

    def test_outside_triangle_is_zero(self):
        assert clebsch_gordan(HALF, HALF, 1, 1, spin(3), 2) == 0.0

    def test_parity_rule_at_zero_m_is_exact(self):
        # <j1 0; j2 0 | J 0> vanishes when j1 + j2 + J is odd: exact +0.0, not
        # rounding noise (the eigenvector entry of <1 0; 1 0 | 1 0> is -5e-17)
        for twice_j1 in range(0, 13, 2):
            for twice_j2 in range(0, 13, 2):
                j1, j2 = SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2)
                for J in total_j_values(j1, j2):
                    value = clebsch_gordan(j1, j2, 0, 0, J, 0)
                    if (twice_j1 + twice_j2 + J.twice_j) // 2 % 2 == 1:
                        assert value == 0.0 and math.copysign(1.0, value) == 1.0
                    else:
                        exact = exact_clebsch_gordan(twice_j1, twice_j2, 0, 0, J.twice_j, 0)
                        assert exact != 0.0 and abs(value - exact) < 1e-14

    def test_highest_weight_is_one(self):
        for j1, j2 in ((HALF, spin(2)), (spin(1), spin("3/2")), (spin(3), spin(3))):
            top = SpinQuantumNumber(j1.twice_j + j2.twice_j)
            value = clebsch_gordan(j1, j2, j1.twice_j, j2.twice_j, top, top.twice_j)
            assert abs(value - 1.0) < 1e-13

    def test_invalid_m_ladder_raises(self):
        with pytest.raises(ValueError):
            clebsch_gordan(HALF, HALF, 2, -1, spin(0), 0)
        with pytest.raises(ValueError):
            clebsch_gordan(spin(1), spin(1), 1, 0, spin(1), 1)

    def test_matches_exact_racah_sum(self):
        # every coefficient of every pair up to (3, 3), both orders and all
        # integer/half-integer mixes, against the exact rational oracle
        for twice_j1 in range(7):
            for twice_j2 in range(7):
                j1, j2 = SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2)
                for J in total_j_values(j1, j2):
                    for tm1 in j1.twice_m_values():
                        for tm2 in j2.twice_m_values():
                            if abs(tm1 + tm2) > J.twice_j:
                                continue
                            exact = exact_clebsch_gordan(twice_j1, twice_j2, tm1, tm2, J.twice_j,
                                                         tm1 + tm2)
                            value = clebsch_gordan(j1, j2, tm1, tm2, J, tm1 + tm2)
                            assert abs(value - exact) < 1e-14

    def test_capacity_error_past_the_dense_cap(self):
        with pytest.raises(CapacityError):
            clebsch_gordan(spin(32), spin(32), 0, 0, spin(0), 0)

    def test_orthogonality(self):
        # full (m1, m2) tables for different (J, M) are orthonormal under the
        # Frobenius inner product
        for twice_j1 in range(1, 7):
            for twice_j2 in range(twice_j1, 7):
                j1, j2 = SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2)
                tables = [
                    cg_table(j1, j2, J, tM)
                    for J in total_j_values(j1, j2)
                    for tM in J.twice_m_values()
                ]
                gram = np.array([[float(np.sum(a * b)) for b in tables] for a in tables])
                assert np.max(np.abs(gram - np.eye(len(tables)))) < 1e-12


class TestDecomposition:
    def test_singlet_column(self):
        block = decomposition(HALF, HALF).block(spin(0))
        expected = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert np.max(np.abs(block.isometry[:, 0] - expected)) < 1e-14

    def test_block_dimensions(self):
        dec = decomposition(HALF, spin(1))
        sizes = [dec.block(J).isometry.shape[1] for J in dec.j_values]
        assert sizes == [2, 4]
        assert sum(sizes) == 6

    def test_matches_total_j_eigensolver(self):
        rng = np.random.default_rng(0)
        pairs = [(1, 1), (1, 2), (2, 2), (3, 4), (4, 5)]
        for twice_j1, twice_j2 in pairs:
            j1, j2 = SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2)
            dec = decomposition(j1, j2)
            j_squared = total_j_squared(j1, j2)
            for block in map(dec.block, dec.j_values):
                jj = casimir(block.J)
                residual = j_squared @ block.isometry - jj * block.isometry
                assert np.max(np.abs(residual)) < 1e-10

    def test_isometry_intertwines_rotations(self):
        # V_J^T (R_j1 x R_j2) V_J = R_J fixes the relative sign of every column,
        # which projectors and block weights do not see
        rng = np.random.default_rng(4)
        pairs = ((HALF, HALF), (spin(1), spin("3/2")), (spin("3/2"), spin(1)), (spin(2), HALF))
        for j1, j2 in pairs:
            dec = decomposition(j1, j2)
            r = random_rotation(rng)
            u = np.kron(rotation_matrix(j1, r), rotation_matrix(j2, r))
            for J in dec.j_values:
                v = dec.block(J).isometry
                assert np.max(np.abs(v.T @ u @ v - rotation_matrix(J, r))) < 1e-12

    def test_orthonormal_columns(self):
        dec = decomposition(spin("3/2"), spin(2))
        stacked = np.hstack([dec.block(J).isometry for J in dec.j_values])
        gram = stacked.T @ stacked
        assert np.max(np.abs(gram - np.eye(stacked.shape[1]))) < 1e-12

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            decomposition(spin(40), spin(40))

    def test_cached_entry_is_small_at_the_cap(self):
        # the cache holds sectors and, after a signed read, their column
        # signs, not dense isometries (134 MB at this pair)
        dec = decomposition(spin("63/2"), spin("63/2"))
        dec.block(spin(0))
        assert "_signs" in vars(dec)
        arrays = [value for value in vars(dec).values() if isinstance(value, np.ndarray)]
        assert arrays
        assert sum(array.nbytes for array in arrays) < 4e6


class TestColumnSigns:
    def test_weights_never_build_the_signs(self):
        _decomposition.cache_clear()
        j1, j2 = spin(2), spin("5/2")
        dec = decomposition(j1, j2)
        rng = np.random.default_rng(9)
        state = product_coherent_pair(j1, j2, random_direction(rng), random_direction(rng))
        invariant_average(state)
        assert decomposition(j1, j2) is dec
        assert "_signs" not in vars(dec)
        dec.block_probabilities(state.matrix)
        assert "_signs" not in vars(dec)
        dec.block(spin("1/2"))
        assert "_signs" in vars(dec)

    @pytest.mark.parametrize("twice_j1, twice_j2", [(0, 7), (1, 1), (4, 3), (3, 8), (12, 12)])
    def test_signs_are_one_per_sector_and_column(self, twice_j1, twice_j2):
        dec = decomposition(SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2))
        signs = dec._signs
        assert signs.shape == dec.rows.shape == dec.sectors.shape[:2]
        assert np.all(np.abs(signs) == 1.0)
        assert dec._signs is signs


class TestBlockProbabilities:
    def test_operator_shape_is_checked(self):
        dec = decomposition(spin(1), spin(1))
        with pytest.raises(ValueError, match="expected \\(9, 9\\)"):
            dec.block_probabilities(np.eye(16) / 16)
        with pytest.raises(ValueError, match="expected \\(9, 9\\)"):
            dec.block_probabilities(np.ones((9, 5)))
        with pytest.raises(ValueError):
            dec.block_probabilities(np.ones(81) / 81)

    @pytest.mark.parametrize(
        "j1_text, j2_text",
        [("1/2", "1/2"), ("1", "3/2"), ("3/2", "1"), ("7/2", "1"), ("1", "7/2"),
         ("5/2", "1/2"), ("2", "2"), ("0", "3/2")],
    )
    def test_mixed_state_matches_dense_projectors(self, j1_text, j2_text):
        # oracle: projectors onto the eigenspaces of the dense total J^2
        j1, j2 = spin(j1_text), spin(j2_text)
        eigenvalues, vectors = np.linalg.eigh(total_j_squared(j1, j2))
        rng = np.random.default_rng(j1.twice_j * 16 + j2.twice_j)
        dim = j1.dimension * j2.dimension
        for _ in range(3):
            # full-rank mixed state with complex entries
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
            expected = []
            for J in total_j_values(j1, j2):
                u = vectors[:, np.abs(eigenvalues - casimir(J)) < 1e-6]
                assert u.shape[1] == J.dimension
                expected.append(float(np.trace(u.conj().T @ rho @ u).real))
            probabilities = decomposition(j1, j2).block_probabilities(rho)
            assert np.max(np.abs(probabilities - expected)) <= 1e-13


def random_unit_stack(rng, rank, dim):
    """rank complex vectors (rows) whose operator sum_r |v_r><v_r| has trace 1."""
    vectors = rng.normal(size=(rank, dim)) + 1j * rng.normal(size=(rank, dim))
    return vectors / np.linalg.norm(vectors)


class TestRankOneBlockProbabilities:
    @pytest.mark.parametrize("twice_j1", range(13))
    def test_matches_dense_operator(self, twice_j1):
        # oracle: block_probabilities of the dense operator sum_r |v_r><v_r|
        rng = np.random.default_rng(twice_j1)
        for twice_j2 in range(13):
            dec = decomposition(SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2))
            dim = (twice_j1 + 1) * (twice_j2 + 1)
            for rank in (1, 3):
                vectors = random_unit_stack(rng, rank, dim)
                expected = dec.block_probabilities(vectors.T @ vectors.conj())
                got = dec._rank_one_block_probabilities(vectors)
                assert np.max(np.abs(got - expected)) <= 1e-13

    @pytest.mark.parametrize("twice_j1", range(13))
    def test_column_signs_do_not_change_the_bits(self, twice_j1):
        # the weights from the unsigned sectors equal those from the signed ones
        rng = np.random.default_rng(100 + twice_j1)
        for twice_j2 in range(13):
            dec = decomposition(SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2))
            reference = signed(dec)
            dim = (twice_j1 + 1) * (twice_j2 + 1)
            for rank in (1, 3):
                vectors = random_unit_stack(rng, rank, dim)
                operator = vectors.T @ vectors.conj()
                assert np.array_equal(dec.block_probabilities(operator),
                                      reference.block_probabilities(operator))
                assert np.array_equal(dec._rank_one_block_probabilities(vectors),
                                      reference._rank_one_block_probabilities(vectors))


@pytest.mark.parametrize("j1_text, j2_text", [("63/2", "63/2"), ("255/2", "15/2")])
class TestDenseCap:
    """Properties of the sector table at product dimension 4096, the dense cap."""

    def test_sectors_orthonormal(self, j1_text, j2_text):
        dec = decomposition(spin(j1_text), spin(j2_text))
        count, n, _ = dec.sectors.shape
        for i, sector in enumerate(dec.sectors):
            # column k is padded (zero) in the sectors above M = J
            expected = np.diag((np.arange(n) >= n - 1 - i).astype(float))
            assert np.max(np.abs(sector.T @ sector - expected)) <= 1e-13

    def test_sampled_entries_match_exact_racah_sum(self, j1_text, j2_text):
        j1, j2 = spin(j1_text), spin(j2_text)
        rng = np.random.default_rng(3)
        js = total_j_values(j1, j2)
        checked = 0
        while checked < 150:
            tm1 = j1.twice_j - 2 * int(rng.integers(j1.dimension))
            tm2 = j2.twice_j - 2 * int(rng.integers(j2.dimension))
            J = js[int(rng.integers(len(js)))]
            if abs(tm1 + tm2) > J.twice_j:
                continue
            exact = exact_clebsch_gordan(j1.twice_j, j2.twice_j, tm1, tm2, J.twice_j, tm1 + tm2)
            assert abs(clebsch_gordan(j1, j2, tm1, tm2, J, tm1 + tm2) - exact) <= 1e-13
            checked += 1

    def test_j_squared_residual_per_sector(self, j1_text, j2_text):
        # J^2 = j1(j1+1) + j2(j2+1) + 2 J1.J2 restricted to each sector's rows
        j1, j2 = spin(j1_text), spin(j2_text)
        dec = decomposition(j1, j2)
        count, n, _ = dec.sectors.shape
        p1, p2 = np.divmod(dec.rows, j2.dimension)
        j_squared = np.zeros((count, n, n), dtype=complex)
        for a, b in zip(angular_momentum_operators(j1), angular_momentum_operators(j2)):
            j_squared += 2 * a[p1[:, :, None], p1[:, None, :]] * b[p2[:, :, None], p2[:, None, :]]
        j_squared += (casimir(j1) + casimir(j2)) * np.eye(n)
        jj = np.array([casimir(J) for J in dec.j_values])
        residual = j_squared @ dec.sectors - dec.sectors * jj
        unpadded = np.arange(n) <= np.arange(count)[:, None]
        # about 45 ulps of the largest eigenvalue
        assert np.max(np.abs(residual[unpadded])) <= 1e-14 * jj[-1]

    def test_lowest_and_highest_projectors(self, j1_text, j2_text):
        # P = V V^T, so orthonormal columns make P idempotent and V_low^T V_high
        # = 0 makes P_low P_high = 0; J^2 runs through the mirrored sectors too
        j1, j2 = spin(j1_text), spin(j2_text)
        dec = decomposition(j1, j2)
        lowest, highest = dec.j_values[0], dec.j_values[-1]
        low, high = dec.block(lowest).isometry, dec.block(highest).isometry
        for J, v in ((lowest, low), (highest, high)):
            assert np.max(np.abs(v.T @ v - np.eye(J.dimension))) <= 1e-13
            residual = apply_total_j_squared(j1, j2, v) - casimir(J) * v
            assert np.max(np.abs(residual)) <= 1e-14 * casimir(highest)
        assert np.max(np.abs(low.T @ high)) <= 1e-13

    @pytest.mark.parametrize("rank", [1, 3])
    def test_rank_one_block_probabilities(self, j1_text, j2_text, rank):
        # block_probabilities reads only the real part of its operator, so the
        # dense oracle is built real, one dim^2 array: Re(v v^dagger) = Re v Re v^T
        # + Im v Im v^T
        dec = decomposition(spin(j1_text), spin(j2_text))
        vectors = random_unit_stack(np.random.default_rng(rank), rank, 4096)
        parts = np.concatenate((vectors.real, vectors.imag))
        expected = dec.block_probabilities(parts.T @ parts)
        assert np.max(np.abs(dec._rank_one_block_probabilities(vectors) - expected)) <= 1e-13

    def test_column_signs_do_not_change_the_bits(self, j1_text, j2_text):
        dec = decomposition(spin(j1_text), spin(j2_text))
        reference = signed(dec)
        vectors = random_unit_stack(np.random.default_rng(7), 3, 4096)
        assert np.array_equal(dec._rank_one_block_probabilities(vectors),
                              reference._rank_one_block_probabilities(vectors))
        parts = np.concatenate((vectors.real, vectors.imag))
        operator = parts.T @ parts
        assert np.array_equal(dec.block_probabilities(operator),
                              reference.block_probabilities(operator))


class TestProjector:
    def test_singlet_projector(self):
        p = projector(HALF, HALF, spin(0)).matrix
        assert abs(np.trace(p) - 1.0) < 1e-12
        assert np.linalg.matrix_rank(p) == 1

    def test_completeness(self):
        j1, j2 = spin(1), spin("3/2")
        total = sum(projector(j1, j2, J).matrix for J in total_j_values(j1, j2))
        assert np.max(np.abs(total - np.eye(j1.dimension * j2.dimension))) < 1e-12

    def test_orthogonality(self):
        j1, j2 = HALF, spin(2)
        js = total_j_values(j1, j2)
        p_low = projector(j1, j2, js[0]).matrix
        p_high = projector(j1, j2, js[1]).matrix
        assert np.max(np.abs(p_low @ p_high)) < 1e-12

    def test_properties_random_pairs(self):
        rng = np.random.default_rng(1)
        for _ in range(8):
            twice_j1 = int(rng.integers(0, 8))
            twice_j2 = int(rng.integers(0, 8))
            j1, j2 = SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2)
            if j1.dimension * j2.dimension > 400:
                continue
            for J in total_j_values(j1, j2):
                p = projector(j1, j2, J).matrix
                assert np.max(np.abs(p @ p - p)) < 1e-12
                assert np.max(np.abs(p - p.T.conj())) < 1e-12
                assert abs(np.trace(p).real - J.dimension) < 1e-10

    def test_rotational_covariance(self):
        rng = np.random.default_rng(2)
        j1, j2 = spin(1), spin("3/2")
        for _ in range(20):
            r = random_rotation(rng)
            u = np.kron(rotation_matrix(j1, r), rotation_matrix(j2, r))
            for J in total_j_values(j1, j2):
                p = projector(j1, j2, J).matrix
                assert np.max(np.abs(u @ p @ u.conj().T - p)) < 1e-10

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            projector(HALF, HALF, spin(2))

    @pytest.mark.parametrize("J", [spin(2), HALF])
    def test_block_of_a_foreign_j_raises(self, J):
        with pytest.raises(ValueError, match=rf"J={J} is not a total spin of the pair \(1/2, 1/2\)"):
            decomposition(HALF, HALF).block(J)
