import math

import numpy as np
import pytest

from relangle import (
    ConsistencyError,
    CouplingDecomposition,
    Direction,
    Rotation,
    angle_between,
    coherent_state,
    collective_rotate,
    invariant_average,
    outcome_probabilities,
    partial_transpose,
    product_coherent_pair,
    rotation_matrix,
    spin,
    total_j_values,
    werner_state,
)
from relangle.states import DensityMatrix, InvariantState

from oracles import (
    compose,
    direction_from_vector,
    inverse,
    random_direction,
    random_rotation,
    so3_matrix,
)

HALF = spin("1/2")


def directions_at_angle(rng, alpha):
    """A random pair of directions separated by exactly alpha."""
    n1 = random_direction(rng)
    helper = random_direction(rng).unit_vector
    perp = np.cross(n1.unit_vector, helper)
    perp /= np.linalg.norm(perp)
    v2 = math.cos(alpha) * n1.unit_vector + math.sin(alpha) * perp
    return n1, direction_from_vector(v2)


class TestProductCoherentPair:
    def test_aligned_with_z(self):
        rho = product_coherent_pair(HALF, spin(1), Direction(0, 0), Direction(0, 0))
        expected = np.zeros((6, 6))
        expected[0, 0] = 1.0
        assert np.max(np.abs(rho.matrix - expected)) < 1e-13

    def test_trace_and_purity(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            rho = product_coherent_pair(
                spin(1), spin("3/2"), random_direction(rng), random_direction(rng)
            )
            assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
            assert abs(np.trace(rho.matrix @ rho.matrix).real - 1.0) < 1e-12

    @pytest.mark.parametrize("j1_text, j2_text", [("1/2", "1/2"), ("1", "3/2"), ("5/2", "4")])
    def test_matrix_is_the_outer_product(self, j1_text, j2_text):
        # the pair holds its vector; its matrix, built on first access, has the
        # bits of |psi><psi| and is a valid dense state in its own right
        rng = np.random.default_rng(12)
        j1, j2 = spin(j1_text), spin(j2_text)
        n1, n2 = random_direction(rng), random_direction(rng)
        rho = product_coherent_pair(j1, j2, n1, n2)
        psi = np.kron(coherent_state(j1, n1).amplitudes, coherent_state(j2, n2).amplitudes)
        assert np.array_equal(rho.matrix, np.outer(psi, psi.conj()))
        assert rho.matrix is rho.matrix
        assert not rho.matrix.flags.writeable
        assert np.array_equal(DensityMatrix(rho.matrix, rho.dims).matrix, rho.matrix)

    def test_block_weights_match_its_dense_matrix(self):
        rng = np.random.default_rng(13)
        for j1, j2 in ((HALF, HALF), (spin(1), spin("7/2")), (spin(3), spin(2))):
            rho = product_coherent_pair(j1, j2, random_direction(rng), random_direction(rng))
            pure = invariant_average(rho).weight_array()
            dense = invariant_average(DensityMatrix(rho.matrix, rho.dims)).weight_array()
            assert np.max(np.abs(pure - dense)) <= 1e-13

    def test_self_overlap_profile_is_orientation_covariant(self):
        # Tr(rho R rho R^dag) is unchanged when the pair and the rotation axis
        # are rigidly re-oriented together.
        rng = np.random.default_rng(1)
        for _ in range(20):
            n1, n2 = random_direction(rng), random_direction(rng)
            r, q = random_rotation(rng), random_rotation(rng)
            rho = product_coherent_pair(HALF, spin(1), n1, n2)
            u = np.kron(rotation_matrix(HALF, r), rotation_matrix(spin(1), r))
            value = np.trace(rho.matrix @ u @ rho.matrix @ u.conj().T).real
            rotated = collective_rotate(rho, q)
            r_conjugated = compose(compose(q, r), inverse(q))
            u2 = np.kron(
                rotation_matrix(HALF, r_conjugated), rotation_matrix(spin(1), r_conjugated)
            )
            value2 = np.trace(rotated.matrix @ u2 @ rotated.matrix @ u2.conj().T).real
            assert abs(value - value2) < 1e-10


class TestCollectiveRotate:
    def test_identity(self):
        rng = np.random.default_rng(2)
        rho = product_coherent_pair(HALF, HALF, random_direction(rng), random_direction(rng))
        same = collective_rotate(rho, Rotation(0.0, 0.0, 0.0))
        assert np.max(np.abs(same.matrix - rho.matrix)) < 1e-13

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        rho = werner_state(0.7)
        rotated = collective_rotate(rho, random_rotation(rng))
        before = np.linalg.eigvalsh(rho.matrix)
        after = np.linalg.eigvalsh(rotated.matrix)
        assert np.max(np.abs(before - after)) < 1e-12

    def test_equals_repreparing_with_rotated_directions(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n1, n2 = random_direction(rng), random_direction(rng)
            r = random_rotation(rng)
            q = so3_matrix(r)
            rotated = collective_rotate(product_coherent_pair(spin(1), HALF, n1, n2), r)
            reprepared = product_coherent_pair(
                spin(1),
                HALF,
                direction_from_vector(q @ n1.unit_vector),
                direction_from_vector(q @ n2.unit_vector),
            )
            assert np.max(np.abs(rotated.matrix - reprepared.matrix)) < 1e-10


class TestInvariantAverage:
    def test_maximally_mixed(self):
        j1, j2 = spin(1), spin("3/2")
        dim = j1.dimension * j2.dimension
        rho = DensityMatrix(np.eye(dim) / dim, (j1.dimension, j2.dimension))
        state = invariant_average(rho)
        for J in total_j_values(j1, j2):
            assert abs(state.weights[J] - J.dimension / dim) < 1e-13

    def test_parallel_qubits_fill_triplet(self):
        rho = product_coherent_pair(HALF, HALF, Direction(0, 0), Direction(0, 0))
        state = invariant_average(rho)
        assert abs(state.weights[spin(0)]) < 1e-13
        assert abs(state.weights[spin(1)] - 1.0) < 1e-13

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        rho = product_coherent_pair(HALF, spin(2), *directions_at_angle(rng, 1.1))
        once = invariant_average(rho)
        twice = invariant_average(once.reconstruct())
        for J in once.weights:
            assert abs(once.weights[J] - twice.weights[J]) < 1e-13

    def test_insensitive_to_collective_rotation(self):
        rng = np.random.default_rng(6)
        rho = product_coherent_pair(HALF, spin(1), *directions_at_angle(rng, 0.8))
        base = invariant_average(rho)
        for _ in range(5):
            rotated = invariant_average(collective_rotate(rho, random_rotation(rng)))
            for J in base.weights:
                assert abs(base.weights[J] - rotated.weights[J]) < 1e-11

    def test_weights_depend_only_on_relative_angle(self):
        rng = np.random.default_rng(7)
        for alpha in (0.3, 1.2, 2.9):
            pair1 = product_coherent_pair(spin(1), spin(1), *directions_at_angle(rng, alpha))
            pair2 = product_coherent_pair(spin(1), spin(1), *directions_at_angle(rng, alpha))
            w1 = invariant_average(pair1)
            w2 = invariant_average(pair2)
            for J in w1.weights:
                assert abs(w1.weights[J] - w2.weights[J]) < 1e-11

    @pytest.mark.parametrize("j1_text, j2_text", [("63/2", "63/2"), ("1/2", "2047/2"),
                                                  ("255/2", "15/2")])
    def test_matches_the_closed_form_at_the_dense_cap(self, j1_text, j2_text):
        # the sector path against the likelihood kernel at product dimension 4096
        j1, j2 = spin(j1_text), spin(j2_text)
        rng = np.random.default_rng(j1.twice_j + j2.twice_j)
        for _ in range(3):
            n1, n2 = random_direction(rng), random_direction(rng)
            weights = invariant_average(product_coherent_pair(j1, j2, n1, n2)).weight_array()
            direct = outcome_probabilities(j1, j2, angle_between(n1, n2))
            assert np.max(np.abs(weights - [direct[J] for J in sorted(direct)])) <= 1e-13

    def test_matches_haar_sampling_oracle(self):
        # Monte Carlo version of the group average, at reduced trial count;
        # the full-scale run lives in the acceptance suite.
        from relangle import haar_rotation

        rng = np.random.default_rng(8)
        rho = product_coherent_pair(HALF, HALF, *directions_at_angle(rng, 2.0))
        target = invariant_average(rho).reconstruct().matrix
        n = 5000
        acc = np.zeros((4, 4), dtype=complex)
        acc_sq = np.zeros((4, 4))
        for _ in range(n):
            r = haar_rotation(rng)
            u = np.kron(rotation_matrix(HALF, r), rotation_matrix(HALF, r))
            sample = u @ rho.matrix @ u.conj().T
            acc += sample
            acc_sq += np.abs(sample) ** 2
        mean = acc / n
        variance = acc_sq / n - np.abs(mean) ** 2
        stderr = np.sqrt(np.clip(variance, 0.0, None) / n)
        assert np.all(np.abs(mean - target) <= 5.0 * stderr + 1e-12)


class TestWernerState:
    def test_pure_singlet(self):
        rho = werner_state(1.0)
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert np.max(np.abs(rho.matrix - np.outer(singlet, singlet))) < 1e-13

    def test_maximally_mixed_at_quarter(self):
        rho = werner_state(0.25)
        assert np.max(np.abs(rho.matrix - np.eye(4) / 4.0)) < 1e-13

    def test_ppt_boundary_at_half(self):
        result = partial_transpose(werner_state(0.5).matrix, (2, 2))
        assert abs(result.min_eigenvalue) < 1e-12

    def test_rotationally_invariant(self):
        rng = np.random.default_rng(9)
        rho = werner_state(0.8)
        rotated = collective_rotate(rho, random_rotation(rng))
        assert np.max(np.abs(rotated.matrix - rho.matrix)) < 1e-12

    def test_domain_error(self):
        with pytest.raises(ValueError):
            werner_state(1.2)
        with pytest.raises(ValueError):
            werner_state(-0.1)


class TestValidation:
    def test_density_matrix_requires_hermitian(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix(bad / np.trace(bad), (2, 2))

    def test_density_matrix_requires_unit_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 2.0, (2, 2))

    def test_hermitian_tolerance(self):
        # max |rho - rho^dagger| <= 1e-12: a defect of 2e-12 is refused, 5e-13 accepted
        rho = werner_state(0.3).matrix.copy()
        refused, accepted = rho.copy(), rho.copy()
        refused[0, 1] += 2e-12
        accepted[0, 1] += 5e-13j
        with pytest.raises(ValueError):
            DensityMatrix(refused, (2, 2))
        assert DensityMatrix(accepted, (2, 2)).matrix[0, 1] == accepted[0, 1]

    def test_trace_tolerance(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 4.0 + np.diag([2e-12, 0.0, 0.0, 0.0]), (2, 2))

    def test_callers_array_stays_writable(self):
        matrix = np.eye(4, dtype=complex) / 4.0
        rho = DensityMatrix(matrix, (2, 2))
        assert matrix.flags.writeable
        assert not rho.matrix.flags.writeable
        matrix[0, 0] = 1.0
        assert rho.matrix[0, 0] == 0.25

    def test_fortran_ordered_real_state_accepted(self):
        matrix = np.asfortranarray(werner_state(0.3).matrix.real)
        original = matrix.copy()
        rho = DensityMatrix(matrix, (2, 2))
        assert np.array_equal(rho.matrix, original)
        assert np.array_equal(matrix, original)

    def test_fortran_ordered_complex_state_accepted(self):
        pair = product_coherent_pair(spin(1), spin("3/2"), Direction(1.1, 0.4), Direction(2.0, 5.3))
        assert np.max(np.abs(pair.matrix.imag)) > 0.1
        matrix = np.asfortranarray(pair.matrix)
        rho = DensityMatrix(matrix, pair.dims)
        assert np.array_equal(rho.matrix, pair.matrix)
        # the transpose of a C-ordered matrix is F-ordered: rho^T is a state too
        assert np.array_equal(DensityMatrix(pair.matrix.T, pair.dims).matrix, pair.matrix.T)

    def test_one_dimensional_state_accepted(self):
        rho = DensityMatrix(np.ones((1, 1)), (1, 1))
        assert rho.matrix[0, 0] == 1.0

    def test_pure_state_requires_unit_norm(self):
        vector = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
        assert DensityMatrix._pure(vector * (1.0 + 4e-13), (2, 2)).dims == (2, 2)
        for scale in (1.0 + 2e-12, 0.5):
            with pytest.raises(ValueError, match="squared norm"):
                DensityMatrix._pure(vector * scale, (2, 2))
        with pytest.raises(ValueError, match="does not match dims"):
            DensityMatrix._pure(vector, (2, 3))

    @pytest.mark.parametrize("shape", [(4, 4), (6,), (6, 5)])
    def test_matrix_of_another_shape_refused(self, shape):
        matrix = np.zeros(shape)
        with pytest.raises(ValueError, match=r"matrix shape .* does not match dims \(2, 3\)"):
            DensityMatrix(matrix, (2, 3))

    def test_pure_state_rejects_nan(self):
        vector = np.array([math.nan, 1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="squared norm nan"):
            DensityMatrix._pure(vector, (2, 2))

    def test_density_matrix_rejects_nan(self):
        # every entry NaN: no comparison with NaN is true, so only a check that
        # asks for the defect to lie inside its bound refuses it
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(np.full((4, 4), np.nan), (2, 2))

    def test_invariant_state_rejects_nan_weight(self):
        with pytest.raises(ValueError, match="negative or NaN"):
            InvariantState(HALF, HALF, {spin(0): math.nan, spin(1): 1.0})

    def test_invariant_average_rejects_nan_weights(self, monkeypatch):
        def nan_weights(self, vectors):
            return np.full(len(self.j_values), np.nan)

        monkeypatch.setattr(CouplingDecomposition, "_rank_one_block_probabilities", nan_weights)
        rho = product_coherent_pair(HALF, HALF, Direction(0, 0), Direction(1.0, 0))
        with pytest.raises(ConsistencyError, match="sum to nan"):
            invariant_average(rho)

    def test_invariant_state_requires_every_block(self):
        with pytest.raises(ValueError, match="do not cover the total-spin range"):
            InvariantState(HALF, spin(1), {HALF: 1.0})
        with pytest.raises(ValueError, match="do not cover the total-spin range"):
            InvariantState(HALF, HALF, {spin(0): 0.5, spin(1): 0.25, spin(2): 0.25})

    def test_invariant_state_requires_normalized_weights(self):
        with pytest.raises(ValueError):
            InvariantState(HALF, HALF, {spin(0): 0.4, spin(1): 0.4})

    def test_invariant_state_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            InvariantState(HALF, HALF, {spin(0): -0.1, spin(1): 1.1})
