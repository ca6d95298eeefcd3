import math

import numpy as np
import pytest

from relangle import (
    AngleDensity,
    DiscreteAngleDistribution,
    ImpossibleOutcomeError,
    KERNEL_TWICE_J_LIMIT,
    RotInvariantPovm,
    average_information_gain,
    bayes_update,
    born_limit_check,
    clebsch_gordan,
    coherent_state,
    decomposition,
    infogain_curve,
    information_gain,
    map_estimate,
    outcome_probabilities,
    outcome_probability,
    parallel_antiparallel_prior,
    povm_outcome_probabilities,
    povm_probabilities_from_state,
    spin,
    total_j_values,
    uniform_direction_prior,
)
from relangle.angular import Direction, Rotation
from relangle.states import collective_rotate, product_coherent_pair

HALF = spin("1/2")

# closed-form information gains for the two-qubit scenarios
GAIN_SINGLET_PAP = 1.0
GAIN_TRIPLET_PAP = 5.0 / 3.0 - math.log2(3.0)
AVERAGE_PAP = 0.25 * GAIN_SINGLET_PAP + 0.75 * GAIN_TRIPLET_PAP
GAIN_SINGLET_UNIFORM = 1.0 - 1.0 / (2.0 * math.log(2.0))


def gain_triplet_uniform():
    # exact antiderivative of the triplet-outcome integrand in the variable
    # w = 2 - sin^2(alpha/2)
    def antiderivative(w):
        return 0.5 * w * w * math.log(2.0 * w / 3.0) - 0.25 * w * w

    return 2.0 / (3.0 * math.log(2.0)) * (antiderivative(2.0) - antiderivative(1.0))


GAIN_TRIPLET_UNIFORM = gain_triplet_uniform()
AVERAGE_UNIFORM = 0.25 * GAIN_SINGLET_UNIFORM + 0.75 * GAIN_TRIPLET_UNIFORM


def dense_block_probabilities(j1, j2, alphas):
    """Reference p(J | alpha): spin j1 along +z, spin j2 at angle alpha, both
    coherent states built as vectors and projected onto the dense
    Clebsch-Gordan isometries of every block (rows in increasing J)."""
    dec = decomposition(j1, j2)
    top1 = coherent_state(j1, Direction(0.0, 0.0)).amplitudes
    result = np.empty((len(dec.blocks), len(alphas)))
    for col, alpha in enumerate(alphas):
        psi = np.kron(top1, coherent_state(j2, Direction(float(alpha), 0.0)).amplitudes)
        for row, block in enumerate(dec.blocks):
            result[row, col] = float(np.sum(np.abs(block.isometry.T @ psi) ** 2))
    return result


class TestOutcomeProbabilities:
    def test_two_qubit_singlet_probability(self):
        for alpha in np.linspace(0.0, math.pi, 25):
            p = outcome_probability(HALF, HALF, spin(0), alpha)
            assert abs(p - 0.5 * math.sin(alpha / 2.0) ** 2) < 1e-14

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 10, 1000])
    def test_low_block_probability_closed_form(self, twice_j):
        j = spin(twice_j / 2.0) if twice_j % 2 == 0 else spin(f"{twice_j}/2")
        low = total_j_values(HALF, j)[0]
        for alpha in (0.0, 0.7, math.pi / 2, math.pi):
            p = outcome_probability(HALF, j, low, alpha)
            expected = (twice_j / (twice_j + 1.0)) * math.sin(alpha / 2.0) ** 2
            assert abs(p - expected) < 1e-14

    def test_aligned_pair_sits_in_top_block(self):
        for j1, j2 in ((HALF, HALF), (spin(1), spin("3/2")), (spin(2), spin(2))):
            probabilities = outcome_probabilities(j1, j2, 0.0)
            top = total_j_values(j1, j2)[-1]
            for J, p in probabilities.items():
                assert abs(p - (1.0 if J == top else 0.0)) < 1e-12

    def test_general_pair_matches_cg_sum_oracle(self):
        # independent oracle: expand both coherent states at generic
        # orientations and contract with Clebsch-Gordan coefficients
        j1, j2 = spin(1), spin("3/2")
        alpha = math.pi / 3.0
        n1 = Direction(0.9, 0.4)
        axis = np.cross(n1.unit_vector, [0.0, 0.0, 1.0])
        axis /= np.linalg.norm(axis)
        v2 = math.cos(alpha) * n1.unit_vector + math.sin(alpha) * axis
        n2 = Direction.from_vector(v2)
        c1 = coherent_state(j1, n1).amplitudes
        c2 = coherent_state(j2, n2).amplitudes
        for J in total_j_values(j1, j2):
            oracle = 0.0
            for twice_m in J.twice_m_values():
                amp = 0.0j
                for i1, tm1 in enumerate(j1.twice_m_values()):
                    tm2 = twice_m - tm1
                    if not j2.is_valid_twice_m(tm2):
                        continue
                    i2 = (j2.twice_j - tm2) // 2
                    amp += c1[i1] * c2[i2] * clebsch_gordan(j1, j2, tm1, tm2, J, twice_m)
                oracle += abs(amp) ** 2
            assert abs(outcome_probability(j1, j2, J, alpha) - oracle) < 1e-11

    @pytest.mark.parametrize(
        "j1_text, j2_text, n_alphas",
        [
            ("1/2", "1/2", 13),
            ("1/2", "3", 13),
            ("4", "1/2", 13),
            ("1", "3/2", 13),
            ("3/2", "1", 13),
            ("2", "2", 13),
            ("5/2", "7", 13),
            ("7", "5/2", 13),
            ("3", "9/2", 13),
            ("10", "10", 13),
            ("255/2", "15/2", 3),  # product dimension 4096, the dense cap
        ],
    )
    def test_kernel_matches_dense_oracle(self, j1_text, j2_text, n_alphas):
        j1, j2 = spin(j1_text), spin(j2_text)
        alphas = np.linspace(0.0, math.pi, n_alphas)
        closed = np.array([list(outcome_probabilities(j1, j2, a).values()) for a in alphas]).T
        assert np.max(np.abs(closed - dense_block_probabilities(j1, j2, alphas))) <= 1e-12

    def test_columns_sum_to_one_at_kernel_limit(self):
        small, large = spin(KERNEL_TWICE_J_LIMIT // 2), spin(800)
        povm = RotInvariantPovm.projective(small, large)
        probabilities = povm_outcome_probabilities(povm, np.linspace(0.0, math.pi, 181))
        assert probabilities.min() >= 0.0
        assert np.max(np.abs(probabilities.sum(axis=0) - 1.0)) < 1e-13

    def test_probabilities_sum_to_one(self):
        grid = np.linspace(0.0, math.pi, 181)
        for j1, j2 in ((HALF, HALF), (HALF, spin(4)), (spin(1), spin("3/2")), (spin("3/2"), spin(2))):
            for alpha in grid:
                total = sum(outcome_probabilities(j1, j2, alpha).values())
                assert abs(total - 1.0) < 1e-12

    def test_out_of_range_j_raises(self):
        with pytest.raises(ValueError):
            outcome_probability(HALF, HALF, spin(2), 0.3)

    def test_alpha_outside_range_raises(self):
        with pytest.raises(ValueError):
            outcome_probability(HALF, HALF, spin(0), 4.0)


class TestPovm:
    def test_projective_weights(self):
        povm = RotInvariantPovm.projective(HALF, spin(1))
        assert povm.labels == ("J=1/2", "J=3/2")
        assert np.allclose(povm.weights, np.eye(2))

    def test_block_weights_must_normalize(self):
        with pytest.raises(ValueError):
            RotInvariantPovm(
                HALF,
                HALF,
                ("x", "y"),
                tuple(total_j_values(HALF, HALF)),
                np.array([[0.5, 0.2], [0.2, 0.8]]),
            )

    def test_element_matrices_sum_to_identity(self):
        povm = RotInvariantPovm.projective(spin(1), spin(1))
        total = sum(povm.element_matrix(k) for k in range(povm.n_outcomes))
        assert np.max(np.abs(total - np.eye(9))) < 1e-12

    def test_probabilities_from_dense_state(self):
        rng = np.random.default_rng(0)
        alpha = 1.3
        povm = RotInvariantPovm.projective(HALF, spin(1))
        rho = product_coherent_pair(HALF, spin(1), Direction(0, 0), Direction(alpha, 0))
        dense = povm_probabilities_from_state(povm, rho)
        closed = povm_outcome_probabilities(povm, np.array([alpha]))[:, 0]
        assert np.max(np.abs(dense - closed)) < 1e-12


class TestBayesUpdate:
    def test_two_qubit_pap_posteriors(self):
        prior = parallel_antiparallel_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        symmetric = bayes_update(prior, HALF, HALF, povm, "J=1")
        assert np.max(np.abs(symmetric.weights - [2.0 / 3.0, 1.0 / 3.0])) < 1e-14
        antisymmetric = bayes_update(prior, HALF, HALF, povm, "J=0")
        assert np.max(np.abs(antisymmetric.weights - [0.0, 1.0])) < 1e-14
        assert antisymmetric.outcome_label == "J=0"

    def test_two_qubit_uniform_posterior_density(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        posterior = bayes_update(prior, HALF, HALF, povm, "J=0")
        grid = np.linspace(0.1, math.pi - 0.1, 40)
        expected = np.sin(grid / 2.0) ** 2 * np.sin(grid)
        assert np.max(np.abs(posterior.pdf(grid) - expected)) < 1e-10

    @pytest.mark.parametrize("twice_j", [1, 2, 5, 9])
    def test_half_j_pap_posterior(self, twice_j):
        j = spin(f"{twice_j}/2") if twice_j % 2 else spin(twice_j // 2)
        prior = parallel_antiparallel_prior()
        povm = RotInvariantPovm.projective(HALF, j)
        posterior = bayes_update(prior, HALF, j, povm, povm.labels[1])
        expected_parallel = (twice_j + 1.0) / (twice_j + 2.0)
        assert abs(posterior.weights[0] - expected_parallel) < 1e-14
        assert abs(posterior.weights[1] - 1.0 / (twice_j + 2.0)) < 1e-14

    def test_impossible_outcome(self):
        prior = DiscreteAngleDistribution(np.array([0.0]), np.array([1.0]))
        povm = RotInvariantPovm.projective(HALF, HALF)
        with pytest.raises(ImpossibleOutcomeError):
            bayes_update(prior, HALF, HALF, povm, "J=0")

    def test_posteriors_average_back_to_prior_discrete(self):
        prior = parallel_antiparallel_prior()
        povm = RotInvariantPovm.projective(HALF, spin(3))
        mix = np.zeros(2)
        for label in povm.labels:
            k = povm.index(label)
            likelihood = povm_outcome_probabilities(povm, prior.alphas)[k]
            p = float(np.dot(prior.weights, likelihood))
            mix += p * bayes_update(prior, HALF, spin(3), povm, label).weights
        assert np.max(np.abs(mix - prior.weights)) < 1e-10

    def test_posteriors_average_back_to_prior_density(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, spin(2))
        report = average_information_gain(HALF, spin(2), prior, povm)
        grid = np.linspace(0.05, math.pi - 0.05, 50)
        mix = np.zeros_like(grid)
        for entry in report.outcomes:
            mix += entry.probability * entry.posterior.pdf(grid)
        assert np.max(np.abs(mix - prior.pdf(grid))) < 1e-10


class TestInformationGain:
    def test_zero_for_identical(self):
        prior = parallel_antiparallel_prior()
        assert information_gain(prior, DiscreteAngleDistribution(prior.alphas, prior.weights)) == 0.0

    def test_two_qubit_pap_gains(self):
        prior = parallel_antiparallel_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        singlet = bayes_update(prior, HALF, HALF, povm, "J=0")
        assert abs(information_gain(prior, singlet) - 1.0) < 1e-14
        triplet = bayes_update(prior, HALF, HALF, povm, "J=1")
        assert abs(information_gain(prior, triplet) - GAIN_TRIPLET_PAP) < 1e-14

    def test_two_qubit_uniform_gains(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        singlet = bayes_update(prior, HALF, HALF, povm, "J=0")
        assert abs(information_gain(prior, singlet) - GAIN_SINGLET_UNIFORM) < 1e-9
        triplet = bayes_update(prior, HALF, HALF, povm, "J=1")
        assert abs(information_gain(prior, triplet) - GAIN_TRIPLET_UNIFORM) < 1e-9

    def test_mismatched_support_raises(self):
        prior = parallel_antiparallel_prior()
        other = DiscreteAngleDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            information_gain(prior, other)

    def test_not_absolutely_continuous_raises(self):
        prior = DiscreteAngleDistribution(np.array([0.0, math.pi]), np.array([1.0, 0.0]))
        posterior = DiscreteAngleDistribution(np.array([0.0, math.pi]), np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            information_gain(prior, posterior)

    def test_nonnegative_for_random_coarse_povms(self):
        rng = np.random.default_rng(1)
        prior = parallel_antiparallel_prior()
        j_values = tuple(total_j_values(HALF, spin(1)))
        for _ in range(10):
            n_out = int(rng.integers(2, 5))
            raw = rng.random((n_out, 2)) + 1e-3
            weights = raw / raw.sum(axis=0)
            povm = RotInvariantPovm(
                HALF, spin(1), tuple(f"o{i}" for i in range(n_out)), j_values, weights
            )
            report = average_information_gain(HALF, spin(1), prior, povm)
            for entry in report.outcomes:
                assert entry.information_gain_bits >= -1e-12


class TestAverageInformationGain:
    def test_two_qubit_pap(self):
        report = average_information_gain(
            HALF, HALF, parallel_antiparallel_prior(), RotInvariantPovm.projective(HALF, HALF)
        )
        assert abs(report.outcome("J=0").probability - 0.25) < 1e-14
        assert abs(report.outcome("J=1").probability - 0.75) < 1e-14
        assert abs(report.average_gain_bits - AVERAGE_PAP) < 1e-14

    def test_two_qubit_uniform(self):
        report = average_information_gain(
            HALF, HALF, uniform_direction_prior(), RotInvariantPovm.projective(HALF, HALF)
        )
        assert abs(report.average_gain_bits - AVERAGE_UNIFORM) < 1e-9

    def test_two_qubit_uniform_local(self):
        from relangle import optimal_local_povm

        report = average_information_gain(
            HALF, HALF, uniform_direction_prior(), optimal_local_povm(HALF)
        )
        assert abs(report.average_gain_bits - GAIN_TRIPLET_UNIFORM) < 1e-9

    def test_coarse_graining_cannot_increase_gain(self):
        rng = np.random.default_rng(2)
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, spin(1))
        best = average_information_gain(HALF, spin(1), prior, povm).average_gain_bits
        j_values = tuple(total_j_values(HALF, spin(1)))
        for _ in range(10):
            n_out = int(rng.integers(2, 6))
            raw = rng.random((n_out, 2)) + 1e-6
            weights = raw / raw.sum(axis=0)
            coarse = RotInvariantPovm(
                HALF, spin(1), tuple(f"o{i}" for i in range(n_out)), j_values, weights
            )
            sampled = average_information_gain(HALF, spin(1), prior, coarse).average_gain_bits
            assert sampled <= best + 1e-10

    def test_report_rotation_invariant_dense_path(self):
        # outcome probabilities, and therefore the whole report, are the same
        # for any collective orientation of the prepared pair
        rng = np.random.default_rng(3)
        povm = RotInvariantPovm.projective(HALF, spin(1))
        for alpha in (0.4, 1.7):
            rho = product_coherent_pair(HALF, spin(1), Direction(0, 0), Direction(alpha, 0))
            base = povm_probabilities_from_state(povm, rho)
            for _ in range(5):
                r = Rotation(
                    rng.uniform(0, 2 * math.pi),
                    rng.uniform(0, math.pi),
                    rng.uniform(0, 2 * math.pi),
                )
                rotated = povm_probabilities_from_state(povm, collective_rotate(rho, r))
                assert np.max(np.abs(rotated - base)) < 1e-10


class TestMapEstimate:
    def test_singlet_posterior_peak(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        posterior = bayes_update(prior, HALF, HALF, povm, "J=0")
        assert abs(map_estimate(posterior) - 2.0 * math.pi / 3.0) < 1e-6

    def test_triplet_posterior_peak(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        posterior = bayes_update(prior, HALF, HALF, povm, "J=1")
        # analytic maximizer of (3 + cos a) sin a on [0, pi]
        expected = math.acos((math.sqrt(17.0) - 3.0) / 4.0)
        assert abs(map_estimate(posterior) - expected) < 1e-6

    def test_discrete_posterior(self):
        posterior = DiscreteAngleDistribution(np.array([0.0, math.pi]), np.array([0.0, 1.0]))
        assert map_estimate(posterior) == math.pi

    def test_discrete_tie_breaks_to_smaller_angle(self):
        posterior = DiscreteAngleDistribution(np.array([0.5, 2.5]), np.array([0.5, 0.5]))
        assert map_estimate(posterior) == 0.5


class TestInfoGainCurve:
    def test_matches_two_qubit_value_at_half(self):
        rows = infogain_curve([HALF], "parallel-antiparallel", "optimal")
        assert abs(rows[0][1] - AVERAGE_PAP) < 1e-14

    def test_large_j_limits(self):
        joint = infogain_curve([spin(500)], "parallel-antiparallel", "optimal")[0][1]
        assert abs(joint - 1.0) < 0.01
        uniform = infogain_curve([spin(500)], "uniform-directions", "optimal")[0][1]
        assert abs(uniform - GAIN_SINGLET_UNIFORM) < 5e-3

    def test_all_curves_increase_beyond_j_one(self):
        j_list = [spin(j) for j in (1, 2, 3, 5, 8, 12, 20, 50)]
        for prior_kind in ("parallel-antiparallel", "uniform-directions"):
            for povm_kind in ("optimal", "optimal-local"):
                gains = [g for _, g in infogain_curve(j_list, prior_kind, povm_kind)]
                assert all(b > a for a, b in zip(gains, gains[1:]))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            infogain_curve([HALF], "parallel-antiparallel", "bogus")
        with pytest.raises(ValueError):
            infogain_curve([HALF], "bogus", "optimal")


class TestBornLimit:
    @pytest.mark.parametrize("twice_j2", [20, 200, 2000])
    def test_spin_half_deviation_bound(self, twice_j2):
        j2 = spin(twice_j2 // 2)
        bound = 1.0 / (twice_j2 + 1.0)
        grid = np.linspace(0.0, math.pi, 61)
        deviations = [born_limit_check(HALF, alpha, j2) for alpha in grid]
        assert max(deviations) <= bound + 1e-14
        # the bound is saturated for anti-parallel preparation
        assert abs(born_limit_check(HALF, math.pi, j2) - bound) < 1e-12

    def test_zero_at_aligned(self):
        for j2 in (spin(5), spin(30)):
            assert born_limit_check(HALF, 0.0, j2) < 1e-14

    def test_dense_path_decreases_with_j2(self):
        deviations = [born_limit_check(spin(1), math.pi / 4.0, spin(j2)) for j2 in (10, 20, 30)]
        assert deviations[0] > deviations[1] > deviations[2]

    def test_requires_larger_second_spin(self):
        with pytest.raises(ValueError):
            born_limit_check(spin(2), 0.3, spin(1))


class TestDistributions:
    def test_discrete_requires_normalization(self):
        with pytest.raises(ValueError):
            DiscreteAngleDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.4]))

    def test_density_requires_normalization(self):
        with pytest.raises(ValueError):
            AngleDensity(lambda a: np.sin(a))

    def test_uniform_prior_normalized(self):
        prior = uniform_direction_prior()
        nodes, weights = prior.grid
        assert abs(float(np.dot(weights, prior.pdf(nodes))) - 1.0) < 1e-10
