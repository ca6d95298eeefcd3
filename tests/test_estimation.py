import collections
import decimal
import math
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

import relangle.estimation as estimation_module
from relangle import (
    AngleDensity,
    ConsistencyError,
    DiscreteAngleDistribution,
    ImpossibleOutcomeError,
    KERNEL_TWICE_J_LIMIT,
    RotInvariantPovm,
    SpinQuantumNumber,
    average_information_gain,
    bayes_update,
    born_limit_check,
    clebsch_gordan,
    coherent_state,
    decomposition,
    infogain_curve,
    information_gain,
    map_estimate,
    optimal_local_povm,
    outcome_probabilities,
    parallel_antiparallel_prior,
    povm_outcome_probabilities,
    povm_probabilities_from_state,
    spin,
    total_j_values,
    uniform_direction_prior,
)
from relangle.angular import Direction, Rotation, rotation_matrix
from relangle.estimation import (
    _adaptive_integral,
    _block_probability_matrix,
    _curve_averages,
    _gains,
    _joint_rows,
    _kl_bits,
    _kl_terms,
    _make_povm,
    _make_prior,
    _povm_weights,
    _quad_rule,
    _stacked,
    _table_stack,
)
from relangle.polynomials import _bernstein_basis
from relangle.states import InvariantState, collective_rotate, product_coherent_pair

from oracles import direction_from_vector, povm_element_matrix, random_rotation, sample_local_povm

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
    blocks = [dec.block(J) for J in dec.j_values]
    top1 = coherent_state(j1, Direction(0.0, 0.0)).amplitudes
    result = np.empty((len(blocks), len(alphas)))
    for col, alpha in enumerate(alphas):
        psi = np.kron(top1, coherent_state(j2, Direction(float(alpha), 0.0)).amplitudes)
        for row, block in enumerate(blocks):
            result[row, col] = float(np.sum(np.abs(block.isometry.T @ psi) ** 2))
    return result


def gauss_legendre_alpha(f, n=256):
    """Reference integral of a vectorized function over alpha in [0, pi] with a
    fixed n-node Gauss-Legendre rule in alpha, independent of the s-basis.  At
    256 nodes it integrates every likelihood here to about 1e-14 relative;
    numpy's rule itself drifts by about 1e-13 at 2048 nodes."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * math.pi * (f(0.5 * math.pi * (x + 1.0)) @ w)


class TestOutcomeProbabilities:
    def test_two_qubit_singlet_probability(self):
        for alpha in np.linspace(0.0, math.pi, 25):
            p = outcome_probabilities(HALF, HALF, alpha)[spin(0)]
            assert abs(p - 0.5 * math.sin(alpha / 2.0) ** 2) < 1e-14

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 10, 1000])
    def test_low_block_probability_closed_form(self, twice_j):
        j = spin(twice_j / 2.0) if twice_j % 2 == 0 else spin(f"{twice_j}/2")
        low = total_j_values(HALF, j)[0]
        for alpha in (0.0, 0.7, math.pi / 2, math.pi):
            p = outcome_probabilities(HALF, j, alpha)[low]
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
        n2 = direction_from_vector(v2)
        c1 = coherent_state(j1, n1).amplitudes
        c2 = coherent_state(j2, n2).amplitudes
        probabilities = outcome_probabilities(j1, j2, alpha)
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
            assert abs(probabilities[J] - oracle) < 1e-11

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

    def test_alpha_outside_range_raises(self):
        with pytest.raises(ValueError):
            outcome_probabilities(HALF, HALF, 4.0)

    @pytest.mark.parametrize("alphas", [[math.nan], [0.1, math.nan]])
    def test_nan_alpha_raises(self, alphas):
        with pytest.raises(ValueError):
            _block_probability_matrix(spin(1), spin(1), np.array(alphas))


class TestPovm:
    def test_projective_weights(self):
        povm = RotInvariantPovm.projective(HALF, spin(1))
        assert povm.labels == ("J=1/2", "J=3/2")
        assert np.allclose(povm.weights, np.eye(2))

    def test_block_weights_must_normalize(self):
        with pytest.raises(ValueError):
            RotInvariantPovm(HALF, HALF, ("x", "y"), np.array([[0.5, 0.2], [0.2, 0.8]]))

    @pytest.mark.parametrize(("labels", "weights", "message"), [
        (("x", "y"), np.eye(3), r"weights shape \(3, 3\) does not match labels x blocks"),
        (("x",), np.eye(2), r"weights shape \(2, 2\) does not match labels x blocks"),
        (("x", "x"), np.eye(2), "outcome labels must be unique"),
    ])
    def test_malformed_povm_refused(self, labels, weights, message):
        with pytest.raises(ValueError, match=message):
            RotInvariantPovm(HALF, HALF, labels, weights)

    def test_j_values_come_from_the_pair(self):
        povm = RotInvariantPovm(HALF, spin(1), ("x", "y"), np.eye(2))
        assert povm.j_values == (HALF, spin("3/2")) == tuple(total_j_values(HALF, spin(1)))
        with pytest.raises(AttributeError):
            povm.j_values = ()

    def test_index_of_unknown_label_refused(self):
        povm = RotInvariantPovm.projective(HALF, HALF)
        assert povm.index("J=1") == 1
        with pytest.raises(ValueError, match="unknown outcome label 'J=2'"):
            povm.index("J=2")

    def test_element_matrices_sum_to_identity(self):
        povm = RotInvariantPovm.projective(spin(1), spin(1))
        total = sum(povm_element_matrix(povm, k) for k in range(povm.n_outcomes))
        assert np.max(np.abs(total - np.eye(9))) < 1e-12

    def test_probabilities_from_dense_state(self):
        rng = np.random.default_rng(0)
        alpha = 1.3
        povm = RotInvariantPovm.projective(HALF, spin(1))
        rho = product_coherent_pair(HALF, spin(1), Direction(0, 0), Direction(alpha, 0))
        dense = povm_probabilities_from_state(povm, rho)
        closed = povm_outcome_probabilities(povm, np.array([alpha]))[:, 0]
        assert np.max(np.abs(dense - closed)) < 1e-12

    @pytest.mark.parametrize("dense", [False, True])
    def test_state_of_another_pair_refused(self, dense):
        # (1/2, 2) also has two blocks, so its weights once fitted the (1/2, 1) POVM
        povm = RotInvariantPovm.projective(HALF, spin(1))
        state = InvariantState(HALF, spin(2), dict(zip(total_j_values(HALF, spin(2)), [0.2, 0.8])))
        if dense:
            state = state.reconstruct()
        with pytest.raises(ValueError, match="different spin pairs"):
            povm_probabilities_from_state(povm, state)


    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="no limit on the digits of integer text")
    def test_total_spin_label_past_the_integer_text_limit_is_refused(self):
        # j2 has the largest label Python writes, but J = j1 + j2 = 1e4300 has one digit more:
        # the J=<J> labels once failed with Python's "Exceeds the limit" text
        digits = sys.get_int_max_str_digits()
        j2 = str(10**digits - 1)
        with pytest.raises(ValueError, match=f"^total spin j1 \\+ j2 = 1e\\+{digits} has more "
                                             f"than {digits} digits, past Python's limit for "
                                             "integer text$"):
            RotInvariantPovm.projective(spin(1), spin(j2))
        with pytest.raises(ValueError, match=f"^total spin j1 \\+ j2 = 1e\\+{digits} has"):
            _make_povm("optimal", spin(j2), HALF)
        # the pair itself is served where no total spin is written
        assert len(total_j_values(spin(1), spin(j2))) == 3
        assert _make_povm("optimal-local", HALF, spin(j2)).labels == ("aligned", "antialigned")
        assert RotInvariantPovm.projective(spin(1), spin(j2[:-1])).n_outcomes == 3

class TestBayesUpdate:
    def test_two_qubit_pap_posteriors(self):
        prior = parallel_antiparallel_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        symmetric = bayes_update(prior, povm, "J=1")
        assert np.max(np.abs(symmetric.weights - [2.0 / 3.0, 1.0 / 3.0])) < 1e-14
        antisymmetric = bayes_update(prior, povm, "J=0")
        assert np.max(np.abs(antisymmetric.weights - [0.0, 1.0])) < 1e-14

    def test_two_qubit_uniform_posterior_density(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        posterior = bayes_update(prior, povm, "J=0")
        grid = np.linspace(0.1, math.pi - 0.1, 40)
        expected = np.sin(grid / 2.0) ** 2 * np.sin(grid)
        assert np.max(np.abs(posterior.pdf(grid) - expected)) < 1e-10

    @pytest.mark.parametrize("twice_j", [1, 2, 5, 9])
    def test_half_j_pap_posterior(self, twice_j):
        j = spin(f"{twice_j}/2") if twice_j % 2 else spin(twice_j // 2)
        prior = parallel_antiparallel_prior()
        povm = RotInvariantPovm.projective(HALF, j)
        posterior = bayes_update(prior, povm, povm.labels[1])
        expected_parallel = (twice_j + 1.0) / (twice_j + 2.0)
        assert abs(posterior.weights[0] - expected_parallel) < 1e-14
        assert abs(posterior.weights[1] - 1.0 / (twice_j + 2.0)) < 1e-14

    def test_impossible_outcome(self):
        prior = DiscreteAngleDistribution(np.array([0.0]), np.array([1.0]))
        povm = RotInvariantPovm.projective(HALF, HALF)
        with pytest.raises(ImpossibleOutcomeError):
            bayes_update(prior, povm, "J=0")

    def test_posteriors_average_back_to_prior_discrete(self):
        prior = parallel_antiparallel_prior()
        povm = RotInvariantPovm.projective(HALF, spin(3))
        mix = np.zeros(2)
        for label in povm.labels:
            k = povm.index(label)
            likelihood = povm_outcome_probabilities(povm, prior.alphas)[k]
            p = float(np.dot(prior.weights, likelihood))
            mix += p * bayes_update(prior, povm, label).weights
        assert np.max(np.abs(mix - prior.weights)) < 1e-10

    def test_posteriors_average_back_to_prior_density(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, spin(2))
        report = average_information_gain(prior, povm)
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
        singlet = bayes_update(prior, povm, "J=0")
        assert abs(information_gain(prior, singlet) - 1.0) < 1e-14
        triplet = bayes_update(prior, povm, "J=1")
        assert abs(information_gain(prior, triplet) - GAIN_TRIPLET_PAP) < 1e-14

    def test_two_qubit_uniform_gains(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        singlet = bayes_update(prior, povm, "J=0")
        assert abs(information_gain(prior, singlet) - GAIN_SINGLET_UNIFORM) < 1e-9
        triplet = bayes_update(prior, povm, "J=1")
        assert abs(information_gain(prior, triplet) - GAIN_TRIPLET_UNIFORM) < 1e-9

    @pytest.mark.parametrize("prior, posterior, nats", [
        ([0.0, 2.0], [2.0, 0.0], 1.0),  # int 2(1 - s) ln((1 - s) / s) ds
        ([0.0, 0.0, 3.0], [3.0, 0.0, 0.0], 3.0),  # int 3(1 - s)^2 ln((1 - s)^2 / s^2) ds
    ])
    def test_density_prior_with_zeros_the_posterior_lacks(self, prior, posterior, nats):
        # ln(q / p) has a -ln s singularity from the prior's zero at s = 0 alone
        gain = information_gain(AngleDensity(prior), AngleDensity(posterior))
        assert abs(gain - nats / math.log(2.0)) <= 1e-13

    @pytest.mark.parametrize(("prior", "posterior"), [
        (parallel_antiparallel_prior(), uniform_direction_prior()),
        (uniform_direction_prior(), parallel_antiparallel_prior()),
    ])
    def test_mismatched_representation_raises(self, prior, posterior):
        with pytest.raises(ValueError, match="same representation"):
            information_gain(prior, posterior)

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
        for _ in range(10):
            n_out = int(rng.integers(2, 5))
            raw = rng.random((n_out, 2)) + 1e-3
            weights = raw / raw.sum(axis=0)
            povm = RotInvariantPovm(HALF, spin(1), tuple(f"o{i}" for i in range(n_out)), weights)
            report = average_information_gain(prior, povm)
            for entry in report.outcomes:
                assert entry.information_gain_bits >= -1e-12


class TestAverageInformationGain:
    def test_two_qubit_pap(self):
        report = average_information_gain(
            parallel_antiparallel_prior(), RotInvariantPovm.projective(HALF, HALF)
        )
        assert abs(report.outcome("J=0").probability - 0.25) < 1e-14
        assert abs(report.outcome("J=1").probability - 0.75) < 1e-14
        assert abs(report.average_gain_bits - AVERAGE_PAP) < 1e-14

    def test_unknown_outcome_label_refused(self):
        report = average_information_gain(
            parallel_antiparallel_prior(), RotInvariantPovm.projective(HALF, HALF)
        )
        assert report.outcome("J=1") is report.outcomes[1]
        with pytest.raises(ValueError, match="unknown outcome label 'J=2'"):
            report.outcome("J=2")

    @pytest.mark.parametrize("prior_kind", estimation_module.PRIOR_KINDS)
    @pytest.mark.parametrize("povm_kind", estimation_module.POVM_KINDS)
    @pytest.mark.parametrize("a, b", [("1/2", 2), ("3/2", 1), (2, 3)])
    def test_either_pair_order_gives_the_same_bits(self, prior_kind, povm_kind, a, b):
        # the POVM names its pair, and (a, b) and (b, a) are one measurement
        prior = _make_prior(prior_kind)
        povms = [_make_povm(povm_kind, a, b), _make_povm(povm_kind, b, a)]
        first, second = (average_information_gain(prior, povm) for povm in povms)
        assert [(o.label, o.probability, o.information_gain_bits) for o in first.outcomes] == [
            (o.label, o.probability, o.information_gain_bits) for o in second.outcomes]
        assert first.average_gain_bits == second.average_gain_bits
        for entry in first.outcomes:
            if entry.probability == 0.0:
                continue
            posteriors = [bayes_update(prior, povm, entry.label) for povm in povms]
            arrays = [q.weights if isinstance(q, DiscreteAngleDistribution) else q.coefficients
                      for q in posteriors]
            assert np.array_equal(arrays[0], arrays[1])
            assert information_gain(prior, posteriors[0]) == information_gain(prior, posteriors[1])

    def test_two_qubit_uniform(self):
        report = average_information_gain(
            uniform_direction_prior(), RotInvariantPovm.projective(HALF, HALF)
        )
        assert abs(report.average_gain_bits - AVERAGE_UNIFORM) < 1e-9

    def test_two_qubit_uniform_local(self):
        report = average_information_gain(
            uniform_direction_prior(), optimal_local_povm(HALF)
        )
        assert abs(report.average_gain_bits - GAIN_TRIPLET_UNIFORM) < 1e-9

    def test_coarse_graining_cannot_increase_gain(self):
        rng = np.random.default_rng(2)
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, spin(1))
        best = average_information_gain(prior, povm).average_gain_bits
        for _ in range(10):
            n_out = int(rng.integers(2, 6))
            raw = rng.random((n_out, 2)) + 1e-6
            weights = raw / raw.sum(axis=0)
            coarse = RotInvariantPovm(HALF, spin(1), tuple(f"o{i}" for i in range(n_out)), weights)
            sampled = average_information_gain(prior, coarse).average_gain_bits
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
                r = random_rotation(rng)
                rotated = povm_probabilities_from_state(povm, collective_rotate(rho, r))
                assert np.max(np.abs(rotated - base)) < 1e-10


def oracle_evidences(prior, povm):
    """P(o) = integral of p(o | alpha) prior(alpha) over alpha, by quadrature."""
    return gauss_legendre_alpha(lambda a: povm_outcome_probabilities(povm, a) * prior.pdf(a))


def oracle_gain(prior, povm, k):
    """KL in bits of the posterior after outcome k from a density prior, both
    built pointwise from the likelihood and integrated by quadrature."""
    evidence = oracle_evidences(prior, povm)[k]

    def integrand(a):
        p = prior.pdf(a)
        q = povm_outcome_probabilities(povm, a)[k] * p / evidence
        out = np.zeros_like(q)
        mask = q > 0.0
        out[mask] = q[mask] * np.log2(q[mask] / p[mask])
        return out

    return gauss_legendre_alpha(integrand)


class TestExactEvidencesAndGains:
    @pytest.mark.parametrize("j1, j2", [(1, 1), (5, 5), (20, 60), (100, 100), (100, 800)])
    def test_uniform_prior_evidences(self, j1, j2):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(j1, j2)
        evidence = _joint_rows(prior, *_stacked(povm))[0][0]
        assert np.max(np.abs(evidence / oracle_evidences(prior, povm) - 1.0)) < 1e-12
        assert abs(float(evidence.sum()) - 1.0) < 1e-14
        # uniform directions average each coherent state to the maximally mixed one
        dimensions = (2 * j1 + 1) * (2 * j2 + 1)
        block_sizes = np.array([J.twice_j + 1.0 for J in povm.j_values])
        assert np.max(np.abs(evidence * dimensions / block_sizes - 1.0)) < 1e-14

    @pytest.mark.parametrize("povm_kind", ["optimal", "optimal-local"])  # curves c and d
    @pytest.mark.parametrize("j", ["1/2", "1", "5", "50", "500"])
    def test_linear_posterior_gain_matches_quadrature(self, povm_kind, j):
        prior = uniform_direction_prior()
        povm = _make_povm(povm_kind, HALF, j)
        report = average_information_gain(prior, povm)
        for k, entry in enumerate(report.outcomes):
            assert entry.posterior.degree == 1
            assert abs(entry.information_gain_bits - oracle_gain(prior, povm, k)) < 1e-12

    @pytest.mark.parametrize("j1, j2, prior_coefficients, outcomes", [
        *((j1, j2, coefficients, None) for coefficients in ([1.0], [0.0, 1.5, 2.5, 0.0])
          for j1, j2 in ((1, 1), (2, 3), (5, 5))),
        (100, 100, [1.0], [0, 1, 50, 150, 200]),  # five outcomes at the kernel limit
    ])
    def test_density_gains_match_scipy_quad_in_s(self, j1, j2, prior_coefficients, outcomes):
        # QUADPACK's adaptive rule in s on q log2(q / p), each density summed from binomial
        # pmfs: no alpha, no Bernstein basis and no endpoint split; within 5e-15 of a 40-digit
        # integral at (100, 100).  The degree-3 prior vanishes at both ends.
        prior = AngleDensity(prior_coefficients)
        povm = RotInvariantPovm.projective(j1, j2)
        _, posteriors, gains, _ = _gains(prior, *_stacked(povm))

        def density(coefficients, s):
            n = coefficients.size - 1
            return float(coefficients @ scipy.stats.binom.pmf(np.arange(n + 1), n, s))

        def integrand(s, q):
            value = density(q, s)
            return value * math.log2(value / density(prior.coefficients, s)) if value > 0.0 else 0.0

        with warnings.catch_warnings():
            warnings.simplefilter("error", scipy.integrate.IntegrationWarning)
            for k in range(posteriors.shape[1]) if outcomes is None else outcomes:
                oracle, _ = scipy.integrate.quad(integrand, 0.0, 1.0, args=(posteriors[0, k],),
                                                 epsabs=1e-14, epsrel=1e-13, limit=200)
                assert abs(gains[0, k] - oracle) <= 1e-12

    @pytest.mark.parametrize("twice_b", [*range(2, 21), 40, 100, 200])
    def test_lowest_block_gain_in_closed_form(self, twice_b):
        # J = |j1 - j2| has the one-term posterior (2b + 1) s^(2b) under the uniform prior,
        # so its gain is [ln(2b + 1) - 2b / (2b + 1)] / ln 2: all of it from the endpoint zero
        prior = uniform_direction_prior()
        exact = (math.log(twice_b + 1) - twice_b / (twice_b + 1)) / math.log(2.0)
        for twice_a in (twice_b, twice_b + 3, 4 * twice_b):
            b, a = SpinQuantumNumber(twice_b), SpinQuantumNumber(twice_a)
            povm = RotInvariantPovm.projective(b, a)
            posterior = bayes_update(prior, povm, povm.labels[0])
            assert np.count_nonzero(posterior.coefficients) == 1
            assert abs(information_gain(prior, posterior) - exact) <= 5e-14

    @pytest.mark.parametrize("high_weight", [0.5, 0.5 + 1e-9, 0.5 + 1e-7, 0.52, 0.5 + 0.0525, 0.6])
    def test_nearly_uninformative_povm(self, high_weight):
        # posteriors with nearly equal end values take the series branch (|t| < 0.1)
        weights = [[0.5, high_weight], [0.5, 1.0 - high_weight]]
        povm = RotInvariantPovm(HALF, HALF, ("x", "y"), weights)
        prior = uniform_direction_prior()
        report = average_information_gain(prior, povm)
        for k, entry in enumerate(report.outcomes):
            assert entry.information_gain_bits >= -1e-15  # rounding of a unit mass
            assert abs(entry.information_gain_bits - oracle_gain(prior, povm, k)) < 1e-14
        if high_weight == 0.5:
            assert report.average_gain_bits == 0.0

    # curves c and d; the local measurement's shortfall is twice the joint one's
    @pytest.mark.parametrize(("povm_kind", "multiple"), [("optimal", 1), ("optimal-local", 2)])
    @pytest.mark.parametrize("j", [50, 500, 50_000])
    def test_curve_c_approaches_classical_limit_as_one_over_j(self, povm_kind, multiple, j):
        # the paper's third claim: a macroscopic spin j acts as a classical axis, and the
        # gain's shortfall from I_A is multiple / (2 ln 2) / (2j) to leading order
        gain = infogain_curve([spin(j)], "uniform-directions", povm_kind)[0][1]
        scaled = (GAIN_SINGLET_UNIFORM - gain) * 2 * j
        if j <= 500:
            assert 0.6 < scaled / multiple < 0.8
        else:
            assert abs(scaled - multiple / (2.0 * math.log(2.0))) < 1e-3


class TestSequentialUpdate:
    def test_repeated_updates_have_no_degree_limit(self):
        # degree 200 per update at (100, 800): ten updates reach degree 2000,
        # where C(2000, 1000) = 2e600 would overflow unscaled coefficients
        povm = RotInvariantPovm.projective(spin(100), spin(800))
        k = 100
        posterior = uniform_direction_prior()
        for _ in range(10):
            posterior = bayes_update(posterior, povm, povm.labels[k])
        assert posterior.degree == 2000
        assert np.all(np.isfinite(posterior.coefficients))
        assert abs(gauss_legendre_alpha(posterior.pdf, 1024) - 1.0) < 1e-12

        def joint(a):
            return povm_outcome_probabilities(povm, a)[k] ** 10 * np.sin(a) / 2.0

        grid = np.linspace(0.0, math.pi, 721)
        expected = joint(grid) / gauss_legendre_alpha(joint, 1024)
        assert np.max(np.abs(posterior.pdf(grid) - expected)) < 1e-11 * np.max(expected)

    def test_many_small_updates_and_their_map_in_bounded_memory(self):
        # 600 updates at (1, 2) reach degree 1200; the MAP search seeds with
        # 65 + ceil(4 pi sqrt(1200)) = 501 angles, then refines on 65-point grids
        povm = RotInvariantPovm.projective(spin(1), spin(2))
        posterior = uniform_direction_prior()
        for _ in range(600):
            posterior = bayes_update(posterior, povm, "J=2")
        assert posterior.degree == 1200
        assert abs(gauss_legendre_alpha(posterior.pdf, 1024) - 1.0) < 1e-12
        tracemalloc.start()
        try:
            estimate = map_estimate(posterior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6  # the seed grid's (1201 x 501) basis values are 4.8 MB
        grid = np.linspace(1e-9, math.pi - 1e-9, 400_001)
        log_density = 600 * np.log(povm_outcome_probabilities(povm, grid)[1]) + np.log(np.sin(grid))
        assert abs(estimate - grid[int(np.argmax(log_density))]) < 1e-5

    def test_density_posterior_update_matches_pointwise_product(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(spin(1), spin(2))
        first = bayes_update(prior, povm, "J=1")
        second = bayes_update(first, povm, "J=3")
        assert second.degree == 4

        def joint(a):
            likelihood = povm_outcome_probabilities(povm, a)
            return likelihood[0] * likelihood[2] * prior.pdf(a)

        grid = np.linspace(0.0, math.pi, 181)
        expected = joint(grid) / gauss_legendre_alpha(joint)
        assert np.max(np.abs(second.pdf(grid) - expected)) < 1e-12


class TestMapEstimate:
    def test_singlet_posterior_peak(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        posterior = bayes_update(prior, povm, "J=0")
        assert abs(map_estimate(posterior) - 2.0 * math.pi / 3.0) < 1e-6

    def test_triplet_posterior_peak(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(HALF, HALF)
        posterior = bayes_update(prior, povm, "J=1")
        # analytic maximizer of (3 + cos a) sin a on [0, pi]
        expected = math.acos((math.sqrt(17.0) - 3.0) / 4.0)
        assert abs(map_estimate(posterior) - expected) < 1e-6

    def test_discrete_posterior(self):
        posterior = DiscreteAngleDistribution(np.array([0.0, math.pi]), np.array([0.0, 1.0]))
        assert map_estimate(posterior) == math.pi

    def test_discrete_tie_breaks_to_smaller_angle(self):
        posterior = DiscreteAngleDistribution(np.array([0.5, 2.5]), np.array([0.5, 0.5]))
        assert map_estimate(posterior) == 0.5

    def test_peaked_posterior_matches_fine_grid(self):
        prior = uniform_direction_prior()
        povm = RotInvariantPovm.projective(spin(20), spin(60))
        posterior = bayes_update(prior, povm, povm.labels[0])
        grid = np.linspace(0.0, math.pi, 400_001)
        best = grid[int(np.argmax(posterior.pdf(grid)))]
        assert abs(map_estimate(posterior) - best) < 1e-5

    @pytest.mark.parametrize("k", [40, 160])
    def test_narrow_peak_over_broad_bump(self, k):
        # a spike about 0.07 wide in alpha, 10% above the maximum 1/2 of the
        # uniform prior it is mixed with: a coarse seed grid settles on the bump
        n = 200
        grid = np.linspace(0.0, math.pi, 400_001)
        broad = np.ones(n + 1)  # uniform in s
        spike = np.zeros(n + 1)
        spike[k] = n + 1.0  # one normalised basis polynomial
        weight = 0.55 / float(np.max(AngleDensity(spike).pdf(grid)))
        density = AngleDensity((1.0 - weight) * broad + weight * spike)
        best = grid[int(np.argmax(density.pdf(grid)))]
        assert abs(map_estimate(density) - best) < 1e-5


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

    def test_numpy_integer_spins_equal_python_ones(self):
        rows = infogain_curve(np.arange(1, 4), "uniform-directions", "optimal")
        assert rows == infogain_curve([1, 2, 3], "uniform-directions", "optimal")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            infogain_curve([HALF], "parallel-antiparallel", "bogus")
        with pytest.raises(ValueError):
            infogain_curve([HALF], "bogus", "optimal")

    @pytest.mark.parametrize("prior_kind", ["parallel-antiparallel", "uniform-directions"])
    @pytest.mark.parametrize("povm_kind", ["optimal", "optimal-local"])
    def test_stack_equals_one_report_per_j_bit_for_bit(self, prior_kind, povm_kind):
        j_list = [spin(f"{twice_j}/2") for twice_j in range(1, 101)]
        rows = infogain_curve(j_list, prior_kind, povm_kind)
        assert [j for j, _ in rows] == j_list
        prior = _make_prior(prior_kind)
        for j, gain in rows:
            report = average_information_gain(prior, _make_povm(povm_kind, HALF, j))
            assert gain == report.average_gain_bits

    def test_empty_and_repeated_j(self):
        assert infogain_curve([], "uniform-directions", "optimal-local") == []
        rows = infogain_curve([spin(3), HALF, spin(3)], "parallel-antiparallel", "optimal")
        assert rows[0] == rows[2]
        assert abs(rows[1][1] - AVERAGE_PAP) < 1e-14

    def test_rejects_spin_zero(self):
        with pytest.raises(ValueError, match="at least 1/2"):
            infogain_curve([HALF, 0], "parallel-antiparallel", "optimal")

    def test_leaky_table_raises_consistency_error(self, monkeypatch):
        tables = _table_stack
        monkeypatch.setattr(estimation_module, "_table_stack",
                            lambda twice_b, twice_as: 1.001 * tables(twice_b, twice_as))
        with pytest.raises(ConsistencyError, match="sum to"):
            infogain_curve([HALF, spin(7)], "parallel-antiparallel", "optimal-local")


SCENARIOS = [(prior_kind, povm_kind) for prior_kind in ("parallel-antiparallel", "uniform-directions")
             for povm_kind in ("optimal", "optimal-local")]


class TestCurveFold:
    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [3, 0], [2]])
    def test_each_row_equals_infogain_curve_bit_for_bit(self, order):
        scenarios = [SCENARIOS[i] for i in order]
        twice_as = range(1, 201)
        averages = _curve_averages(twice_as, scenarios)
        assert averages.shape == (len(scenarios), len(twice_as))
        js = [SpinQuantumNumber(twice_a) for twice_a in twice_as]
        for row, scenario in zip(averages.tolist(), scenarios):
            assert row == [gain for _, gain in infogain_curve(js, *scenario)]

    def test_one_table_request_and_each_kind_built_once(self, monkeypatch):
        calls = collections.Counter()  # (function, first argument)
        for name in ("_table_stack", "_povm_weights", "_make_prior"):
            original = getattr(estimation_module, name)

            def counted(*args, name=name, original=original):
                calls[name, args[0]] += 1
                return original(*args)

            monkeypatch.setattr(estimation_module, name, counted)
        _curve_averages(range(1, 50), SCENARIOS + SCENARIOS[::-1])
        assert calls == {("_table_stack", 1): 1,
                         ("_make_prior", "parallel-antiparallel"): 1,
                         ("_make_prior", "uniform-directions"): 1,
                         ("_povm_weights", "optimal"): 1, ("_povm_weights", "optimal-local"): 1}

    def test_every_scenario_is_checked(self, monkeypatch):
        # a leaky table fails the check of the first scenario, whichever it is
        tables = _table_stack
        monkeypatch.setattr(estimation_module, "_table_stack",
                            lambda twice_b, twice_as: 1.001 * tables(twice_b, twice_as))
        for scenario in SCENARIOS:
            with pytest.raises(ConsistencyError, match="sum to"):
                _curve_averages(range(1, 4), [scenario])

    def test_refusals(self):
        with pytest.raises(ValueError, match="at least 1/2"):
            _curve_averages(range(0, 3), SCENARIOS)
        with pytest.raises(ValueError, match="prior kind"):
            _curve_averages([0], [("bogus", "optimal")])  # the kinds are checked first
        with pytest.raises(ValueError, match="povm kind"):
            _curve_averages([1], [("uniform-directions", "bogus")])

    def test_empty_range(self):
        assert _curve_averages(range(1, 1), SCENARIOS).shape == (4, 0)


def one_row_integral(f, tol=1e-10):
    """The one-row adaptive loop that ``_adaptive_integral`` batches: Gauss-Legendre rules
    from 16 to 1024 nodes, doubling, until one agrees with the one before within tol."""
    previous, n = None, 16
    while n <= 1024:
        nodes, weights = _quad_rule(n)
        value = float(np.dot(weights, f(nodes)))
        if previous is not None and abs(value - previous) < tol:
            return value, n
        previous, n = value, 2 * n
    raise ConsistencyError("quadrature failed to converge")


def one_row_kl_integrand(prior, row):
    """The KL integrand of one posterior's Bernstein coefficients against a density prior,
    summed as one vector-matrix product over the whole basis, less the centred endpoint part
    q [x (ln s - A) + y (ln(1 - s) - B)] of ``_kl_bits``, with the same arithmetic."""
    n = row.size
    x = np.argmax(row != 0.0) - np.argmax(prior.coefficients != 0.0)
    y = np.argmax(row[::-1] != 0.0) - np.argmax(prior.coefficients[::-1] != 0.0)
    tails = np.cumsum(1.0 / np.arange(n, 0.0, -1.0)) / n
    shift = ((x * tails[::-1] + y * tails) * row).sum()

    def integrand(a):
        q = (row @ _bernstein_basis(a, n - 1)) * (0.5 * np.sin(a))
        smooth = x * np.log(np.sin(0.5 * a) ** 2) + y * np.log(np.cos(0.5 * a) ** 2) + shift
        return _kl_terms(q, prior.pdf(a), 1e-12) - q * smooth / math.log(2.0)

    return integrand


class TestBatchedQuadrature:
    @pytest.mark.parametrize("j1, j2", [(5, 5), (2, 3), ("3/2", "7/2")])
    def test_each_row_equals_its_one_row_integral_bit_for_bit(self, monkeypatch, j1, j2):
        prior = uniform_direction_prior()
        rows = _gains(prior, *_stacked(RotInvariantPovm.projective(j1, j2)))[1][0]
        oracle = [one_row_integral(one_row_kl_integrand(prior, row)) for row in rows]
        levels = [n for _, n in oracle]
        if (j1, j2) == (5, 5):  # rows stop at different rules, so rows drop out part way
            assert sorted(set(levels)) == [32, 64]
        results = []

        def recorded(f, rows):
            results.append(_adaptive_integral(f, rows))
            return results[-1]

        monkeypatch.setattr(estimation_module, "_adaptive_integral", recorded)
        gains = _kl_bits(prior, rows)
        assert gains.tolist() == [value for value, _ in oracle]
        assert len(results) == 1  # one batched quadrature for every row
        assert results[0][1] == max(levels)

    def test_rows_that_converged_leave_the_batch(self):
        seen = []

        def integrand(rows, a):
            seen.append(len(rows))
            return np.exp(-rows * a)

        # exp(-a) settles at 32 nodes; the boundary layer of exp(-40 a) needs 64
        values, used = _adaptive_integral(integrand, np.array([[1.0], [40.0]]))
        assert seen == [2, 2, 1]
        assert used == 64
        exact = [(1.0 - math.exp(-c * math.pi)) / c for c in (1.0, 40.0)]
        assert values == pytest.approx(exact, abs=1e-12)

    def test_no_rows(self):
        values, used = _adaptive_integral(lambda rows, a: rows @ np.ones((1, a.size)), np.zeros((0, 1)))
        assert values.shape == (0,)
        assert used == 0

    def test_row_that_never_converges_raises(self):
        # a step in alpha: each rule moves by about 1 / n, far above 1e-10, up to the cap
        def integrand(rows, a):
            return rows * (a < 1.0)

        with pytest.raises(ConsistencyError, match="failed to converge"):
            _adaptive_integral(integrand, np.array([[0.0], [1.0]]))

    def test_report_at_the_kernel_limit_converges_below_the_cap(self, monkeypatch):
        # the largest smaller spin the kernel accepts, under the uniform prior
        j = SpinQuantumNumber(KERNEL_TWICE_J_LIMIT)
        used = []

        def recorded(f, rows):
            used.append(_adaptive_integral(f, rows))
            return used[-1]

        monkeypatch.setattr(estimation_module, "_adaptive_integral", recorded)
        tracemalloc.start()
        try:
            report = average_information_gain(uniform_direction_prior(),
                                              RotInvariantPovm.projective(j, j))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6  # about 3.6 MB; one (outcomes, 2b + 1, nodes) array would be 164 MB
        assert [n for _, n in used] == [128]
        assert 0.0 < report.average_gain_bits < math.log2(j.twice_j + 1)


LADDER = [16 * 2**k for k in range(7)]  # 16 ... 1024, the rules _adaptive_integral takes


def leggauss_on_alpha(n):
    """numpy's eigensolver rule, mapped to [0, pi] as _quad_rule maps its own."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w


class TestQuadRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9] + LADDER)
    def test_matches_numpy_leggauss(self, n):
        nodes, weights = _quad_rule(n)
        want_nodes, want_weights = leggauss_on_alpha(n)
        assert nodes.shape == weights.shape == (n,)
        assert np.max(np.abs(nodes - want_nodes)) <= 1e-15
        assert np.max(np.abs(weights - want_weights)) <= 1e-13
        assert not nodes.flags.writeable and not weights.flags.writeable

    @pytest.mark.parametrize("n", LADDER)
    def test_even_powers_up_to_degree_2n_minus_2_are_exact(self, n):
        nodes, weights = _quad_rule(n)
        x, w = 2.0 * nodes / math.pi - 1.0, 2.0 * weights / math.pi
        twice_k = np.arange(0, 2 * n - 1, 2)
        integrals = (x[None, :] ** twice_k[:, None]) @ w
        assert np.max(np.abs(integrals - 2.0 / (twice_k + 1.0))) <= 1e-13

    @pytest.mark.parametrize("n,stride", [(16, 1), (128, 1), (256, 1), (1024, 16)])
    def test_matches_a_40_digit_rule(self, n, stride):
        # Newton's method on the recurrence in 40-digit decimals, from numpy's nodes in [0, 1);
        # every node of a rule, or every 16th of the largest, and weights to a relative 1e-14
        nodes, weights = _quad_rule(n)
        start_nodes = np.polynomial.legendre.leggauss(n)[0]
        with decimal.localcontext(decimal.Context(prec=40)):
            for i in range(n // 2, n, stride):
                x = decimal.Decimal(start_nodes[i])
                for _ in range(3):
                    previous, current = decimal.Decimal(1), x
                    for k in range(1, n):
                        previous, current = (current,
                                             ((2 * k + 1) * x * current - k * previous) / (k + 1))
                    x -= current * (x * x - 1) / (n * (x * current - previous))
                weight = 0.5 * math.pi * float(2 * (1 - x * x) / (n * previous) ** 2)
                assert abs(nodes[i] - 0.5 * math.pi * (float(x) + 1.0)) <= 1e-15
                assert abs(weights[i] - weight) <= 1e-15
                assert abs(weights[i] - weight) <= 1e-14 * weight

    def test_rules_are_symmetric(self):
        nodes, weights = _quad_rule(64)
        assert np.max(np.abs(nodes + nodes[::-1] - math.pi)) <= 1e-15
        assert np.array_equal(weights, weights[::-1])

    def test_row_that_never_converges_raises_within_half_a_second(self):
        _quad_rule.cache_clear()  # every rule up to the cap is built in the loop
        start = time.perf_counter()
        with pytest.raises(ConsistencyError, match="failed to converge"):
            _adaptive_integral(lambda rows, a: rows * (a < 1.0), np.array([[1.0]]))
        assert time.perf_counter() - start < 0.5


def rational_tables(twice_b, twice_as):
    """T[J, k] of ``_table_stack``, each entry the correctly rounded float of its Fraction:
    (2J+1) P(2a, x) (2b-x)! (2b)! / [P(2a+2b-x+1, k+1) x! (k-x)! ((2b-k)!)^2], x = a + b - J."""
    factorial = math.factorial
    tables = np.zeros((len(twice_as), twice_b + 1, twice_b + 1))
    for table, twice_a in zip(tables, twice_as):
        for x in range(twice_b + 1):
            for k in range(x, twice_b + 1):
                head = ((twice_a + twice_b - 2 * x + 1) * math.perm(twice_a, x)
                        * factorial(twice_b - x) * factorial(twice_b))
                den = (math.perm(twice_a + twice_b - x + 1, k + 1) * factorial(x)
                       * factorial(k - x) * factorial(twice_b - k) ** 2)
                table[twice_b - x, k] = float(Fraction(head, den))
    return tables


def largest_float_fit(twice_b):
    """The largest 2a with P(2a+2b+1, 2b+1) ((2b)!)^3 below 2^53, by bisection."""
    def fits(twice_a):
        return math.perm(twice_a + twice_b + 1, twice_b + 1) * math.factorial(twice_b) ** 3 < 2**53

    low, high = twice_b, 2**53
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if fits(middle) else (low, middle)
    return low


def float_fit_stacks():
    """(2b, stack, whether the float arrays evaluate it): stacks just below and just past the
    bound for 2b = 1, 2, 3, two pairs at 10^400 and the empty stack."""
    cases = []
    for twice_b in (1, 2, 3):
        top = largest_float_fit(twice_b)
        cases += [pytest.param(twice_b, (top - 1, top), True, id=f"2b={twice_b}-below"),
                  pytest.param(twice_b, (twice_b, twice_b + 1, top), True, id=f"2b={twice_b}-from-b"),
                  pytest.param(twice_b, (top, top + 1), False, id=f"2b={twice_b}-straddle"),
                  pytest.param(twice_b, (top + 1, top + 2), False, id=f"2b={twice_b}-past")]
    return cases + [pytest.param(1, (2 * 10**400, 2 * 10**400 + 1), False, id="j=1e400"),
                    pytest.param(3, (), False, id="empty")]


class TestLikelihoodTables:
    @pytest.mark.parametrize("twice_b", [1, 2, 3, 7])
    def test_stack_equals_one_table_per_pair_bit_for_bit(self, twice_b):
        # a stack of 2b <= 3 is evaluated in float arrays, each single table in Python integers
        twice_as = (twice_b, twice_b + 1, 2 * twice_b + 3, 64, 999, 1000)
        stack = _table_stack(twice_b, twice_as)
        single = np.concatenate([_table_stack(twice_b, (twice_a,)) for twice_a in twice_as])
        assert stack.shape == (len(twice_as), twice_b + 1, twice_b + 1)
        assert stack.tobytes() == single.tobytes()
        assert not stack.flags.writeable

    @pytest.mark.parametrize("twice_b,twice_as,in_floats", float_fit_stacks())
    def test_tables_are_the_correctly_rounded_rationals(self, monkeypatch, twice_b, twice_as,
                                                        in_floats):
        estimation_module._table_stack.cache_clear()
        built = []
        float_stack = estimation_module._float_table_stack
        monkeypatch.setattr(estimation_module, "_float_table_stack",
                            lambda *args: built.append(args) or float_stack(*args))
        tables = _table_stack(twice_b, twice_as)
        assert len(built) == in_floats
        assert tables.shape == (len(twice_as), twice_b + 1, twice_b + 1)
        assert tables.tobytes() == rational_tables(twice_b, twice_as).tobytes()
        # the local POVM's ratios: one float division over the stack, or Python-integer
        # quotients one pair at a time, as for a single pair
        weights = _povm_weights("optimal-local", twice_as, tables)
        single = [_povm_weights("optimal-local", (twice_a,), table[None])
                  for twice_a, table in zip(twice_as, tables)]
        assert weights.tobytes() == b"".join(w.tobytes() for w in single)
        estimation_module._table_stack.cache_clear()

    def test_one_cache_for_stacks_and_single_tables(self):
        stack = _table_stack(3, (7, 9))
        assert _table_stack(3, (7, 9)) is stack
        single = _table_stack(3, (7,))
        assert _table_stack(3, (7,)) is single
        assert single.shape == (1, 4, 4)
        assert not stack.flags.writeable and not single.flags.writeable


class TestScenarioFactories:
    def test_unknown_prior_kind_names_the_kinds(self):
        with pytest.raises(ValueError, match="parallel-antiparallel.*uniform-directions"):
            _make_prior("x")

    def test_unknown_povm_kind_names_the_kinds(self):
        with pytest.raises(ValueError, match="optimal.*optimal-local"):
            _make_povm("x", HALF, HALF)

    @pytest.mark.parametrize("j1,j2", [(0, 1), (1, 0), (0, 0), (0, "1/2")])
    def test_local_povm_refuses_a_spin_zero(self, j1, j2):
        # it once failed with "weights shape (1, 1) does not match labels x blocks"
        with pytest.raises(ValueError, match="both spins to be at least 1/2"):
            _make_povm("optimal-local", j1, j2)

    def test_optimal_local_povm_refuses_spin_zero(self):
        with pytest.raises(ValueError, match="at least 1/2"):
            optimal_local_povm(0)

    def test_joint_povm_on_a_spin_zero_is_projective(self):
        povm = _make_povm("optimal", 0, 1)
        projective = RotInvariantPovm.projective(0, 1)
        assert povm.labels == projective.labels == ("J=1",)
        assert np.array_equal(povm.weights, projective.weights)

    def test_local_povm_on_a_spin_one_probe(self):
        # the pair once refused for want of a spin-1/2 probe: three outcomes, the middle one m = 0
        povm = _make_povm("optimal-local", 1, 1)
        assert povm.labels == ("aligned", "m=0", "antialigned")
        report = average_information_gain(uniform_direction_prior(), povm)
        assert round(report.average_gain_bits, 6) == 0.094726
        joint = average_information_gain(uniform_direction_prior(), _make_povm("optimal", 1, 1))
        assert report.average_gain_bits < joint.average_gain_bits


# (larger spin a, smaller spin b), from spin 1/2 up to the kernel's limit 2b = 200
SAMPLED_LOCAL_PAIRS = [("1/2", "1/2"), ("2", "1"), ("3/2", "3/2"), ("10", "10"), ("100", "100"),
                       ("1000", "100"), ("1000000", "10")]


class TestLocalPovmSampler:
    @pytest.mark.parametrize(("seed", "a", "b"), [(seed, a, b) for seed, (a, b)
                                                  in enumerate(SAMPLED_LOCAL_PAIRS)],
                             ids=[f"{a},{b}" for a, b in SAMPLED_LOCAL_PAIRS])
    def test_sampled_frequencies_match_the_table(self, seed, a, b):
        # the protocol itself, sampled with no matrix and no code shared with the table: each
        # outcome expected 20 or more times lies within 5 sigma, and the rest, pooled, within
        # chi^2 = 25 of their joint mass (n p << 1 breaks the normal approximation)
        n = 400_000
        a, b = spin(a), spin(b)
        alphas = np.array([0.4, math.pi / 2, 2.6])
        table = povm_outcome_probabilities(_make_povm("optimal-local", a, b), alphas)
        for i, (alpha, p) in enumerate(zip(alphas, table.T)):
            rng = np.random.default_rng([seed, i])
            counts = sample_local_povm(a.twice_j, b.twice_j, alpha, n, rng)
            expected = n * p
            well = expected >= 20.0
            z = (counts[well] - expected[well]) / np.sqrt(expected[well] * (1.0 - p[well]))
            assert np.max(np.abs(z)) < 5.0
            pooled, mass = counts[~well].sum(), expected[~well].sum()
            assert (pooled - mass) ** 2 < 25.0 * mass or pooled == mass == 0.0


def born_limit_oracle(j1, alpha, j2):
    """born_limit_check with the Born distribution from the spin-j1 rotation matrix."""
    j1, j2 = spin(j1), spin(j2)
    block_probs = _block_probability_matrix(j1, j2, np.array([alpha]))[:, 0]
    amplitudes = rotation_matrix(j1, Rotation(0.0, float(alpha), 0.0))[:, 0]
    born = np.abs(amplitudes) ** 2  # ordered by decreasing m
    return float(np.max(np.abs(block_probs - born[::-1])))


class TestBornLimit:
    @pytest.mark.parametrize(
        "twice_j1, twice_j2, alphas",
        [(1, 20, None), (1, 200, None), (1, 2000, None), (1, 10, [0.0]), (1, 60, [0.0]),
         (2, 20, [math.pi / 4.0]), (2, 40, [math.pi / 4.0]), (2, 60, [math.pi / 4.0])],
    )
    def test_closed_form_matches_rotation_matrix(self, twice_j1, twice_j2, alphas):
        j1, j2 = SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2)
        for alpha in np.linspace(0.0, math.pi, 61) if alphas is None else alphas:
            assert abs(born_limit_check(j1, alpha, j2) - born_limit_oracle(j1, alpha, j2)) < 1e-14

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

    def test_spin_one_deviation_decreases_with_j2(self):
        deviations = [born_limit_check(spin(1), math.pi / 4.0, spin(j2)) for j2 in (10, 20, 30)]
        assert deviations[0] > deviations[1] > deviations[2]

    def test_requires_larger_second_spin(self):
        with pytest.raises(ValueError):
            born_limit_check(spin(2), 0.3, spin(1))


class TestDistributions:
    def test_discrete_requires_normalization(self):
        with pytest.raises(ValueError):
            DiscreteAngleDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.4]))

    @pytest.mark.parametrize(("alphas", "weights", "message"), [
        ([[0.0, 1.0]], [[0.5, 0.5]], "1-d arrays of equal length"),
        ([0.0, 1.0], [1.0], "1-d arrays of equal length"),
        ([-0.1, 1.0], [0.5, 0.5], r"lie in \[0, pi\]"),
        ([0.0, math.pi + 1e-9], [0.5, 0.5], r"lie in \[0, pi\]"),
        ([0.0, math.nan], [0.5, 0.5], r"lie in \[0, pi\]"),
    ])
    def test_discrete_rejects_malformed_support(self, alphas, weights, message):
        with pytest.raises(ValueError, match=message):
            DiscreteAngleDistribution(np.array(alphas), np.array(weights))

    def test_density_requires_normalization(self):
        with pytest.raises(ValueError):
            AngleDensity([2.0])

    @pytest.mark.parametrize("coefficients", [[], [[1.0]], [2.0, -0.5, 0.5], [math.nan, 1.0]])
    def test_density_rejects_malformed_coefficients(self, coefficients):
        with pytest.raises(ValueError):
            AngleDensity(coefficients)

    def test_stack_checks_hold_the_constructors_bounds(self):
        # one bad row of a stack fails it, with the error the caller names
        weights = np.array([[0.25, 0.75], [1.0 - 1e-13, -1e-13]])
        clipped = estimation_module._checked_weights(weights, ConsistencyError)
        assert clipped.tolist() == [
            DiscreteAngleDistribution(np.array([0.0, math.pi]), row).weights.tolist()
            for row in weights]
        for bad in ([[0.5, 0.5], [1.0 + 1e-9, -1e-9]], [[0.5, 0.5], [0.5, 0.5 + 1e-11]],
                    [[0.5, 0.5], [math.nan, 1.0]]):
            with pytest.raises(ConsistencyError):
                estimation_module._checked_weights(np.array(bad), ConsistencyError)
        coefficients = np.array([[1.0, 1.0], [2.0 - 1e-11, 0.0]])
        estimation_module._check_coefficients(coefficients, ConsistencyError)
        for bad in ([[1.0, 1.0], [2.0 + 1e-9, 0.0]], [[1.0, 1.0], [2.0 + 1e-9, -1e-9]],
                    [[1.0, 1.0], [math.nan, 1.0]]):
            with pytest.raises(ConsistencyError):
                estimation_module._check_coefficients(np.array(bad), ConsistencyError)
            with pytest.raises(ValueError):
                AngleDensity(bad[1])

    def test_density_pdf_keeps_the_input_shape(self):
        density = AngleDensity([0.5, 1.5, 1.0])
        assert density.pdf(0.3).shape == ()
        assert density.pdf(np.full((2, 3), 0.3)).shape == (2, 3)
        assert abs(gauss_legendre_alpha(density.pdf) - 1.0) < 1e-14

    def test_uniform_prior_normalized(self):
        prior = uniform_direction_prior()
        assert abs(gauss_legendre_alpha(prior.pdf) - 1.0) < 1e-10
