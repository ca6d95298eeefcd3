import math
import sys
import tracemalloc

import numpy as np
import pytest

import relangle.sim as sim_module
from relangle import (
    AngleDensity,
    ConsistencyError,
    CouplingDecomposition,
    DensityMatrix,
    RotInvariantPovm,
    average_information_gain,
    bayes_update,
    coherent_state,
    haar_rotation,
    optimal_local_povm,
    parallel_antiparallel_prior,
    rotation_matrix,
    run_experiment,
    sample_outcome,
    spin,
    uniform_direction_prior,
)
from relangle.angular import Direction
from relangle.estimation import _make_povm
from relangle.sim import CHUNK_TRIALS, MAX_TRIALS, _prior_sampler
from relangle.states import InvariantState, collective_rotate, product_coherent_pair

HALF = spin("1/2")

# the three pairs of the benchmark's Monte Carlo mix: (j1, j2, prior, POVM)
MC_CASES = (
    (HALF, HALF, parallel_antiparallel_prior, lambda: RotInvariantPovm.projective(HALF, HALF)),
    (HALF, spin("3/2"), uniform_direction_prior, lambda: optimal_local_povm(spin("3/2"))),
    (spin(2), spin(3), uniform_direction_prior, lambda: RotInvariantPovm.projective(2, 3)),
)


def dense_run_experiment(prior, povm, n_trials, seed):
    """Outcome counts of the experiment simulated one dense state per trial.

    Each trial draws an angle and a Haar-random collective orientation from
    its own child generator, rotates the dense coherent pair, and samples the
    outcome from its group-averaged block weights: the reference that the
    closed-form sampling in ``run_experiment`` must agree with.
    """
    j1, j2 = povm.j1, povm.j2
    draw_angles = _prior_sampler(prior)
    top1 = coherent_state(j1, Direction(0.0, 0.0)).amplitudes
    dims = (j1.dimension, j2.dimension)
    counts = np.zeros(povm.n_outcomes, dtype=np.int64)
    for trial in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
        alpha = float(draw_angles(rng, 1)[0])
        omega = haar_rotation(rng)
        u1 = rotation_matrix(j1, omega) @ top1
        u2 = rotation_matrix(j2, omega) @ coherent_state(j2, Direction(alpha, 0.0)).amplitudes
        psi = np.kron(u1, u2)
        rho = DensityMatrix(np.outer(psi, psi.conj()), dims)
        counts[povm.index(sample_outcome(rho, povm, rng))] += 1
    return counts


class TestHaarRotation:
    def test_mean_spin_half_matrix_vanishes(self):
        rng = np.random.default_rng(42)
        n = 100_000
        acc = np.zeros((2, 2), dtype=complex)
        acc_sq = np.zeros((2, 2))
        for _ in range(n):
            u = rotation_matrix(HALF, haar_rotation(rng))
            acc += u
            acc_sq += np.abs(u) ** 2
        mean = acc / n
        stderr = np.sqrt(np.clip(acc_sq / n - np.abs(mean) ** 2, 0.0, None) / n)
        assert np.all(np.abs(mean) <= 5.0 * stderr)

    def test_cos_beta_uniform_kolmogorov_smirnov(self):
        rng = np.random.default_rng(43)
        n = 100_000
        samples = np.sort(np.cos([haar_rotation(rng).euler_beta for _ in range(n)]))
        cdf = (samples + 1.0) / 2.0
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(np.max(empirical_hi - cdf), np.max(cdf - empirical_lo))
        assert ks < 1.63 / math.sqrt(n)  # 1% critical value

    def test_angle_ranges(self):
        rng = np.random.default_rng(44)
        for _ in range(200):
            r = haar_rotation(rng)
            assert 0.0 <= r.euler_alpha < 2.0 * math.pi
            assert 0.0 <= r.euler_beta <= math.pi
            assert 0.0 <= r.euler_gamma < 4.0 * math.pi


class TestSampleOutcome:
    def test_deterministic_outcome(self):
        rng = np.random.default_rng(0)
        povm = RotInvariantPovm.projective(HALF, HALF)
        aligned = product_coherent_pair(HALF, HALF, Direction(0, 0), Direction(0, 0))
        for _ in range(50):
            assert sample_outcome(aligned, povm, rng) == "J=1"

    def test_antiparallel_frequency(self):
        rng = np.random.default_rng(1)
        povm = RotInvariantPovm.projective(HALF, HALF)
        rho = product_coherent_pair(HALF, HALF, Direction(0, 0), Direction(math.pi, 0))
        n = 100_000
        hits = sum(sample_outcome(rho, povm, rng) == "J=0" for _ in range(n))
        sigma = math.sqrt(0.5 * 0.5 / n)
        assert abs(hits / n - 0.5) <= 5.0 * sigma

    def test_prior_averaged_state_frequency(self):
        rng = np.random.default_rng(2)
        povm = RotInvariantPovm.projective(HALF, HALF)
        averaged = InvariantState(HALF, HALF, {spin(0): 0.25, spin(1): 0.75})
        n = 100_000
        hits = sum(sample_outcome(averaged, povm, rng) == "J=0" for _ in range(n))
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(hits / n - 0.25) <= 5.0 * sigma

    def test_draws_follow_the_cumulative_rule(self):
        # one uniform per draw, scaled by the total: the outcome is the count of
        # cumulative probabilities at or below it
        povm = RotInvariantPovm.projective(spin(2), spin(3))
        state = InvariantState(spin(2), spin(3), dict(zip(povm.j_values, [0.1, 0.3, 0.2, 0.25, 0.15])))
        probabilities = povm.weights @ state.weight_array()
        cumulative = np.cumsum(probabilities)
        rng, oracle = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(1000):
            u = oracle.random() * probabilities.sum()
            k = min(int(np.searchsorted(cumulative, u, side="right")), povm.n_outcomes - 1)
            assert sample_outcome(state, povm, rng) == povm.labels[k]

    def test_unknown_state_type_rejected(self):
        rng = np.random.default_rng(3)
        povm = RotInvariantPovm.projective(HALF, HALF)
        with pytest.raises(TypeError):
            sample_outcome(object(), povm, rng)

    def test_invariant_state_of_another_pair_refused(self):
        # the (1/2, 1) projective POVM once read the two block weights of (1/2, 2) and drew "J=3/2"
        rng = np.random.default_rng(7)
        povm = RotInvariantPovm.projective(HALF, spin(1))
        state = InvariantState(HALF, spin(2), {spin("3/2"): 0.2, spin("5/2"): 0.8})
        with pytest.raises(ValueError, match="different spin pairs"):
            sample_outcome(state, povm, rng)

    def test_consistency_error_on_leaky_probabilities(self, monkeypatch):
        import relangle.sim as sim_module

        rng = np.random.default_rng(4)
        averaged = InvariantState(HALF, HALF, {spin(0): 0.25, spin(1): 0.75})
        povm = RotInvariantPovm.projective(HALF, HALF)
        monkeypatch.setattr(
            sim_module,
            "povm_probabilities_from_state",
            lambda povm, state: np.array([0.3, 0.3]),
        )
        with pytest.raises(ConsistencyError):
            sample_outcome(averaged, povm, rng)

    def test_rotation_invariant_sampling(self):
        # frequencies from a collectively rotated state match the unrotated ones
        rng = np.random.default_rng(5)
        povm = RotInvariantPovm.projective(HALF, HALF)
        rho = product_coherent_pair(HALF, HALF, Direction(0, 0), Direction(2.0, 0))
        rotated = collective_rotate(rho, haar_rotation(rng))
        n = 20_000
        base = sum(sample_outcome(rho, povm, rng) == "J=0" for _ in range(n)) / n
        moved = sum(sample_outcome(rotated, povm, rng) == "J=0" for _ in range(n)) / n
        sigma = math.sqrt(2.0 * 0.25 * 0.75 / n)
        assert abs(base - moved) <= 5.0 * sigma


class TestRunExperiment:
    def test_mean_gain_matches_analytic(self):
        summary = run_experiment(
            parallel_antiparallel_prior(),
            RotInvariantPovm.projective(HALF, HALF),
            20_000,
            seed=11,
        )
        assert abs(summary.mean_gain_bits - summary.analytic_average_gain_bits) <= (
            5.0 * summary.gain_standard_error_bits
        )
        for freq, p, se in zip(
            summary.frequencies, summary.analytic_probabilities, summary.frequency_standard_errors
        ):
            assert abs(freq - p) <= 5.0 * se + 1e-12

    def test_same_seed_reproduces_summary(self):
        args = (parallel_antiparallel_prior(), RotInvariantPovm.projective(HALF, HALF), 400)
        first = run_experiment(*args, seed=99)
        second = run_experiment(*args, seed=99)
        assert np.array_equal(first.counts, second.counts)
        assert first.mean_gain_bits == second.mean_gain_bits
        assert first.gain_standard_error_bits == second.gain_standard_error_bits

    def test_single_trial(self):
        summary = run_experiment(
            parallel_antiparallel_prior(),
            RotInvariantPovm.projective(HALF, HALF),
            1,
            seed=5,
        )
        assert summary.n_trials == 1
        assert int(summary.counts.sum()) == 1
        assert summary.gain_standard_error_bits == 0.0

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_experiment(
                parallel_antiparallel_prior(),
                RotInvariantPovm.projective(HALF, HALF),
                0,
                seed=1,
            )

    def test_rejects_trials_past_exact_counts(self, monkeypatch):
        # refused arithmetically: a run this long would never finish, so no trial may start
        def no_trials(*args):
            raise AssertionError("trials sampled")

        monkeypatch.setattr(sim_module, "_sample_chunk", no_trials)
        with pytest.raises(ValueError, match=r"\[1, 2\*\*53\]"):
            run_experiment(
                parallel_antiparallel_prior(),
                RotInvariantPovm.projective(HALF, HALF),
                MAX_TRIALS + 1,
                seed=1,
            )

    @pytest.mark.parametrize("n_trials", [2.5, "10", True])
    def test_rejects_a_trial_count_that_is_not_an_integer(self, monkeypatch, n_trials):
        def no_work(*args):
            raise AssertionError("work done before the trial count was checked")

        monkeypatch.setattr(sim_module, "_gains", no_work)
        monkeypatch.setattr(sim_module, "_sample_chunk", no_work)
        with pytest.raises(TypeError, match="n_trials"):
            run_experiment(parallel_antiparallel_prior(), RotInvariantPovm.projective(HALF, HALF),
                           n_trials, seed=1)

    def test_accepts_a_numpy_integer_trial_count(self):
        summary = run_experiment(parallel_antiparallel_prior(),
                                 RotInvariantPovm.projective(HALF, HALF), np.int64(5), seed=1)
        assert type(summary.n_trials) is int and summary.n_trials == 5
        assert int(summary.counts.sum()) == 5

    def test_either_pair_order_gives_the_same_counts(self):
        # the POVM names its pair, and (a, b) and (b, a) are one measurement
        prior = uniform_direction_prior()
        first, second = (run_experiment(prior, _make_povm("optimal-local", *pair), 3000, seed=8)
                         for pair in ((spin("3/2"), 1), (1, spin("3/2"))))
        assert np.array_equal(first.counts, second.counts)
        assert first.mean_gain_bits == second.mean_gain_bits

    def test_joint_beats_local_in_paired_runs(self):
        prior = parallel_antiparallel_prior()
        n = 100_000
        joint = run_experiment(prior, RotInvariantPovm.projective(HALF, HALF), n, seed=21)
        local = run_experiment(prior, optimal_local_povm(HALF), n, seed=22)
        difference = joint.mean_gain_bits - local.mean_gain_bits
        sigma = math.hypot(joint.gain_standard_error_bits, local.gain_standard_error_bits)
        assert difference > 3.0 * sigma

    def test_uniform_prior_sampling(self):
        from relangle import uniform_direction_prior

        summary = run_experiment(
            uniform_direction_prior(),
            RotInvariantPovm.projective(HALF, HALF),
            20_000,
            seed=33,
        )
        for freq, p, se in zip(
            summary.frequencies, summary.analytic_probabilities, summary.frequency_standard_errors
        ):
            assert abs(freq - p) <= 5.0 * se + 1e-12


class TestChunkedExperiment:
    def test_dense_oracle_agrees_within_five_sigma(self):
        n = 2000
        for j1, j2, make_prior, make_povm in MC_CASES:
            prior, povm = make_prior(), make_povm()
            dense = dense_run_experiment(prior, povm, n, seed=61) / n
            fast = run_experiment(prior, povm, n, seed=62).frequencies
            pooled = 0.5 * (dense + fast)
            sigma = np.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
            assert np.all(np.abs(dense - fast) <= 5.0 * sigma + 1e-12), (j1, j2)

    def test_local_povm_on_a_general_pair_within_five_sigma(self):
        # a probe larger than spin 1/2: the spin 1 is measured along the direction that the
        # spin 3/2 found, so there are three outcomes
        j1, j2, prior = spin("3/2"), spin(1), uniform_direction_prior()
        povm = _make_povm("optimal-local", j1, j2)
        assert povm.labels == ("aligned", "m=0", "antialigned")
        summary = run_experiment(prior, povm, 20_000, seed=64)
        for freq, p, se in zip(
            summary.frequencies, summary.analytic_probabilities, summary.frequency_standard_errors
        ):
            assert abs(freq - p) <= 5.0 * se + 1e-12
        gap = abs(summary.mean_gain_bits - summary.analytic_average_gain_bits)
        assert gap <= 5.0 * summary.gain_standard_error_bits
        assert summary.analytic_average_gain_bits == (
            average_information_gain(prior, povm).average_gain_bits)
        n = 2000
        dense = dense_run_experiment(prior, povm, n, seed=65) / n
        fast = run_experiment(prior, povm, n, seed=66).frequencies
        pooled = 0.5 * (dense + fast)
        sigma = np.sqrt(pooled * (1.0 - pooled) * 2.0 / n)
        assert np.all(np.abs(dense - fast) <= 5.0 * sigma + 1e-12)

    @pytest.mark.parametrize("j1,j2,make_prior", [
        (spin(20), spin(100), uniform_direction_prior),
        (HALF, spin(10**6), parallel_antiparallel_prior),
    ], ids=["20-100-uniform", "half-1e6-pap"])
    def test_pair_past_the_dense_cap_within_five_sigma(self, j1, j2, make_prior):
        # product dimensions 41 * 201 and 2 * 2000001, past DENSE_DIMENSION_CAP: sampling
        # reads only the closed-form likelihood, so no dense limit applies
        prior, povm = make_prior(), _make_povm("optimal", j1, j2)
        summary = run_experiment(prior, povm, 20_000, seed=67)
        for freq, p, se in zip(
            summary.frequencies, summary.analytic_probabilities, summary.frequency_standard_errors
        ):
            assert abs(freq - p) <= 5.0 * se + 1e-12
        gap = abs(summary.mean_gain_bits - summary.analytic_average_gain_bits)
        assert gap <= 5.0 * summary.gain_standard_error_bits
        assert summary.analytic_average_gain_bits == (
            average_information_gain(prior, povm).average_gain_bits)

    def test_never_builds_dense_states(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("run_experiment took the dense per-trial path")

        for name in ("relangle", "relangle.angular", "relangle.sim", "relangle.states",
                     "relangle.coupling", "relangle.estimation", "relangle.locc"):
            module = sys.modules[name]
            if vars(module).get("rotation_matrix") is rotation_matrix:
                monkeypatch.setattr(module, "rotation_matrix", forbidden)
        monkeypatch.setattr(DensityMatrix, "__init__", forbidden)
        monkeypatch.setattr(DensityMatrix, "_pure", forbidden)
        monkeypatch.setattr(CouplingDecomposition, "block_probabilities", forbidden)
        monkeypatch.setattr(CouplingDecomposition, "_rank_one_block_probabilities", forbidden)
        monkeypatch.setattr(sim_module, "haar_rotation", forbidden)
        for _, _, make_prior, make_povm in MC_CASES:
            summary = run_experiment(make_prior(), make_povm(), 500, seed=63)
            assert int(summary.counts.sum()) == 500

    @pytest.mark.parametrize(
        "n", [CHUNK_TRIALS - 1, CHUNK_TRIALS, CHUNK_TRIALS + 1, 2 * CHUNK_TRIALS + 1]
    )
    def test_chunk_edges(self, n):
        args = (parallel_antiparallel_prior(), RotInvariantPovm.projective(HALF, HALF))
        first = run_experiment(*args, n, seed=64)
        second = run_experiment(*args, n, seed=64)
        assert int(first.counts.sum()) == n
        assert np.array_equal(first.counts, second.counts)
        assert first.mean_gain_bits == second.mean_gain_bits
        assert first.gain_standard_error_bits == second.gain_standard_error_bits
        # one child seed per chunk: the full first chunk is shared with a
        # longer run, so the counts differ by the trials past it
        if n > CHUNK_TRIALS:
            head = run_experiment(*args, CHUNK_TRIALS, seed=64)
            assert np.all(first.counts >= head.counts)

    def test_gain_summary_matches_per_trial_formulas(self):
        for j1, j2, make_prior, make_povm in (MC_CASES[0], MC_CASES[2]):
            prior, povm = make_prior(), make_povm()
            summary = run_experiment(prior, povm, 20_000, seed=65)
            report = average_information_gain(prior, povm)
            gains = np.repeat([entry.information_gain_bits for entry in report.outcomes],
                              summary.counts)
            standard_error = gains.std(ddof=1) / math.sqrt(gains.size)
            assert summary.mean_gain_bits == pytest.approx(gains.mean(), rel=1e-12, abs=0.0)
            assert summary.gain_standard_error_bits == pytest.approx(
                standard_error, rel=1e-12, abs=0.0
            )

    @pytest.mark.parametrize("leak", [0.3, math.nan])
    def test_consistency_error_on_leaky_probabilities(self, monkeypatch, leak):
        monkeypatch.setattr(
            sim_module,
            "povm_outcome_probabilities",
            lambda povm, alphas: np.full((povm.n_outcomes, np.size(alphas)), leak),
        )
        with pytest.raises(ConsistencyError):
            run_experiment(
                parallel_antiparallel_prior(),
                RotInvariantPovm.projective(HALF, HALF), 100, seed=66,
            )

    def test_memory_does_not_grow_with_trials(self):
        prior, povm = uniform_direction_prior(), RotInvariantPovm.projective(2, 3)
        tracemalloc.start()
        try:
            summary = run_experiment(prior, povm, 1_000_000, seed=67)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.n_trials == 1_000_000
        assert peak < 16 * 2**20


class TestPriorSampler:
    def test_uniform_direction_kolmogorov_smirnov(self):
        n = 100_000
        draw = _prior_sampler(uniform_direction_prior())
        samples = np.sort(draw(np.random.default_rng(68), n))
        cdf = 0.5 * (1.0 - np.cos(samples))
        empirical_hi = np.arange(1, n + 1) / n
        empirical_lo = np.arange(0, n) / n
        ks = max(np.max(empirical_hi - cdf), np.max(cdf - empirical_lo))
        assert ks < 1.63 / math.sqrt(n)  # 1% critical value

    def test_parallel_antiparallel_support_and_frequency(self):
        n = 100_000
        draw = _prior_sampler(parallel_antiparallel_prior())
        samples = draw(np.random.default_rng(69), n)
        assert set(np.unique(samples)) <= {0.0, math.pi}
        sigma = math.sqrt(0.25 / n)
        assert abs(np.mean(samples == math.pi) - 0.5) <= 5.0 * sigma

    def test_density_posterior_kolmogorov_smirnov(self):
        # a degree-4 posterior: its CDF in s is the Bernstein polynomial of degree n + 1 with
        # coefficients [0, cumsum(b) / (n + 1)], the antiderivative of the density in s
        povm = RotInvariantPovm.projective(spin(2), spin(3))
        posterior = bayes_update(uniform_direction_prior(), povm, povm.labels[1])
        b = posterior.coefficients
        n = b.size - 1
        assert n == 4 and np.ptp(b) > 0.5
        antiderivative = np.concatenate([[0.0], np.cumsum(b) / (n + 1)])
        size = 100_000
        samples = np.sort(_prior_sampler(posterior)(np.random.default_rng(70), size))
        s = np.sin(0.5 * samples) ** 2
        cdf = sum(c * math.comb(n + 1, i) * s**i * (1.0 - s) ** (n + 1 - i)
                  for i, c in enumerate(antiderivative))
        empirical_hi = np.arange(1, size + 1) / size
        empirical_lo = np.arange(0, size) / size
        ks = max(np.max(empirical_hi - cdf), np.max(cdf - empirical_lo))
        assert ks < 1.63 / math.sqrt(size)  # 1% critical value

    def test_discrete_draws_follow_the_cumulative_rule(self):
        prior = parallel_antiparallel_prior()
        samples = _prior_sampler(prior)(np.random.default_rng(71), 1000)
        u = np.random.default_rng(71).random(1000)
        k = np.minimum(np.searchsorted(np.cumsum(prior.weights), u, "right"), 1)
        assert np.array_equal(samples, prior.alphas[k])

    def test_high_degree_density_memory_does_not_grow_with_trials(self):
        n = 200
        prior = AngleDensity(2.0 * np.arange(n + 1) / n)  # mean 1, weight rising with s
        povm = RotInvariantPovm.projective(2, 3)
        tracemalloc.start()
        try:
            summary = run_experiment(prior, povm, 1_000_000, seed=72)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary.n_trials == 1_000_000
        assert peak < 16 * 2**20
        for freq, p, se in zip(
            summary.frequencies, summary.analytic_probabilities, summary.frequency_standard_errors
        ):
            assert abs(freq - p) <= 5.0 * se + 1e-12
