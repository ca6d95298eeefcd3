"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest -s`` to see lines for passing criteria)."""

import math

import numpy as np

from relangle import (
    LoccProtocolConfig,
    RotInvariantPovm,
    average_information_gain,
    bayes_update,
    born_limit_check,
    clebsch_gordan,
    collective_rotate,
    haar_rotation,
    infogain_curve,
    invariant_average,
    locc_protocol_statistics,
    map_estimate,
    optimal_local_povm,
    outcome_probabilities,
    parallel_antiparallel_prior,
    partial_transpose,
    povm_outcome_probabilities,
    povm_probabilities_from_state,
    ppt_threshold,
    projector,
    rotation_matrix,
    run_experiment,
    sample_outcome,
    spin,
    total_j_values,
    uniform_direction_prior,
    werner_state,
)
from relangle.angular import Direction, Rotation
from relangle.states import product_coherent_pair

HALF = spin("1/2")
MC_TRIALS = 100_000


def half_integers(lo_twice, hi_twice):
    return [spin(f"{t}/2") if t % 2 else spin(t // 2) for t in range(lo_twice, hi_twice + 1)]


def finish(criterion, checks):
    failures = [f"{name} ({detail})" for name, ok, detail in checks if not ok]
    if failures:
        print(f"[FAIL] {criterion}: " + "; ".join(failures))
    else:
        print(f"[PASS] {criterion}")
    assert not failures, f"{criterion}: " + "; ".join(failures)


def test_criterion_1_two_qubit_parallel_antiparallel():
    checks = []
    prior = parallel_antiparallel_prior()
    povm = RotInvariantPovm.projective(HALF, HALF)
    report = average_information_gain(prior, povm)
    antisym = report.outcome("J=0")
    sym = report.outcome("J=1")
    checks.append(("I_A = 1 bit", abs(antisym.information_gain_bits - 1.0) < 1e-12,
                   f"{antisym.information_gain_bits!r}"))
    exact_sym_gain = 5.0 / 3.0 - math.log2(3.0)
    checks.append(("I_S = 5/3 - log2(3)",
                   abs(sym.information_gain_bits - exact_sym_gain) < 1e-12,
                   f"{sym.information_gain_bits!r}"))
    checks.append(("I_av near 0.3113", abs(report.average_gain_bits - 0.3113) < 5e-5,
                   f"{report.average_gain_bits!r}"))
    checks.append(("p(A) = 1/4", abs(antisym.probability - 0.25) < 1e-12,
                   f"{antisym.probability!r}"))
    checks.append(("p(S) = 3/4", abs(sym.probability - 0.75) < 1e-12,
                   f"{sym.probability!r}"))
    checks.append(("posterior given S is (2/3, 1/3)",
                   np.max(np.abs(sym.posterior.weights - [2 / 3, 1 / 3])) < 1e-12,
                   f"{sym.posterior.weights}"))
    checks.append(("posterior given A is (0, 1)",
                   np.max(np.abs(antisym.posterior.weights - [0.0, 1.0])) < 1e-12,
                   f"{antisym.posterior.weights}"))
    finish("criterion 1 (two-qubit parallel/antiparallel prior)", checks)


def test_criterion_2_two_qubit_uniform_prior():
    checks = []
    prior = uniform_direction_prior()
    povm = RotInvariantPovm.projective(HALF, HALF)
    report = average_information_gain(prior, povm)
    antisym = report.outcome("J=0")
    sym = report.outcome("J=1")
    exact_antisym_gain = 1.0 - 1.0 / (2.0 * math.log(2.0))
    checks.append(("I_A = 1 - 1/(2 ln 2)",
                   abs(antisym.information_gain_bits - exact_antisym_gain) < 1e-9,
                   f"{antisym.information_gain_bits!r}"))
    # The paper prints I_A truncated to four digits, so 0.2786 <= I_A < 0.2787.
    checks.append(("I_A truncates to 0.2786",
                   math.floor(antisym.information_gain_bits * 1e4) == 2786,
                   f"{antisym.information_gain_bits!r}"))
    checks.append(("I_S near 0.02702", abs(sym.information_gain_bits - 0.02702) < 5e-6,
                   f"{sym.information_gain_bits!r}"))
    checks.append(("I_av near 0.08993", abs(report.average_gain_bits - 0.08993) < 5e-6,
                   f"{report.average_gain_bits!r}"))
    peak_antisym = map_estimate(antisym.posterior)
    checks.append(("antisymmetric posterior peaks at 2pi/3",
                   abs(peak_antisym - 2.0 * math.pi / 3.0) < 1e-6, f"{peak_antisym!r}"))
    peak_sym = map_estimate(sym.posterior)
    checks.append(("symmetric posterior peaks at 0.4094 pi",
                   abs(peak_sym - 0.4094 * math.pi) < 5e-4 * math.pi, f"{peak_sym!r}"))
    finish("criterion 2 (two-qubit uniform-direction prior)", checks)


def test_criterion_3_spin_half_with_spin_j():
    checks = []
    grid = np.linspace(0.0, math.pi, 181)
    worst = 0.0
    for j in half_integers(1, 10):
        low = total_j_values(HALF, j)[0]
        pi_low = projector(HALF, j, low).matrix
        for alpha in grid:
            rho = product_coherent_pair(HALF, j, Direction(0, 0), Direction(float(alpha), 0))
            dense = float(np.trace(pi_low @ rho.matrix).real)
            closed = (j.twice_j / (j.twice_j + 1.0)) * math.sin(alpha / 2.0) ** 2
            worst = max(worst, abs(dense - closed))
    checks.append(("closed form matches dense path for j <= 5", worst < 1e-11, f"max {worst:.3e}"))

    posterior_ok = True
    for j in half_integers(1, 10):
        povm = RotInvariantPovm.projective(HALF, j)
        posterior = bayes_update(parallel_antiparallel_prior(), povm, povm.labels[1])
        expected = (j.twice_j + 1.0) / (j.twice_j + 2.0)
        posterior_ok &= abs(posterior.weights[0] - expected) < 1e-12
        posterior_ok &= abs(posterior.weights[1] - 1.0 / (j.twice_j + 2.0)) < 1e-12
    checks.append(("posteriors (2j+1)/(2j+2) and 1/(2j+2)", posterior_ok, "per-j comparison"))

    two_qubit = average_information_gain(
        parallel_antiparallel_prior(), RotInvariantPovm.projective(HALF, HALF)
    ).average_gain_bits
    curve_a_half = infogain_curve([HALF], "parallel-antiparallel", "optimal")[0][1]
    checks.append(("curve a at j=1/2 equals the two-qubit value",
                   abs(curve_a_half - two_qubit) < 1e-15, f"{curve_a_half!r} vs {two_qubit!r}"))

    curve_a_large = infogain_curve([spin(500)], "parallel-antiparallel", "optimal")[0][1]
    checks.append(("curve a at j=500 reaches one bit", abs(curve_a_large - 1.0) < 0.01,
                   f"{curve_a_large!r}"))
    curve_c_large = infogain_curve([spin(500)], "uniform-directions", "optimal")[0][1]
    limit = 1.0 - 1.0 / (2.0 * math.log(2.0))
    checks.append(("curve c at j=500 reaches 1 - 1/(2 ln 2)",
                   abs(curve_c_large - limit) < 5e-3, f"{curve_c_large!r}"))
    finish("criterion 3 (spin-1/2 with spin-j)", checks)


def test_criterion_4_optimal_local_measurements():
    checks = []
    pap = parallel_antiparallel_prior()
    uniform = uniform_direction_prior()
    local_half = optimal_local_povm(HALF)
    local_pap = average_information_gain(pap, local_half).average_gain_bits
    checks.append(("local gain 0.0817 for the two-point prior",
                   abs(local_pap - 0.0817) < 5e-5, f"{local_pap!r}"))
    local_uniform = average_information_gain(uniform, local_half).average_gain_bits
    checks.append(("local gain 0.02702 for the uniform prior",
                   abs(local_uniform - 0.02702) < 5e-5, f"{local_uniform!r}"))

    j_list = half_integers(1, 20)
    strict = True
    for prior_kind in ("parallel-antiparallel", "uniform-directions"):
        joint = dict(infogain_curve(j_list, prior_kind, "optimal"))
        local = dict(infogain_curve(j_list, prior_kind, "optimal-local"))
        strict &= all(local[j] < joint[j] for j in j_list)
    checks.append(("local strictly below joint for j up to 10", strict, "both priors"))

    monotone = True
    gap_text = []
    for prior_kind in ("parallel-antiparallel", "uniform-directions"):
        gaps = []
        for j in (spin(1), spin(10), spin(100)):
            joint = infogain_curve([j], prior_kind, "optimal")[0][1]
            local = infogain_curve([j], prior_kind, "optimal-local")[0][1]
            gaps.append(joint - local)
        monotone &= gaps[0] > gaps[1] > gaps[2] > 0.0
        gap_text.append(f"{prior_kind}: {gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f}")
    checks.append(("gap shrinks over j in {1, 10, 100}", monotone, "; ".join(gap_text)))
    finish("criterion 4 (optimal local measurements)", checks)


def test_criterion_5_ppt_machinery():
    checks = []
    boundary = partial_transpose(werner_state(0.5).matrix, (2, 2)).min_eigenvalue
    checks.append(("Werner boundary at p=1/2", abs(boundary) < 1e-10, f"{boundary!r}"))
    threshold_half = ppt_threshold(HALF)
    checks.append(("threshold 1/3 for two qubits", abs(threshold_half - 1.0 / 3.0) < 1e-9,
                   f"{threshold_half!r}"))
    worst = 0.0
    for j in half_integers(1, 6):
        worst = max(worst, abs(ppt_threshold(j) - 1.0 / (j.twice_j + 2.0)))
    checks.append(("thresholds match 1/(2j+2) for j up to 3", worst < 1e-8, f"max {worst:.3e}"))
    finish("criterion 5 (PPT machinery)", checks)


def test_criterion_6_property_suites():
    checks = []
    rng = np.random.default_rng(2024)

    # Clebsch-Gordan orthogonality: full (m1, m2) tables are orthonormal
    worst = 0.0
    for j1, j2 in ((HALF, HALF), (HALF, spin(2)), (spin(1), spin("3/2")), (spin(3), spin(3))):
        tables = []
        for J in total_j_values(j1, j2):
            for tM in J.twice_m_values():
                table = np.zeros((j1.dimension, j2.dimension))
                for i1, tm1 in enumerate(j1.twice_m_values()):
                    tm2 = tM - tm1
                    if j2.is_valid_twice_m(tm2):
                        table[i1, (j2.twice_j - tm2) // 2] = clebsch_gordan(
                            j1, j2, tm1, tm2, J, tM
                        )
                tables.append(table)
        gram = np.array([[float(np.sum(a * b)) for b in tables] for a in tables])
        worst = max(worst, float(np.max(np.abs(gram - np.eye(len(tables))))))
    checks.append(("CG orthogonality", worst < 1e-12, f"max {worst:.3e}"))

    # projector algebra
    worst = 0.0
    for j1, j2 in ((HALF, spin(1)), (spin(1), spin(2)), (spin("3/2"), spin("5/2"))):
        js = total_j_values(j1, j2)
        mats = [projector(j1, j2, J).matrix for J in js]
        dim = j1.dimension * j2.dimension
        worst = max(worst, float(np.max(np.abs(sum(mats) - np.eye(dim)))))
        for a, p in enumerate(mats):
            worst = max(worst, float(np.max(np.abs(p @ p - p))))
            for b in range(a + 1, len(mats)):
                worst = max(worst, float(np.max(np.abs(p @ mats[b]))))
    checks.append(("projector completeness/orthogonality/idempotence", worst < 1e-12,
                   f"max {worst:.3e}"))

    # conditional probabilities are normalized
    worst = 0.0
    for j1, j2 in ((HALF, spin(5)), (spin(1), spin(2))):
        for alpha in np.linspace(0.0, math.pi, 61):
            total = sum(outcome_probabilities(j1, j2, float(alpha)).values())
            worst = max(worst, abs(total - 1.0))
    checks.append(("sum_J p(J|alpha) = 1", worst < 1e-12, f"max {worst:.3e}"))

    # posteriors average back to the prior
    prior = parallel_antiparallel_prior()
    povm = RotInvariantPovm.projective(HALF, spin(2))
    mix = np.zeros(2)
    for label in povm.labels:
        k = povm.index(label)
        like = povm_outcome_probabilities(povm, prior.alphas)[k]
        p = float(np.dot(prior.weights, like))
        mix += p * bayes_update(prior, povm, label).weights
    discrete_err = float(np.max(np.abs(mix - prior.weights)))
    density_prior = uniform_direction_prior()
    report = average_information_gain(density_prior, RotInvariantPovm.projective(HALF, spin(1)))
    grid = np.linspace(0.02, math.pi - 0.02, 40)
    density_mix = sum(e.probability * e.posterior.pdf(grid) for e in report.outcomes)
    density_err = float(np.max(np.abs(density_mix - density_prior.pdf(grid))))
    checks.append(("posteriors average back to the prior",
                   discrete_err < 1e-10 and density_err < 1e-10,
                   f"discrete {discrete_err:.3e}, density {density_err:.3e}"))

    # KL non-negativity and the data-processing bound for 50 random samplings
    best = {
        "parallel-antiparallel": average_information_gain(
            parallel_antiparallel_prior(), RotInvariantPovm.projective(HALF, spin(1))
        ).average_gain_bits,
        "uniform-directions": average_information_gain(
            uniform_direction_prior(), RotInvariantPovm.projective(HALF, spin(1))
        ).average_gain_bits,
    }
    gains_ok = True
    coarse_ok = True
    for trial in range(50):
        n_out = int(rng.integers(2, 6))
        raw = rng.random((n_out, 2)) + 1e-9
        weights = raw / raw.sum(axis=0)
        coarse = RotInvariantPovm(HALF, spin(1), tuple(f"o{i}" for i in range(n_out)), weights)
        prior_kind = "parallel-antiparallel" if trial % 2 == 0 else "uniform-directions"
        prior_obj = (
            parallel_antiparallel_prior()
            if prior_kind == "parallel-antiparallel"
            else uniform_direction_prior()
        )
        rep = average_information_gain(prior_obj, coarse)
        gains_ok &= all(e.information_gain_bits >= -1e-12 for e in rep.outcomes)
        coarse_ok &= rep.average_gain_bits <= best[prior_kind] + 1e-10
    checks.append(("KL non-negativity", gains_ok, "50 random POVMs"))
    checks.append(("coarse-graining never increases the average gain", coarse_ok,
                   "50 random POVMs"))

    # rotation invariance of reports built on the dense path
    worst = 0.0
    povm = RotInvariantPovm.projective(HALF, spin(1))
    for alpha in (0.6, 2.2):
        rho = product_coherent_pair(HALF, spin(1), Direction(0, 0), Direction(alpha, 0))
        base = povm_probabilities_from_state(povm, rho)
        for _ in range(5):
            r = Rotation(rng.uniform(0, 2 * math.pi), rng.uniform(0, math.pi),
                         rng.uniform(0, 2 * math.pi))
            moved = povm_probabilities_from_state(povm, collective_rotate(rho, r))
            worst = max(worst, float(np.max(np.abs(moved - base))))
    checks.append(("reports invariant under collective rotations", worst < 1e-10,
                   f"max {worst:.3e}"))

    # Monte Carlo: group average against the block average
    rho = product_coherent_pair(HALF, HALF, Direction(0, 0), Direction(1.9, 0))
    target = invariant_average(rho).reconstruct().matrix
    acc = np.zeros((4, 4), dtype=complex)
    acc_sq = np.zeros((4, 4))
    for _ in range(MC_TRIALS):
        r = haar_rotation(rng)
        u = np.kron(rotation_matrix(HALF, r), rotation_matrix(HALF, r))
        sample = u @ rho.matrix @ u.conj().T
        acc += sample
        acc_sq += np.abs(sample) ** 2
    mean = acc / MC_TRIALS
    stderr = np.sqrt(np.clip(acc_sq / MC_TRIALS - np.abs(mean) ** 2, 0.0, None) / MC_TRIALS)
    haar_ok = bool(np.all(np.abs(mean - target) <= 5.0 * stderr + 1e-12))
    checks.append(("Haar average matches the block average (5 sigma)", haar_ok,
                   f"n={MC_TRIALS}"))

    # Monte Carlo: outcome frequencies against analytic probabilities
    povm = RotInvariantPovm.projective(HALF, HALF)
    rho = product_coherent_pair(HALF, HALF, Direction(0, 0), Direction(math.pi, 0))
    hits = sum(sample_outcome(rho, povm, rng) == "J=0" for _ in range(MC_TRIALS))
    sigma = math.sqrt(0.25 / MC_TRIALS)
    freq_ok = abs(hits / MC_TRIALS - 0.5) <= 5.0 * sigma
    checks.append(("empirical frequencies match analytic (5 sigma)", freq_ok,
                   f"freq {hits / MC_TRIALS:.4f}"))

    # Monte Carlo: mean information gain against the analytic average
    summary = run_experiment(parallel_antiparallel_prior(), povm, MC_TRIALS, seed=314)
    gain_ok = abs(summary.mean_gain_bits - summary.analytic_average_gain_bits) <= (
        5.0 * summary.gain_standard_error_bits
    )
    checks.append(("empirical mean gain matches the analytic average (5 sigma)", gain_ok,
                   f"{summary.mean_gain_bits:.4f} vs {summary.analytic_average_gain_bits:.4f}"))
    finish("criterion 6 (property suites)", checks)


def test_criterion_7_born_rule_limit():
    checks = []
    for twice in (20, 200, 2000):
        j2 = spin(twice // 2)
        bound = 1.0 / (twice + 1.0)
        worst = max(born_limit_check(HALF, float(a), j2) for a in np.linspace(0.0, math.pi, 181))
        checks.append((f"deviation bounded by 1/(2j+1) at j={j2}", worst <= bound + 1e-14,
                       f"max {worst:.3e} vs bound {bound:.3e}"))
    finish("criterion 7 (Born-rule limit)", checks)


def test_criterion_8_locc_protocol():
    checks = []
    config = LoccProtocolConfig(HALF)
    worst = max(
        locc_protocol_statistics(config, float(a)).max_deviation
        for a in np.linspace(0.0, math.pi, 21)
    )
    checks.append(("exact informational equivalence at j=1/2", worst < 1e-11,
                   f"max {worst:.3e}"))
    reported = {}
    for j in (spin(1), spin("3/2"), spin(2)):
        deviations = [
            locc_protocol_statistics(LoccProtocolConfig(j), float(a)).max_deviation
            for a in np.linspace(0.0, math.pi, 17)
        ]
        reported[str(j)] = max(deviations)
    report_ok = all(np.isfinite(v) and v >= 0.0 for v in reported.values())
    detail = ", ".join(f"j={k}: {v:.4f}" for k, v in reported.items())
    print(f"  tight-frame protocol deviation from the two-outcome weights: {detail}")
    checks.append(("deviations computed and reported for j in {1, 3/2, 2}", report_ok, detail))
    finish("criterion 8 (aligned/anti-aligned local protocol)", checks)
