import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import relangle.estimation as estimation_module
import relangle.locc as locc_module
from relangle import (
    LOCC_TWICE_J_LIMIT,
    PPT_TWICE_J_LIMIT,
    CapacityError,
    ConsistencyError,
    LoccProtocolConfig,
    Rotation,
    SpinQuantumNumber,
    decomposition,
    infogain_curve,
    locc_protocol_statistics,
    optimal_local_povm,
    partial_transpose,
    partial_transpose_spectrum,
    outcome_probabilities,
    ppt_threshold,
    projector,
    rotation_matrix,
    spin,
    total_j_values,
    werner_state,
)
from relangle.estimation import _gauss_legendre, _make_povm, povm_outcome_probabilities
from relangle.locc import _protocol_elements, _sixj
from relangle.states import InvariantState, product_coherent_pair

from oracles import povm_element_matrix, random_direction

HALF = spin("1/2")

# (2j1, 2j2): integer and half-integer spins, up to (5/2, 7/2)
SPECTRUM_PAIRS = [(1, 1), (1, 2), (2, 2), (1, 4), (2, 3), (3, 3), (0, 3), (4, 6), (3, 6), (5, 7)]


def bisected_ppt_threshold(j) -> float:
    """The dense oracle: bisection on the sign of the smallest eigenvalue of
    the partial transpose of (low-J projector) + x (high-J projector), after
    checking on a coarse sample that this eigenvalue is monotone in x."""
    j_low, j_high = total_j_values(HALF, j)
    pi_low = projector(HALF, j, j_low).matrix
    pi_high = projector(HALF, j, j_high).matrix

    def min_eigenvalue(x: float) -> float:
        return partial_transpose(pi_low + x * pi_high, (2, j.dimension)).min_eigenvalue

    samples = [min_eigenvalue(x) for x in np.linspace(0.0, 1.0, 21)]
    assert all(later >= earlier - 1e-12 for earlier, later in zip(samples, samples[1:]))
    if samples[0] >= 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if min_eigenvalue(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exact_sixj(twice_j1, twice_j2, twice_J, twice_K) -> Fraction:
    """{j1 j2 J; j1 j2 K} from Racah's general formula in Fractions.  The
    four triangle coefficients pair up into two squares, so no root is taken."""
    j1, j2, J, K = (Fraction(t, 2) for t in (twice_j1, twice_j2, twice_J, twice_K))
    f = lambda x: math.factorial(int(x))  # noqa: E731

    def delta_squared(a, b, c):
        return Fraction(f(a + b - c) * f(a - b + c) * f(-a + b + c), f(a + b + c + 1))

    total = Fraction(0)
    t_min = int(max(j1 + j2 + J, j1 + j2 + K))
    t_max = int(min(2 * j1 + 2 * j2, 2 * j1 + J + K, 2 * j2 + J + K))
    for t in range(t_min, t_max + 1):
        total += Fraction(
            (-1) ** t * f(t + 1),
            f(t - j1 - j2 - J) ** 2 * f(t - j1 - j2 - K) ** 2 * f(2 * j1 + 2 * j2 - t)
            * f(2 * j1 + J + K - t) * f(2 * j2 + J + K - t),
        )
    return delta_squared(j1, j2, J) * delta_squared(j1, j2, K) * total


def probe_rows(twice_b, config, k) -> np.ndarray:
    """Rows of element k, for m = b - k, of the protocol with a probe spin b in place of the
    spin-1/2, built here from its frame rows: R_r|b, m> (x) v_r, with R_r the rotation of the
    probe to direction Omega_r, found from the product design in the order of
    ``_protocol_elements`` (nodes, then meridians)."""
    count = config.j.twice_j + 1
    cosines, _ = _gauss_legendre(config.j.twice_j // 2 + 1)
    phis = config.plane_phi + 2.0 * math.pi * np.arange(count) / count
    rotations = [Rotation(phi, math.acos(x), 0.0) for x in cosines.tolist() for phi in phis.tolist()]
    probe = SpinQuantumNumber(twice_b)
    return np.array([np.kron(rotation_matrix(probe, rotation)[:, k], row)
                     for rotation, row in zip(rotations, _protocol_elements(config), strict=True)])


def dense_protocol_statistics(config, alpha, twice_b=1) -> list[float]:
    """The dense oracle: Tr(E_k rho) for the elements of the protocol with probe b, built
    densely from ``probe_rows``, and the pair's orientation-averaged state at relative angle
    alpha, rebuilt as a dense matrix."""
    probe = SpinQuantumNumber(twice_b)
    weights = outcome_probabilities(probe, config.j, alpha)
    rho = InvariantState(probe, config.j, weights).reconstruct().matrix
    element_rows = (probe_rows(twice_b, config, k) for k in range(twice_b + 1))
    return [float(np.trace(rows.T @ rows.conj() @ rho).real) for rows in element_rows]


# (2b, 2a): local measurements of a probe b <= a, equal spins and half-integers included
LOCAL_PAIRS = [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3), (4, 4), (4, 8), (5, 6)]


def dense_local_weights(twice_b, twice_a, plane_phi=0.0) -> np.ndarray:
    """The dense oracle for the local POVM of (b, a), the dense twirl of the protocol's own
    frame rows: the spin a is measured with coherent states along the product design of
    ``LoccProtocolConfig``, and the spin b along each direction found.  Element k, for
    m = b - k, has the rows ``probe_rows``, reduced to Tr(Pi_J E_k) / (2J + 1)."""
    config = LoccProtocolConfig(SpinQuantumNumber(twice_a), plane_phi)
    blocks = decomposition(SpinQuantumNumber(twice_b), config.j)
    sizes = np.array([J.dimension for J in blocks.j_values])
    return np.array([blocks._rank_one_block_probabilities(probe_rows(twice_b, config, k)) / sizes
                     for k in range(twice_b + 1)])


class TestPartialTranspose:
    def test_singlet_projector_min_eigenvalue(self):
        singlet = projector(HALF, HALF, spin(0)).matrix
        result = partial_transpose(singlet, (2, 2))
        assert abs(result.min_eigenvalue + 0.5) < 1e-13
        assert abs(result.negativity - 0.5) < 1e-13

    def test_product_states_stay_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n1, n2 = random_direction(rng), random_direction(rng)
            rho = product_coherent_pair(spin(1), spin("3/2"), n1, n2)
            result = partial_transpose(rho.matrix, rho.dims)
            assert result.min_eigenvalue >= -1e-12
            assert result.negativity < 1e-11

    def test_involution(self):
        rho = werner_state(0.9)
        once = partial_transpose(rho.matrix, (2, 2)).transposed
        twice = partial_transpose(once, (2, 2)).transposed
        assert np.max(np.abs(twice - rho.matrix)) < 1e-13

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(4), (2, 3))

    def test_non_hermitian_raises(self):
        # NaN fails the Hermitian check too, before the eigensolver sees it
        skew = np.eye(4, dtype=complex)
        skew[0, 1] = 1.0
        one_nan = np.eye(4) / 4
        one_nan[2, 2] = np.nan
        for matrix in (skew, np.full((4, 4), np.nan), one_nan):
            with pytest.raises(ValueError, match="expects a Hermitian operator"):
                partial_transpose(matrix, (2, 2))


class TestSixj:
    @pytest.mark.parametrize("twice_j1,twice_j2", SPECTRUM_PAIRS)
    def test_entries_are_the_rounded_exact_rationals(self, twice_j1, twice_j2):
        table = _sixj(twice_j1, twice_j2)
        twice_js = range(abs(twice_j1 - twice_j2), twice_j1 + twice_j2 + 1, 2)
        for q, twice_J in enumerate(twice_js):
            for p, twice_K in enumerate(twice_js):
                assert table[p, q] == float(exact_sixj(twice_j1, twice_j2, twice_J, twice_K))

    def test_two_qubit_values(self):
        # {1/2 1/2 0; 1/2 1/2 J'} = (-1)^(1 + J') / 2
        assert np.array_equal(_sixj(1, 1)[:, 0], [-0.5, 0.5])


class TestPartialTransposeSpectrum:
    @pytest.mark.parametrize("twice_j1,twice_j2", SPECTRUM_PAIRS)
    def test_matches_dense_partial_transpose(self, twice_j1, twice_j2):
        j1, j2 = SpinQuantumNumber(twice_j1), SpinQuantumNumber(twice_j2)
        j_values = total_j_values(j1, j2)
        multiplicities = [J.dimension for J in j_values]
        spectra = partial_transpose_spectrum(j1, j2, np.eye(len(j_values)))
        for J, spectrum in zip(j_values, spectra):
            dense = partial_transpose(projector(j1, j2, J).matrix, (j1.dimension, j2.dimension))
            expected = np.linalg.eigvalsh(dense.transposed)
            assert np.max(np.abs(np.sort(np.repeat(spectrum, multiplicities)) - expected)) <= 1e-12

    def test_singlet(self):
        assert np.array_equal(partial_transpose_spectrum(HALF, HALF, [1.0, 0.0]), [-0.5, 0.5])

    def test_identity_stays_identity(self):
        j1, j2 = spin("3/2"), spin(2)
        spectrum = partial_transpose_spectrum(j1, j2, np.ones(4))
        assert np.max(np.abs(spectrum - 1.0)) < 1e-14

    def test_trace_check(self, monkeypatch):
        table = _sixj(2, 3)
        table[0, 0] += 1e-6
        monkeypatch.setattr(locc_module, "_sixj", lambda twice_j1, twice_j2: table)
        with pytest.raises(ConsistencyError):
            partial_transpose_spectrum(spin(1), spin("3/2"), [1.0, 0.0, 0.0])

    def test_weight_count_checked(self):
        with pytest.raises(ValueError):
            partial_transpose_spectrum(HALF, spin(1), [1.0, 0.0, 0.0])


class TestPptThreshold:
    def test_two_qubits(self):
        assert abs(ppt_threshold(HALF) - 1.0 / 3.0) < 1e-9

    def test_spin_one(self):
        assert abs(ppt_threshold(spin(1)) - 0.25) < 1e-9

    def test_strictly_decreasing_in_j(self):
        thresholds = [ppt_threshold(spin(f"{t}/2") if t % 2 else spin(t // 2)) for t in range(1, 11)]
        assert all(b < a for a, b in zip(thresholds, thresholds[1:]))

    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 1000])
    def test_matches_local_povm_weight(self, twice_j):
        j = SpinQuantumNumber(twice_j)
        assert abs(ppt_threshold(j) - 1.0 / (twice_j + 2.0)) <= 1e-15

    @pytest.mark.parametrize("twice_j", range(1, 11))
    def test_matches_dense_bisection(self, twice_j):
        j = SpinQuantumNumber(twice_j)
        assert abs(bisected_ppt_threshold(j) - ppt_threshold(j)) < 1e-9

    def test_falling_eigenvalue_checked(self, monkeypatch):
        # the rising eigenvalue crosses zero at x = 1/2, but a falling one is
        # negative there, so no x makes the partial transpose positive
        spectrum = (np.array([-1.0, 0.5, 0.2]), np.array([2.0, 0.0, -1.0]))
        monkeypatch.setattr(locc_module, "partial_transpose_spectrum", lambda j1, j2, weights: spectrum)
        with pytest.raises(ConsistencyError):
            ppt_threshold(HALF)

    def test_capacity_limit(self):
        at_limit = ppt_threshold(SpinQuantumNumber(PPT_TWICE_J_LIMIT))
        assert abs(at_limit - 1.0 / (PPT_TWICE_J_LIMIT + 2.0)) <= 1e-15
        with pytest.raises(CapacityError):
            ppt_threshold(SpinQuantumNumber(PPT_TWICE_J_LIMIT + 1))


class TestOptimalLocalPovm:
    def test_two_qubit_weights(self):
        povm = optimal_local_povm(HALF)
        # aligned element: two thirds of the triplet block; anti-aligned:
        # singlet plus one third of the triplet
        k_aligned = povm.index("aligned")
        k_anti = povm.index("antialigned")
        assert np.allclose(povm.weights[k_aligned], [0.0, 2.0 / 3.0])
        assert np.allclose(povm.weights[k_anti], [1.0, 1.0 / 3.0])

    def test_block_weights_sum_to_one(self):
        for twice_j in (1, 2, 5, 9):
            povm = optimal_local_povm(spin(f"{twice_j}/2") if twice_j % 2 else spin(twice_j // 2))
            assert np.max(np.abs(povm.weights.sum(axis=0) - 1.0)) < 1e-14

    @pytest.mark.parametrize("twice_j", range(1, 11))
    def test_elements_have_positive_partial_transpose(self, twice_j):
        j = spin(f"{twice_j}/2") if twice_j % 2 else spin(twice_j // 2)
        povm = optimal_local_povm(j)
        for k in range(povm.n_outcomes):
            result = partial_transpose(povm_element_matrix(povm, k), (2, j.dimension))
            assert result.min_eigenvalue >= -1e-10


class TestLocalPovmForEveryPair:
    @pytest.mark.parametrize(("twice_b", "twice_a"), LOCAL_PAIRS)
    def test_matches_the_dense_twirl_in_either_order(self, twice_b, twice_a):
        b, a = SpinQuantumNumber(twice_b), SpinQuantumNumber(twice_a)
        oracle = dense_local_weights(twice_b, twice_a)
        for j1, j2 in ((b, a), (a, b)):
            povm = _make_povm("optimal-local", j1, j2)
            assert (povm.j1, povm.j2) == (j1, j2)
            assert np.max(np.abs(povm.weights - oracle)) <= 1e-14

    @pytest.mark.parametrize(("twice_b", "twice_a"), LOCAL_PAIRS)
    def test_elements_are_ppt_and_complete(self, twice_b, twice_a):
        b, a = SpinQuantumNumber(twice_b), SpinQuantumNumber(twice_a)
        povm = _make_povm("optimal-local", b, a)
        assert np.max(np.abs(povm.weights.sum(axis=0) - 1.0)) <= 1e-15
        assert partial_transpose_spectrum(b, a, povm.weights).min() >= -1e-14

    @pytest.mark.parametrize("twice_j", [1, 2, 7, 64, 999])
    def test_spin_half_probe_is_the_optimal_local_povm(self, twice_j):
        j = SpinQuantumNumber(twice_j)
        local = optimal_local_povm(j)
        assert local.labels == ("aligned", "antialigned")
        assert np.array_equal(local.weights, _make_povm("optimal-local", j, HALF).weights)
        high = (twice_j + 1) / (twice_j + 2)
        assert local.weights.tolist() == [[0.0, high], [1.0, 1.0 - high]]


class TestLoccProtocol:
    def test_matches_separable_povm_at_spin_half(self):
        config = LoccProtocolConfig(HALF)
        for alpha in np.linspace(0.0, math.pi, 21):
            stats = locc_protocol_statistics(config, float(alpha))
            assert stats.max_deviation < 1e-11
            assert abs(stats.aligned + stats.antialigned - 1.0) < 1e-12

    @pytest.mark.parametrize("plane_phi", [0.0, 2.3])
    @pytest.mark.parametrize("twice_j", [*range(1, 11), 20, 40, LOCC_TWICE_J_LIMIT])
    def test_reaches_the_optimal_local_povm(self, twice_j, plane_phi):
        # the design's frame sums to the identity, so the twirled protocol is the optimal
        # local POVM at every j, not only at j = 1/2; max_deviation is max |F - I|
        config = LoccProtocolConfig(SpinQuantumNumber(twice_j), plane_phi)
        for alpha in np.linspace(0.0, math.pi, 9):
            stats = locc_protocol_statistics(config, float(alpha))
            assert stats.max_deviation <= 1e-12

    def test_antialigned_probability_at_aligned_preparation(self):
        # reference weight at alpha = 0 is 1/(2j+2) of the top block
        j = spin(1)
        stats = locc_protocol_statistics(LoccProtocolConfig(j), 0.0)
        assert abs(stats.antialigned - 0.25) < 1e-14

    @pytest.mark.parametrize("plane_phi", [0.0, 0.77])
    @pytest.mark.parametrize("twice_j", [1, 2, 3, 4])
    def test_matches_dense_trace(self, twice_j, plane_phi):
        config = LoccProtocolConfig(SpinQuantumNumber(twice_j), plane_phi)
        for alpha in np.linspace(0.0, math.pi, 17):
            stats = locc_protocol_statistics(config, float(alpha))
            aligned, antialigned = dense_protocol_statistics(config, float(alpha))
            assert abs(stats.aligned - aligned) <= 1e-13
            assert abs(stats.antialigned - antialigned) <= 1e-13

    @pytest.mark.parametrize("plane_phi", [0.0, 1.9])
    @pytest.mark.parametrize(("twice_b", "twice_j"), [(2, 2), (2, 5), (3, 3), (3, 4)])
    def test_larger_probe_twirls_to_the_closed_form(self, twice_b, twice_j, plane_phi):
        # the protocol takes its weights from the closed form, which holds for any probe b:
        # the dense twirl of the frame rows with a probe b = 1 or 3/2, and the dense trace of
        # those elements, both give the closed-form local POVM of (b, j)
        config = LoccProtocolConfig(SpinQuantumNumber(twice_j), plane_phi)
        povm = _make_povm("optimal-local", SpinQuantumNumber(twice_b), config.j)
        weights = dense_local_weights(twice_b, twice_j, plane_phi)
        assert np.max(np.abs(weights - povm.weights)) <= 1e-13
        for alpha in np.linspace(0.0, math.pi, 9).tolist():
            closed = povm_outcome_probabilities(povm, [alpha])[:, 0]
            dense = dense_protocol_statistics(config, alpha, twice_b)
            assert np.max(np.abs(closed - dense)) <= 1e-13

    @pytest.mark.parametrize("twice_j", [2, 5, 10])
    def test_frame_operator_checked(self, monkeypatch, twice_j):
        # one meridian dropped, and the large spin's rows rescaled so that tr F = 2j + 1:
        # a check of block sums sees only tr F and passes, but F is not the identity
        amplitudes = locc_module._coherent_amplitudes

        def dropped(twice_spin, theta, phis):
            scale = 1.0 if twice_spin == 1 else math.sqrt(len(phis) / (len(phis) - 1))
            return scale * amplitudes(twice_spin, theta, phis[:-1])

        monkeypatch.setattr(locc_module, "_coherent_amplitudes", dropped)
        with pytest.raises(ConsistencyError, match="coherent-state frame .* misses the identity"):
            locc_protocol_statistics(LoccProtocolConfig(SpinQuantumNumber(twice_j), 0.3), 1.0)

    def test_config_refuses_spins_past_the_limit_and_zero(self):
        start = time.perf_counter()
        with pytest.raises(CapacityError, match=f"2j <= {LOCC_TWICE_J_LIMIT}"):
            LoccProtocolConfig(SpinQuantumNumber(LOCC_TWICE_J_LIMIT + 1))
        assert time.perf_counter() - start < 0.1
        assert LoccProtocolConfig(SpinQuantumNumber(LOCC_TWICE_J_LIMIT)).j.twice_j == LOCC_TWICE_J_LIMIT
        with pytest.raises(ValueError, match="at least 1/2"):
            LoccProtocolConfig(0)

    def test_config_fields(self):
        assert [field.name for field in dataclasses.fields(LoccProtocolConfig)] == ["j", "plane_phi"]

    @pytest.mark.parametrize("j", [1, "1/2", Fraction(3, 2)])
    def test_config_coerces_j_with_spin(self, j):
        # an int or a string once failed deep in the protocol with AttributeError
        config = LoccProtocolConfig(j)
        assert config == LoccProtocolConfig(spin(j))
        stats = locc_protocol_statistics(config, 1.0)
        expected = locc_protocol_statistics(LoccProtocolConfig(spin(j)), 1.0)
        assert (stats.aligned, stats.antialigned) == (expected.aligned, expected.antialigned)

    @pytest.mark.parametrize("plane_phi", [math.nan, math.inf, -math.inf])
    def test_config_refuses_non_finite_plane(self, plane_phi):
        with pytest.raises(ValueError, match="plane_phi must be finite"):
            LoccProtocolConfig(HALF, plane_phi)

    @pytest.mark.parametrize("twice_j", [1, 4, 7])
    def test_local_povm_built_once_per_call(self, monkeypatch, twice_j):
        # the protocol's outcomes come from one optimal local POVM, built once per call
        config, calls = LoccProtocolConfig(SpinQuantumNumber(twice_j), 0.4), []
        expected = locc_protocol_statistics(config, 0.9)
        make_povm = estimation_module._make_povm

        def counted(*args):
            calls.append(args)
            return make_povm(*args)

        monkeypatch.setattr(estimation_module, "_make_povm", counted)
        stats = locc_protocol_statistics(config, 0.9)
        assert dataclasses.astuple(stats) == dataclasses.astuple(expected)
        assert len(calls) == 1

    def test_plane_choice_does_not_matter(self):
        j = spin(1)
        base = locc_protocol_statistics(LoccProtocolConfig(j), 1.1)
        tilted = locc_protocol_statistics(LoccProtocolConfig(j, plane_phi=0.77), 1.1)
        assert abs(base.aligned - tilted.aligned) < 1e-12
        assert abs(base.antialigned - tilted.antialigned) < 1e-12


class TestLocalVersusJoint:
    def test_local_gains_strictly_less(self):
        j_list = [spin(f"{t}/2") if t % 2 else spin(t // 2) for t in range(1, 21)]
        for prior_kind in ("parallel-antiparallel", "uniform-directions"):
            joint = dict(infogain_curve(j_list, prior_kind, "optimal"))
            local = dict(infogain_curve(j_list, prior_kind, "optimal-local"))
            for j in j_list:
                assert local[j] < joint[j]

    def test_gap_shrinks_with_j(self):
        j_list = [spin(1), spin(10), spin(100)]
        for prior_kind in ("parallel-antiparallel", "uniform-directions"):
            joint = infogain_curve(j_list, prior_kind, "optimal")
            local = infogain_curve(j_list, prior_kind, "optimal-local")
            gaps = [a[1] - b[1] for a, b in zip(joint, local)]
            assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestWernerCrossCheck:
    def test_ppt_boundary_by_bisection(self):
        def min_eig(p):
            return partial_transpose(werner_state(p).matrix, (2, 2)).min_eigenvalue

        lo, hi = 0.0, 1.0
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if min_eig(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 0.5) < 1e-9
