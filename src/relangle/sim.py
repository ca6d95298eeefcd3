"""Stochastic oracles: Haar-random collective rotations, outcome sampling,
and repeated single-shot experiments used to validate the analytic results.

Every routine takes an explicit numpy Generator or integer seed; replaying a
seed reproduces every sample bit-exactly.  Experiments derive one child seed
per trial index, so trials are independent and could run in any order without
changing the summary.
"""

import math
from dataclasses import dataclass

import numpy as np

from .angular import Direction, Rotation, coherent_state, rotation_matrix, spin
from .coupling import check_dense_capacity
from .errors import ConsistencyError
from .estimation import (
    AngleDensity,
    DiscreteAngleDistribution,
    RotInvariantPovm,
    average_information_gain,
    povm_probabilities_from_state,
)
from .states import DensityMatrix

__all__ = ["ExperimentSummary", "haar_rotation", "sample_outcome", "run_experiment"]


def haar_rotation(rng: np.random.Generator) -> Rotation:
    """Euler angles distributed per the invariant measure on SU(2).

    cos(beta) is uniform on [-1, 1]; gamma runs over [0, 4 pi) so that
    half-integer representations average correctly over the double cover.
    """
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    beta = math.acos(rng.uniform(-1.0, 1.0))
    gamma = rng.uniform(0.0, 4.0 * math.pi)
    return Rotation(alpha, beta, gamma)


def sample_outcome(state, povm: RotInvariantPovm, rng: np.random.Generator) -> str:
    """Draw one outcome label with probability Tr(E_k rho)."""
    probabilities = povm_probabilities_from_state(povm, state)
    total = float(probabilities.sum())
    if abs(total - 1.0) > 1e-9:
        raise ConsistencyError(f"outcome probabilities sum to {total}")
    cumulative = np.cumsum(probabilities)
    k = int(np.searchsorted(cumulative, rng.random() * total, side="right"))
    return povm.labels[min(k, len(probabilities) - 1)]


@dataclass(frozen=True, eq=False)
class ExperimentSummary:
    """Aggregate of a repeated single-shot estimation experiment."""

    n_trials: int
    labels: tuple[str, ...]
    counts: np.ndarray
    frequencies: np.ndarray
    frequency_standard_errors: np.ndarray
    mean_gain_bits: float
    gain_standard_error_bits: float
    analytic_probabilities: np.ndarray
    analytic_average_gain_bits: float

    def __post_init__(self):
        if int(self.counts.sum()) != self.n_trials:
            raise ConsistencyError("trial counts do not sum to n_trials")
        if abs(float(self.frequencies.sum()) - 1.0) > 1e-12:
            raise ConsistencyError("frequencies do not sum to 1")


def _prior_sampler(prior):
    if isinstance(prior, DiscreteAngleDistribution):
        cumulative = np.cumsum(prior.weights)
        support = prior.alphas

        def draw(rng):
            k = int(np.searchsorted(cumulative, rng.random(), side="right"))
            return float(support[min(k, support.size - 1)])

        return draw
    if isinstance(prior, AngleDensity):
        grid = np.linspace(0.0, math.pi, 4097)
        density = prior.pdf(grid)
        steps = np.diff(grid)
        cdf = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * steps)])
        cdf /= cdf[-1]

        def draw(rng):
            return float(np.interp(rng.random(), cdf, grid))

        return draw
    raise TypeError(f"cannot sample from {type(prior).__name__}")


def run_experiment(
    j1, j2, prior, povm: RotInvariantPovm, n_trials: int = 100_000, seed: int = 0
) -> ExperimentSummary:
    """Repeat the single-shot experiment: draw an angle from the prior and a
    collective orientation from the invariant measure, prepare the coherent
    pair, sample an outcome, and score its information gain.

    Each trial builds the dense pair state, so pairs above the dense cap raise
    CapacityError before any work is done."""
    j1, j2 = spin(j1), spin(j2)
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")
    check_dense_capacity(j1, j2)
    report = average_information_gain(j1, j2, prior, povm)
    gain_by_label = {entry.label: entry.information_gain_bits for entry in report.outcomes}
    analytic = np.array([entry.probability for entry in report.outcomes])
    draw_angle = _prior_sampler(prior)
    top1 = coherent_state(j1, Direction(0.0, 0.0)).amplitudes
    dims = (j1.dimension, j2.dimension)

    counts = np.zeros(povm.n_outcomes, dtype=np.int64)
    gains = np.empty(n_trials)
    for trial in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(trial,)))
        alpha = draw_angle(rng)
        omega = haar_rotation(rng)
        u1 = rotation_matrix(j1, omega) @ top1
        u2 = rotation_matrix(j2, omega) @ coherent_state(j2, Direction(alpha, 0.0)).amplitudes
        psi = np.kron(u1, u2)
        rho = DensityMatrix(np.outer(psi, psi.conj()), dims)
        label = sample_outcome(rho, povm, rng)
        k = povm.index(label)
        counts[k] += 1
        gains[trial] = gain_by_label[label]

    frequencies = counts / n_trials
    if n_trials > 1:
        freq_se = np.sqrt(frequencies * (1.0 - frequencies) / (n_trials - 1))
        gain_se = float(gains.std(ddof=1) / math.sqrt(n_trials))
    else:
        freq_se = np.zeros_like(frequencies)
        gain_se = 0.0
    return ExperimentSummary(
        n_trials=n_trials,
        labels=povm.labels,
        counts=counts,
        frequencies=frequencies,
        frequency_standard_errors=freq_se,
        mean_gain_bits=float(gains.mean()),
        gain_standard_error_bits=gain_se,
        analytic_probabilities=analytic,
        analytic_average_gain_bits=report.average_gain_bits,
    )
