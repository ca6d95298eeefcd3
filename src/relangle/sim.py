"""Stochastic oracles: Haar-random collective rotations, outcome sampling,
and repeated single-shot experiments used to validate the analytic results.

Every routine takes an explicit numpy Generator or integer seed; replaying a
seed reproduces every sample bit-exactly.  Experiments run in chunks of
``CHUNK_TRIALS`` trials and derive one child seed per chunk index, so chunks
are independent and could run in any order without changing the summary.
Angles are drawn exactly from the prior: a discrete prior by one uniform per
angle against its cumulative weights, and a density, a polynomial in
s = sin^2(alpha/2) held by Bernstein coefficients, as the Beta mixture it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angular import Rotation, spin
from .errors import ConsistencyError
from .estimation import (
    AngleDensity,
    DiscreteAngleDistribution,
    RotInvariantPovm,
    _gains,
    _stacked,
    povm_outcome_probabilities,
    povm_probabilities_from_state,
)

__all__ = ["ExperimentSummary", "haar_rotation", "sample_outcome", "run_experiment", "MAX_TRIALS"]

# Trials drawn from one child generator; fixed, so a seed maps to one summary.
CHUNK_TRIALS = 8192

# Largest trial count: up to 2**53 every count is an exact float, so the
# frequencies counts / n and the gain sum counts @ gains round only once.
MAX_TRIALS = 2**53


def haar_rotation(rng: np.random.Generator) -> Rotation:
    """Euler angles distributed per the invariant measure on SU(2).

    cos(beta) is uniform on [-1, 1]; gamma runs over [0, 4 pi) so that
    half-integer representations average correctly over the double cover.
    """
    alpha = rng.uniform(0.0, 2.0 * math.pi)
    beta = math.acos(rng.uniform(-1.0, 1.0))
    gamma = rng.uniform(0.0, 4.0 * math.pi)
    return Rotation(alpha, beta, gamma)


def _draw_outcomes(probabilities: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One outcome index per column of ``probabilities`` (outcomes, trials), one uniform
    draw each; ConsistencyError unless every column sums to 1 within 1e-9."""
    totals = probabilities.sum(axis=0)
    deviations = np.abs(totals - 1.0)
    if not np.all(deviations <= 1e-9):  # written so that NaN fails too
        raise ConsistencyError(f"outcome probabilities sum to {totals[np.argmax(deviations)]}")
    cumulative = np.cumsum(probabilities, axis=0)
    # the count of cumulative entries <= u is searchsorted(..., side="right")
    outcomes = (cumulative <= rng.random(probabilities.shape[1]) * totals).sum(axis=0)
    return np.minimum(outcomes, probabilities.shape[0] - 1)


def sample_outcome(state, povm: RotInvariantPovm, rng: np.random.Generator) -> str:
    """Draw one outcome label with probability Tr(E_k rho)."""
    probabilities = povm_probabilities_from_state(povm, state)
    return povm.labels[_draw_outcomes(probabilities[:, None], rng)[0]]


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


def _pick(cumulative: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` indices k, each with probability cumulative[k] - cumulative[k - 1], from one
    uniform each; an index past the end (a total short of 1 by rounding) is the last."""
    k = np.searchsorted(cumulative, rng.random(size), side="right")
    return np.minimum(k, cumulative.size - 1)


def _prior_sampler(prior):
    """Return draw(rng, size): ``size`` angles drawn exactly from the prior.

    A discrete prior picks its support point k by one uniform against the cumulative
    weights.  A density of degree n with Bernstein coefficients b is, in s = sin^2(alpha/2),
    the mixture sum_k (b_k / (n + 1)) Beta(k + 1, n - k + 1): it picks its component k the
    same way, draws G1 ~ Gamma(k + 1) and G2 ~ Gamma(n - k + 1), and returns
    alpha = 2 atan2(sqrt(G1), sqrt(G2)), whose s is G1 / (G1 + G2) with no 1 - s formed.
    """
    if isinstance(prior, DiscreteAngleDistribution):
        cumulative = np.cumsum(prior.weights)

        def draw(rng, size):
            return prior.alphas[_pick(cumulative, rng, size)]

        return draw
    if isinstance(prior, AngleDensity):
        n = prior.degree
        cumulative = np.cumsum(prior.coefficients) / (n + 1)

        def draw(rng, size):
            k = _pick(cumulative, rng, size)
            first, second = rng.standard_gamma(k + 1.0), rng.standard_gamma(n + 1.0 - k)
            return 2.0 * np.arctan2(np.sqrt(first), np.sqrt(second))

        return draw
    raise TypeError(f"cannot sample from {type(prior).__name__}")


def _sample_chunk(povm: RotInvariantPovm, alphas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Outcome counts for one trial at each angle."""
    outcomes = _draw_outcomes(povm_outcome_probabilities(povm, alphas), rng)
    return np.bincount(outcomes, minlength=povm.n_outcomes)


def run_experiment(
    j1, j2, prior, povm: RotInvariantPovm, n_trials: int = 100_000, seed: int = 0
) -> ExperimentSummary:
    """Repeat the single-shot experiment: draw an angle from the prior,
    sample an outcome of the coherent pair at that angle, and score its
    information gain.

    The POVM commutes with every collective rotation, so the Haar-random
    orientation of the pair cannot change an outcome probability, and each
    trial samples straight from the closed-form likelihood p(outcome | alpha).
    A density prior of degree n is drawn exactly, as the mixture of
    Beta(k + 1, n - k + 1) in s with weights b_k / (n + 1): a component by one
    uniform, then s = G1 / (G1 + G2) from two Gamma draws, in O(trials) time
    and memory at any degree.  Trials run in chunks of ``CHUNK_TRIALS``;
    chunk c draws its angles and then its outcomes from
    ``SeedSequence(seed, spawn_key=(c,))``.  The mean gain and its standard
    error follow exactly from the outcome counts.

    A trial count outside [1, ``MAX_TRIALS``] raises ValueError before any
    work is done.  No dense matrix is built, so every pair within the
    likelihood kernel's limit runs."""
    j1, j2 = spin(j1), spin(j2)
    if not 1 <= n_trials <= MAX_TRIALS:
        raise ValueError(f"n_trials must lie in [1, 2**53], got {n_trials}")
    (analytic,), _, (gains,), (average,) = _gains(prior, *_stacked(j1, j2, povm))
    draw_angles = _prior_sampler(prior)

    counts = np.zeros(povm.n_outcomes, dtype=np.int64)
    for chunk, start in enumerate(range(0, n_trials, CHUNK_TRIALS)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        alphas = draw_angles(rng, min(CHUNK_TRIALS, n_trials - start))
        counts += _sample_chunk(povm, alphas, rng)

    frequencies = counts / n_trials
    mean_gain = float(counts @ gains) / n_trials
    if n_trials > 1:
        freq_se = np.sqrt(frequencies * (1.0 - frequencies) / (n_trials - 1))
        variance = float(counts @ (gains - mean_gain) ** 2) / (n_trials - 1)
        gain_se = math.sqrt(variance / n_trials)
    else:
        freq_se = np.zeros_like(frequencies)
        gain_se = 0.0
    return ExperimentSummary(
        n_trials=n_trials,
        labels=povm.labels,
        counts=counts,
        frequencies=frequencies,
        frequency_standard_errors=freq_se,
        mean_gain_bits=mean_gain,
        gain_standard_error_bits=gain_se,
        analytic_probabilities=analytic,
        analytic_average_gain_bits=float(average),
    )
