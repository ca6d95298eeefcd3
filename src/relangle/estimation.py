"""Bayesian estimation of the relative angle between two spin coherent states.

Measurements are rotationally invariant POVMs, i.e. weighted sums of the
total-spin projectors.  Every result is a fold of one likelihood, the
total-spin distribution p(J | alpha) of a coherent pair at relative angle
alpha, which has a closed form for every spin pair: with the larger spin a
along +z and the smaller spin b at angle alpha,

    p(J | alpha) = sum_k T[J, k] s^k (1 - s)^(2b - k),   s = sin^2(alpha / 2),

where T[J, k] = |<a a; b b-k | J, a+b-k>|^2 C(2b, k) is a table of exact
rationals, one float per entry.  No dense matrix is built.  Information
gains are Kullback-Leibler divergences of the posterior from the prior, in
bits.  Integrals over continuous priors use Gauss-Legendre quadrature on
[0, pi] with node doubling until two successive values agree to 1e-10.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import SpinQuantumNumber, spin
from .coupling import decomposition, total_j_values
from .errors import CapacityError, ConsistencyError, ImpossibleOutcomeError
from .states import DensityMatrix, InvariantState, invariant_average

__all__ = [
    "DiscreteAngleDistribution",
    "AngleDensity",
    "parallel_antiparallel_prior",
    "uniform_direction_prior",
    "RotInvariantPovm",
    "OutcomeReport",
    "EstimationReport",
    "outcome_probability",
    "outcome_probabilities",
    "povm_outcome_probabilities",
    "povm_probabilities_from_state",
    "bayes_update",
    "information_gain",
    "average_information_gain",
    "map_estimate",
    "infogain_curve",
    "born_limit_check",
    "PRIOR_KINDS",
    "POVM_KINDS",
    "KERNEL_TWICE_J_LIMIT",
]

PRIOR_KINDS = ("parallel-antiparallel", "uniform-directions")
POVM_KINDS = ("optimal", "optimal-local")

# Largest 2 min(j1, j2) the likelihood kernel accepts.  Its exact table has
# (2b + 1)^2 / 2 entries with integers of a few hundred digits; at this limit
# it builds in well under a second, and the larger spin is unrestricted.
KERNEL_TWICE_J_LIMIT = 200

_QUAD_TOL = 1e-10
_QUAD_START = 16
_QUAD_MAX = 16384


@lru_cache(maxsize=16)
def _quad_rule(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * math.pi * (x + 1.0)
    weights = 0.5 * math.pi * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _adaptive_integral(f, tol: float = _QUAD_TOL) -> tuple[float, int]:
    """Integrate a vectorized function over [0, pi]; returns (value, nodes used)."""
    previous = None
    n = _QUAD_START
    while n <= _QUAD_MAX:
        nodes, weights = _quad_rule(n)
        value = float(np.dot(weights, f(nodes)))
        if previous is not None and abs(value - previous) < tol:
            return value, n
        previous = value
        n *= 2
    raise ConsistencyError("quadrature failed to converge; integrand is not smooth enough")


@dataclass(frozen=True, eq=False)
class DiscreteAngleDistribution:
    """Distribution over the relative angle supported on finitely many points."""

    alphas: np.ndarray
    weights: np.ndarray
    outcome_label: str | None = None

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if alphas.ndim != 1 or alphas.shape != weights.shape:
            raise ValueError("support points and weights must be 1-d arrays of equal length")
        if np.any(alphas < -1e-12) or np.any(alphas > math.pi + 1e-12):
            raise ValueError("support points must lie in [0, pi]")
        if np.any(weights < -1e-12):
            raise ValueError("weights must be non-negative")
        weights = np.clip(weights, 0.0, None)
        total = float(weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, expected 1")
        alphas.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "weights", weights)


class AngleDensity:
    """Distribution over the relative angle given by a density on [0, pi].

    The density callable must accept a numpy array of angles and is checked to
    integrate to one at construction.
    """

    def __init__(self, pdf, outcome_label: str | None = None):
        self._pdf = pdf
        self.outcome_label = outcome_label
        total, nodes_used = _adaptive_integral(self.pdf)
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"density integrates to {total}, expected 1")
        self._nodes_hint = nodes_used

    def pdf(self, alphas) -> np.ndarray:
        return np.asarray(self._pdf(np.asarray(alphas, dtype=float)), dtype=float)

    @property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature nodes and weights at the converged resolution."""
        return _quad_rule(self._nodes_hint)


def parallel_antiparallel_prior() -> DiscreteAngleDistribution:
    """Prior for spins prepared parallel or anti-parallel with equal probability."""
    return DiscreteAngleDistribution(np.array([0.0, math.pi]), np.array([0.5, 0.5]))


def uniform_direction_prior() -> AngleDensity:
    """Prior on the angle when each spin direction is uniform on the sphere."""
    return AngleDensity(lambda a: 0.5 * np.sin(a))


@dataclass(frozen=True, eq=False)
class RotInvariantPovm:
    """POVM commuting with all collective rotations.

    Every element is a weighted sum of total-spin projectors;
    ``weights[k, i]`` is the weight of outcome ``labels[k]`` on block
    ``j_values[i]``.  For each block the weights over outcomes form a
    probability distribution.
    """

    j1: SpinQuantumNumber
    j2: SpinQuantumNumber
    labels: tuple[str, ...]
    j_values: tuple[SpinQuantumNumber, ...]
    weights: np.ndarray

    def __post_init__(self):
        expected = tuple(total_j_values(self.j1, self.j2))
        if tuple(self.j_values) != expected:
            raise ValueError("j_values must list the total spins in increasing order")
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (len(self.labels), len(self.j_values)):
            raise ValueError(f"weights shape {weights.shape} does not match labels x blocks")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be unique")
        if np.any(weights < -1e-12):
            raise ValueError("POVM weights must be non-negative")
        weights = np.clip(weights, 0.0, None)
        columns = weights.sum(axis=0)
        if np.max(np.abs(columns - 1.0)) > 1e-12:
            raise ValueError("weights for each block must sum to 1 over outcomes")
        weights.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "j_values", expected)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def projective(cls, j1, j2) -> "RotInvariantPovm":
        """The projective measurement of total spin, one outcome per block."""
        j1, j2 = spin(j1), spin(j2)
        j_values = tuple(total_j_values(j1, j2))
        labels = tuple(f"J={J}" for J in j_values)
        return cls(j1, j2, labels, j_values, np.eye(len(j_values)))

    @property
    def n_outcomes(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown outcome label {label!r}") from None

    def element_matrix(self, k: int) -> np.ndarray:
        """Dense matrix of element k (subject to the dense dimension cap)."""
        dec = decomposition(self.j1, self.j2)
        dim = self.j1.dimension * self.j2.dimension
        matrix = np.zeros((dim, dim))
        for weight, block in zip(self.weights[k], dec.blocks):
            if weight != 0.0:
                matrix += weight * (block.isometry @ block.isometry.T)
        return matrix


@lru_cache(maxsize=128)
def _likelihood_table(twice_a: int, twice_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """T[J, k] = |<a a; b b-k | J, a+b-k>|^2 C(2b, k) for spins a >= b, with
    the exponents k and 2b - k of the binomial basis as float columns.

    Rows follow increasing J, columns k = 0 .. 2b.  With x = a + b - J the
    entry vanishes unless x <= k, and otherwise equals

        (2J+1) P(2a, x) (2b-x)! (2b)! / [P(2a+2b-x+1, k+1) x! (k-x)! ((2b-k)!)^2]

    with P(n, r) = n! / (n-r)!.  Every factorial is at most (2b)!, and the
    quotient of Python integers rounds once, so each entry is the correctly
    rounded float of the exact rational.
    """
    factorial = [math.factorial(n) for n in range(twice_b + 1)]
    table = np.zeros((twice_b + 1, twice_b + 1))
    for x in range(twice_b + 1):
        twice_J = twice_a + twice_b - 2 * x
        head = (twice_J + 1) * math.perm(twice_a, x) * factorial[twice_b - x] * factorial[twice_b]
        for k in range(x, twice_b + 1):
            den = (
                math.perm(twice_a + twice_b - x + 1, k + 1)
                * factorial[x]
                * factorial[k - x]
                * factorial[twice_b - k] ** 2
            )
            table[twice_b - x, k] = head / den
    k = np.arange(twice_b + 1.0)[:, None]
    rest = twice_b - k
    for array in (table, k, rest):
        array.setflags(write=False)
    return table, k, rest


def _block_probability_matrix(j1: SpinQuantumNumber, j2: SpinQuantumNumber, alphas: np.ndarray) -> np.ndarray:
    """p(J | alpha) for a product coherent pair, shape (n_blocks, n_alphas).

    Rows follow increasing J.  The likelihood is symmetric in the two spins,
    so the larger one, a, is fixed along +z and the smaller one, b, is the
    binomial (Wigner-d) mixture |d^b_{b-k,b}(alpha)|^2 = C(2b, k) s^k (1-s)^(2b-k)
    of its m = b - k components, s = sin^2(alpha/2); the exact table
    ``_likelihood_table`` carries the stretched Clebsch-Gordan weights.
    Raises CapacityError when 2 min(j1, j2) exceeds ``KERNEL_TWICE_J_LIMIT``.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if alphas.size and (alphas.min() < -1e-9 or alphas.max() > math.pi + 1e-9):
        raise ValueError("relative angles must lie in [0, pi]")
    twice_a, twice_b = max(j1.twice_j, j2.twice_j), min(j1.twice_j, j2.twice_j)
    if twice_b > KERNEL_TWICE_J_LIMIT:
        raise CapacityError(
            f"the smaller spin {SpinQuantumNumber(twice_b)} exceeds the likelihood kernel's "
            f"limit 2*min(j1, j2) <= {KERNEL_TWICE_J_LIMIT}"
        )
    table, k, rest = _likelihood_table(twice_a, twice_b)
    half = 0.5 * alphas
    return table @ ((np.sin(half) ** 2) ** k * (np.cos(half) ** 2) ** rest)


def outcome_probabilities(j1, j2, alpha: float) -> dict:
    """Probability of each total-spin outcome for a pair at relative angle alpha."""
    j1, j2 = spin(j1), spin(j2)
    column = _block_probability_matrix(j1, j2, np.array([alpha]))[:, 0]
    return dict(zip(total_j_values(j1, j2), column.tolist()))


def outcome_probability(j1, j2, J, alpha: float) -> float:
    """Probability of the total-spin-J outcome at relative angle alpha."""
    j1, j2, J = spin(j1), spin(j2), spin(J)
    probabilities = outcome_probabilities(j1, j2, alpha)
    if J not in probabilities:
        raise ValueError(f"J={J} outside the range for ({j1}, {j2})")
    return probabilities[J]


def povm_outcome_probabilities(povm: RotInvariantPovm, alphas) -> np.ndarray:
    """p(outcome | alpha) for a product pair, shape (n_outcomes, n_alphas)."""
    return povm.weights @ _block_probability_matrix(povm.j1, povm.j2, np.atleast_1d(alphas))


def povm_probabilities_from_state(povm: RotInvariantPovm, state) -> np.ndarray:
    """Outcome probabilities Tr(E_k rho) for a density matrix or invariant state."""
    if isinstance(state, InvariantState):
        block_probs = state.weight_array()
    elif isinstance(state, DensityMatrix):
        if state.spins != (povm.j1, povm.j2):
            raise ValueError("state and POVM act on different spin pairs")
        block_probs = invariant_average(state).weight_array()
    else:
        raise TypeError(f"cannot measure {type(state).__name__}")
    return povm.weights @ block_probs


def _outcome_prior_probability(prior, povm: RotInvariantPovm, k: int) -> float:
    if isinstance(prior, DiscreteAngleDistribution):
        likelihood = povm_outcome_probabilities(povm, prior.alphas)[k]
        return float(np.dot(prior.weights, likelihood))
    value, _ = _adaptive_integral(
        lambda a: povm_outcome_probabilities(povm, a)[k] * prior.pdf(a)
    )
    return value


def bayes_update(prior, j1, j2, povm: RotInvariantPovm, outcome: str):
    """Posterior over the relative angle after observing the given outcome."""
    j1, j2 = spin(j1), spin(j2)
    if (povm.j1, povm.j2) != (j1, j2):
        raise ValueError("POVM does not act on the requested spin pair")
    k = povm.index(outcome)
    p_outcome = _outcome_prior_probability(prior, povm, k)
    if p_outcome <= 1e-14:
        raise ImpossibleOutcomeError(
            f"outcome {outcome!r} has probability {p_outcome} under this prior"
        )
    if isinstance(prior, DiscreteAngleDistribution):
        likelihood = povm_outcome_probabilities(povm, prior.alphas)[k]
        return DiscreteAngleDistribution(
            prior.alphas, prior.weights * likelihood / p_outcome, outcome_label=outcome
        )
    return AngleDensity(
        lambda a: povm_outcome_probabilities(povm, a)[k] * prior.pdf(a) / p_outcome,
        outcome_label=outcome,
    )


def information_gain(prior, posterior) -> float:
    """Kullback-Leibler divergence of the posterior from the prior, in bits.

    Uses the continuity convention 0 log 0 = 0.  Posterior mass where the
    prior has none raises ValueError (it cannot occur for posteriors produced
    by ``bayes_update``).
    """
    if isinstance(prior, DiscreteAngleDistribution):
        if not isinstance(posterior, DiscreteAngleDistribution):
            raise ValueError("prior and posterior must share the same representation")
        if prior.alphas.shape != posterior.alphas.shape or np.max(
            np.abs(prior.alphas - posterior.alphas)
        ) > 1e-12:
            raise ValueError("prior and posterior must share the same support points")
        q, p = posterior.weights, prior.weights
        if np.any((q > 1e-15) & (p <= 0.0)):
            raise ValueError("posterior is not absolutely continuous w.r.t. the prior")
        mask = q > 0.0
        return float(np.sum(q[mask] * np.log2(q[mask] / p[mask])))
    if not isinstance(posterior, AngleDensity):
        raise ValueError("prior and posterior must share the same representation")

    def integrand(a):
        q = posterior.pdf(a)
        p = prior.pdf(a)
        if np.any((q > 1e-12) & (p <= 0.0)):
            raise ValueError("posterior is not absolutely continuous w.r.t. the prior")
        out = np.zeros_like(q)
        mask = q > 0.0
        out[mask] = q[mask] * np.log2(q[mask] / p[mask])
        return out

    value, _ = _adaptive_integral(integrand)
    return value


@dataclass(frozen=True, eq=False)
class OutcomeReport:
    """Per-outcome entry of an estimation report.

    ``posterior`` is None for outcomes that cannot occur under the prior;
    their information gain is taken as zero.
    """

    label: str
    probability: float
    posterior: object
    information_gain_bits: float


@dataclass(frozen=True, eq=False)
class EstimationReport:
    """Outcome probabilities, posteriors, and information gains for one scenario."""

    povm: RotInvariantPovm
    outcomes: tuple[OutcomeReport, ...]
    average_gain_bits: float

    def __post_init__(self):
        total = sum(o.probability for o in self.outcomes)
        if abs(total - 1.0) > 1e-10:
            raise ConsistencyError(f"outcome probabilities sum to {total}, expected 1")
        if any(o.information_gain_bits < -1e-12 for o in self.outcomes):
            raise ConsistencyError("negative information gain in report")
        recomputed = sum(o.probability * o.information_gain_bits for o in self.outcomes)
        if abs(recomputed - self.average_gain_bits) > 1e-12:
            raise ConsistencyError("average gain is inconsistent with the outcome table")

    def outcome(self, label: str) -> OutcomeReport:
        for entry in self.outcomes:
            if entry.label == label:
                return entry
        raise ValueError(f"unknown outcome label {label!r}")


def average_information_gain(j1, j2, prior, povm: RotInvariantPovm) -> EstimationReport:
    """Full estimation report for a prior and a rotationally invariant POVM."""
    j1, j2 = spin(j1), spin(j2)
    entries = []
    average = 0.0
    for k, label in enumerate(povm.labels):
        p_outcome = _outcome_prior_probability(prior, povm, k)
        if p_outcome <= 1e-14:
            entries.append(OutcomeReport(label, 0.0, None, 0.0))
            continue
        posterior = bayes_update(prior, j1, j2, povm, label)
        gain = information_gain(prior, posterior)
        entries.append(OutcomeReport(label, p_outcome, posterior, gain))
        average += p_outcome * gain
    return EstimationReport(povm, tuple(entries), average)


def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def map_estimate(posterior) -> float:
    """Maximizer of the posterior over [0, pi].

    Discrete posteriors return the max-weight support point, breaking ties in
    favor of the smaller angle.  Densities are maximized by golden-section
    search seeded from the best quadrature node.
    """
    if isinstance(posterior, DiscreteAngleDistribution):
        best = float(np.max(posterior.weights))
        candidates = posterior.alphas[posterior.weights >= best - 1e-15]
        return float(np.min(candidates))
    nodes, _ = _quad_rule(max(64, posterior._nodes_hint))
    candidates = np.concatenate([[0.0], nodes, [math.pi]])
    values = posterior.pdf(candidates)
    best = int(np.argmax(values))
    spacing = math.pi / nodes.size
    lo = max(0.0, candidates[best] - spacing)
    hi = min(math.pi, candidates[best] + spacing)
    return _golden_section_max(lambda x: float(posterior.pdf(np.array([x]))[0]), lo, hi)


def _make_prior(prior_kind: str):
    if prior_kind == "parallel-antiparallel":
        return parallel_antiparallel_prior()
    if prior_kind == "uniform-directions":
        return uniform_direction_prior()
    raise ValueError(f"prior kind must be one of {PRIOR_KINDS}, got {prior_kind!r}")


def infogain_curve(j_list, prior_kind: str, povm_kind: str) -> list:
    """Average information gain versus j for a spin-1/2 paired with a spin-j.

    Returns one (j, average gain in bits) row per entry of ``j_list``; all
    probabilities come from the closed forms, so large j is cheap.
    """
    if povm_kind not in POVM_KINDS:
        raise ValueError(f"povm kind must be one of {POVM_KINDS}, got {povm_kind!r}")
    half = SpinQuantumNumber(1)
    rows = []
    for j in j_list:
        j = spin(j)
        if povm_kind == "optimal":
            povm = RotInvariantPovm.projective(half, j)
        else:
            from .locc import optimal_local_povm

            povm = optimal_local_povm(j)
        report = average_information_gain(half, j, _make_prior(prior_kind), povm)
        rows.append((j, report.average_gain_bits))
    return rows


def born_limit_check(j1, alpha: float, j2) -> float:
    """Deviation of the total-spin outcome distribution from the Born-rule
    distribution for measuring the spin-j1 against a classical axis at angle
    alpha.

    Outcome J = j2 + m is matched with the magnetic quantum number m of the
    projective measurement along the axis; the deviation reported is the
    maximum over outcomes of the absolute probability difference.
    """
    from .angular import Rotation, rotation_matrix

    j1, j2 = spin(j1), spin(j2)
    if j2.twice_j < j1.twice_j:
        raise ValueError("the second spin defines the reference direction and must be the larger")
    block_probs = _block_probability_matrix(j1, j2, np.array([alpha]))[:, 0]
    amplitudes = rotation_matrix(j1, Rotation(0.0, float(alpha), 0.0))[:, 0]
    born = np.abs(amplitudes) ** 2  # ordered by decreasing m
    return float(np.max(np.abs(block_probs - born[::-1])))
