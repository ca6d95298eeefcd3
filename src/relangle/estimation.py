"""Bayesian estimation of the relative angle between two spin coherent states.

Measurements are rotationally invariant POVMs, i.e. weighted sums of the
total-spin projectors.  Every result is a fold of one likelihood, the
total-spin distribution p(J | alpha) of a coherent pair at relative angle
alpha, which has a closed form for every spin pair: with the larger spin a
along +z and the smaller spin b at angle alpha,

    p(J | alpha) = sum_k T[J, k] s^k (1 - s)^(2b - k),   s = sin^2(alpha / 2),

where T[J, k] = |<a a; b b-k | J, a+b-k>|^2 C(2b, k) is a table of exact
rationals, one float per entry.  No dense matrix is built.  T also weighs the
local POVM of every pair (``_povm_weights``), the best separable one for a
spin-1/2 probe (``optimal_local_povm``).  As ds =
sin(alpha)/2 dalpha, a density is a polynomial in s held by its Bernstein
coefficients (``polynomials``), whose mean is its integral.  A posterior's
coefficients are the Bernstein product of the prior's with a row of T
divided by C(2b, k), and its evidence is their mean, so evidences and
posteriors need no quadrature.  Information gains are Kullback-Leibler
divergences in bits; only one between densities needs quadrature,
Gauss-Legendre in alpha, unless the posterior is linear and the prior
constant in s (any spin-1/2 probe, uniform prior).  A posterior q with x
more exact leading zero coefficients than the prior p, and y more trailing
ones, puts x q ln s + y q ln(1 - s), not analytic at the ends, into
q ln(q/p).  The rule integrates q ln(q/p) less q [x (ln s - A) +
y (ln(1 - s) - B)], which is smooth and loses nothing: A and B are q's means
of ln s and ln(1 - s), in closed form from
int_0^1 C(m, k) s^k (1 - s)^(m - k) ln s ds = (H_k - H_(m+1)) / (m + 1).
The rules come from Halley steps in theta = arccos(x), from Tricomi's
asymptotic nodes, on the cosine series of P_n(cos theta), each step one
matrix product with waves built by one cumulative product: O(n^2) work, with
no eigensolve and no loop over the degree (``_gauss_legendre``).

Tables, POVM weights, evidences, posteriors and gains carry a leading axis
of pairs sharing the smaller spin b: a report is a stack of one pair, and a
gain-versus-j curve one stack for all its j and scenarios, with the same checks.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .angular import SpinQuantumNumber, _brief, spin
from .coupling import _total_js, _total_spin_labels
from .errors import CapacityError, ConsistencyError, ImpossibleOutcomeError
from .polynomials import (_binomials, bernstein_from_power, bernstein_product, bernstein_values,
                          power_basis)
from .states import DensityMatrix, InvariantState, invariant_average

__all__ = [
    "DiscreteAngleDistribution",
    "AngleDensity",
    "parallel_antiparallel_prior",
    "uniform_direction_prior",
    "RotInvariantPovm",
    "OutcomeReport",
    "EstimationReport",
    "outcome_probabilities",
    "povm_outcome_probabilities",
    "povm_probabilities_from_state",
    "bayes_update",
    "information_gain",
    "average_information_gain",
    "map_estimate",
    "infogain_curve",
    "born_limit_check",
    "optimal_local_povm",
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

# Every integer below 2^53 is a float64, so a product of integers that stays below it is exact.
_EXACT_FLOAT_INTEGERS = 2**53

# An outcome whose evidence P(o) is at most this cannot occur under the prior.
_IMPOSSIBLE_EVIDENCE = 1e-14

_QUAD_TOL = 1e-10
_QUAD_START = 16
_QUAD_MAX = 1024


def _legendre_series(n: int, series: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_k series[:, k] e^(i(n - 2k) theta), k = 0 .. n/2, for every theta: one matrix
    product with the waves, which one cumulative product along k builds from e^(in theta)."""
    waves = np.empty((series.shape[1], theta.size), dtype=complex)
    waves[0] = np.exp(1j * n * theta)
    waves[1:] = np.exp(-2j * theta)
    # np.cumprod without its Python wrapper, which costs more than the product on the few
    # waves of the small rules that the LOCC design builds
    return series @ np.multiply.accumulate(waves, out=waves)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-node Gauss-Legendre rule on [-1, 1], n >= 1: increasing nodes, and weights.

    The nodes are found in theta, x = cos(theta), on the cosine series
    P_n(cos t) = sum_k a_k a_(n-k) cos((n - 2k) t), a_k = C(2k, k) / 4^k, whose terms
    k and n - k are equal.  The nodes x in [0, 1) start from Tricomi's asymptotic
    guess and take two Halley steps in theta; each evaluates P_n, dP_n/dt and
    d^2P_n/dt^2 at once (``_legendre_series``).  A last evaluation gives the
    weights 2 / (dP_n/dt)^2, free of the 1 - x^2 cancellation near +-1, and one
    more Newton step, taken in x, which resolves the nodes near 0 below the
    spacing of theta.  The other nodes are their mirror images.  O(n^2), with no
    eigensolve and no loop over the degree.
    """
    half = (n + 1) // 2  # nodes in [0, 1), the middle one 0 when n is odd
    theta = np.arange(3.0, 4 * half, 4.0) * math.pi / (4 * n + 2)  # (4k - 1) pi / (4n + 2)
    correction = (n - 1) / (8 * n**3) + (39.0 - 28.0 / np.sin(theta) ** 2) / (384 * n**4)
    theta = np.arccos((1.0 - correction) * np.cos(theta))
    degrees = np.arange(1.0, n + 1)
    a = np.ones(n + 1)  # a_k = prod_(j <= k) (j - 1/2) / j
    np.multiply.accumulate((degrees - 0.5) / degrees, out=a[1:])
    terms = n // 2 + 1
    c = a[:terms] * a[:n - terms:-1]  # a_k a_(n-k), k = 0 .. n/2
    c[:half] *= 2.0  # every wave but cos(0 t) stands for its mirror term too
    m = n - 2.0 * np.arange(terms)
    series = np.zeros((3, terms), dtype=complex)  # real parts: P_n, dP_n/dt, d^2P_n/dt^2
    series[0] = c
    series.imag[1] = m * c
    series[2] = -m * series.imag[1]
    for _ in range(2):
        p, slope, curvature = _legendre_series(n, series, theta).real
        step = p / slope
        theta = theta - step / (1.0 - 0.5 * step * curvature / slope)
    p, slope = _legendre_series(n, series[:2], theta).real
    x = np.cos(theta) + np.sin(theta) * (p / slope)
    w = 2.0 / slope**2
    middle = n % 2
    return np.concatenate((-x, x[::-1][middle:])), np.concatenate((w, w[::-1][middle:]))


@lru_cache(maxsize=16)
def _quad_rule(n: int):
    """``_gauss_legendre(n)`` mapped to [0, pi], its weights scaled to sum to pi; read-only."""
    x, w = _gauss_legendre(n)
    nodes = 0.5 * math.pi * (x + 1.0)
    weights = math.pi / w.sum() * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _adaptive_integral(f, rows: np.ndarray) -> tuple[np.ndarray, int]:
    """Integrate over [0, pi] one integrand per row: f(rows, nodes) gives their values at the
    nodes, one row each.  Gauss-Legendre rules double from 16 nodes; each row stops at the
    first rule that agrees with the one before within _QUAD_TOL, as it would alone, and f
    sees only the rows still open.  Returns (one value per row, the most nodes any row used)."""
    values, open_rows = np.empty(len(rows)), np.arange(len(rows))
    previous, n, used = None, _QUAD_START, 0
    while open_rows.size:
        if n > _QUAD_MAX:
            raise ConsistencyError("quadrature failed to converge; integrand is not smooth enough")
        nodes, weights = _quad_rule(n)
        current = np.array([np.dot(weights, row) for row in f(rows[open_rows], nodes)])
        if previous is not None:
            done = np.abs(current - previous) < _QUAD_TOL
            if done.any():
                values[open_rows[done]], used = current[done], n
                open_rows, current = open_rows[~done], current[~done]
        previous = current
        n *= 2
    return values, used


@dataclass(frozen=True, eq=False)
class DiscreteAngleDistribution:
    """Distribution over the relative angle supported on finitely many points."""

    alphas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        alphas = np.array(self.alphas, dtype=float)
        weights = np.array(self.weights, dtype=float)
        if alphas.ndim != 1 or alphas.shape != weights.shape:
            raise ValueError("support points and weights must be 1-d arrays of equal length")
        # min/max comparisons written so that NaN fails them too
        if alphas.size and not (alphas.min() >= -1e-12 and alphas.max() <= math.pi + 1e-12):
            raise ValueError("support points must lie in [0, pi]")
        weights = _checked_weights(weights)
        alphas.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "weights", weights)


class AngleDensity:
    """Distribution over the relative angle with a polynomial density in s of
    degree n, held by its Bernstein coefficients b_k:

        pdf(alpha) = sum_k b_k C(n, k) s^k (1 - s)^(n - k) sin(alpha) / 2.

    Each basis polynomial integrates to 1 / (n + 1) over s, so the density
    integrates to the mean of b; it is checked to be one.  The coefficients
    must be non-negative, and the uniform density is b_k = 1 at any degree.
    """

    def __init__(self, coefficients):
        coefficients = np.array(coefficients, dtype=float)
        if coefficients.ndim != 1 or coefficients.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d array of non-negative numbers")
        _check_coefficients(coefficients)
        coefficients.setflags(write=False)
        self.coefficients = coefficients

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1

    def pdf(self, alphas) -> np.ndarray:
        return _density_values(self.coefficients, np.asarray(alphas, dtype=float))


def _checked_weights(weights: np.ndarray, error=ValueError, axis=-1) -> np.ndarray:
    """Weights clipped at zero; ``error`` unless every weight is at least -1e-12 and each
    distribution's weights sum to 1 within 1e-12 along ``axis``: discrete distributions (last
    axis), or each block's weights over the outcomes of a POVM (outcomes, blocks; axis -2).
    NaN fails both checks."""
    if not (weights >= -1e-12).all():
        raise error("weights must be non-negative")
    weights = np.maximum(weights, 0.0)
    totals = weights.sum(axis=axis)
    deviations = np.abs(totals - 1.0)
    if not (deviations <= 1e-12).all():
        raise error(f"weights sum to {float(np.ravel(totals)[np.argmax(deviations)])}, expected 1")
    return weights


def _check_coefficients(coefficients: np.ndarray, error=ValueError) -> None:
    """``error`` unless the Bernstein coefficients (last axis) are non-negative and each
    density's mean, its integral, is 1 within 1e-10.  NaN fails both checks."""
    if not (coefficients >= 0.0).all():
        raise error("density coefficients must be non-negative")
    means = coefficients.sum(axis=-1) / coefficients.shape[-1]
    deviations = np.abs(means - 1.0)
    if not (deviations <= 1e-10).all():
        raise error(f"density integrates to {float(np.ravel(means)[np.argmax(deviations)])}, "
                    "expected 1")


def _density_values(coefficients: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The densities in alpha with the given Bernstein coefficients (last axis) at each angle,
    in the shape of ``bernstein_values``: each polynomial in s times ds/dalpha = sin(alpha)/2."""
    return bernstein_values(coefficients, alphas) * (0.5 * np.sin(alphas))


def parallel_antiparallel_prior() -> DiscreteAngleDistribution:
    """Prior for spins prepared parallel or anti-parallel with equal probability."""
    return DiscreteAngleDistribution(np.array([0.0, math.pi]), np.array([0.5, 0.5]))


def uniform_direction_prior() -> AngleDensity:
    """Prior sin(alpha)/2 of independently uniform directions: uniform in s."""
    return AngleDensity([1.0])


@dataclass(frozen=True, eq=False)
class RotInvariantPovm:
    """POVM commuting with all collective rotations.

    Every element is a weighted sum of total-spin projectors;
    ``weights[k, i]`` is the weight of outcome ``labels[k]`` on block
    ``j_values[i]``, the pair's total spins in increasing order.  For each
    block the weights over outcomes form a probability distribution.
    """

    j1: SpinQuantumNumber
    j2: SpinQuantumNumber
    labels: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (len(self.labels), len(self.j_values)):
            raise ValueError(f"weights shape {weights.shape} does not match labels x blocks")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("outcome labels must be unique")
        weights = _checked_weights(weights, axis=-2)
        weights.setflags(write=False)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "weights", weights)

    @property
    def j_values(self) -> tuple[SpinQuantumNumber, ...]:
        return _total_js(self.j1.twice_j, self.j2.twice_j)

    @classmethod
    def projective(cls, j1, j2) -> "RotInvariantPovm":
        """The projective measurement of total spin, one outcome per block."""
        j1, j2 = spin(j1), spin(j2)
        labels = _total_spin_labels(j1.twice_j, j2.twice_j)
        return cls(j1, j2, tuple(f"J={J}" for J in labels), np.eye(len(labels)))

    @property
    def n_outcomes(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown outcome label {label!r}") from None


@lru_cache(maxsize=128)
def _table_stack(twice_b: int, twice_as: tuple) -> np.ndarray:
    """T[J, k] = |<a a; b b-k | J, a+b-k>|^2 C(2b, k) for a shared smaller spin b and each
    larger spin a >= b in the tuple ``twice_as``, stacked along a leading pair axis: read-only
    and cached, so every caller of one stack, such as the scenarios of a curve, shares one
    build, and a single pair's table is its stack of one.

    Rows follow increasing J, columns k = 0 .. 2b.  With x = a + b - J the
    entry vanishes unless x <= k, and otherwise equals

        (2J+1) P(2a, x) (2b-x)! (2b)! / [P(2a+2b-x+1, k+1) x! (k-x)! ((2b-k)!)^2]

    with P(n, r) = n! / (n-r)!.  Every factorial is at most (2b)!.  Each entry
    is the correctly rounded float of this rational, evaluated one of two ways:

    - a stack of more than one pair whose largest a keeps
      P(2a+2b+1, 2b+1) ((2b)!)^3 below 2^53, a bound on every numerator and
      denominator, in float64 arrays along the pair axis (``_float_table_stack``).
      Every factor is an integer of at least 1, so every partial product is an
      integer below 2^53, held exactly, and the one division rounds once;
    - any other stack, such as a single pair or a spin past 2^53 or past the float
      range, entry by entry in Python integers, whose quotient also rounds once.

    So both give the same bits.  A single pair stays on the loop, which costs less than
    the arrays' fixed work.  CapacityError past the kernel limit.
    """
    if twice_b > KERNEL_TWICE_J_LIMIT:
        raise CapacityError(f"the smaller spin {_brief(SpinQuantumNumber(twice_b))} exceeds the "
                            f"likelihood kernel's limit 2*min(j1, j2) <= {KERNEL_TWICE_J_LIMIT}")
    factorial = [math.factorial(n) for n in range(twice_b + 1)]
    if len(twice_as) > 1 and (math.perm(max(twice_as) + twice_b + 1, twice_b + 1)
                              * factorial[twice_b] ** 3 < _EXACT_FLOAT_INTEGERS):
        tables = _float_table_stack(twice_b, np.array(twice_as, dtype=float))
    else:
        tables = np.zeros((len(twice_as), twice_b + 1, twice_b + 1))
        for table, twice_a in zip(tables, twice_as):
            for x in range(twice_b + 1):
                twice_J = twice_a + twice_b - 2 * x
                head = ((twice_J + 1) * math.perm(twice_a, x)
                        * factorial[twice_b - x] * factorial[twice_b])
                for k in range(x, twice_b + 1):
                    den = (
                        math.perm(twice_a + twice_b - x + 1, k + 1)
                        * factorial[x]
                        * factorial[k - x]
                        * factorial[twice_b - k] ** 2
                    )
                    table[twice_b - x, k] = head / den
    tables.setflags(write=False)
    return tables


def _float_table_stack(twice_b: int, twice_as: np.ndarray) -> np.ndarray:
    """The tables of ``_table_stack`` for the larger spins ``twice_as`` (float64, one per
    pair), with the row index i = 2b - x in place of x: the entry is

        (2a-2b+2i+1) P(2a, 2b-i) i! (2b)! / [P(2a+i+1, k+1) (2b-i)! (i+k-2b)! ((2b-k)!)^2]

    where i + k >= 2b, and 0 elsewhere.  Each P is one cumulative product of integer
    factors along the pair axis; exact while ``_table_stack``'s bound holds."""
    steps = np.arange(twice_b + 1.0)
    factorial = np.ones(twice_b + 1)
    np.multiply.accumulate(steps[1:], out=factorial[1:])
    falling = np.ones((len(twice_as), twice_b + 1))  # P(2a, x), x = 0 .. 2b
    np.multiply.accumulate(twice_as[:, None] - steps[:-1], axis=1, out=falling[:, 1:])
    twice_J_plus_one = twice_as[:, None] + (1.0 - twice_b + 2.0 * steps)
    head = twice_J_plus_one * falling[:, ::-1] * (factorial * factorial[-1])
    i, k = np.ogrid[:twice_b + 1, :twice_b + 1]
    nonzero = i + k >= twice_b
    den = np.multiply.accumulate(twice_as[:, None, None] + (i + 1.0 - k), axis=2)
    den *= (factorial[twice_b - i] * factorial[np.where(nonzero, i + k - twice_b, 0)]
            * factorial[twice_b - k] ** 2)
    return np.where(nonzero, head[:, :, None] / den, 0.0)


def _block_probability_matrix(j1: SpinQuantumNumber, j2: SpinQuantumNumber, alphas: np.ndarray) -> np.ndarray:
    """p(J | alpha) for a product coherent pair, shape (n_blocks, n_alphas).

    Rows follow increasing J.  The likelihood is symmetric in the two spins,
    so the larger one, a, is fixed along +z and the smaller one, b, is the
    binomial (Wigner-d) mixture |d^b_{b-k,b}(alpha)|^2 = C(2b, k) s^k (1-s)^(2b-k)
    of its m = b - k components, s = sin^2(alpha/2); the exact table
    ``_table_stack`` carries the stretched Clebsch-Gordan weights.
    Raises CapacityError when 2 min(j1, j2) exceeds ``KERNEL_TWICE_J_LIMIT``.
    """
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    # written as "not inside" so that NaN angles fail it too
    if alphas.size and not (alphas.min() >= -1e-9 and alphas.max() <= math.pi + 1e-9):
        raise ValueError("relative angles must lie in [0, pi]")
    twice_b, twice_a = sorted((j1.twice_j, j2.twice_j))
    (table,) = _table_stack(twice_b, (twice_a,))
    return table @ power_basis(alphas, twice_b)


def outcome_probabilities(j1, j2, alpha: float) -> dict:
    """Probability of each total-spin outcome for a pair at relative angle alpha."""
    j1, j2 = spin(j1), spin(j2)
    column = _block_probability_matrix(j1, j2, np.array([alpha]))[:, 0]
    return dict(zip(_total_js(j1.twice_j, j2.twice_j), column.tolist()))


def povm_outcome_probabilities(povm: RotInvariantPovm, alphas) -> np.ndarray:
    """p(outcome | alpha) for a product pair, shape (n_outcomes, n_alphas)."""
    return povm.weights @ _block_probability_matrix(povm.j1, povm.j2, np.atleast_1d(alphas))


def povm_probabilities_from_state(povm: RotInvariantPovm, state) -> np.ndarray:
    """Outcome probabilities Tr(E_k rho) for a density matrix or invariant state."""
    if isinstance(state, DensityMatrix):
        state = invariant_average(state)
    elif not isinstance(state, InvariantState):
        raise TypeError(f"cannot measure {type(state).__name__}")
    if (state.j1, state.j2) != (povm.j1, povm.j2):
        raise ValueError("state and POVM act on different spin pairs")
    return povm.weights @ state.weight_array()


def _stacked(povm: RotInvariantPovm) -> tuple[np.ndarray, np.ndarray]:
    """The POVM's weights and its pair's likelihood table, as a stack of one pair."""
    twice_b, twice_a = sorted((povm.j1.twice_j, povm.j2.twice_j))
    return povm.weights[None], _table_stack(twice_b, (twice_a,))


def _joint_rows(prior, weights: np.ndarray, tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evidences P(o), shape (pairs, outcomes), and joint rows, one per pair and outcome, from
    stacked POVM weights (pairs, outcomes, blocks) and likelihood tables (pairs, blocks, 2b+1).
    Row o over P(o) is the posterior's weights (discrete prior: one likelihood evaluation) or
    Bernstein coefficients (density: P(o) is the row's mean, a sum of non-negative terms)."""
    if isinstance(prior, DiscreteAngleDistribution):
        likelihood = weights @ (tables @ power_basis(prior.alphas, tables.shape[-1] - 1))
        return likelihood @ prior.weights, likelihood * prior.weights
    rows = bernstein_product(prior.coefficients, bernstein_from_power(weights @ tables))
    return rows.sum(axis=-1) / rows.shape[-1], rows


def _posterior(prior, weights: np.ndarray):
    if isinstance(prior, DiscreteAngleDistribution):
        return DiscreteAngleDistribution(prior.alphas, weights)
    return AngleDensity(weights)


def bayes_update(prior, povm: RotInvariantPovm, outcome: str):
    """Posterior over the relative angle after the given outcome of the POVM on its own pair."""
    k = povm.index(outcome)
    evidence, rows = _joint_rows(prior, *_stacked(povm))
    p_outcome = float(evidence[0, k])
    if p_outcome <= _IMPOSSIBLE_EVIDENCE:
        raise ImpossibleOutcomeError(
            f"outcome {outcome!r} has probability {p_outcome} under this prior"
        )
    return _posterior(prior, rows[0, k] / p_outcome)


def _linear_x_log_x(c0: np.ndarray, c1: np.ndarray) -> np.ndarray:
    """int_0^1 q ln q ds for q = c0 (1 - s) + c1 s >= 0, elementwise: (F(c1) - F(c0)) / (c1 - c0)
    with F(x) = x^2 ln x / 2 - x^2 / 4; where that cancels (|t| < 0.1), its even series in t."""
    m, t = 0.5 * (c0 + c1), (c1 - c0) / (c0 + c1)
    with np.errstate(divide="ignore", invalid="ignore"):  # at x = 0 and c0 = c1, replaced below
        F0, F1 = (np.where(x > 0.0, x * x * np.log(x) / 2 - x * x / 4, 0.0) for x in (c0, c1))
        values = np.asarray((F1 - F0) / (c1 - c0))
    near = np.abs(t) < 0.1
    if near.any():
        m, t = m[near], t[near]
        series = sum(t**n / ((n + 1) * n * (n - 1)) for n in range(20, 0, -2))  # even n
        values[near] = m * np.log(m) + m * series
    return values


def _kl_terms(q: np.ndarray, p: np.ndarray, tol: float) -> np.ndarray:
    """q log2(q / p), with p broadcast to q and 0 log 0 = 0; ValueError where q exceeds tol
    and p is not positive."""
    p = np.broadcast_to(p, q.shape)
    if np.any((q > tol) & (p <= 0.0)):
        raise ValueError("posterior is not absolutely continuous w.r.t. the prior")
    terms, mask = np.zeros(q.shape), q > 0.0
    terms[mask] = q[mask] * np.log2(q[mask] / p[mask])
    return terms


def _kl_bits(prior, q: np.ndarray) -> np.ndarray:
    """Kullback-Leibler divergence in bits from the prior of each posterior along the last
    axis of q: its weights on the prior's support, or a density's Bernstein coefficients."""
    if isinstance(prior, DiscreteAngleDistribution):
        return _kl_terms(q, prior.weights, 1e-15).sum(axis=-1)
    if prior.degree == 0 and q.shape[-1] == 2:  # int q ln(q / p) ds, p constant
        (p,) = prior.coefficients.tolist()
        c0, c1 = q[..., 0], q[..., 1]
        return (_linear_x_log_x(c0, c1) - math.log(p) * 0.5 * (c0 + c1)) / math.log(2.0)

    # q / p is s^x (1 - s)^y times a function positive on [0, 1]: the rule integrates
    # q [log2(q / p) - (x (ln s - A) + y (ln(1 - s) - B)) / ln 2] (module docstring)
    rows, n = q.reshape(-1, q.shape[-1]), q.shape[-1]
    nonzero, prior_nonzero = rows != 0.0, prior.coefficients != 0.0
    x = nonzero.argmax(axis=1) - prior_nonzero.argmax()  # exact zeros at s = 0, q's less p's
    y = nonzero[:, ::-1].argmax(axis=1) - prior_nonzero[::-1].argmax()  # and at s = 1
    tails = np.cumsum(1.0 / np.arange(n, 0.0, -1.0)) / n  # (H_(m+1) - H_(m-i)) / (m + 1)
    shift = ((x[:, None] * tails[::-1] + y[:, None] * tails) * rows).sum(axis=1)  # -(xA + yB)
    rows = np.column_stack((rows, x, y, shift))

    def integrand(rows, a):
        values, (x, y, shift) = _density_values(rows[:, :-3], a), rows[:, -3:].T[..., None]
        log_s, log_c = np.log(np.sin(0.5 * a) ** 2), np.log(np.cos(0.5 * a) ** 2)
        return (_kl_terms(values, prior.pdf(a), 1e-12)
                - values * (x * log_s + y * log_c + shift) / math.log(2.0))

    return _adaptive_integral(integrand, rows)[0].reshape(q.shape[:-1])


def information_gain(prior, posterior) -> float:
    """Kullback-Leibler divergence of the posterior from the prior, in bits.

    Uses the continuity convention 0 log 0 = 0.  Posterior mass where the
    prior has none raises ValueError (it cannot occur for posteriors produced
    by ``bayes_update``).  Only a discrete prior can raise it: a density
    prior is positive on (0, 1), where every quadrature node lies.
    """
    if isinstance(prior, DiscreteAngleDistribution):
        if not isinstance(posterior, DiscreteAngleDistribution):
            raise ValueError("prior and posterior must share the same representation")
        if prior.alphas.shape != posterior.alphas.shape or np.max(
            np.abs(prior.alphas - posterior.alphas)
        ) > 1e-12:
            raise ValueError("prior and posterior must share the same support points")
        return float(_kl_bits(prior, posterior.weights))
    if not isinstance(posterior, AngleDensity):
        raise ValueError("prior and posterior must share the same representation")
    return float(_kl_bits(prior, posterior.coefficients))


def _check_gains(probabilities: np.ndarray, gains: np.ndarray, average) -> None:
    """ConsistencyError unless, for every pair, the outcome probabilities (last axis) sum to 1
    within 1e-10, no gain is below -1e-12 and the average gain is the probability-weighted
    sum of the gains within 1e-12; NaN fails every check."""
    totals = probabilities.sum(axis=-1)
    deviations = np.abs(totals - 1.0)
    if not (deviations <= 1e-10).all():
        total = np.ravel(totals)[np.argmax(deviations)]
        raise ConsistencyError(f"outcome probabilities sum to {total}, expected 1")
    if not (gains >= -1e-12).all():
        raise ConsistencyError("negative information gain in report")
    if not (np.abs((probabilities * gains).sum(axis=-1) - average) <= 1e-12).all():
        raise ConsistencyError("average gain is inconsistent with the outcome table")


def _gains(prior, weights: np.ndarray, tables: np.ndarray) -> tuple:
    """Outcome probabilities and gains (pairs, outcomes), posteriors (pairs, outcomes, n) and
    average gains (pairs,) for a stack of pairs, checked by ``_check_gains``.  An outcome
    with evidence at most _IMPOSSIBLE_EVIDENCE cannot occur: its probability and gain are zero."""
    evidence, rows = _joint_rows(prior, weights, tables)
    possible = evidence > _IMPOSSIBLE_EVIDENCE
    probabilities = np.where(possible, evidence, 0.0)
    posteriors = rows / np.where(possible, evidence, 1.0)[..., None]
    gains = np.zeros(evidence.shape)
    gains[possible] = _kl_bits(prior, posteriors[possible])
    average = (probabilities * gains).sum(axis=-1)
    _check_gains(probabilities, gains, average)
    return probabilities, posteriors, gains, average


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
        _check_gains(
            np.array([o.probability for o in self.outcomes], dtype=float),
            np.array([o.information_gain_bits for o in self.outcomes], dtype=float),
            self.average_gain_bits,
        )

    def outcome(self, label: str) -> OutcomeReport:
        return self.outcomes[self.povm.index(label)]


def average_information_gain(prior, povm: RotInvariantPovm) -> EstimationReport:
    """Full estimation report for a prior and a rotationally invariant POVM on its own spin
    pair: the stack of one pair, with a posterior object for each outcome that can occur."""
    probabilities, posteriors, gains, average = _gains(prior, *_stacked(povm))
    entries = tuple(
        OutcomeReport(label, p, _posterior(prior, q) if p > 0.0 else None, gain)
        for label, p, q, gain in zip(povm.labels, probabilities[0].tolist(), posteriors[0],
                                     gains[0].tolist())
    )
    return EstimationReport(povm, entries, float(average[0]))


def map_estimate(posterior) -> float:
    """Maximizer of the posterior over [0, pi].

    Discrete posteriors return the max-weight support point, breaking ties in
    favor of the smaller angle.  Densities are searched on a uniform grid in
    alpha that grows with the degree, then on 65-point grids between the two
    neighbours of the best point until they are 1e-9 apart."""
    if isinstance(posterior, DiscreteAngleDistribution):
        best = float(np.max(posterior.weights))
        candidates = posterior.alphas[posterior.weights >= best - 1e-15]
        return float(np.min(candidates))
    lo, hi, points = 0.0, math.pi, 16 * posterior.degree + 65
    while hi - lo > 1e-9:
        grid = np.linspace(lo, hi, points)
        best = int(np.argmax(posterior.pdf(grid)))
        lo, hi, points = grid[max(best - 1, 0)], grid[min(best + 1, points - 1)], 65
    return 0.5 * (lo + hi)


def optimal_local_povm(j) -> RotInvariantPovm:
    """The local POVM of ``_make_povm`` for (1/2, j), the most informative separable POVM of
    that pair: aligned, (2j+1)/(2j+2) of the high-J block, and antialigned, the rest."""
    return _make_povm("optimal-local", SpinQuantumNumber(1), j)


def _make_prior(kind: str):
    """The prior of the given kind in ``PRIOR_KINDS``."""
    if kind == "parallel-antiparallel":
        return parallel_antiparallel_prior()
    if kind == "uniform-directions":
        return uniform_direction_prior()
    raise ValueError(f"prior kind must be one of {PRIOR_KINDS}, got {kind!r}")


def _povm_weights(kind: str, twice_as, tables: np.ndarray) -> np.ndarray:
    """Weights (pairs, outcomes, blocks by increasing J) of the POVM of the given kind in
    ``POVM_KINDS`` for the stack ``tables`` of ``_table_stack`` over the larger spins
    ``twice_as``.  "optimal" measures total spin.  "optimal-local" measures the larger spin a
    with coherent states and then the smaller spin b along the direction found; twirled, its
    outcome m = b - k weighs block J by (2a+1)/(2J+1) T[J, k] / C(2b, k), and the last outcome,
    k = 2b, takes 1 minus the others; checked by ``_checked_weights``.  Each ratio is the
    correctly rounded float of the integer quotient: one float64 division over a stack of more
    than one pair whose 2a + 2b + 1 stays below 2^53, where both integers are exact floats, and
    a quotient of Python integers otherwise, for any a.  ValueError for "optimal-local" when
    b = 0."""
    if kind == "optimal":
        return np.broadcast_to(np.eye(tables.shape[1]), tables.shape)
    if kind != "optimal-local":
        raise ValueError(f"povm kind must be one of {POVM_KINDS}, got {kind!r}")
    twice_b = tables.shape[2] - 1
    if twice_b == 0:
        raise ValueError("the local POVM needs both spins to be at least 1/2")
    if len(twice_as) > 1 and max(twice_as) + twice_b + 1 < _EXACT_FLOAT_INTEGERS:
        twice_a = np.array(twice_as, dtype=float)[:, None]
        ratios = (twice_a + 1.0) / (twice_a + np.arange(1.0 - twice_b, twice_b + 2.0, 2.0))
    else:
        ratios = np.fromiter(((twice_a + 1) / (twice_a - twice_b + 2 * i + 1)
                              for twice_a in twice_as for i in range(twice_b + 1)),
                             float, tables[..., 0].size).reshape(tables.shape[:2])
    rest = (tables[..., :-1] / _binomials(twice_b)[:-1]).transpose(0, 2, 1) * ratios[:, None]
    return _checked_weights(np.concatenate((rest, 1.0 - rest.sum(axis=1, keepdims=True)), 1),
                            axis=-2)


def _make_povm(kind: str, j1, j2) -> RotInvariantPovm:
    """The POVM of the given kind in ``POVM_KINDS`` on (j1, j2), in either order, weighted by
    ``_povm_weights``.  Outcomes are J=<J>, or the smaller spin's m along the direction found:
    aligned (m = b), m=<m>, antialigned (m = -b).  CapacityError past the kernel limit."""
    j1, j2 = spin(j1), spin(j2)
    twice_b, twice_a = sorted((j1.twice_j, j2.twice_j))
    weights = _povm_weights(kind, (twice_a,), _table_stack(twice_b, (twice_a,)))[0]
    labels = [f"J={J}" for J in _total_spin_labels(twice_b, twice_a)] if kind == "optimal" else [
        "aligned", *(f"m={'-' * (2 * k > twice_b)}{SpinQuantumNumber(abs(twice_b - 2 * k))}"
                     for k in range(1, twice_b)), "antialigned"]
    return RotInvariantPovm(j1, j2, labels, weights)


def infogain_curve(j_list, prior_kind: str, povm_kind: str) -> list:
    """Average information gain versus j for a spin-1/2 paired with a spin-j.

    Returns one (j, average gain in bits) row per entry of ``j_list``: the
    one-scenario case of ``_curve_averages``.  Each row is the
    ``average_gain_bits`` of ``average_information_gain`` on its pair.
    """
    js = [spin(j) for j in j_list]
    average = _curve_averages([j.twice_j for j in js], [(prior_kind, povm_kind)])[0]
    return list(zip(js, average.tolist()))


def _curve_averages(twice_as, scenarios) -> np.ndarray:
    """Average gains in bits, shape (scenarios, pairs), of a spin-1/2 paired with each spin
    2j in ``twice_as``, under each (prior kind, POVM kind) of ``scenarios``.  The spin-1/2 is
    the smaller spin of every pair, so all scenarios share one stack of pairs: one table
    request, each POVM kind's weights and each prior built once, and one ``_gains`` fold per
    scenario, checks included, with no POVM or posterior object built."""
    priors = {kind: _make_prior(kind) for kind in dict.fromkeys(p for p, _ in scenarios)}
    if 0 in twice_as:
        raise ValueError("the spin j must be at least 1/2")
    tables = _table_stack(1, tuple(twice_as))
    weights = {kind: _povm_weights(kind, twice_as, tables)
               for kind in dict.fromkeys(w for _, w in scenarios)}
    return np.array([_gains(priors[p], weights[w], tables)[3] for p, w in scenarios])


def born_limit_check(j1, alpha: float, j2) -> float:
    """Deviation of the total-spin outcome distribution from the Born-rule
    distribution for measuring the spin-j1 against a classical axis at angle
    alpha.

    Outcome J = j2 + m is matched with the magnetic quantum number m of the
    projective measurement along the axis, whose Born probability for the
    coherent state at angle alpha is C(2 j1, k) s^k (1 - s)^(2 j1 - k) with
    k = j1 - m and s = sin^2(alpha / 2); the deviation reported is the
    maximum over outcomes of the absolute probability difference.
    """
    j1, j2 = spin(j1), spin(j2)
    if j2.twice_j < j1.twice_j:
        raise ValueError("the second spin defines the reference direction and must be the larger")
    alphas = np.array([alpha], dtype=float)
    block_probs = _block_probability_matrix(j1, j2, alphas)[:, 0]
    n = j1.twice_j
    born = _binomials(n) * power_basis(alphas, n)[:, 0]  # ordered by decreasing m
    return float(np.max(np.abs(block_probs - born[::-1])))
