import math
from fractions import Fraction

import numpy as np
import pytest

from relangle.polynomials import (
    bernstein_from_power,
    bernstein_product,
    bernstein_values,
    log_binomials,
    power_basis,
)


def exact_product_entry(a, b, k):
    """Entry k of the Bernstein product in exact rationals."""
    m, d = len(a) - 1, len(b) - 1
    return sum(
        Fraction(a[i]) * Fraction(b[k - i]) * Fraction(math.comb(m, i) * math.comb(d, k - i), math.comb(m + d, k))
        for i in range(max(0, k - d), min(m, k) + 1)
    )


class TestLogBinomials:
    @pytest.mark.parametrize("n", [0, 1, 7, 200, 3000])
    def test_match_exact_integers(self, n):
        logs = log_binomials(n)
        assert logs.shape == (n + 1,)
        for k in {0, min(1, n), n // 3, n // 2, n}:
            assert abs(logs[k] - math.log(math.comb(n, k))) <= 4e-16 * max(1.0, logs[k])


class TestBernsteinValues:
    @pytest.mark.parametrize("n", [0, 1, 5, 1500, 4000])
    def test_basis_is_a_partition_of_unity(self, n):
        # all-ones coefficients are the constant 1 at any degree, end points included
        alphas = np.linspace(0.0, math.pi, 101)
        values = bernstein_values(np.ones(n + 1), alphas)
        assert np.max(np.abs(values - 1.0)) < 1e-12

    def test_matches_power_basis_at_low_degree(self):
        n = 6
        b = np.array([0.3, 1.0, 2.5, 0.0, 1.2, 0.7, 0.3])
        alphas = np.linspace(0.0, math.pi, 37)
        binomials = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
        expected = (b * binomials) @ power_basis(alphas, n)
        assert np.max(np.abs(bernstein_values(b, alphas) - expected)) < 1e-14

    def test_power_coefficients_convert_row_by_row(self):
        rows = np.array([[1.0, 4.0, 6.0, 4.0, 1.0], [0.0, 2.0, 0.0, 3.0, 5.0]])
        converted = bernstein_from_power(rows)
        assert np.array_equal(converted[0], np.ones(5))  # (s + 1 - s)^4 = 1
        alphas = np.linspace(0.0, math.pi, 19)
        expected = rows[1] @ power_basis(alphas, 4)
        assert np.max(np.abs(bernstein_values(converted[1], alphas) - expected)) < 1e-14

    def test_keeps_the_input_shape_across_blocks(self):
        b = np.linspace(0.5, 1.5, 2001)
        alphas = np.linspace(0.0, math.pi, 1200).reshape(40, 30)  # several basis blocks
        values = bernstein_values(b, alphas)
        assert values.shape == (40, 30)
        single = [bernstein_values(b, np.array([a]))[0] for a in alphas.ravel()[::97]]
        assert np.max(np.abs(values.ravel()[::97] - single)) < 1e-14

    @pytest.mark.parametrize("n, points", [(10, 128), (2000, 400)])  # one block, several
    def test_stacked_rows_equal_one_row_each_bit_for_bit(self, n, points):
        rows = np.random.default_rng(5).random((3, 2, n + 1))
        alphas = np.linspace(0.0, math.pi, points)
        values = bernstein_values(rows, alphas)
        assert values.shape == (3, 2, points)
        for row, row_values in zip(rows.reshape(-1, n + 1), values.reshape(-1, points)):
            assert np.array_equal(row_values, bernstein_values(row, alphas))


class TestBernsteinProduct:
    def test_matches_exact_rationals(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(301), rng.random(41)
        product = bernstein_product(a, b)
        assert product.shape == (341,)
        for k in (0, 1, 40, 170, 300, 339, 340):
            assert abs(product[k] / float(exact_product_entry(a, b, k)) - 1.0) < 1e-13

    def test_is_symmetric_and_scales_by_constants(self):
        a, b = np.array([1.0, 2.0, 0.5]), np.array([0.25, 3.0])
        assert np.allclose(bernstein_product(a, b), bernstein_product(b, a), rtol=1e-15, atol=0.0)
        assert np.array_equal(bernstein_product(np.array([2.0]), a), 2.0 * a)
        # a stacked operand keeps its leading axes, in either argument order
        stacked, c = np.random.default_rng(8).random((2, 3, 5)), np.array([0.37])
        for product in (bernstein_product(stacked, c), bernstein_product(c, stacked)):
            assert product.shape == (2, 3, 5)
            assert np.array_equal(product, c * stacked)

    def test_high_degree_stays_finite_and_keeps_the_integral(self):
        # the integral over s of a product of two all-ones polynomials is 1
        product = bernstein_product(np.ones(3001), np.ones(201))
        assert product.shape == (3201,)
        assert np.max(np.abs(product - 1.0)) < 1e-11
