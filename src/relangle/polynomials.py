"""Polynomials in s = sin^2(alpha / 2) on [0, 1], as functions of the angle alpha.

Two bases of degree n are used.  The likelihood kernel sums its exact table
against the power basis s^k (1 - s)^(n - k).  Densities are held by their
Bernstein coefficients b_k on the basis C(n, k) s^k (1 - s)^(n - k): these
stay of the order of the polynomial's values at any degree, where
coefficients on the power basis grow like C(n, k) and overflow a float past
degree about 1000.  Each Bernstein basis polynomial integrates to 1 / (n + 1)
over s, so a polynomial's integral is the mean of its coefficients.
"""

import math
import sys
from functools import lru_cache

import numpy as np

__all__ = [
    "power_basis",
    "bernstein_from_power",
    "bernstein_values",
    "bernstein_product",
    "log_binomials",
]

# Largest number of entries of one block of Bernstein basis values (2 MB);
# longer angle arrays are evaluated block by block.
BASIS_BLOCK_ENTRIES = 1 << 18

_TINY = sys.float_info.min  # the smallest normal float


def power_basis(alphas: np.ndarray, n: int) -> np.ndarray:
    """s^k (1 - s)^(n - k), k = 0 .. n (rows), at each angle (columns); 1 - s is
    taken as cos^2(alpha/2), which keeps small values relatively accurate."""
    half = 0.5 * alphas
    k = np.arange(n + 1.0)[:, None]
    return (np.sin(half) ** 2) ** k * (np.cos(half) ** 2) ** (n - k)


def bernstein_from_power(coefficients: np.ndarray) -> np.ndarray:
    """Bernstein coefficients c_k / C(n, k) of polynomials given by their
    coefficients c_k on the power basis (the last axis runs over k).  The
    binomials are exact floats, so n is at most 1029."""
    return coefficients / _binomials(coefficients.shape[-1] - 1)


@lru_cache(maxsize=16)
def _binomials(n: int) -> np.ndarray:
    binomials = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    binomials.setflags(write=False)
    return binomials


@lru_cache(maxsize=16)
def log_binomials(n: int) -> np.ndarray:
    """ln C(n, k) for k = 0 .. n, each from the exact integer, so any n works."""
    logs, binomial = np.empty(n + 1), 1
    for k in range(n + 1):
        logs[k] = math.log(binomial)
        binomial = binomial * (n - k) // (k + 1)
    logs.setflags(write=False)
    return logs


def _bernstein_basis(alphas: np.ndarray, n: int) -> np.ndarray:
    """C(n, k) s^k (1 - s)^(n - k), k = 0 .. n (rows), at each angle (columns).

    Summed in logarithms, so that at high degree neither the binomial
    overflows nor the powers underflow first.  s and 1 - s are floored at
    the smallest normal float, which keeps their logarithms finite: at s = 0
    the k = 0 term is exactly one (k = n at s = 1) and the others vanish.
    """
    half = 0.5 * alphas
    log_s = np.log(np.maximum(np.sin(half) ** 2, _TINY))
    log_c = np.log(np.maximum(np.cos(half) ** 2, _TINY))
    k = np.arange(n + 1.0)[:, None]
    return np.exp(log_binomials(n)[:, None] + k * log_s + (n - k) * log_c)


def bernstein_values(coefficients: np.ndarray, alphas) -> np.ndarray:
    """The polynomials with the given Bernstein coefficients (the last axis runs
    over k) at each angle, in the shape coefficients.shape[:-1] + alphas.shape.

    The basis is evaluated once for all polynomials, block by block, so memory
    for it stays within one block at any degree.  Each polynomial is its own
    vector-matrix product: its values are bit for bit those it has alone, where
    a matrix product over all of them may sum in another order.
    """
    alphas = np.asarray(alphas, dtype=float)
    rows = coefficients.reshape(-1, coefficients.shape[-1])
    n = rows.shape[1] - 1
    block = max(1, BASIS_BLOCK_ENTRIES // (n + 1))
    flat, values = alphas.ravel(), np.empty((rows.shape[0], alphas.size))
    for start in range(0, flat.size, block):
        basis = _bernstein_basis(flat[start:start + block], n)
        for row, row_values in zip(rows, values):
            row_values[start:start + block] = row @ basis
    return values.reshape(coefficients.shape[:-1] + alphas.shape)


def bernstein_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bernstein coefficients of the product of two polynomials, from theirs
    (the last axis runs over the coefficients; leading axes broadcast).

    Entry i + j collects a_i b_j C(m, i) C(d, j) / C(m + d, i + j) for degrees
    m and d; each weight is at most one and comes from log-binomials, so no
    degree overflows a float.  A degree-0 factor just scales the other: its one
    weight is exp(0) = 1.
    """
    if a.shape[-1] < b.shape[-1]:
        a, b = b, a
    m, d = a.shape[-1] - 1, b.shape[-1] - 1
    log_a, log_b, log_ab = log_binomials(m), log_binomials(d), log_binomials(m + d)
    product = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]) + (m + d + 1,))
    for j in range(d + 1):
        product[..., j:j + m + 1] += b[..., j:j + 1] * a * np.exp(log_a + log_b[j] - log_ab[j:j + m + 1])
    return product
