"""Exact least-squares weights in rational arithmetic.

The oracle shares nothing with the library: no Gram recurrence, no alpha
table and no Gauss rule. It forms the monomial Vandermonde matrix V on the
rational nodes -1 + 2i/(P-1) up to degree isqrt(P-1), solves the normal
equations (V^T V) c = b for the exact monomial integrals b_k = 2/(k+1)
(0 for odd k) with ``fractions.Fraction``, and returns w = V c, the
minimum-norm weights that integrate every monomial up to the degree cap.
"""
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from gramquad.reference import dense_weights
from gramquad.weights import compute_rule

EPS = sys.float_info.epsilon


def exact_weights(p_points: int) -> list[Fraction]:
    size = math.isqrt(p_points - 1) + 1
    nodes = [Fraction(2 * i, p_points - 1) - 1 for i in range(p_points)]
    vandermonde = [[x**k for k in range(size)] for x in nodes]
    moments = [Fraction(2, k + 1) if k % 2 == 0 else Fraction(0) for k in range(size)]
    # Augmented normal equations, reduced by Gauss-Jordan elimination. V has
    # full column rank, so V^T V is positive definite and no pivot is zero.
    system = [
        [sum(row[j] * row[k] for row in vandermonde) for k in range(size)] + [moments[j]]
        for j in range(size)
    ]
    for col in range(size):
        pivot_row = system[col]
        for r in range(size):
            if r != col and system[r][col]:
                factor = system[r][col] / pivot_row[col]
                system[r] = [a - factor * b for a, b in zip(system[r], pivot_row)]
    coefficients = [system[j][size] / system[j][j] for j in range(size)]
    return [sum(c * v for c, v in zip(coefficients, row)) for row in vandermonde]


def test_oracle_small_cases():
    assert exact_weights(2) == [1, 1]
    assert exact_weights(3) == [Fraction(2, 3)] * 3
    for p in (5, 17, 50):
        weights = exact_weights(p)
        assert sum(weights) == 2
        assert weights == weights[::-1]


@pytest.mark.parametrize("p", range(2, 51))
def test_weights_match_exact_oracle(p):
    exact = np.array([float(w) for w in exact_weights(p)])
    bound = 32 * EPS * exact.max()
    for weights in (compute_rule(p).weights, dense_weights(p)):
        gap = float(np.max(np.abs(weights - exact)))
        assert gap <= bound, f"P = {p}: gap {gap / (EPS * exact.max()):.1f} eps * max w"
