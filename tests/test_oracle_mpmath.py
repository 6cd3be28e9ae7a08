"""The weight polynomial evaluated in 40-digit arithmetic.

Each weight is w(x_i) = 2/P + sum_{m>=1} mu_m G_m(x_i). This oracle runs the
Gram recurrence in ``mpmath`` with the coefficients recomputed from their
closed form, so it shares no rounding with the float64 assembly, and
checks ``compute_rule`` at nodes where interpolation errors would show: both
ends, the centre, the nodes on either side of panel edges, and a few
seeded nodes. The moments mu_m are taken from ``compute_moments``; the
exact oracle and acceptance criterion 10 check them.
"""
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from gramquad.gauss_legendre import gauss_legendre_rule
from gramquad.gram_basis import build_recurrence
from gramquad.moments import compute_moments, minimum_gauss_order
from gramquad.weights import DEGREES_PER_PANEL, compute_rule


def sample_indices(p_points: int, degree: int, count: int = 64) -> list[int]:
    """Node indices: both ends, the centre, neighbours of seeded panel edges."""
    rng = np.random.default_rng(p_points)
    n_panels = math.ceil(degree / DEGREES_PER_PANEL)
    chosen = {0, 1, p_points // 2, p_points - 2, p_points - 1}
    edges = rng.permutation(np.arange(1, n_panels))
    for k in edges:
        if len(chosen) >= count - 8:
            break
        position = (1.0 - math.cos(math.pi * k / (2 * n_panels))) * (p_points - 1) / 2
        below = math.floor(position)
        chosen.update((below, below + 1))
    chosen.update(rng.integers(0, p_points, count - len(chosen)).tolist())
    return sorted(chosen)


def oracle_weights(p_points: int, nodes: list[float], moments: np.ndarray) -> list:
    n = p_points - 1
    degree = moments.size - 1
    alpha = [mpf(1)] + [
        mpf(n) / m * mp.sqrt(mpf(4 * m * m - 1) / ((n + 1) ** 2 - m * m))
        for m in range(1, degree + 1)
    ]
    mu = [mpf(float(value)) for value in moments]
    result = []
    for x in nodes:
        x = mpf(x)
        prev, cur = mpf(0), 1 / mp.sqrt(n + 1)
        total = mpf(2) / p_points
        for m in range(1, degree + 1):
            prev, cur = cur, alpha[m] * x * cur - alpha[m] / alpha[m - 1] * prev
            total += mu[m] * cur
        result.append(total)
    return result


@pytest.mark.parametrize("p_points", [10_001, 100_001, 1_000_001])
def test_weights_match_high_precision_series(p_points):
    rule = compute_rule(p_points)
    rec = build_recurrence(p_points)
    moments = compute_moments(rec, gauss_legendre_rule(minimum_gauss_order(rec.max_degree)))
    indices = sample_indices(p_points, rec.max_degree)
    nodes = [-1.0 + 2.0 * i / (p_points - 1) for i in indices]
    assert nodes == rule.nodes[indices].tolist()
    with mp.workdps(40):
        exact = oracle_weights(p_points, nodes, moments)
        worst = max(abs(float(mpf(float(w)) - e)) for w, e in zip(rule.weights[indices], exact))
    max_w = float(rule.weights.max())
    bound = 1e-14 * rec.max_degree * max_w
    assert worst <= bound, f"P = {p_points}: error {worst / max_w:.2e} * max w"
