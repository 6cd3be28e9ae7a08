"""Brute-force baselines for the blocked weight assembly.

Nothing here is meant to be efficient: the dense path evaluates the whole
basis matrix on purpose, and the Newton-Cotes weights exist to demonstrate
the sign instability that the Gram-basis weights avoid.
"""
from __future__ import annotations

import math

import numpy as np

from .gauss_legendre import gauss_legendre_rule
from .gram_basis import basis_rows, build_recurrence, equidistant_nodes
from .moments import compute_moments, minimum_gauss_order

__all__ = ["dense_weights", "newton_cotes_weights"]

MAX_NEWTON_COTES_POINTS = 30


def dense_weights(p_points: int, degree: int | None = None) -> np.ndarray:
    """Quadrature weights from the full (M+1) x P basis matrix in one product.

    Same contract as ``weights.compute_rule``, assembled the plain way:
    one ``basis_rows`` call over every node, no blocks and no mirroring.
    O(P * M) storage by design.
    """
    rec = build_recurrence(p_points, degree)
    moments = compute_moments(rec, gauss_legendre_rule(minimum_gauss_order(rec.max_degree)))
    return moments @ basis_rows(rec, equidistant_nodes(p_points))


def newton_cotes_weights(p_points: int) -> np.ndarray:
    """Interpolatory (Newton-Cotes) weights on equidistant points in [-1, 1].

    Weight i is the integral of the i-th Lagrange basis polynomial,
    evaluated in product form and integrated exactly by a Gauss rule two
    orders above the exactness minimum. Capped at 30 points: beyond that
    the construction is too ill-conditioned to demonstrate anything.
    """
    if not 2 <= p_points <= MAX_NEWTON_COTES_POINTS:
        raise ValueError(
            f"point count must be in 2..{MAX_NEWTON_COTES_POINTS}, got {p_points}"
        )
    nodes = equidistant_nodes(p_points)
    gauss = gauss_legendre_rule(math.ceil(p_points / 2) + 2)
    weights = np.empty(p_points)
    for i in range(p_points):
        basis = np.ones_like(gauss.nodes)
        for j in range(p_points):
            if j != i:
                basis *= (gauss.nodes - nodes[j]) / (nodes[i] - nodes[j])
        weights[i] = np.dot(gauss.weights, basis)
    return weights
