"""Exact integrals of the Gram basis over [-1, 1].

Each basis polynomial of degree m <= M is integrated exactly by a
Gauss-Legendre rule with floor(M / 2) + 1 points: the moment vector is the
basis evaluated at the Gauss nodes, contracted with the Gauss weights.
"""
from __future__ import annotations

import numpy as np

from .gauss_legendre import GaussRule
from .gram_basis import GramRecurrence, basis_rows

__all__ = ["minimum_gauss_order", "compute_moments"]


def minimum_gauss_order(max_degree: int) -> int:
    """Smallest Gauss order that integrates every degree <= max_degree exactly."""
    return max_degree // 2 + 1


def compute_moments(rec: GramRecurrence, gauss: GaussRule) -> np.ndarray:
    """Integrate each basis polynomial up to ``rec.max_degree`` over [-1, 1].

    Returns the integrals as an array indexed by degree. Raises
    ``ValueError`` if the Gauss order is too low for the integrals to be
    exact. The degree-0 moment is ``2 * (n_param + 1) ** -0.5``; odd
    degrees integrate to zero by parity, and are returned as exactly 0.0.
    """
    needed = minimum_gauss_order(rec.max_degree)
    if gauss.order < needed:
        raise ValueError(
            f"Gauss order {gauss.order} cannot integrate degree {rec.max_degree} "
            f"exactly; at least {needed} points are required"
        )
    moments = basis_rows(rec, gauss.nodes) @ gauss.weights
    moments[1::2] = 0.0
    return moments
