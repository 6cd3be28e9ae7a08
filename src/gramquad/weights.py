"""Stable quadrature rules on equidistant points.

The weights solve the least-squares normal equations for the orthonormal
Gram basis, which collapses to accumulating moment-scaled basis rows. Rows
are generated two at a time, so a rule over a million points never holds
more than a few point-length vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauss_legendre import gauss_legendre_rule
from .gram_basis import build_recurrence, equidistant_nodes, gram_rows
from .moments import compute_moments, minimum_gauss_order

__all__ = [
    "QuadratureRule",
    "check_interval",
    "compute_rule",
    "integrate",
    "integrate_on_interval",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Equidistant nodes on [-1, 1] with stable quadrature weights.

    At the default degree cap the weights are strictly positive, symmetric,
    and sum to 2. ``compute_rule`` returns both arrays read-only.
    """

    p_points: int
    degree: int
    nodes: np.ndarray
    weights: np.ndarray


def compute_rule(p_points: int, degree: int | None = None) -> QuadratureRule:
    """Build the quadrature rule for ``p_points`` equidistant points.

    Parameters
    ----------
    p_points : int
        Number of nodes, at least 2.
    degree : int, optional
        Basis degree cap. Defaults to ``isqrt(p_points - 1)``, the largest
        value for which the weights are guaranteed positive; larger values
        are rejected.

    Returns
    -------
    QuadratureRule
        Rule exact for polynomials up to the degree cap.

    Notes
    -----
    The weight vector is accumulated one basis row at a time,
    ``w += moment[m] * row_m``, with only two rows alive, so peak
    auxiliary storage stays at a handful of point-length vectors
    regardless of the degree cap.
    """
    rec = build_recurrence(p_points, degree)
    gauss = gauss_legendre_rule(minimum_gauss_order(rec.max_degree))
    moments = compute_moments(rec, gauss)
    nodes = equidistant_nodes(p_points)
    weights = np.zeros(p_points)
    first_row = np.full(p_points, (rec.n_param + 1) ** -0.5)
    for mu, row in zip(moments, gram_rows(rec, nodes, first_row)):
        weights += mu * row
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(
        p_points=p_points, degree=rec.max_degree, nodes=nodes, weights=weights
    )


def integrate(rule: QuadratureRule, samples) -> float:
    """Weighted sum of function samples taken at ``rule.nodes``.

    Raises ``ValueError`` unless there is one finite sample per node.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (rule.p_points,):
        raise ValueError(f"expected {rule.p_points} samples, got {samples.shape}")
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ValueError(f"samples must be finite; sample {bad[0]} is {samples[bad[0]]}")
    return float(np.dot(rule.weights, samples))


def check_interval(a: float, b: float) -> None:
    """Raise ``ValueError`` unless ``a < b`` and the length ``b - a`` is finite."""
    if not (a < b and math.isfinite(b - a)):
        raise ValueError(f"interval must have finite bounds with a < b, got [{a}, {b}]")


def integrate_on_interval(rule: QuadratureRule, a: float, b: float, samples) -> float:
    """Integral estimate over [a, b] from samples at the affinely mapped nodes.

    The caller supplies ``samples[i] = f((a + b) / 2 + nodes[i] * (b - a) / 2)``;
    the estimate is the weighted sum scaled by the interval half-length.
    """
    check_interval(a, b)
    return 0.5 * (b - a) * integrate(rule, samples)
