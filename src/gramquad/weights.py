"""Stable quadrature rules on equidistant points.

The weights solve the least-squares normal equations for the orthonormal
Gram basis, which collapses to contracting the basis rows with the moment
vector. The basis is evaluated one block of nodes at a time over the left
half of the rule and mirrored, so a rule over a million points holds two
point-length vectors and one 16 MiB block.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauss_legendre import gauss_legendre_rule
from .gram_basis import basis_rows, block_slices, build_recurrence, equidistant_nodes
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
    Each weight is ``moments @ basis_rows(rec, [x_i])``. The first
    ceil(P/2) weights are computed in ``block_slices`` blocks, each block
    dropped before the next is built, and mirrored onto the right half, so
    the weights are symmetric bit for bit and peak auxiliary storage is
    one block of ``BLOCK_DOUBLES`` values whatever the degree cap.
    """
    rec = build_recurrence(p_points, degree)
    gauss = gauss_legendre_rule(minimum_gauss_order(rec.max_degree))
    moments = compute_moments(rec, gauss)
    nodes = equidistant_nodes(p_points)
    weights = np.empty(p_points)
    half = (p_points + 1) // 2
    for block in block_slices(rec, half):
        weights[block] = moments @ basis_rows(rec, nodes[block])
    weights[p_points - half :] = weights[half - 1 :: -1]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(
        p_points=p_points, degree=rec.max_degree, nodes=nodes, weights=weights
    )


def integrate(rule: QuadratureRule, samples) -> float:
    """Weighted sum of function samples taken at ``rule.nodes``.

    Raises ``ValueError`` unless there is one finite sample per node and
    the weighted sum is finite too.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (rule.p_points,):
        raise ValueError(f"expected {rule.p_points} samples, got {samples.shape}")
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise ValueError(f"samples must be finite; sample {bad[0]} is {samples[bad[0]]}")
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.dot(rule.weights, samples))
    if not math.isfinite(value):
        raise ValueError(f"the weighted sum of the samples overflows to {value}")
    return value


def check_interval(a: float, b: float) -> None:
    """Raise ``ValueError`` unless ``a < b`` and the length ``b - a`` is finite."""
    if not (a < b and math.isfinite(b - a)):
        raise ValueError(f"interval must have finite bounds with a < b, got [{a}, {b}]")


def integrate_on_interval(rule: QuadratureRule, a: float, b: float, samples) -> float:
    """Integral estimate over [a, b] from samples at the affinely mapped nodes.

    The caller supplies ``samples[i] = f((a + b) / 2 + nodes[i] * (b - a) / 2)``;
    the estimate is the weighted sum scaled by the interval half-length.
    Raises ``ValueError`` if that product overflows.
    """
    check_interval(a, b)
    value = 0.5 * (b - a) * integrate(rule, samples)
    if not math.isfinite(value):
        raise ValueError(f"the integral over [{a}, {b}] overflows to {value}")
    return value
