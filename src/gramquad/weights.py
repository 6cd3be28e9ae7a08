"""Stable quadrature rules on equidistant points.

The weights solve the least-squares normal equations for the orthonormal
Gram basis, which collapses to sampling one polynomial of degree M, the
moment vector contracted with the basis. That polynomial is evaluated on
the left half of the rule and mirrored. Small rules evaluate it at every
node, one block of nodes at a time; large rules evaluate it at a few
Chebyshev points per panel and interpolate the nodes from those, so a
rule over a million points costs O(P) work and holds one 16 MiB block,
then two point-length vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gauss_legendre import gauss_legendre_rule
from .gram_basis import (
    GramRecurrence, basis_rows, block_slices, build_recurrence, equidistant_nodes,
)
from .moments import compute_moments, minimum_gauss_order

__all__ = [
    "QuadratureRule",
    "check_interval",
    "compute_rule",
    "integrate",
    "integrate_on_interval",
]

# Chebyshev points per panel. Measured as max |interpolated - direct| /
# max w at P = 4099, 10^4, 10^5 and 10^6: 16 points leave 7e-8, 20 points
# 1e-11, 24 and 32 points at most 4e-13, below the 6e-12 by which the
# direct recurrence itself misses a 40-digit reference at 10^6. 32 keeps
# a margin; 8 points miss by 1e-3 and fail tests/test_oracle_mpmath.py.
PANEL_POINTS = 32
# Polynomial degrees per panel: K = ceil(M / 8) panels over [-1, 0]. With
# 16 degrees per panel the error above grows to 2.2e-13 at P = 4099 and
# P = 10^6 gets 4% faster; with 4 or 8 it is at most 4e-13.
DEGREES_PER_PANEL = 8
# Interpolate only when the left half holds more than this many nodes per
# Chebyshev point. Timed on a 2-core host (medians of alternated calls),
# direct evaluation is 9-14% faster at 4-7 nodes per point (P = 1025 to
# 3601), the two tie near 9.4 (P = 6001), and interpolation wins above:
# 1.6x at P = 2 * 10^4, 4x at 10^5, 20x at 10^6. Between 8 and 9.4 they
# are within 7% of each other.
NODES_PER_POINT = 8

_ANGLES = (2 * np.arange(PANEL_POINTS) + 1) * np.pi / (2 * PANEL_POINTS)
_CHEBYSHEV = np.cos(_ANGLES)
_BARYCENTRIC_WEIGHTS = (-1.0) ** np.arange(PANEL_POINTS) * np.sin(_ANGLES)
_ONES = np.ones(PANEL_POINTS)


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
    The weights sample the polynomial ``w(x) = 2/P + sum_{m>=1} mu_m G_m(x)``
    of degree M; its degree-0 term is exactly ``mu_0 G_0 = 2/P``, and its
    odd moments are exactly zero. ``w`` is evaluated on the left half
    [-1, 0] and mirrored onto the right half, so the weights are symmetric
    bit for bit. Evaluation contracts ``basis_rows`` in ``block_slices``
    blocks, at most ``BLOCK_DOUBLES`` basis values at a time.

    While the left half holds at most ``NODES_PER_POINT`` nodes per
    Chebyshev point (every P <= 4096 at the default cap), ``w`` is
    evaluated at the nodes themselves. Above that, it is evaluated at
    ``PANEL_POINTS`` first-kind Chebyshev points in each of K = ceil(M /
    ``DEGREES_PER_PANEL``) panels with edges ``-cos(pi k / 2K)``, which
    are narrower near -1, where the basis oscillates faster. Each panel's
    nodes are then interpolated with the second barycentric formula
    (Berrut & Trefethen 2004). That costs O(K Q M + P Q) = O(P) instead
    of O(P M): at P = 10^6, 0.08 s instead of 1.6 s on a 2-core host.
    The Chebyshev values are computed before the node and weight vectors
    exist, so the peak holds those two vectors or one block (20 MB
    traced at 10^6).
    """
    rec = build_recurrence(p_points, degree)
    gauss = gauss_legendre_rule(minimum_gauss_order(rec.max_degree))
    moments = compute_moments(rec, gauss)
    half = (p_points + 1) // 2
    n_panels = max(1, math.ceil(rec.max_degree / DEGREES_PER_PANEL))
    interpolating = half > NODES_PER_POINT * n_panels * PANEL_POINTS
    if interpolating:
        edges = -np.cos(np.pi / 2 * np.arange(n_panels + 1) / n_panels)
        centres = 0.5 * (edges[1:] + edges[:-1])
        radii = 0.5 * (edges[1:] - edges[:-1])
        points = centres[:, None] + radii[:, None] * _CHEBYSHEV
        values = _weight_polynomial(rec, moments, points.ravel()).reshape(points.shape)
    nodes = equidistant_nodes(p_points)
    weights = np.empty(p_points)
    left = nodes[:half]
    if interpolating:
        bounds = [0, *np.searchsorted(left, edges[1:-1]).tolist(), half]
        for lo, hi, panel, panel_values in zip(bounds, bounds[1:], points, values):
            weights[lo:hi] = barycentric(left[lo:hi], panel, panel_values)
    else:
        weights[:half] = _weight_polynomial(rec, moments, left)
    weights[p_points - half :] = weights[half - 1 :: -1]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return QuadratureRule(
        p_points=p_points, degree=rec.max_degree, nodes=nodes, weights=weights
    )


def _weight_polynomial(
    rec: GramRecurrence, moments: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """``2/P + moments[1:] @ basis_rows(rec, points)[1:]``, one block at a time."""
    values = np.empty(points.size)
    for block in block_slices(rec, points.size):
        values[block] = moments[1:] @ basis_rows(rec, points[block])[1:]
    values += 2.0 / (rec.n_param + 1)
    return values


def barycentric(x: np.ndarray, points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Interpolate ``values`` given at ``points`` onto ``x``.

    ``points`` are the ``PANEL_POINTS`` first-kind Chebyshev points of one
    panel, in the order of ``_CHEBYSHEV``, and ``x`` lies in that panel.
    This is the second ("true") barycentric formula, whose weights
    ``(-1)^j sin((2j + 1) pi / 2Q)`` do not depend on the panel. Where
    ``x`` equals a Chebyshev point exactly, the formula gives 0/0 and the
    value at that point is taken instead.
    """
    scaled = np.subtract.outer(x, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(_BARYCENTRIC_WEIGHTS, scaled, out=scaled)
        result = scaled @ values
        result /= scaled @ _ONES
    for i in np.flatnonzero(np.isnan(result)):
        result[i] = values[points == x[i]][0]
    return result


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
