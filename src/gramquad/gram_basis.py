"""Orthonormal Gram (discrete Legendre) polynomial basis on point sets.

The basis is defined by a three-term recurrence whose coefficients depend
only on the number of sample points. ``basis_rows`` is the one evaluator
of that recurrence; callers that cover many points walk them in blocks of
at most ``BLOCK_DOUBLES`` basis values, which keeps the weight assembly
and the ``check`` diagnostics at O(P) memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BLOCK_DOUBLES", "GramRecurrence", "basis_rows", "block_slices", "build_recurrence",
    "equidistant_nodes",
]

# Basis values per block (16 MiB). Blocked passes hold one block at a time,
# so their memory stays bounded whatever P and the degree cap are.
BLOCK_DOUBLES = 2**21


@dataclass(frozen=True)
class GramRecurrence:
    """Coefficient table driving the Gram-polynomial recurrence.

    Attributes
    ----------
    n_param : int
        Size parameter of the basis, one less than the point count.
    max_degree : int
        Highest basis degree the table supports.
    alpha : ndarray, shape (max_degree + 1,)
        ``alpha[0]`` is the seed coefficient 1; ``alpha[m]`` is the
        leading coefficient for the degree-``m`` row. The trailing
        recurrence coefficient is never stored: it is always the ratio
        ``alpha[m] / alpha[m - 1]``.
    """

    n_param: int
    max_degree: int
    alpha: np.ndarray


def build_recurrence(p_points: int, max_degree: int | None = None) -> GramRecurrence:
    """Build the coefficient table for a basis on ``p_points`` points.

    The default degree cap is ``isqrt(p_points - 1)``, the largest degree
    for which the assembled quadrature weights stay strictly positive.
    An explicit ``max_degree`` above that cap is rejected.
    """
    if p_points < 2:
        raise ValueError(f"at least 2 points are required, got {p_points}")
    n_param = p_points - 1
    cap = math.isqrt(n_param)
    if max_degree is None:
        max_degree = cap
    elif not 0 <= max_degree <= cap:
        raise ValueError(
            f"max_degree {max_degree} is outside 0..{cap}, the stability cap "
            f"for {p_points} points"
        )
    alpha = np.empty(max_degree + 1)
    alpha[0] = 1.0
    for m in range(1, max_degree + 1):
        numerator = 4 * m**2 - 1
        denominator = (n_param + 1) ** 2 - m**2
        alpha[m] = n_param / m * math.sqrt(numerator / denominator)
    return GramRecurrence(n_param=n_param, max_degree=max_degree, alpha=alpha)


def equidistant_nodes(p_points: int) -> np.ndarray:
    """Equidistant nodes ``-1 + 2i/(p_points - 1)``, endpoints exact."""
    if p_points < 2:
        raise ValueError(f"at least 2 points are required, got {p_points}")
    return -1.0 + 2.0 * np.arange(p_points) / (p_points - 1)


def block_slices(rec: GramRecurrence, n_points: int):
    """Slices that cover ``range(n_points)`` in blocks of nodes small enough
    that ``basis_rows`` on one block holds at most ``BLOCK_DOUBLES`` values."""
    step = BLOCK_DOUBLES // (rec.max_degree + 1)
    return (slice(start, start + step) for start in range(0, n_points, step))


def basis_rows(rec: GramRecurrence, points) -> np.ndarray:
    """All basis rows at once: entry [m, i] is the degree-m value at points[i].

    Row m is ``alpha[m] * x * row[m-1] - (alpha[m] / alpha[m-1]) * row[m-2]``,
    starting from the constant row ``(rec.n_param + 1) ** -0.5`` over a
    zero row. The result takes ``(rec.max_degree + 1) * len(points)``
    doubles, so callers that cover many points walk them in
    ``block_slices``. On the equidistant point set the recurrence was
    built for, the rows are orthonormal.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1:
        raise ValueError(f"points must be one-dimensional, got shape {points.shape}")
    rows = np.empty((rec.max_degree + 1, points.size))
    rows[0] = (rec.n_param + 1) ** -0.5
    scratch = np.empty_like(points)
    prev, cur = np.zeros_like(points), rows[0]
    alpha = rec.alpha.tolist()
    for a_prev, a_m, row in zip(alpha, alpha[1:], rows[1:]):
        np.multiply(points, cur, out=row)
        row *= a_m
        np.multiply(prev, a_m / a_prev, out=scratch)
        row -= scratch
        prev, cur = cur, row
    return rows
