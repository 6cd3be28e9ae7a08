"""Orthonormal Gram (discrete Legendre) polynomial basis on point sets.

The basis is defined by a three-term recurrence whose coefficients depend
only on the number of sample points, so evaluating all rows up to a degree
cap needs just the coefficient table and the two most recent rows. That
two-row discipline is what the weight-assembly layer relies on to stay at
O(P) memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["GramRecurrence", "build_recurrence", "equidistant_nodes", "gram_rows"]


@dataclass(frozen=True)
class GramRecurrence:
    """Coefficient table driving the Gram-polynomial recurrence.

    Attributes
    ----------
    n_param : int
        Size parameter of the basis, one less than the point count.
    max_degree : int
        Highest basis degree the table supports.
    alpha : ndarray, shape (max_degree + 2,)
        ``alpha[0]`` is the seed coefficient 1; ``alpha[m + 1]`` is the
        leading coefficient for advancing a degree-``m`` row. The trailing
        recurrence coefficient is never stored: it is always the ratio
        ``alpha[m + 1] / alpha[m]``.
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
    alpha = np.empty(max_degree + 2)
    alpha[0] = 1.0
    for m in range(max_degree + 1):
        # The top entry sits at m == n_param only when p_points == 2; its
        # denominator vanishes and the formula limit is +inf. Advances
        # within the degree cap never consume it.
        if m < n_param:
            numerator = 4 * (m + 1) ** 2 - 1
            denominator = (n_param + 1) ** 2 - (m + 1) ** 2
            alpha[m + 1] = n_param / (m + 1) * math.sqrt(numerator / denominator)
        else:
            alpha[m + 1] = math.inf
    return GramRecurrence(n_param=n_param, max_degree=max_degree, alpha=alpha)


def equidistant_nodes(p_points: int) -> np.ndarray:
    """Equidistant nodes ``-1 + 2i/(p_points - 1)``, endpoints exact."""
    if p_points < 2:
        raise ValueError(f"at least 2 points are required, got {p_points}")
    return -1.0 + 2.0 * np.arange(p_points) / (p_points - 1)


def gram_rows(rec: GramRecurrence, points, first_row: np.ndarray):
    """Yield the basis rows of degree 0..``rec.max_degree`` on ``points``.

    Each step is ``alpha_m * x * cur - (alpha_m / alpha_{m-1}) * prev``,
    starting from ``first_row`` at degree 0 over a zero row. The map is
    element-wise and linear in the two rows, so a rescaled ``first_row``
    (for example one with quadrature weights folded in) yields rows
    rescaled the same way; the unscaled degree-0 row is the constant
    ``(rec.n_param + 1) ** -0.5``.

    Only two rows are alive at a time, and their buffers are reused:
    ``first_row`` is overwritten, and each yielded array is overwritten
    once the generator advances past the next row. A caller who keeps a
    row must copy it.
    """
    points = np.asarray(points, dtype=float)
    cur = np.asarray(first_row, dtype=float)
    if cur.shape != points.shape:
        raise ValueError(f"first row shape {cur.shape} does not match points {points.shape}")
    alpha = rec.alpha
    prev = np.zeros_like(cur)
    yield cur
    for m in range(1, rec.max_degree + 1):
        nxt = points * cur
        nxt *= alpha[m]
        prev *= -(alpha[m] / alpha[m - 1])
        prev += nxt
        del nxt
        prev, cur = cur, prev
        yield cur
