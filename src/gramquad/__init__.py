"""Stable quadrature weights for equidistant points on [-1, 1].

Weights come from a least-squares fit in an orthonormal discrete-Legendre
(Gram) polynomial basis, assembled by a streaming two-row recurrence so
that memory stays linear in the point count. Unlike Newton-Cotes weights,
they remain strictly positive at any point count when the basis degree is
capped at the square root of the point count.
"""
from .gauss_legendre import gauss_legendre_rule
from .gram_basis import build_recurrence, gram_rows
from .moments import compute_moments
from .reference import dense_weights, newton_cotes_weights
from .weights import QuadratureRule, compute_rule, integrate, integrate_on_interval

__version__ = "0.1.0"

__all__ = [
    "QuadratureRule",
    "build_recurrence",
    "compute_moments",
    "compute_rule",
    "dense_weights",
    "gauss_legendre_rule",
    "gram_rows",
    "integrate",
    "integrate_on_interval",
    "newton_cotes_weights",
]
