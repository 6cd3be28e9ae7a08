"""Output checks that share no code with the library under test.

Nodes come from ``numpy.linspace``, the degree cap from ``math.isqrt`` and
sums from ``math.fsum``; the exact integrals are written out by hand. Each
function returns a list of error messages, empty when the output is right.
"""
from __future__ import annotations

import json
import math

import numpy as np

WEIGHT_SUM_TOLERANCE = 1e-12
# Acceptance criterion 6 holds monomial residuals to this absolute bound.
MONOMIAL_TOLERANCE = 1e-10
# The linspace and library node formulas may differ in the last bit or two.
NODE_TOLERANCE = 1e-15
# Measured asymmetry is at most 7e-12 of the largest weight at P = 10^6.
SYMMETRY_TOLERANCE = 1e-9
MAX_CHECKED_DEGREE = 4


def reference_nodes(p_points):
    return np.linspace(-1.0, 1.0, p_points)


def degree_cap(p_points):
    return math.isqrt(p_points - 1)


def polynomial_samples(p_points, coefficients):
    """Samples of ``sum(c_k x^k)`` at the reference nodes, plus the exact integral."""
    x = reference_nodes(p_points)
    samples = np.zeros(p_points)
    for c in reversed(coefficients):
        samples = samples * x + c
    exact = math.fsum(2.0 * c / (k + 1) for k, c in enumerate(coefficients) if k % 2 == 0)
    return samples, exact


def rule_errors(p_points, degree, nodes, weights):
    """Positivity, symmetry, weight sum and monomial exactness of one rule."""
    nodes = np.asarray(nodes, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if nodes.shape != (p_points,) or weights.shape != (p_points,):
        return [f"P={p_points}: shapes {nodes.shape} and {weights.shape}"]
    errors = []
    cap = degree_cap(p_points)
    if degree != cap:
        errors.append(f"P={p_points}: degree {degree}, expected {cap}")
    x = reference_nodes(p_points)
    node_gap = float(np.max(np.abs(nodes - x)))
    if not node_gap <= NODE_TOLERANCE:
        errors.append(f"P={p_points}: nodes differ from linspace by {node_gap:.3e}")
    total = math.fsum(weights)
    if not abs(total - 2.0) <= WEIGHT_SUM_TOLERANCE:
        errors.append(f"P={p_points}: weight sum {total!r}")
    if not weights.min() > 0.0:
        errors.append(f"P={p_points}: min weight {weights.min()!r}")
    asymmetry = float(np.max(np.abs(weights - weights[::-1])))
    if not asymmetry <= SYMMETRY_TOLERANCE * weights.max():
        errors.append(f"P={p_points}: asymmetry {asymmetry:.3e}")
    power = np.ones(p_points)
    for d in range(min(cap, MAX_CHECKED_DEGREE) + 1):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        residual = abs(math.fsum(weights * power) - exact)
        if not residual <= MONOMIAL_TOLERANCE:
            errors.append(f"P={p_points}: monomial d={d} residual {residual:.3e}")
        power = power * x
    return errors


def integral_errors(p_points, value, exact, coefficients):
    scale = max(1.0, math.fsum(abs(c) for c in coefficients))
    if not abs(value - exact) <= MONOMIAL_TOLERANCE * scale:
        return [f"P={p_points}: integral {value!r}, exact {exact!r}"]
    return []


def parse_csv_table(text):
    """Nodes and weights of an ``x,w`` table, or ValueError."""
    lines = text.split("\n")
    if lines[0] != "x,w" or lines[-1] != "":
        raise ValueError("CSV table lacks its header or final newline")
    pairs = [line.split(",") for line in lines[1:-1]]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("CSV row without exactly two fields")
    return (
        np.array([float(x) for x, _ in pairs]),
        np.array([float(w) for _, w in pairs]),
    )


def parse_json_table(text):
    """Point count, degree, nodes and weights of a JSON table."""
    document = json.loads(text)
    if set(document) != {"points", "degree", "nodes", "weights"}:
        raise ValueError(f"JSON table has keys {sorted(document)}")
    return (
        document["points"],
        document["degree"],
        np.array(document["nodes"], dtype=float),
        np.array(document["weights"], dtype=float),
    )


def same_bits(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()
