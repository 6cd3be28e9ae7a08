"""Acceptance suite: one test per shipping criterion, each printing a
single pass/fail line (run with ``pytest -s`` to see them on success).
"""
import time
import tracemalloc

import numpy as np
from scipy.integrate import simpson

from gramquad.gauss_legendre import gauss_legendre_rule
from gramquad.gram_basis import basis_rows, build_recurrence, equidistant_nodes
from gramquad.moments import compute_moments, minimum_gauss_order
from gramquad.reference import dense_weights, newton_cotes_weights
from gramquad.weights import compute_rule, integrate

POINT_SWEEP = (2, 3, 11, 101, 1001, 10001)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_weight_sum_exactness():
    start = time.perf_counter()
    worst = max(abs(compute_rule(p).weights.sum() - 2.0) for p in POINT_SWEEP)
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 weight-sum exactness",
        worst < 1e-12,
        f"max |sum - 2| = {worst:.3e} over P in {POINT_SWEEP} ({elapsed:.2f} s)",
    )


def test_criterion_02_weight_positivity():
    smallest = min(compute_rule(p).weights.min() for p in POINT_SWEEP)
    report(
        "criterion 2 weight positivity",
        smallest > 0.0,
        f"min weight across sweep = {smallest:.3e}",
    )


def test_criterion_03_quartic_integration():
    rule = compute_rule(101)
    samples = 9 * rule.nodes**2 + 585 * rule.nodes**3 + 16 * rule.nodes**4
    error = abs(integrate(rule, samples) - 12.4)
    report(
        "criterion 3 quartic test integral",
        error < 1e-10,
        f"|estimate - 12.4| = {error:.3e} at P = 101",
    )


def test_criterion_04_discrete_orthonormality():
    worst = 0.0
    for p in (11, 101, 401):
        rec = build_recurrence(p)
        rows = basis_rows(rec, equidistant_nodes(p))
        residual = np.max(np.abs(rows @ rows.T - np.eye(rec.max_degree + 1)))
        worst = max(worst, float(residual))
    report(
        "criterion 4 discrete orthonormality",
        worst < 1e-10,
        f"max |G_k.G_l - delta| = {worst:.3e} over P in (11, 101, 401)",
    )


def test_criterion_05_streaming_vs_dense():
    worst = 0.0
    for p in (5, 51, 401):
        gap = np.max(np.abs(compute_rule(p).weights - dense_weights(p)))
        worst = max(worst, float(gap))
    report(
        "criterion 5 streaming vs dense oracle",
        worst < 1e-13,
        f"max entrywise gap = {worst:.3e} over P in (5, 51, 401)",
    )


def test_criterion_06_monomial_exactness():
    rule = compute_rule(101)
    worst = 0.0
    for d in range(rule.degree + 1):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        worst = max(worst, abs(float(np.dot(rule.weights, rule.nodes**d)) - exact))
    report(
        "criterion 6 monomial exactness",
        worst < 1e-10,
        f"max residual = {worst:.3e} for d <= {rule.degree} at P = 101",
    )


def test_criterion_07_streaming_memory_at_scale():
    # A dense design matrix at this size would be (1000 + 1) x 1,000,001
    # doubles, about 8 GB; the streaming path must stay within a handful of
    # point-length vectors (8 MB each), far under the 200 MB ceiling.
    p_points = 1_000_001
    budget = 200 * 1024 * 1024
    tracemalloc.start()
    start = time.perf_counter()
    try:
        rule = compute_rule(p_points)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ok = (
        peak < budget
        and elapsed < 60.0
        and rule.degree == 1000
        and abs(rule.weights.sum() - 2.0) < 1e-12
    )
    report(
        "criterion 7 streaming memory at scale",
        ok,
        f"P = {p_points}: peak {peak / 1e6:.1f} MB, {elapsed:.1f} s, "
        f"degree {rule.degree}, |sum - 2| = {abs(rule.weights.sum() - 2.0):.3e}",
    )


def test_criterion_08_gauss_legendre_backend():
    worst_residual = 0.0
    for n in range(1, 51):
        g = gauss_legendre_rule(n)
        for d in range(2 * n):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            worst_residual = max(
                worst_residual, abs(float(np.dot(g.weights, g.nodes**d)) - exact)
            )
    positive = True
    worst_sum = 0.0
    for n in range(1, 201):
        g = gauss_legendre_rule(n)
        positive = positive and bool(np.all(g.weights > 0.0))
        worst_sum = max(worst_sum, abs(g.weights.sum() - 2.0))
    ok = worst_residual < 1e-12 and positive and worst_sum < 1e-12
    report(
        "criterion 8 gauss-legendre backend",
        ok,
        f"exactness residual {worst_residual:.3e} (n <= 50), "
        f"positive weights and |sum - 2| <= {worst_sum:.3e} (n <= 200)",
    )


def test_criterion_09_instability_contrast():
    cotes_negative = all(newton_cotes_weights(p).min() < 0.0 for p in (9, 11))
    gram_positive = all(compute_rule(p).weights.min() > 0.0 for p in (9, 11))
    report(
        "criterion 9 instability contrast",
        cotes_negative and gram_positive,
        "newton-cotes weights go negative at P in (9, 11) while gram weights stay positive",
    )


def test_criterion_10_moment_oracle():
    worst_gap = 0.0
    worst_odd = 0.0
    grid = np.linspace(-1.0, 1.0, 20001)
    for p in range(2, 52):
        rec = build_recurrence(p)
        gauss = gauss_legendre_rule(minimum_gauss_order(rec.max_degree))
        values = compute_moments(rec, gauss)
        rows = basis_rows(rec, grid)
        for m in range(rec.max_degree + 1):
            worst_gap = max(worst_gap, abs(values[m] - float(simpson(rows[m], x=grid))))
            if m % 2 == 1:
                worst_odd = max(worst_odd, abs(values[m]))
    ok = worst_gap < 1e-12 and worst_odd < 1e-13
    report(
        "criterion 10 moment oracle",
        ok,
        f"max |moment - simpson| = {worst_gap:.3e}, max odd |moment| = {worst_odd:.3e} (P <= 51)",
    )
