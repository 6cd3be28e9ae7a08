import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramquad.reference import dense_weights
from gramquad.weights import (
    PANEL_POINTS, barycentric, compute_rule, integrate, integrate_on_interval,
)


class TestComputeRule:
    def test_two_points_is_trapezoid(self):
        rule = compute_rule(2)
        np.testing.assert_array_equal(rule.weights, [1.0, 1.0])
        np.testing.assert_array_equal(rule.nodes, [-1.0, 1.0])

    def test_three_points_flat_weights(self):
        rule = compute_rule(3)
        np.testing.assert_array_equal(rule.weights, np.full(3, 2.0 / 3.0))
        assert rule.degree == 1

    def test_hundred_one_points(self):
        rule = compute_rule(101)
        assert rule.degree == 10
        assert abs(rule.weights.sum() - 2.0) < 1e-12
        assert rule.weights.min() > 0.0

    def test_node_layout(self):
        rule = compute_rule(64)
        assert rule.nodes[0] == -1.0
        assert rule.nodes[-1] == 1.0
        expected = -1.0 + 2.0 * np.arange(64) / 63
        np.testing.assert_array_equal(rule.nodes, expected)

    def test_explicit_degree(self):
        rule = compute_rule(101, 4)
        assert rule.degree == 4
        assert abs(rule.weights.sum() - 2.0) < 1e-12

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            compute_rule(1)
        with pytest.raises(ValueError):
            compute_rule(101, 11)

    def test_arrays_read_only(self):
        rule = compute_rule(11)
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    @pytest.mark.parametrize("p", [5, 11, 26, 101, 401, 1001, 10001])
    def test_positivity_across_regime(self, p):
        rule = compute_rule(p)
        assert rule.weights.min() > 0.0

    @pytest.mark.parametrize("p", [5, 26, 101, 400])
    def test_weight_symmetry(self, p):
        rule = compute_rule(p)
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])

    @pytest.mark.parametrize("p", [11, 101, 401])
    def test_monomial_exactness(self, p):
        rule = compute_rule(p)
        for d in range(rule.degree + 1):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            moment = float(np.dot(rule.weights, rule.nodes**d))
            assert abs(moment - exact) < 1e-10

    @pytest.mark.parametrize("p", [2, 3, 5, 17, 51, 101, 256, 401])
    def test_streaming_matches_dense_oracle(self, p):
        rule = compute_rule(p)
        np.testing.assert_allclose(rule.weights, dense_weights(p), atol=1e-13)

    @pytest.mark.parametrize("p", [4096, 4097, 40001])
    def test_matches_dense_oracle_relative_to_max_weight(self, p):
        # At the default cap every P <= 4096 is evaluated node by node and
        # 4097 is the smallest interpolated P; 40001 is interpolated on 25
        # panels. An absolute tolerance would pass weights of order 2/P
        # without checking them.
        rule = compute_rule(p)
        dense = dense_weights(p)
        gap = float(np.max(np.abs(rule.weights - dense)))
        assert gap <= 1e-14 * rule.degree * dense.max()

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(min_value=2, max_value=500))
    def test_rule_invariants_any_point_count(self, p):
        rule = compute_rule(p)
        assert abs(rule.weights.sum() - 2.0) < 1e-12
        assert rule.weights.min() > 0.0
        np.testing.assert_allclose(rule.weights, rule.weights[::-1], atol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(min_value=2, max_value=10_000))
    def test_rule_properties_up_to_ten_thousand(self, p):
        rule = compute_rule(p)
        assert np.array_equal(rule.weights, rule.weights[::-1])
        assert rule.weights.min() > 0.0
        assert abs(math.fsum(rule.weights) - 2.0) <= 1e-12
        for d in range(rule.degree + 1):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(float(np.dot(rule.weights, rule.nodes**d)) - exact) < 1e-10


class TestBarycentric:
    # First-kind Chebyshev points on the panel [-0.75, -0.25].
    angles = (2 * np.arange(PANEL_POINTS) + 1) * np.pi / (2 * PANEL_POINTS)
    points = -0.5 + 0.25 * np.cos(angles)

    def test_reproduces_polynomial_of_lower_degree(self):
        x = np.linspace(-0.75, -0.25, 11)
        values = barycentric(x, self.points, self.points**5 - self.points)
        np.testing.assert_allclose(values, x**5 - x, rtol=0, atol=1e-15)

    def test_node_on_chebyshev_point_takes_its_value(self):
        x = np.array([-0.6, self.points[5], -0.4])
        samples = np.exp(self.points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = barycentric(x, self.points, samples)
        assert values[1] == samples[5]
        np.testing.assert_allclose(values[[0, 2]], np.exp(x[[0, 2]]), rtol=1e-14)


class TestIntegrate:
    def test_quartic_polynomial(self):
        rule = compute_rule(101)
        samples = 9 * rule.nodes**2 + 585 * rule.nodes**3 + 16 * rule.nodes**4
        assert integrate(rule, samples) == pytest.approx(12.4, abs=1e-10)

    @pytest.mark.parametrize("p", [2, 11, 101, 1001])
    def test_constant(self, p):
        rule = compute_rule(p)
        assert integrate(rule, np.ones(p)) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("p", [3, 11, 101])
    def test_odd_integrand_vanishes(self, p):
        rule = compute_rule(p)
        assert abs(integrate(rule, rule.nodes)) < 1e-13

    def test_sample_count_mismatch_rejected(self):
        rule = compute_rule(11)
        with pytest.raises(ValueError):
            integrate(rule, np.ones(10))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        rule = compute_rule(11)
        samples = np.ones(11)
        samples[4] = bad
        with pytest.raises(ValueError, match="sample 4"):
            integrate(rule, samples)

    @pytest.mark.parametrize("value", [1e308, -1e308])
    def test_overflowing_sum_rejected(self, value):
        rule = compute_rule(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                integrate(rule, np.full(3, value))


class TestIntegrateOnInterval:
    def test_identity_interval_matches_integrate(self):
        rule = compute_rule(11)
        samples = np.cos(rule.nodes)
        assert integrate_on_interval(rule, -1.0, 1.0, samples) == integrate(rule, samples)

    def test_constant_scales_with_length(self):
        rule = compute_rule(11)
        assert integrate_on_interval(rule, 0.0, 2.0, np.ones(11)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_quadratic_on_unit_interval(self):
        rule = compute_rule(101)
        mapped = 0.5 + 0.5 * rule.nodes
        assert integrate_on_interval(rule, 0.0, 1.0, mapped**2) == pytest.approx(
            1.0 / 3.0, abs=1e-10
        )

    def test_empty_interval_rejected(self):
        rule = compute_rule(11)
        with pytest.raises(ValueError):
            integrate_on_interval(rule, 1.0, 1.0, np.ones(11))
        with pytest.raises(ValueError):
            integrate_on_interval(rule, 2.0, 0.0, np.ones(11))

    @pytest.mark.parametrize(
        "a, b", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan), (-1e308, 1e308)]
    )
    def test_non_finite_bounds_rejected(self, a, b):
        rule = compute_rule(11)
        with pytest.raises(ValueError):
            integrate_on_interval(rule, a, b, np.ones(11))

    def test_overflowing_integral_rejected(self):
        rule = compute_rule(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows"):
                integrate_on_interval(rule, 0.0, 1e308, np.full(3, 1e10))
