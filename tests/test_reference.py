import numpy as np
import pytest
from scipy.integrate import newton_cotes as scipy_newton_cotes

from gramquad.gram_basis import build_recurrence, equidistant_nodes, gram_rows
from gramquad.reference import dense_design_matrix, dense_weights, newton_cotes_weights
from gramquad.weights import compute_rule


class TestDenseDesignMatrix:
    @pytest.mark.parametrize("p", [2, 11, 101])
    def test_rows_match_streaming(self, p):
        rec = build_recurrence(p)
        nodes = equidistant_nodes(p)
        matrix = dense_design_matrix(rec, nodes)
        rows = gram_rows(rec, nodes, np.full(p, p**-0.5))
        count = 0
        for dense_row, row in zip(matrix, rows):
            np.testing.assert_allclose(dense_row, row, atol=1e-14)
            count += 1
        assert count == rec.max_degree + 1

    @pytest.mark.parametrize("p", [11, 101, 401])
    def test_orthonormal_rows(self, p):
        rec = build_recurrence(p)
        matrix = dense_design_matrix(rec, equidistant_nodes(p))
        gram = matrix @ matrix.T
        assert np.max(np.abs(gram - np.eye(rec.max_degree + 1))) < 1e-10


class TestDenseWeights:
    def test_three_points(self):
        np.testing.assert_allclose(dense_weights(3), np.full(3, 2.0 / 3.0), atol=1e-15)

    def test_two_points(self):
        np.testing.assert_allclose(dense_weights(2), [1.0, 1.0], atol=1e-15)

    @pytest.mark.parametrize("p", [5, 51, 401])
    def test_agrees_with_streaming_rule(self, p):
        np.testing.assert_allclose(
            dense_weights(p), compute_rule(p).weights, atol=1e-13
        )

    def test_propagates_domain_errors(self):
        with pytest.raises(ValueError):
            dense_weights(1)


class TestNewtonCotesWeights:
    def test_trapezoid(self):
        np.testing.assert_allclose(newton_cotes_weights(2), [1.0, 1.0], atol=1e-14)

    def test_simpson(self):
        np.testing.assert_allclose(
            newton_cotes_weights(3), [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-14
        )

    @pytest.mark.parametrize("p", [9, 11])
    def test_negative_weights_appear(self, p):
        assert newton_cotes_weights(p).min() < 0.0
        # ... while the gram-basis rule stays positive at the same counts.
        assert compute_rule(p).weights.min() > 0.0

    def test_sum_and_symmetry(self):
        for p in range(2, 16):
            weights = newton_cotes_weights(p)
            assert abs(weights.sum() - 2.0) < 1e-10
            np.testing.assert_allclose(weights, weights[::-1], atol=1e-10)

    def test_interpolatory_exactness(self):
        for p in range(2, 13):
            weights = newton_cotes_weights(p)
            nodes = equidistant_nodes(p)
            for d in range(p):
                exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
                assert abs(float(np.dot(weights, nodes**d)) - exact) < 1e-9

    @pytest.mark.parametrize("p", list(range(2, 16)))
    def test_matches_scipy(self, p):
        coefficients, _ = scipy_newton_cotes(p - 1, 1)
        reference = coefficients * 2.0 / (p - 1)
        np.testing.assert_allclose(newton_cotes_weights(p), reference, atol=1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            newton_cotes_weights(1)
        with pytest.raises(ValueError):
            newton_cotes_weights(31)
