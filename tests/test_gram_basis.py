import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gramquad.gram_basis import GramRecurrence, build_recurrence, equidistant_nodes, gram_rows


def unit_rows(rec: GramRecurrence, points: np.ndarray):
    """Basis rows on ``points``, seeded with the unit-norm constant row."""
    return gram_rows(rec, points, np.full(np.shape(points), (rec.n_param + 1) ** -0.5))


def all_rows(rec: GramRecurrence, points: np.ndarray) -> np.ndarray:
    """Materialize every basis row; each yielded row is copied before the next step."""
    return np.array([row.copy() for row in unit_rows(rec, points)])


class TestAlphaCoefficient:
    """Entries of the recurrence table built by ``build_recurrence``."""

    def test_smallest_basis(self):
        assert build_recurrence(2).alpha[1] == 1.0

    def test_three_points(self):
        assert build_recurrence(3).alpha[1] == pytest.approx(1.2247448713915890, abs=1e-15)

    def test_matches_closed_form(self):
        for m, n in [(0, 10), (3, 10), (9, 100), (31, 1000)]:
            expected = n / (m + 1) * math.sqrt(
                (4 * (m + 1) ** 2 - 1) / ((n + 1) ** 2 - (m + 1) ** 2)
            )
            assert build_recurrence(n + 1).alpha[m + 1] == pytest.approx(expected, rel=1e-15)

    def test_degree_at_or_above_basis_size_rejected(self):
        # No table reaches a degree at or above the basis size n_param,
        # except the two-point table, whose top entry is the +inf limit.
        with pytest.raises(ValueError):
            build_recurrence(3, 2)
        with pytest.raises(ValueError):
            build_recurrence(11, 10)
        with pytest.raises(ValueError):
            build_recurrence(11, 11)

    @given(n_param=st.integers(min_value=1, max_value=5000))
    def test_in_range_coefficients_finite_positive(self, n_param):
        rec = build_recurrence(n_param + 1)
        in_range = rec.alpha[1:][np.arange(rec.max_degree + 1) < n_param]
        assert in_range.size > 0
        assert np.all(np.isfinite(in_range))
        assert np.all(in_range > 0.0)


class TestBuildRecurrence:
    def test_two_points_default(self):
        rec = build_recurrence(2)
        assert rec.n_param == 1
        assert rec.max_degree == 1
        assert rec.alpha.shape == (3,)
        assert rec.alpha[0] == 1.0
        assert rec.alpha[1] == 1.0
        # Top entry's denominator vanishes for the 2-point basis; the
        # formula limit is +inf and no advance within the cap touches it.
        assert math.isinf(rec.alpha[2])

    def test_default_degree_is_isqrt(self):
        assert build_recurrence(101).max_degree == 10
        assert build_recurrence(3).max_degree == 1
        assert build_recurrence(50).max_degree == 7
        assert build_recurrence(10001).max_degree == 100

    def test_table_matches_coefficient_function(self):
        # The table holds the scalar closed form bit for bit.
        rec = build_recurrence(101)
        for m in range(rec.max_degree + 1):
            numerator = 4 * (m + 1) ** 2 - 1
            denominator = 101**2 - (m + 1) ** 2
            assert rec.alpha[m + 1] == 100 / (m + 1) * math.sqrt(numerator / denominator)

    def test_entries_finite_positive_where_defined(self):
        for p in (2, 3, 11, 101):
            rec = build_recurrence(p)
            for m in range(rec.max_degree + 1):
                entry = rec.alpha[m + 1]
                denominator = (rec.n_param + 1) ** 2 - (m + 1) ** 2
                if denominator > 0:
                    assert math.isfinite(entry)
                    assert entry > 0.0

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            build_recurrence(1)
        with pytest.raises(ValueError):
            build_recurrence(0)

    def test_degree_above_cap_rejected(self):
        with pytest.raises(ValueError):
            build_recurrence(101, 11)
        with pytest.raises(ValueError):
            build_recurrence(5, -1)

    def test_explicit_degree_within_cap(self):
        rec = build_recurrence(101, 4)
        assert rec.max_degree == 4
        assert rec.alpha.shape == (6,)


class TestEquidistantNodes:
    def test_endpoints_exact(self):
        for p in (2, 3, 101, 1001):
            nodes = equidistant_nodes(p)
            assert nodes[0] == -1.0
            assert nodes[-1] == 1.0
            assert nodes.shape == (p,)

    def test_closed_form(self):
        nodes = equidistant_nodes(5)
        np.testing.assert_allclose(nodes, [-1.0, -0.5, 0.0, 0.5, 1.0], atol=0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            equidistant_nodes(1)


class TestInitialRowState:
    """The degree-0 row of ``gram_rows`` and the zero row below it."""

    def test_three_points(self):
        rec = build_recurrence(3)
        nodes = equidistant_nodes(3)
        rows = unit_rows(rec, nodes)
        row0 = next(rows)
        np.testing.assert_allclose(row0, 0.5773502691896258, atol=1e-15)
        # The row below degree 0 is zero, so degree 1 is alpha_1 * x * row0.
        np.testing.assert_array_equal(next(rows), rec.alpha[1] * (nodes * row0))

    def test_two_points(self):
        row0 = next(unit_rows(build_recurrence(2), equidistant_nodes(2)))
        np.testing.assert_allclose(row0, 0.7071067811865476, atol=1e-15)

    def test_length_mismatch_rejected(self):
        rec = build_recurrence(3)
        with pytest.raises(ValueError):
            next(gram_rows(rec, equidistant_nodes(3), np.ones(4)))


class TestAdvanceRow:
    """Single recurrence steps of ``gram_rows``."""

    def test_three_points_degree_one(self):
        rows = all_rows(build_recurrence(3), equidistant_nodes(3))
        assert rows.shape == (2, 3)
        np.testing.assert_allclose(
            rows[1],
            [-0.7071067811865476, 0.0, 0.7071067811865476],
            atol=1e-15,
        )
        assert rows[1][1] == 0.0
        assert np.sum(rows[1] ** 2) == pytest.approx(1.0, abs=1e-15)

    def test_two_points_degree_one(self):
        rows = all_rows(build_recurrence(2), equidistant_nodes(2))
        np.testing.assert_allclose(
            rows[1], [-0.7071067811865476, 0.7071067811865476], atol=1e-15
        )

    def test_previous_row_carried(self):
        # Two buffers alternate: a yielded row stays intact while the next
        # one is computed from it, then becomes the row two degrees up.
        rec = build_recurrence(11)
        first_row = np.full(11, 11**-0.5)
        rows = gram_rows(rec, equidistant_nodes(11), first_row)
        row0 = next(rows)
        assert row0 is first_row
        kept = row0.copy()
        row1 = next(rows)
        np.testing.assert_array_equal(row0, kept)
        assert next(rows) is row0
        assert next(rows) is row1

    def test_advance_past_cap_rejected(self):
        rec = build_recurrence(3)
        rows = unit_rows(rec, equidistant_nodes(3))
        next(rows)
        next(rows)
        with pytest.raises(StopIteration):
            next(rows)
        assert len(all_rows(build_recurrence(101, 4), equidistant_nodes(101))) == 5

    def test_point_shape_mismatch_rejected(self):
        rec = build_recurrence(3)
        with pytest.raises(ValueError):
            next(gram_rows(rec, np.zeros((3, 1)), np.ones(3)))


class TestBasisInvariants:
    @pytest.mark.parametrize("p", [11, 101, 401])
    def test_discrete_orthonormality(self, p):
        rec = build_recurrence(p)
        rows = all_rows(rec, equidistant_nodes(p))
        gram = rows @ rows.T
        residual = np.max(np.abs(gram - np.eye(rec.max_degree + 1)))
        assert residual < 1e-10

    @pytest.mark.parametrize("p", [11, 26, 101])
    def test_parity(self, p):
        rec = build_recurrence(p)
        rows = all_rows(rec, equidistant_nodes(p))
        for m in range(rec.max_degree + 1):
            sign = 1.0 if m % 2 == 0 else -1.0
            np.testing.assert_allclose(rows[m], sign * rows[m][::-1], atol=1e-13)

    def test_degree_zero_constant_degree_one_linear(self):
        rec = build_recurrence(21)
        nodes = equidistant_nodes(21)
        rows = all_rows(rec, nodes)
        assert np.ptp(rows[0]) == 0.0
        nonzero = nodes != 0.0
        slopes = rows[1][nonzero] / nodes[nonzero]
        np.testing.assert_allclose(slopes, slopes[0], rtol=1e-13)
        assert rows[1][~nonzero] == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(min_value=2, max_value=400))
    def test_rows_have_unit_discrete_norm(self, p):
        rec = build_recurrence(p)
        rows = all_rows(rec, equidistant_nodes(p))
        norms = np.sum(rows**2, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(p=st.integers(min_value=2, max_value=400))
    def test_parity_any_point_count(self, p):
        rec = build_recurrence(p)
        rows = all_rows(rec, equidistant_nodes(p))
        signs = np.where(np.arange(rec.max_degree + 1) % 2 == 0, 1.0, -1.0)
        np.testing.assert_allclose(rows, signs[:, None] * rows[:, ::-1], atol=1e-13)
