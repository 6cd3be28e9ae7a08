import numpy as np
import pytest
from scipy.integrate import simpson

from gramquad.gauss_legendre import gauss_legendre_rule
from gramquad.gram_basis import basis_rows, build_recurrence
from gramquad.moments import compute_moments, minimum_gauss_order


def default_moments(p_points):
    rec = build_recurrence(p_points)
    gauss = gauss_legendre_rule(minimum_gauss_order(rec.max_degree))
    return rec, compute_moments(rec, gauss)


class TestMinimumGaussOrder:
    def test_halved_and_offset(self):
        assert minimum_gauss_order(0) == 1
        assert minimum_gauss_order(1) == 1
        assert minimum_gauss_order(10) == 6
        assert minimum_gauss_order(11) == 6
        assert minimum_gauss_order(1000) == 501


class TestComputeMoments:
    def test_three_points(self):
        _, moments = default_moments(3)
        assert moments.shape == (2,)
        assert moments[0] == pytest.approx(1.1547005383792515, abs=1e-15)
        assert abs(moments[1]) < 1e-13

    def test_two_points(self):
        _, moments = default_moments(2)
        assert moments[0] == pytest.approx(1.4142135623730951, abs=1e-15)
        assert abs(moments[1]) < 1e-13

    @pytest.mark.parametrize("p", [2, 3, 11, 101, 1001])
    def test_constant_moment(self, p):
        _, moments = default_moments(p)
        assert moments[0] == pytest.approx(2.0 * p**-0.5, abs=1e-14)

    @pytest.mark.parametrize("p", [11, 26, 101, 401])
    def test_odd_moments_vanish(self, p):
        _, moments = default_moments(p)
        odd = moments[1::2]
        assert np.max(np.abs(odd)) < 1e-13

    def test_insufficient_gauss_order_rejected(self):
        rec = build_recurrence(101)  # degree cap 10 needs order 6
        with pytest.raises(ValueError):
            compute_moments(rec, gauss_legendre_rule(5))

    def test_minimal_gauss_order_accepted(self):
        rec = build_recurrence(101)
        moments = compute_moments(rec, gauss_legendre_rule(6))
        assert moments.shape == (11,)


class TestMomentOracle:
    @pytest.mark.parametrize("p", [2, 3, 5, 17, 33, 51])
    def test_matches_composite_simpson(self, p):
        # Independent route: evaluate each basis polynomial on a dense grid
        # and integrate with composite Simpson (2e4 panels).
        rec, moments = default_moments(p)
        grid = np.linspace(-1.0, 1.0, 20001)
        rows = basis_rows(rec, grid)
        for m in range(rec.max_degree + 1):
            reference = simpson(rows[m], x=grid)
            assert moments[m] == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("p", [11, 101, 1001])
    def test_doubling_gauss_order_changes_nothing(self, p):
        rec = build_recurrence(p)
        order = minimum_gauss_order(rec.max_degree)
        base = compute_moments(rec, gauss_legendre_rule(order))
        refined = compute_moments(rec, gauss_legendre_rule(2 * order))
        np.testing.assert_allclose(base, refined, atol=1e-13)
