import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctasim.resolvent import (
    Interval,
    proj,
    sign_selection,
    solve_two_sgn,
)
from oracles import grid_solve_two_sgn, two_sgn_distance

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestInterval:
    def test_rejects_disordered_endpoints(self):
        with pytest.raises(ValueError):
            Interval(1.0, 0.0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Interval(float("nan"), 1.0)
        with pytest.raises(ValueError):
            Interval(0.0, float("nan"))


class TestProj:
    def test_clamp_above(self):
        assert proj(Interval(-1.0, 1.0), 2.0) == 1.0

    def test_interior_identity(self):
        assert proj(Interval(-1.0, 1.0), 0.5) == 0.5

    def test_clamp_below(self):
        assert proj(Interval(2.0, 3.0), 0.0) == 2.0

    @given(finite, finite, finite)
    def test_idempotent(self, a, b, x):
        iv = Interval(min(a, b), max(a, b))
        assert proj(iv, proj(iv, x)) == proj(iv, x)


class TestSgnSet:
    def test_selection_at_zero_is_zero(self):
        assert sign_selection(0.0) == 0.0
        assert sign_selection(-2.0) == -1.0
        assert sign_selection(5.0) == 1.0


class TestSolveTwoSgn:
    def test_origin_fixed_point(self):
        assert solve_two_sgn(2.0, 1.0, 0.0, 0.0) == 0.0

    def test_saturated(self):
        # both signs resolve positive: z = a + b
        z = solve_two_sgn(2.0, 1.0, 10.0, 10.0)
        assert z == pytest.approx(3.0, abs=1e-12)
        assert float(two_sgn_distance(z, 2.0, 1.0, 10.0, 10.0)) <= 1e-12
        assert abs(z - grid_solve_two_sgn(2.0, 1.0, 10.0, 10.0)) <= 2e-4

    def test_set_valued_at_x(self):
        # z = x makes the first signum set-valued; 0.5 lies in [-1, 3]
        z = solve_two_sgn(2.0, 1.0, 0.5, 10.0)
        assert z == pytest.approx(0.5, abs=1e-12)
        assert abs(z - grid_solve_two_sgn(2.0, 1.0, 0.5, 10.0)) <= 2e-4

    def test_invalid_gains_rejected(self):
        with pytest.raises(ValueError):
            solve_two_sgn(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            solve_two_sgn(1.0, -0.5, 1.0, 1.0)

    @given(
        st.floats(min_value=1e-3, max_value=100.0),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=-200.0, max_value=200.0),
        st.floats(min_value=-200.0, max_value=200.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_lemma_regime_matches_grid_oracle(self, a, frac, x, y):
        b = a * frac
        z = solve_two_sgn(a, b, x, y)
        assert float(two_sgn_distance(z, a, b, x, y)) <= 1e-9
        assert abs(z - grid_solve_two_sgn(a, b, x, y)) <= 2e-4

    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.floats(min_value=0.0, max_value=150.0),
        st.floats(min_value=-200.0, max_value=200.0),
        st.floats(min_value=-200.0, max_value=200.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_extended_regime_matches_grid_oracle(self, a, b, x, y):
        # b >= a allowed: no uniqueness theorem here, checked empirically.
        z = solve_two_sgn(a, b, x, y)
        assert abs(z - grid_solve_two_sgn(a, b, x, y)) <= 2e-4

    @given(
        st.floats(min_value=1e-6, max_value=100.0),
        st.floats(min_value=0.0, max_value=300.0),
        st.floats(min_value=-500.0, max_value=500.0),
    )
    def test_inner_bounds_ordered(self, a, b, y):
        c = Interval(a - b, a + b)
        assert proj(Interval(-c.hi, -c.lo), y) <= proj(c, y)

    @given(
        st.floats(min_value=1e-3, max_value=100.0),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=-200.0, max_value=200.0),
        st.floats(min_value=-200.0, max_value=200.0),
    )
    def test_odd_symmetry(self, a, frac, x, y):
        b = a * frac
        assert solve_two_sgn(a, b, -x, -y) == -solve_two_sgn(a, b, x, y)
