import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctasim.resolvent import (
    Interval,
    nested_clamp,
    proj,
    sign_selection,
    solve_two_sgn,
)
from oracles import grid_solve_two_sgn, reference_nested_clamp, two_sgn_distance

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


def _outcome(f, *args):
    """f(*args) as its result's bits, or the message of the ValueError it raises."""
    try:
        return struct.pack("d", f(*args))
    except ValueError as exc:
        return str(exc)


magnitude = st.floats(min_value=0.0, allow_nan=False)  # infinity included


class TestNestedClamp:
    """nested_clamp is proj([proj(-C, y), proj(C, y)], x), C = [lo, hi],
    with Interval's checks: the same bits (so -0.0 is not 0.0), or the same
    ValueError, C's first."""

    @given(magnitude, magnitude, st.floats(), st.floats())
    @example(a=0.0, b=0.0, y=-0.0, x=0.0)  # the inner interval is [0.0, -0.0]
    @example(a=0.0, b=0.0, y=0.0, x=-0.0)
    @example(a=1.0, b=2.0, y=math.inf, x=-math.inf)
    @example(a=math.inf, b=1.0, y=-1e308, x=1e308)  # C = [inf, inf]
    @example(a=math.inf, b=math.inf, y=0.0, x=0.0)  # C = [nan, inf]
    @example(a=1.0, b=0.5, y=math.nan, x=0.0)  # the inner interval is [nan, nan]
    @settings(max_examples=300)
    def test_matches_nested_proj_bit_for_bit(self, a, b, y, x):
        lo, hi = a - b, a + b
        assert _outcome(nested_clamp, lo, hi, y, x) == _outcome(reference_nested_clamp,
                                                               lo, hi, y, x)

    @pytest.mark.parametrize("lo, hi, y, message", [
        (1.0, 0.5, 0.0, "lo=1.0 > hi=0.5"),  # C disordered
        (math.nan, 1.0, 0.0, "lo=nan > hi=1.0"),
        (0.0, math.nan, 0.0, "lo=0.0 > hi=nan"),
        (0.5, 1.0, math.nan, "lo=nan > hi=nan"),  # the inner interval
        (-2.0, 1.0, 1.5, "lo=1.5 > hi=1.0"),  # hi < |lo|: the inner one is disordered
        (1.0, 0.5, math.nan, "lo=1.0 > hi=0.5"),  # both bad: C is reported
    ])
    def test_bad_interval_message(self, lo, hi, y, message):
        with pytest.raises(ValueError) as exc:
            nested_clamp(lo, hi, y, 0.0)
        assert str(exc.value) == f"malformed interval: {message}"
        assert _outcome(reference_nested_clamp, lo, hi, y, 0.0) == str(exc.value)


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
