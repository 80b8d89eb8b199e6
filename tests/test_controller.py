import math
from dataclasses import astuple, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctasim.controller import (
    ControllerState,
    Gains,
    explicit_step,
    fractional_power,
    implicit_step,
    initial_state,
)
from ctasim import plant
from ctasim.cli import get_preset
from ctasim.plant import TRACE_COLUMNS, run_simulation
from oracles import reference_implicit_step

PAPER = Gains(kp1=160.236, kp2=60.3738, kp3=28.5, kp4=15.0, L=5.0)

state_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def make_state(eta=0.0, zbar1=0.0, zbar2=0.0, **kw):
    return ControllerState(eta=eta, zbar1=zbar1, zbar2=zbar2, **kw)


class TestGains:
    def test_requires_positive(self):
        with pytest.raises(ValueError):
            Gains(kp1=0.0, kp2=1.0, kp3=2.0, kp4=1.0)
        with pytest.raises(ValueError):
            Gains(kp1=1.0, kp2=1.0, kp3=2.0, kp4=1.0, L=-5.0)

    @pytest.mark.parametrize("field", ["kp1", "kp2", "kp3", "kp4", "L"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_by_name(self, field, value):
        kw = dict(kp1=1.0, kp2=1.0, kp3=3.0, kp4=2.0, L=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            Gains(**kw)

    def test_requires_kp3_above_kp4(self):
        with pytest.raises(ValueError):
            Gains(kp1=1.0, kp2=1.0, kp3=1.0, kp4=1.0)


class TestFractionalPower:
    def test_zero_maps_to_zero(self):
        assert fractional_power(0.0, 1.0 / 3.0) == 0.0
        assert fractional_power(0.0, 0.5) == 0.0

    def test_odd(self):
        assert fractional_power(-1.0, 1.0 / 3.0) == -1.0
        assert fractional_power(8.0, 1.0 / 3.0) == pytest.approx(2.0)


class TestExplicitStep:
    def test_origin(self):
        out, nxt = explicit_step(0.0, 0.0, make_state(), PAPER, 0.001)
        assert out.u == 0.0 and out.u1 == 0.0
        assert nxt.eta == 0.0

    def test_benchmark_first_step(self):
        # independent scalar recomputation of the two power terms
        out, nxt = explicit_step(8.0, -12.0, make_state(), PAPER, 0.001)
        u1_expected = -PAPER.kp1 * 8.0 ** (1.0 / 3.0) + PAPER.kp2 * math.sqrt(12.0)
        assert out.u1 == pytest.approx(u1_expected, rel=1e-12)
        assert out.u == pytest.approx(u1_expected, rel=1e-12)  # eta = 0
        assert nxt.eta == pytest.approx(-0.001 * 28.5 + 0.001 * 15.0, abs=1e-15)

    def test_sign_selection_at_zero_velocity(self):
        g = Gains(kp1=1.0, kp2=1.0, kp3=1.0, kp4=0.5)
        out, nxt = explicit_step(-1.0, 0.0, make_state(eta=2.0), g, 0.1)
        # |z1|^(1/3)*sgn(z1) = -1; the z2 terms vanish with the 0 selection
        assert out.u1 == pytest.approx(1.0, abs=1e-15)
        assert out.u == pytest.approx(3.0, abs=1e-15)
        assert nxt.eta == pytest.approx(2.1, abs=1e-15)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            explicit_step(1.0, 1.0, make_state(), PAPER, 0.0)


class TestImplicitStage1:
    """Stage I of the one-pass step, read off its u1 output."""

    def test_origin_interval_forces_zero(self):
        out, _ = implicit_step(0.0, 0.0, make_state(), PAPER, 0.001)
        assert out.u1 == 0.0

    def test_benchmark_first_step_saturates(self):
        st0 = initial_state(8.0, -12.0)
        out, _ = implicit_step(8.0, -12.0, st0, PAPER, 0.001)
        # magnitude interval endpoints, recomputed independently
        lo = PAPER.kp1 * 2.0 - PAPER.kp2 * math.sqrt(12.0)
        hi = PAPER.kp1 * 2.0 + PAPER.kp2 * math.sqrt(12.0)
        assert lo == pytest.approx(111.33102190799622, rel=1e-12)
        assert hi == pytest.approx(529.6129780920037, rel=1e-12)
        # the position target is far below the inner interval: clamps at -lo
        assert out.u1 == pytest.approx(-lo / 0.001, rel=1e-12)
        assert -12.0 + 0.001 * out.u1 == pytest.approx(-12.0 - lo, rel=1e-12)

    def test_saturated_step_solves_sign_inclusion(self):
        # h*u1 must lie in -a*sgn(zt1) - b*sgn(zt2) when the clamp binds,
        # with the predictions zt2 = z2 + h*u1 and zt1 = z1 + h*zt2
        st0 = initial_state(8.0, -12.0)
        out, _ = implicit_step(8.0, -12.0, st0, PAPER, 0.001)
        zt2 = -12.0 + 0.001 * out.u1
        zt1 = 8.0 + 0.001 * zt2
        a = PAPER.kp1 * 2.0
        b = PAPER.kp2 * math.sqrt(12.0)
        assert zt1 > 0.0 and zt2 < 0.0
        assert 0.001 * out.u1 == pytest.approx(-a + b, rel=1e-12)

    def test_negative_lower_endpoint_regime(self):
        # zbar1 = 0 makes the interval [-b, b]; the projection pair collapses
        g = Gains(kp1=1.0, kp2=1.0, kp3=2.0, kp4=1.0)
        st0 = initial_state(0.0, 1.0)
        out, _ = implicit_step(0.0, 1.0, st0, g, 1.0)
        assert out.u1 == -1.0
        assert 1.0 + 1.0 * out.u1 == 0.0  # predicted z2

    def test_nan_prediction_rejected(self):
        bad = make_state(zbar1=float("nan"))
        with pytest.raises(ValueError):
            implicit_step(1.0, 1.0, bad, PAPER, 0.001)

    @given(state_floats, state_floats, state_floats, state_floats,
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=300)
    def test_saturation_bound(self, z1, z2, zb1, zb2, steps):
        st0 = make_state(zbar1=zb1, zbar2=zb2, steps=steps)
        h = 0.001
        out, _ = implicit_step(z1, z2, st0, PAPER, h)
        bound = PAPER.kp1 * abs(zb1) ** (1.0 / 3.0) + PAPER.kp2 * abs(zb2) ** 0.5
        assert abs(h * out.u1) <= bound * (1.0 + 1e-12) + 1e-15


class TestImplicitStage2:
    """Stage II of the one-pass step, read off its eta_next output."""

    def test_origin(self):
        out, nxt = implicit_step(0.0, 0.0, make_state(), PAPER, 0.001)
        assert out.eta_next == 0.0
        assert (nxt.eta, nxt.zbar1, nxt.zbar2) == (0.0, 0.0, 0.0)

    def test_rate_interval_endpoints(self):
        h = 0.001
        assert h * (PAPER.kp3 - PAPER.kp4) == pytest.approx(0.0135, abs=1e-15)
        assert h * (PAPER.kp3 + PAPER.kp4) == pytest.approx(0.0435, abs=1e-15)

    def test_integrator_walks_at_max_rate(self):
        # zero state and memory force u1 = 0; then y1 = y2 = 10, the nested
        # interval is [-3, 1] and the increment clamps at -3
        g = Gains(kp1=1.0, kp2=1.0, kp3=2.0, kp4=1.0)
        st0 = make_state(eta=10.0)
        out, nxt = implicit_step(0.0, 0.0, st0, g, 1.0)
        assert out.u1 == 0.0
        assert out.eta_next == pytest.approx(7.0, abs=1e-15)
        assert nxt.eta == out.eta_next

    @given(state_floats, state_floats, state_floats, state_floats, state_floats,
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=300)
    def test_rate_limit(self, z1, z2, zb1, zb2, eta, steps):
        st0 = make_state(eta=eta, zbar1=zb1, zbar2=zb2, steps=steps)
        h = 0.001
        out, _ = implicit_step(z1, z2, st0, PAPER, h)
        assert abs(out.eta_next - eta) <= h * (PAPER.kp3 + PAPER.kp4) * (1.0 + 1e-12)


class TestImplicitStep:
    def test_origin_is_fixed_point(self):
        st0 = initial_state(0.0, 0.0)
        out, nxt = implicit_step(0.0, 0.0, st0, PAPER, 0.001)
        assert out.u == 0.0 and out.u1 == 0.0
        numeric = ("eta", "zbar1", "zbar2", "u1_prev", "delta_est")
        assert all(getattr(nxt, f) == 0.0 for f in numeric)
        assert nxt.steps == 1

    def test_benchmark_first_step_regression(self):
        st0 = initial_state(8.0, -12.0)
        out, nxt = implicit_step(8.0, -12.0, st0, PAPER, 0.001)
        u1 = -(PAPER.kp1 * 2.0 - PAPER.kp2 * math.sqrt(12.0)) / 0.001
        # cold start: stage II sees z3 = eta = 0, rate clamp gives -0.0135
        assert out.u1 == pytest.approx(u1, rel=1e-12)
        assert out.eta_next == pytest.approx(-0.0135, abs=1e-15)
        assert out.u == pytest.approx(u1 - 0.0135, rel=1e-12)
        assert nxt.zbar1 == 8.0 and nxt.zbar2 == -12.0
        assert nxt.u1_prev == out.u1

    @given(state_floats, state_floats, state_floats, state_floats, state_floats,
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=200)
    def test_output_identity(self, z1, z2, eta, zb1, zb2, steps):
        st0 = make_state(eta=eta, zbar1=zb1, zbar2=zb2, steps=steps)
        out, _ = implicit_step(z1, z2, st0, PAPER, 0.001)
        assert out.u == out.u1 + out.eta_next

    @given(state_floats, state_floats, state_floats, state_floats, state_floats,
           state_floats, state_floats, st.integers(min_value=0, max_value=5))
    @settings(max_examples=200)
    def test_odd_symmetry(self, z1, z2, eta, zb1, zb2, u1p, dlt, steps):
        st_pos = make_state(eta=eta, zbar1=zb1, zbar2=zb2,
                            u1_prev=u1p, delta_est=dlt, steps=steps)
        st_neg = make_state(eta=-eta, zbar1=-zb1, zbar2=-zb2,
                            u1_prev=-u1p, delta_est=-dlt, steps=steps)
        for step_fn in (explicit_step, implicit_step):
            out_p, _ = step_fn(z1, z2, st_pos, PAPER, 0.001)
            out_n, _ = step_fn(-z1, -z2, st_neg, PAPER, 0.001)
            assert out_n.u == -out_p.u
            assert out_n.u1 == -out_p.u1

    def test_determinism(self):
        st0 = initial_state(3.0, -4.0, eta=1.5)
        a = implicit_step(3.0, -4.0, st0, PAPER, 0.001)
        b = implicit_step(3.0, -4.0, st0, PAPER, 0.001)
        assert a == b

    def test_alternating_velocity_reference(self):
        # even steps target the position, odd steps only flush the velocity
        g = Gains(kp1=100.0, kp2=1.0, kp3=2.0, kp4=1.0)
        st_even = make_state(zbar1=1.0, zbar2=0.01, steps=2)
        st_odd = replace(st_even, steps=3)
        h = 0.001
        z1, z2 = 1e-6, 1e-5
        u1_even = implicit_step(z1, z2, st_even, g, h)[0].u1
        u1_odd = implicit_step(z1, z2, st_odd, g, h)[0].u1
        assert h * u1_even == pytest.approx(-(z1 + h * z2) / h - z2, rel=1e-9)
        assert h * u1_odd == pytest.approx(-z2, rel=1e-9)


def _bits(pair):
    """Every field of (ControlOutput, ControllerState), floats as hex."""
    return [v.hex() if isinstance(v, float) else v for obj in pair for v in astuple(obj)]


# near-equilibrium values keep both projections off their bounds, where
# the rounding of each expression reaches the output
mixed_floats = st.one_of(state_floats, st.floats(min_value=-1e-6, max_value=1e-6))
state_steps = st.sampled_from([0, 1, 2, 3, 10, 11])
step_sizes = st.sampled_from([1e-4, 1e-3, 0.01, 0.3, 1.0])
gain_sets = st.sampled_from([PAPER, Gains(kp1=1.0, kp2=1.0, kp3=2.0, kp4=1.0),
                             Gains(kp1=100.0, kp2=1.0, kp3=2.0, kp4=1.0)])


class TestOnePassMatchesReference:
    """implicit_step reproduces the two-stage form (tests/oracles.py) bit
    for bit, and raises wherever it raises."""

    @given(mixed_floats, mixed_floats, mixed_floats, state_floats, state_floats,
           mixed_floats, mixed_floats, state_steps, step_sizes, gain_sets)
    @settings(max_examples=500)
    # stage II's ztilde2 is z2 + h*u1; reusing the clamped h*u1 from before
    # the division by h (z2 + hu1) changes eta_next on this input
    @example(z1=0.0, z2=5.7e-08, eta=0.0, zb1=1.0, zb2=1.0, u1p=0.0, dlt=0.0,
             steps=0, h=0.001, g=PAPER)
    def test_equal_floats(self, z1, z2, eta, zb1, zb2, u1p, dlt, steps, h, g):
        st0 = make_state(eta=eta, zbar1=zb1, zbar2=zb2, u1_prev=u1p,
                         delta_est=dlt, steps=steps)
        got = implicit_step(z1, z2, st0, g, h)
        want = reference_implicit_step(z1, z2, st0, g, h)
        assert got == want
        assert _bits(got) == _bits(want)

    @given(st.sampled_from(["zbar1", "zbar2", "z2", "z1", "eta", "u1_prev", "delta_est"]),
           state_floats, state_floats, state_floats, state_floats, state_steps)
    @settings(max_examples=300)
    def test_nan_rejected_where_reference_rejects(self, field, z1, z2, zb1, zb2, steps):
        args = dict(z1=z1, z2=z2, eta=0.5, zbar1=zb1, zbar2=zb2, u1_prev=1.0,
                    delta_est=-2.0)
        args[field] = math.nan
        st0 = make_state(eta=args["eta"], zbar1=args["zbar1"], zbar2=args["zbar2"],
                         u1_prev=args["u1_prev"], delta_est=args["delta_est"], steps=steps)
        call = (args["z1"], args["z2"], st0, PAPER, 0.001)
        try:
            want = reference_implicit_step(*call)
        except ValueError:
            with pytest.raises(ValueError):
                implicit_step(*call)
        else:
            assert _bits(implicit_step(*call)) == _bits(want)

    def test_nan_magnitudes_and_measurement_rejected(self):
        for st0, z2 in ((make_state(zbar1=math.nan), 1.0),
                        (make_state(zbar2=math.nan), 1.0),
                        (make_state(), math.nan)):
            for fn in (reference_implicit_step, implicit_step):
                with pytest.raises(ValueError):
                    fn(1.0, z2, st0, PAPER, 0.001)

    def test_paper_implicit_trace(self, monkeypatch):
        cfg = get_preset("paper-implicit").cfg
        fused = run_simulation(cfg)
        monkeypatch.setattr(plant, "implicit_step", reference_implicit_step)
        staged = run_simulation(cfg)
        assert staged.n == fused.n == cfg.steps + 1
        for c in TRACE_COLUMNS:
            assert [v.hex() for v in getattr(staged, c)] == \
                [v.hex() for v in getattr(fused, c)], c
