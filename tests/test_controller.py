import math
import operator
import struct
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctasim.controller import Gains, explicit_step, implicit_step
from ctasim import plant
from ctasim.cli import get_preset, run_preset, steady_window
from ctasim.plant import TRACE_COLUMNS, read_trace_csv, run_simulation, write_trace_csv
from oracles import (
    DEADBEAT_BOUND, deadbeat_rows, disturbance_second_derivative, reference_explicit_step,
    reference_implicit_step)

PAPER = Gains(kp1=160.236, kp2=60.3738, kp3=28.5, kp4=15.0, L=5.0)

state_floats = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def call(step_fn, z1, z2, k=0, zb1=0.0, zb2=0.0, eta=0.0, u1_prev=0.0, d_prev=0.0,
         g=PAPER, h=0.001):
    """step_fn(k, z1, z2, zb1, zb2, eta, u1_prev, d_prev, g, h) with the
    memory defaulting to zero: (u, u1, eta_next, delta_est)."""
    return step_fn(k, z1, z2, zb1, zb2, eta, u1_prev, d_prev, g, h)


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


class TestExplicitStep:
    def test_origin(self):
        u, u1, eta_next, _ = call(explicit_step, 0.0, 0.0)
        assert u == 0.0 and u1 == 0.0
        assert eta_next == 0.0

    def test_benchmark_first_step(self):
        # independent scalar recomputation of the two power terms
        u, u1, eta_next, _ = call(explicit_step, 8.0, -12.0)
        u1_expected = -PAPER.kp1 * 8.0 ** (1.0 / 3.0) + PAPER.kp2 * math.sqrt(12.0)
        assert u1 == pytest.approx(u1_expected, rel=1e-12)
        assert u == pytest.approx(u1_expected, rel=1e-12)  # eta = 0
        assert eta_next == pytest.approx(-0.001 * 28.5 + 0.001 * 15.0, abs=1e-15)

    def test_sign_selection_at_zero_velocity(self):
        g = Gains(kp1=1.0, kp2=1.0, kp3=1.0, kp4=0.5)
        u, u1, eta_next, _ = call(explicit_step, -1.0, 0.0, eta=2.0, g=g, h=0.1)
        # |z1|^(1/3)*sgn(z1) = -1; the z2 terms vanish with the 0 selection
        assert u1 == pytest.approx(1.0, abs=1e-15)
        assert u == pytest.approx(3.0, abs=1e-15)
        assert eta_next == pytest.approx(2.1, abs=1e-15)


class TestImplicitStage1:
    """Stage I of the one-pass step, read off its u1 output."""

    def test_benchmark_first_step_saturates(self):
        u1 = call(implicit_step, 8.0, -12.0, zb1=8.0, zb2=-12.0)[1]
        # magnitude interval endpoints, recomputed independently
        lo = PAPER.kp1 * 2.0 - PAPER.kp2 * math.sqrt(12.0)
        hi = PAPER.kp1 * 2.0 + PAPER.kp2 * math.sqrt(12.0)
        assert lo == pytest.approx(111.33102190799622, rel=1e-12)
        assert hi == pytest.approx(529.6129780920037, rel=1e-12)
        # the position target is far below the inner interval: clamps at -lo
        assert u1 == pytest.approx(-lo / 0.001, rel=1e-12)
        assert -12.0 + 0.001 * u1 == pytest.approx(-12.0 - lo, rel=1e-12)

    def test_saturated_step_solves_sign_inclusion(self):
        # h*u1 must lie in -a*sgn(zt1) - b*sgn(zt2) when the clamp binds,
        # with the predictions zt2 = z2 + h*u1 and zt1 = z1 + h*zt2
        u1 = call(implicit_step, 8.0, -12.0, zb1=8.0, zb2=-12.0)[1]
        zt2 = -12.0 + 0.001 * u1
        zt1 = 8.0 + 0.001 * zt2
        a = PAPER.kp1 * 2.0
        b = PAPER.kp2 * math.sqrt(12.0)
        assert zt1 > 0.0 and zt2 < 0.0
        assert 0.001 * u1 == pytest.approx(-a + b, rel=1e-12)

    def test_negative_lower_endpoint_regime(self):
        # zb1 = 0 makes the interval [-b, b]; the projection pair collapses
        g = Gains(kp1=1.0, kp2=1.0, kp3=2.0, kp4=1.0)
        u1 = call(implicit_step, 0.0, 1.0, zb2=1.0, g=g, h=1.0)[1]
        assert u1 == -1.0
        assert 1.0 + 1.0 * u1 == 0.0  # predicted z2

    def test_nan_prediction_rejected(self):
        with pytest.raises(ValueError):
            call(implicit_step, 1.0, 1.0, zb1=float("nan"))

    @given(state_floats, state_floats, state_floats, state_floats,
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=300)
    def test_saturation_bound(self, z1, z2, zb1, zb2, k):
        h = 0.001
        u1 = call(implicit_step, z1, z2, k=k, zb1=zb1, zb2=zb2, h=h)[1]
        bound = PAPER.kp1 * abs(zb1) ** (1.0 / 3.0) + PAPER.kp2 * abs(zb2) ** 0.5
        assert abs(h * u1) <= bound * (1.0 + 1e-12) + 1e-15


class TestImplicitStage2:
    """Stage II of the one-pass step, read off the returned eta_next."""

    def test_integrator_walks_at_max_rate(self):
        # zero state and memory force u1 = 0; then y1 = y2 = 10, the nested
        # interval is [-3, 1] and the increment clamps at -3
        g = Gains(kp1=1.0, kp2=1.0, kp3=2.0, kp4=1.0)
        u, u1, eta_next, _ = call(implicit_step, 0.0, 0.0, eta=10.0, g=g, h=1.0)
        assert u1 == 0.0
        assert eta_next == pytest.approx(7.0, abs=1e-15)
        assert u == eta_next

    @given(state_floats, state_floats, state_floats, state_floats, state_floats,
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=300)
    def test_rate_limit(self, z1, z2, zb1, zb2, eta, k):
        h = 0.001
        eta_next = call(implicit_step, z1, z2, k=k, zb1=zb1, zb2=zb2, eta=eta, h=h)[2]
        assert abs(eta_next - eta) <= h * (PAPER.kp3 + PAPER.kp4) * (1.0 + 1e-12)


class TestImplicitStep:
    def test_origin_is_fixed_point(self):
        assert call(implicit_step, 0.0, 0.0) == (0.0, 0.0, 0.0, 0.0)

    def test_benchmark_first_step_regression(self):
        u, u1, eta_next, delta_est = call(implicit_step, 8.0, -12.0, zb1=8.0, zb2=-12.0)
        u1_expected = -(PAPER.kp1 * 2.0 - PAPER.kp2 * math.sqrt(12.0)) / 0.001
        # cold start: stage II sees z3 = eta = 0, rate clamp gives -0.0135
        assert u1 == pytest.approx(u1_expected, rel=1e-12)
        assert eta_next == pytest.approx(-0.0135, abs=1e-15)
        assert u == pytest.approx(u1_expected - 0.0135, rel=1e-12)
        assert delta_est == 0.0  # no measurement history at k = 0

    @given(state_floats, state_floats, state_floats, state_floats, state_floats,
           st.integers(min_value=0, max_value=5))
    @settings(max_examples=200)
    def test_output_identity(self, z1, z2, eta, zb1, zb2, k):
        u, u1, eta_next, _ = call(implicit_step, z1, z2, k=k, zb1=zb1, zb2=zb2, eta=eta)
        assert u == u1 + eta_next

    @given(state_floats, state_floats, state_floats, state_floats, state_floats,
           state_floats, state_floats, st.integers(min_value=0, max_value=5))
    @settings(max_examples=200)
    def test_odd_symmetry(self, z1, z2, eta, zb1, zb2, u1p, dlt, k):
        for step_fn in (explicit_step, implicit_step):
            u_p, u1_p, _, _ = call(step_fn, z1, z2, k=k, zb1=zb1, zb2=zb2, eta=eta,
                                   u1_prev=u1p, d_prev=dlt)
            u_n, u1_n, _, _ = call(step_fn, -z1, -z2, k=k, zb1=-zb1, zb2=-zb2, eta=-eta,
                                   u1_prev=-u1p, d_prev=-dlt)
            assert u_n == -u_p
            assert u1_n == -u1_p

    def test_alternating_velocity_reference(self):
        # even steps target the position, odd steps only flush the velocity
        g = Gains(kp1=100.0, kp2=1.0, kp3=2.0, kp4=1.0)
        h = 0.001
        z1, z2 = 1e-6, 1e-5
        u1_even = call(implicit_step, z1, z2, k=2, zb1=1.0, zb2=0.01, g=g, h=h)[1]
        u1_odd = call(implicit_step, z1, z2, k=3, zb1=1.0, zb2=0.01, g=g, h=h)[1]
        assert h * u1_even == pytest.approx(-(z1 + h * z2) / h - z2, rel=1e-9)
        assert h * u1_odd == pytest.approx(-z2, rel=1e-9)


def _bits(out):
    """The step's returned floats as hex."""
    return [v.hex() for v in out]


# near-equilibrium values keep both projections off their bounds, where
# the rounding of each expression reaches the output
mixed_floats = st.one_of(state_floats, st.floats(min_value=-1e-6, max_value=1e-6))
step_indices = st.sampled_from([0, 1, 2, 3, 10, 11])
step_sizes = st.sampled_from([1e-4, 1e-3, 0.01, 0.3, 1.0])
gain_sets = st.sampled_from([PAPER, Gains(kp1=1.0, kp2=1.0, kp3=2.0, kp4=1.0),
                             Gains(kp1=100.0, kp2=1.0, kp3=2.0, kp4=1.0)])


# signed zeros, NaNs of both signs, infinities, subnormals and the extremes
edge_floats = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                               5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308])


# well past CPython 3.11's quickening delay (8 calls) and the 3.12+ warm-up
WARM_UP_CALLS = 32


def _specialized_call(step_fn, *args, **kwargs):
    """call(step_fn, ...) once the interpreter has specialized step_fn's float ops.

    CPython rewrites a float `+` or `*` into a specialized instruction after
    a few calls, and when both operands are NaN the generic and the
    specialized forms return different NaN payloads (the C code takes the
    operands in the other order).  explicit_step is warm once any earlier
    test has run a simulation, and its reference is not, so both are run
    to the same specialized state before their bits are compared.
    """
    for _ in range(WARM_UP_CALLS):
        call(step_fn, *args, **kwargs)
    return call(step_fn, *args, **kwargs)


class TestExplicitMatchesReference:
    """explicit_step reproduces the fractional-power form (tests/oracles.py),
    whose 0 branch it drops, bit for bit."""

    @given(st.one_of(edge_floats, st.floats()), st.one_of(edge_floats, st.floats()),
           st.one_of(edge_floats, st.floats()), step_sizes, gain_sets)
    @settings(max_examples=500)
    # u = u1 + eta adds two NaNs: payload 1 in eta, the default one in u1
    @example(z1=-math.nan, z2=0.0, eta=struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0],
             h=1.0, g=PAPER)
    def test_equal_bits(self, z1, z2, eta, h, g):
        got = _specialized_call(explicit_step, z1, z2, eta=eta, g=g, h=h)
        want = _specialized_call(reference_explicit_step, z1, z2, eta=eta, g=g, h=h)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]


class TestOnePassMatchesReference:
    """implicit_step reproduces the two-stage form (tests/oracles.py) bit
    for bit, and raises wherever it raises."""

    @given(mixed_floats, mixed_floats, mixed_floats, state_floats, state_floats,
           mixed_floats, mixed_floats, step_indices, step_sizes, gain_sets)
    @settings(max_examples=500)
    # stage II's ztilde2 is z2 + h*u1; reusing the clamped h*u1 from before
    # the division by h (z2 + hu1) changes eta_next on this input
    @example(z1=0.0, z2=5.7e-08, eta=0.0, zb1=1.0, zb2=1.0, u1p=0.0, dlt=0.0,
             k=0, h=0.001, g=PAPER)
    def test_equal_floats(self, z1, z2, eta, zb1, zb2, u1p, dlt, k, h, g):
        args = (k, z1, z2, zb1, zb2, eta, u1p, dlt, g, h)
        got = implicit_step(*args)
        want = reference_implicit_step(*args)
        assert got == want
        assert _bits(got) == _bits(want)

    @given(st.sampled_from(["zb1", "zb2", "z2", "z1", "eta", "u1_prev", "d_prev"]),
           state_floats, state_floats, state_floats, state_floats, step_indices)
    @settings(max_examples=300)
    def test_nan_rejected_where_reference_rejects(self, field, z1, z2, zb1, zb2, k):
        args = dict(z1=z1, z2=z2, zb1=zb1, zb2=zb2, eta=0.5, u1_prev=1.0, d_prev=-2.0)
        args[field] = math.nan
        try:
            want = call(reference_implicit_step, k=k, **args)
        except ValueError:
            with pytest.raises(ValueError):
                call(implicit_step, k=k, **args)
        else:
            assert _bits(call(implicit_step, k=k, **args)) == _bits(want)

    def test_nan_magnitudes_and_measurement_rejected(self):
        for memory, z2 in ((dict(zb1=math.nan), 1.0),
                           (dict(zb2=math.nan), 1.0),
                           (dict(), math.nan)):
            for fn in (reference_implicit_step, implicit_step):
                with pytest.raises(ValueError):
                    call(fn, 1.0, z2, **memory)

    def test_paper_implicit_trace(self, monkeypatch):
        cfg = get_preset("paper-implicit").cfg
        fused = run_simulation(cfg)
        monkeypatch.setattr(plant, "implicit_step", reference_implicit_step)
        staged = run_simulation(cfg)
        assert staged.n == fused.n == cfg.steps + 1
        for c in TRACE_COLUMNS:
            assert [v.hex() for v in getattr(staged, c)] == \
                [v.hex() for v in getattr(fused, c)], c


GAIN_SCALES = (1, 10, 100)


def _h_run(h: float):
    """The paper-implicit trace at step h."""
    return run_preset("paper-implicit", {"h": h})[0]


def _read_back(tmp_path):
    """The paper-implicit trace, written as CSV and read back."""
    path = str(tmp_path / "trace.csv")
    trace = _scaled_run("implicit", 1)[0]
    write_trace_csv(trace, path)
    return read_trace_csv(path, trace.L)


@cache
def _scaled_run(method: str, scale: int):
    """run_preset of the paper preset of ``method`` with kp1..kp4 times
    ``scale``: (trace, summary)."""
    preset = f"paper-{method}"
    g = get_preset(preset).cfg.gains
    return run_preset(preset, {k: scale * getattr(g, k) for k in ("kp1", "kp2", "kp3", "kp4")})


class TestImplicitSteadyState:
    @pytest.mark.parametrize("scale", GAIN_SCALES)
    def test_envelope_constants_from_the_disturbance_curvature(self, scale):
        # With both implicit clamps inactive in the steady window, stage II
        # cancels delta up to the error of its linear forecast, about
        # h**2 * delta''.  Then |z3| ~ h**2|delta''|, |z2| ~ h**3|delta''| and
        # |z1| reaches 2*h**4|delta''|, so the envelope constants over the
        # orders (4, 3, 2) are (2, 1, 1) * max|delta''| / L, with delta''
        # taken over the window's rows (max |delta''| = 3.3569350...).  The
        # gains drop out: at gains x1, x10 and x100 the constants are within
        # 3.04e-6, 1.60e-5 and 8.9e-7 of the prediction, sup|x| is within
        # 2.1e-9 of x1's, and TV(u) is 1.16 over 14 sign flips.
        cfg = get_preset("paper-implicit").cfg
        trace, summary = _scaled_run("implicit", scale)
        lo, hi = steady_window(cfg)
        curvature = max(abs(disturbance_second_derivative(cfg.disturbance, t))
                        for t in trace.t if lo <= t <= hi)
        assert curvature == pytest.approx(3.356935, rel=1e-6)
        predicted = [c * curvature / cfg.gains.L for c in (2.0, 1.0, 1.0)]
        assert summary["v_constants"] == pytest.approx(predicted, rel=2e-5)
        _, unscaled = _scaled_run("implicit", 1)
        assert summary["sup_abs_x"] == pytest.approx(unscaled["sup_abs_x"], rel=1e-8)
        assert summary["tv_u"] == pytest.approx(unscaled["tv_u"], rel=1e-8)
        assert summary["sign_flips"] == unscaled["sign_flips"] == 14

    def test_startup_peak_and_explicit_chatter_grow_with_the_gains(self):
        # Where "totally suppresses" ends: at gains x1, x10 and x100 the
        # implicit start-up peak |u| (t <= 0.1) grows, though more slowly
        # than the gains (x9.5, then x2.7), and the explicit TV(u) grows
        # faster (x52, then x170).
        peaks = [max(abs(u) for t, u in zip(trace.t, trace.u) if t <= 0.1)
                 for trace, _ in (_scaled_run("implicit", s) for s in GAIN_SCALES)]
        tvs = [_scaled_run("explicit", s)[1]["tv_u"] for s in GAIN_SCALES]
        assert peaks == pytest.approx([3.07e5, 2.93e6, 7.99e6], rel=5e-3)
        assert tvs == pytest.approx([6.26e3, 3.24e5, 5.49e7], rel=5e-3)

    @pytest.mark.parametrize("trace_of, onset", [
        (lambda _: _h_run(1e-3), 898),
        (lambda _: _h_run(5e-4), 1768),
        (lambda _: _h_run(2e-4), 4354),
        (lambda _: _h_run(1e-2), 96),
        (lambda _: _scaled_run("implicit", 10)[0], 96),
        (lambda _: _scaled_run("implicit", 100)[0], 16),
        (_read_back, 898),
    ], ids=["h=1e-3", "h=5e-4", "h=2e-4", "h=1e-2", "gains-x10", "gains-x100", "csv-read-back"])
    def test_steady_rows_obey_the_deadbeat_identity(self, trace_of, onset, tmp_path):
        # Once both implicit clamps stay inactive, z3 is the linear
        # forecast's error, e_k = delta_k - 2*delta_{k-1} + delta_{k-2}, and
        # z1, z2 follow from e row by row (oracles.deadbeat_rows, which
        # derives the rounding bound).  The identity holds from the pinned
        # row to the end of the run, and the row before it fails.
        report = deadbeat_rows(trace_of(tmp_path))
        assert report.onset == onset
        assert all(map(operator.le, report.worst, DEADBEAT_BOUND)), report
        assert not all(map(operator.le, report.before, DEADBEAT_BOUND)), report
