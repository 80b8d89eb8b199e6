import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from ctasim.cli import get_preset, run_preset, summarize
from ctasim.metrics import (
    WindowMax,
    chatter_metrics,
    convergence_time,
    fit_loglog_slope,
    precision_envelope,
    state_settling_time,
)
from ctasim.plant import SimTrace, run_simulation
from oracles import (
    outcome,
    reference_chatter_metrics,
    reference_precision_envelope,
    reference_state_settling_time,
)


def make_trace(z1, z2=None, u=None, h=0.01, L=5.0, eta=None, delta=None):
    n = len(z1)
    z2 = z2 if z2 is not None else [0.0] * n
    u = u if u is not None else [0.0] * n
    eta = eta if eta is not None else [0.0] * n
    delta = delta if delta is not None else [0.0] * n
    trace = SimTrace(L=L)
    for k in range(n):
        trace.append(k * h, z1[k], z2[k], u[k], 0.0, eta[k], delta[k])
    return trace


class TestPrecisionEnvelope:
    def test_all_zero(self):
        trace = make_trace([0.0] * 101)
        rep = precision_envelope(trace, (0.0, 1.0), 0.01, (3.0, 2.0, 1.0))
        assert rep.sup_abs_x == (0.0, 0.0, 0.0)
        assert rep.v_constants == (0.0, 0.0, 0.0)

    def test_sup_and_constants(self):
        trace = make_trace([0.0, 5.0, -10.0, 2.0], h=1.0, L=5.0)
        rep = precision_envelope(trace, (0.0, 3.0), 0.5, (1.0, 2.0, 3.0))
        assert rep.sup_abs_x[0] == 2.0  # |x1| = |z1|/5
        assert rep.v_constants[0] == 4.0

    def test_window_monotonicity(self):
        z1 = [math.sin(3.7 * k) * (1.0 + 0.1 * k) for k in range(200)]
        trace = make_trace(z1)
        big = precision_envelope(trace, (0.0, 1.99), 0.01, (1.0, 1.0, 1.0))
        small = precision_envelope(trace, (0.5, 1.5), 0.01, (1.0, 1.0, 1.0))
        assert all(s <= b for s, b in zip(small.sup_abs_x, big.sup_abs_x))

    def test_empty_window_rejected(self):
        trace = make_trace([0.0] * 10)
        with pytest.raises(ValueError):
            precision_envelope(trace, (5.0, 6.0), 0.01, (1.0, 1.0, 1.0))

    def test_boundary_rows_included_despite_rounding(self):
        # 0.07*100 = 7.000000000000001 must still fall in [7.0, 10.0]
        h = 0.07
        trace = make_trace([1.0] * 201, h=h)
        idxs = [i for i, t in enumerate(trace.t) if 100 <= i <= 143]
        rep = precision_envelope(trace, (100 * h, 143 * h), h, (1.0, 1.0, 1.0))
        assert rep.sup_abs_x[0] == pytest.approx(1.0 / 5.0)
        assert len(idxs) == 44

    @pytest.mark.parametrize("h", [0.0, -0.001, math.nan])
    def test_nonpositive_step_rejected(self, h):
        trace = make_trace([0.0] * 10)
        with pytest.raises(ValueError) as info:
            precision_envelope(trace, (0.0, 0.09), h, (1.0, 1.0, 1.0))
        assert str(info.value) == f"h must be positive, got {h!r}"


class TestWindowMax:
    @pytest.mark.parametrize("L, window, h, message", [
        (0.0, (0.0, 1.0), 0.1, "L must be positive and finite, got 0.0"),
        (-5.0, (0.0, 1.0), 0.1, "L must be positive and finite, got -5.0"),
        (math.nan, (0.0, 1.0), 0.1, "L must be positive and finite, got nan"),
        (math.inf, (0.0, 1.0), 0.1, "L must be positive and finite, got inf"),
        (5.0, (0.0, 1.0), -0.1, "h must be finite and >= 0, got -0.1"),
        (5.0, (0.0, 1.0), math.nan, "h must be finite and >= 0, got nan"),
        (5.0, (0.0, 1.0), math.inf, "h must be finite and >= 0, got inf"),
        (5.0, (1.0, 0.5), 0.1, "window (1.0, 0.5) selects no trace records"),
        (5.0, (math.nan, 1.0), 0.1, "window (nan, 1.0) selects no trace records"),
    ], ids=["L-zero", "L-negative", "L-nan", "L-inf", "h-negative", "h-nan", "h-inf",
            "reversed", "nan-start"])
    def test_rejects_bad_arguments_before_any_row(self, L, window, h, message):
        with pytest.raises(ValueError) as info:
            WindowMax(L, window, h)
        assert str(info.value) == message

    def test_a_single_row_needs_no_step(self):
        sink = WindowMax(5.0, (0.0, 0.0), 0.0)
        sink.append(0.0, 1.0, -2.0, 0.0, 0.0, 3.0, 2.0)
        assert sink.sup_abs_x == (0.2, 0.4, 1.0)


class TestFitLoglogSlope:
    def test_step_sizes_sharing_one_log_fit_no_slope(self):
        hs = [1e-3, 0.0010000000000000002, 0.0010000000000000004]
        assert len(set(hs)) == 3 and len({math.log(h) for h in hs}) == 1
        assert fit_loglog_slope(hs, [1.0, 2.0, 3.0]) is None
        assert fit_loglog_slope([*hs, 2e-3], [1.0, 2.0, 3.0, 4.0]) is not None


class TestConvergenceTime:
    def test_all_zero_trace(self):
        trace = make_trace([0.0] * 50)
        assert convergence_time(trace, 0.01) == 0.0

    def test_diverging_ramp(self):
        trace = make_trace([0.1 * k for k in range(50)])
        assert convergence_time(trace, 0.01) == math.inf

    def test_decaying_signal(self):
        z1 = [1.0 / (k + 1) for k in range(100)]
        trace = make_trace(z1, h=1.0)
        # |z1| < 0.05 from k = 20 onwards (1/21 < 0.05)
        assert convergence_time(trace, 0.05) == 20.0

    def test_uses_both_states(self):
        z1 = [0.0] * 40
        z2 = [0.0] * 40
        z2[30] = 1.0
        trace = make_trace(z1, z2=z2, h=1.0)
        assert convergence_time(trace, 0.5) == 31.0

    def test_monotone_in_threshold(self):
        z1 = [math.exp(-0.1 * k) for k in range(200)]
        trace = make_trace(z1, h=1.0)
        times = [convergence_time(trace, thr) for thr in (0.01, 0.05, 0.2, 0.9)]
        assert times == sorted(times, reverse=True)

    def test_z3_is_ignored_at_any_size(self):
        trace = make_trace([0.0] * 10, eta=[1e308] * 10)
        assert convergence_time(trace, 0.01) == 0.0

    def test_threshold_validation(self):
        trace = make_trace([0.0] * 5)
        with pytest.raises(ValueError):
            convergence_time(trace, 0.0)


class TestStateSettlingTime:
    def test_late_z3_excursion_sets_time(self):
        z3 = [0.0] * 40
        z3[30] = 1.0
        trace = make_trace([0.0] * 40, eta=z3, h=1.0)
        assert convergence_time(trace, 0.5) == 0.0
        assert state_settling_time(trace, (0.5, 0.5, 0.5)) == 31.0

    def test_each_band_applies_to_its_own_state(self):
        n = 40
        z1, z2, z3 = [0.0] * n, [0.0] * n, [0.0] * n
        z1[10], z2[20], z3[30] = 0.3, 0.3, 0.3
        trace = make_trace(z1, z2=z2, eta=z3, h=1.0)
        assert state_settling_time(trace, (0.2, 0.2, 0.2)) == 31.0
        assert state_settling_time(trace, (0.2, 0.2, 0.4)) == 21.0
        assert state_settling_time(trace, (0.2, 0.4, 0.4)) == 11.0
        assert state_settling_time(trace, (0.4, 0.4, 0.4)) == 0.0
        assert state_settling_time(trace, (0.4, 0.4, 0.2)) == 31.0

    def test_final_violation_is_inf(self):
        z3 = [0.0] * 20
        z3[-1] = 1.0
        trace = make_trace([0.0] * 20, eta=z3)
        assert state_settling_time(trace, (0.5, 0.5, 0.5)) == math.inf

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("pos", [0, 1, 2])
    def test_band_validation(self, bad, pos):
        trace = make_trace([0.0] * 5)
        bands = [0.1, 0.1, 0.1]
        bands[pos] = bad
        with pytest.raises(ValueError):
            state_settling_time(trace, tuple(bands))

    def test_matches_convergence_time_when_z3_is_zero(self):
        z1 = [math.exp(-0.1 * k) * math.cos(k) for k in range(200)]
        z2 = [math.exp(-0.05 * k) * math.sin(2 * k) for k in range(200)]
        trace = make_trace(z1, z2=z2, h=0.5)
        for thr in (0.01, 0.05, 0.2, 0.9):
            assert state_settling_time(trace, (thr, thr, thr)) == convergence_time(trace, thr)


class TestChatterMetrics:
    def test_constant_input(self):
        trace = make_trace([0.0] * 60, u=[3.5] * 60)
        rep = chatter_metrics(trace, (0.0, 0.59))
        assert rep.total_variation_u == 0.0
        assert rep.sign_flips_u_delta == 0

    def test_alternating_input(self):
        n = 50
        u = [1.0 if k % 2 == 0 else -1.0 for k in range(n)]
        trace = make_trace([0.0] * n, u=u, h=1.0)
        rep = chatter_metrics(trace, (0.0, float(n - 1)))
        assert rep.total_variation_u == 2.0 * (n - 1)
        assert rep.sign_flips_u_delta == n - 2

    def test_scale_covariance(self):
        u = [math.sin(2.2 * k) for k in range(80)]
        t1 = make_trace([0.0] * 80, u=u, h=1.0)
        t2 = make_trace([0.0] * 80, u=[4.0 * v for v in u], h=1.0)
        r1 = chatter_metrics(t1, (0.0, 79.0))
        r2 = chatter_metrics(t2, (0.0, 79.0))
        assert r2.total_variation_u == pytest.approx(4.0 * r1.total_variation_u, rel=1e-12)
        assert r2.sign_flips_u_delta == r1.sign_flips_u_delta

    def test_empty_window_rejected(self):
        trace = make_trace([0.0] * 10)
        with pytest.raises(ValueError):
            chatter_metrics(trace, (99.0, 100.0))

    def test_total_variation_is_a_left_to_right_sum(self):
        # |increments| 2**53, 1, 1: left to right 2**53 + 1 rounds back to
        # 2**53, twice; a compensated sum (sum() from Python 3.12) gives 2**53 + 2.
        trace = make_trace([0.0] * 4, u=[2.0**53, 0.0, 1.0, 0.0])
        assert chatter_metrics(trace, (0.0, 0.03)).total_variation_u == 9007199254740992.0

    def test_one_row_window_is_float(self):
        # The window (0.0008, 0.001) holds the last row only: no increments.
        summary = run_preset("zero", {"t_final": 0.001, "h": 0.001})[1]
        assert summary["window"] == [0.0008, 0.001]
        assert type(summary["tv_u"]) is float and summary["tv_u"] == 0.0


@st.composite
def increasing_traces(draw):
    """1..300 rows at t = k*h, the only times a trace holds, with arbitrary
    floats (signed zeros, NaN, infinities) in the states and u.
    z3 = eta + delta is eta itself: delta = -0.0 is the one addend that
    keeps every float, -0.0 and NaN payloads included."""
    n = draw(st.integers(1, 300))
    h = draw(st.floats(1e-6, 1e3))
    ts = [k * h for k in range(n)]
    values = st.lists(st.floats(), min_size=len(ts), max_size=len(ts))
    z1, z2, eta, u = (draw(values) for _ in range(4))
    trace = SimTrace(L=draw(st.floats(1e-3, 1e3)))
    for t, z1_k, z2_k, eta_k, u_k in zip(ts, z1, z2, eta, u):
        trace.append(t, z1_k, z2_k, u_k, 0.0, eta_k, -0.0)
    return trace, ts


@st.composite
def window_bounds(draw, ts):
    """A time on or near a row: exactly at it, an ulp off, at the grid
    tolerance (and an ulp past it), between two rows, or outside the trace."""
    tol = (ts[1] - ts[0]) * 1e-6 if len(ts) >= 2 else 0.0
    i = draw(st.integers(0, len(ts) - 1))
    t = ts[i]
    return draw(st.sampled_from([
        t,
        math.nextafter(t, -math.inf),
        math.nextafter(t, math.inf),
        t - tol,
        t + tol,
        math.nextafter(t - tol, -math.inf),
        math.nextafter(t + tol, math.inf),
        (t + ts[i + 1]) / 2 if i + 1 < len(ts) else t + 1.0,
        ts[0] - 1.0 - abs(ts[0]),
        ts[-1] + 1.0 + abs(ts[-1]),
    ]))


class TestMatchesRowByRowReference:
    """The in-place metrics and WindowMax equal the row-by-row forms
    (tests/oracles.py) bit for bit, or raise the same ValueError."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_window_metrics(self, data):
        """One drawn trace per example for every metric path: the window
        metrics, WindowMax, state_settling_time and convergence_time."""
        trace, ts = data.draw(increasing_traces())
        window = (data.draw(window_bounds(ts)), data.draw(window_bounds(ts)))
        h = data.draw(st.floats(1e-320, 1e300))
        orders = data.draw(st.tuples(*[st.floats(0.5, 5.0)] * 3))
        # Bands equal to a stored |z| tell < from <=.
        on_a_value = st.sampled_from([abs(z) for c in (trace.z1, trace.z2, trace.z3) for z in c])
        band = (st.floats(0.0, exclude_min=True) | on_a_value
                | st.sampled_from([0.0, -1.0, math.nan]))
        bands = data.draw(st.tuples(band, band, band))

        assert outcome(precision_envelope, trace, window, h, orders) == \
            outcome(reference_precision_envelope, trace, window, h, orders)
        assert outcome(chatter_metrics, trace, window) == \
            outcome(reference_chatter_metrics, trace, window)

        def window_max():
            """WindowMax fed the rows one at a time, as a run feeds it."""
            sink = WindowMax(trace.L, window, ts[1] - ts[0] if len(ts) >= 2 else 0.0)
            for r in zip(*(getattr(trace, c) for c in ("t", "z1", "z2", "u", "u1", "eta", "delta"))):
                sink.append(*r)
            return sink.sup_abs_x

        assert outcome(window_max) == outcome(
            lambda: reference_precision_envelope(trace, window, 1.0, (1.0, 1.0, 1.0)).sup_abs_x)
        assert outcome(state_settling_time, trace, bands) == \
            outcome(reference_state_settling_time, trace, bands)
        threshold = bands[0]
        if threshold > 0.0:  # else convergence_time raises its own message
            assert outcome(convergence_time, trace, threshold) == outcome(
                reference_state_settling_time, trace, (threshold, threshold, math.inf))


# A row's stored values as append takes them after t: z1, z2, u, u1, eta, delta.
_ROW = (1.0, 2.0, 4.0, 5.0, 6.0, 7.0)


class TestReadsInPlace:
    """The metrics read the packed trace through views that none of them
    keeps: each returns, or raises, with the trace free to grow."""

    @pytest.mark.parametrize("metric", [
        lambda tr: precision_envelope(tr, (0.0, 0.5), 0.01, (1.0, 1.0, 1.0)),
        lambda tr: chatter_metrics(tr, (0.0, 0.5)),
        lambda tr: state_settling_time(tr, (0.1, 0.1, 0.1)),
        lambda tr: convergence_time(tr, 0.1),
    ], ids=["precision_envelope", "chatter_metrics", "state_settling_time",
            "convergence_time"])
    def test_append_after_metric_returns(self, metric):
        trace = make_trace([math.sin(k) for k in range(80)])
        metric(trace)
        trace.append(80 * 0.01, *_ROW)  # row 80 of make_trace's grid
        assert trace.n == 81

    @pytest.mark.parametrize("window", [(5.0, 6.0), (0.5, 0.4), (math.nan, 1.0), (0.0, math.nan)],
                             ids=["after-last", "reversed", "nan-start", "nan-end"])
    @pytest.mark.parametrize("metric", [
        lambda tr, w: precision_envelope(tr, w, 0.01, (1.0, 1.0, 1.0)),
        chatter_metrics,
    ], ids=["precision_envelope", "chatter_metrics"])
    def test_append_after_empty_window_error(self, metric, window):
        trace = make_trace([0.0] * 80)
        with pytest.raises(ValueError, match="selects no trace records") as info:
            metric(trace, window)
        # info still holds the exception, its traceback and their frames.
        assert info.value.__traceback__ is not None
        trace.append(80 * 0.01, *_ROW)  # row 80 of make_trace's grid
        assert trace.n == 81

    def test_summarize_copies_no_column(self):
        cfg = get_preset("paper-implicit").cfg
        trace = run_simulation(cfg)
        tracemalloc.start()
        try:
            summarize(trace, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One float64 column of the 10,001-row trace is 80 KB; the steady
        # window's 2,000 increments of u are 16 KB.
        assert peak <= 64 * 1024
