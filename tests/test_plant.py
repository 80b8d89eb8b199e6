import math
import struct
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctasim.cli import PAPER_DISTURBANCE, PAPER_GAINS, get_preset
from ctasim.controller import Gains, implicit_step
from ctasim.plant import (
    MAX_STEPS,
    Disturbance,
    SimConfig,
    SimulationDiverged,
    SimTrace,
    Sinusoid,
    TRACE_COLUMNS,
    eval_disturbance,
    plant_step,
    run_simulation,
    write_trace_csv,
)
from oracles import disturbance, row

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
sinusoids = st.builds(Sinusoid, finite, st.floats(min_value=-1e3, max_value=1e3),
                      st.sampled_from(("sin", "cos")))


class TestDisturbance:
    def test_benchmark_value_at_zero(self):
        assert eval_disturbance(PAPER_DISTURBANCE, 0.0) == pytest.approx(35.6, abs=1e-12)

    def test_zero_signal(self):
        assert eval_disturbance(Disturbance(), 17.3) == 0.0

    def test_single_sin_derivative_at_zero(self):
        # the sampled signal starts at 0 with slope amplitude*omega
        d = Disturbance(sinusoids=(Sinusoid(0.4, math.sqrt(10.0), "sin"),))
        eps = 1e-6
        assert eval_disturbance(d, 0.0) == 0.0
        slope = (eval_disturbance(d, eps) - eval_disturbance(d, -eps)) / (2.0 * eps)
        assert slope == pytest.approx(0.4 * math.sqrt(10.0), rel=1e-9)

    @pytest.mark.parametrize("t", [0.0, 0.37, 1.0, 2.5, 9.99])
    def test_derivative_matches_finite_difference(self, t):
        # independent oracle: the benchmark signal 35 + 0.6*cos(2t) +
        # 0.4*sin(sqrt(10)*t) differentiated by hand, against a central
        # difference of the evaluated samples
        w = math.sqrt(10.0)
        dd = -1.2 * math.sin(2.0 * t) + 0.4 * w * math.cos(w * t)
        eps = 1e-6
        lo = eval_disturbance(PAPER_DISTURBANCE, t - eps)
        hi = eval_disturbance(PAPER_DISTURBANCE, t + eps)
        assert dd == pytest.approx((hi - lo) / (2.0 * eps), abs=1e-5)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            Sinusoid(1.0, 1.0, "tan")

    @given(finite, st.lists(sinusoids, max_size=4), st.floats(min_value=-1e4, max_value=1e4))
    @settings(max_examples=200)
    def test_matches_term_by_term_oracle(self, constant, terms, t):
        d = Disturbance(constant, tuple(terms))
        assert _bits([eval_disturbance(d, t)]) == _bits([disturbance(d, t)])

    def test_replace_evaluates_the_new_terms(self):
        d = Disturbance(1.0, (Sinusoid(0.5, 2.0),))
        terms = (Sinusoid(0.25, 3.0, "cos"), Sinusoid(2.0, 0.5))
        by_terms, by_constant = d.replace(sinusoids=terms), d.replace(constant=-4.0)
        assert eval_disturbance(by_terms, 0.0) == 1.25
        assert eval_disturbance(by_constant, 0.0) == -4.0
        for new in (d, by_terms, by_constant):
            for t in (0.0, 0.3, 1.7, -2.5):
                assert _bits([eval_disturbance(new, t)]) == _bits([disturbance(new, t)])

    def test_any_sequence_of_sinusoids_is_stored_as_a_tuple(self):
        terms = [Sinusoid(0.5, 2.0), Sinusoid(0.1, 3.0, "cos")]
        listed, tupled = Disturbance(1.0, terms), Disturbance(1.0, tuple(terms))
        assert type(listed.sinusoids) is tuple and listed.sinusoids == tuple(terms)
        assert listed == tupled and hash(listed) == hash(tupled)
        assert hash(Disturbance(1.0, [Sinusoid(0.5, 2.0)])) == hash(
            Disturbance(1.0, (Sinusoid(0.5, 2.0),)))
        # the resolved terms are not a field
        assert Disturbance._fields == ("constant", "sinusoids")
        assert repr(Disturbance(1.0, [Sinusoid(0.5, 2.0)])) == (
            "Disturbance(constant=1.0, sinusoids=(Sinusoid(amplitude=0.5, omega=2.0, "
            "kind='sin'),))")

    @pytest.mark.parametrize("terms, message", [
        (((0.5, 2.0),), "sinusoids[0] must be a Sinusoid, got (0.5, 2.0)"),
        ([Sinusoid(0.5, 2.0), "cos"], "sinusoids[1] must be a Sinusoid, got 'cos'"),
    ])
    def test_rejects_a_term_that_is_not_a_sinusoid(self, terms, message):
        with pytest.raises(ValueError) as exc:
            Disturbance(1.0, terms)
        assert str(exc.value) == message


class TestPlantStep:
    def test_benchmark_initial_state(self):
        z1, z2 = plant_step(8.0, -12.0, 0.0, 35.0, 0.001)
        assert z1 == pytest.approx(7.988, abs=1e-15)
        assert z2 == pytest.approx(-11.965, abs=1e-15)

    def test_equilibrium(self):
        assert plant_step(0.0, 0.0, 0.0, 0.0, 0.001) == (0.0, 0.0)

    def test_input_cancels_disturbance(self):
        assert plant_step(1.0, 0.0, -1.0, 1.0, 1.0) == (1.0, 0.0)


def _cfg(**kw):
    base = dict(
        h=0.001,
        t_final=1.0,
        method="implicit",
        gains=PAPER_GAINS,
        z1_0=0.0,
        z2_0=0.0,
        eta_0=0.0,
        disturbance=Disturbance(),
    )
    base.update(kw)
    return SimConfig(**base)


class TestRunSimulation:
    def test_zero_everything_stays_zero(self):
        for method in ("explicit", "implicit"):
            trace = run_simulation(_cfg(method=method))
            assert trace.n == 1001
            assert all(v == 0.0 for v in trace.z1)
            assert all(v == 0.0 for v in trace.z2)
            assert all(v == 0.0 for v in trace.u)
            assert all(v == 0.0 for v in trace.eta)

    def test_time_column_is_exact_grid(self):
        trace = run_simulation(_cfg(t_final=0.25))
        assert trace.n == 251
        for k, t in enumerate(trace.t):
            assert t == k * 0.001
        # every row of both benchmark presets, the final one included
        for preset in ("paper-explicit", "paper-implicit"):
            cfg = get_preset(preset).cfg
            trace = run_simulation(cfg)
            assert trace.n == cfg.steps + 1 == 10_001
            assert _bits(trace.t) == _bits(k * cfg.h for k in range(trace.n))

    def test_trace_arithmetic(self):
        trace = run_simulation(
            _cfg(z1_0=8.0, z2_0=-12.0, disturbance=PAPER_DISTURBANCE, t_final=0.5)
        )
        L = PAPER_GAINS.L
        x1 = trace.x1
        for i in range(trace.n):
            # x is z/L exactly; the round trip is within one ulp of z
            assert x1[i] == trace.z1[i] / L
            assert abs(x1[i] * L - trace.z1[i]) <= math.ulp(abs(trace.z1[i]) + 1e-300)
            assert trace.z3[i] == trace.eta[i] + trace.delta[i]

    def test_reproducible(self):
        cfg = _cfg(z1_0=8.0, z2_0=-12.0, disturbance=PAPER_DISTURBANCE, t_final=0.5)
        a = run_simulation(cfg)
        b = run_simulation(cfg)
        assert row(a, 0) == row(b, 0)
        assert all(row(a, i) == row(b, i) for i in range(a.n))

    def test_controller_never_sees_disturbance(self):
        # replaying the recorded measurements through a fresh controller
        # reproduces the input column exactly
        cfg = _cfg(z1_0=8.0, z2_0=-12.0, disturbance=PAPER_DISTURBANCE, t_final=0.3)
        trace = run_simulation(cfg)
        zb1, zb2, eta, u1, d_est = cfg.z1_0, cfg.z2_0, cfg.eta_0, 0.0, 0.0
        for k in range(trace.n - 1):
            z1, z2 = trace.z1[k], trace.z2[k]
            u, u1, eta, d_est = implicit_step(k, z1, z2, zb1, zb2, eta, u1, d_est,
                                              cfg.gains, cfg.h)
            zb1, zb2 = z1, z2
            assert u == trace.u[k]

    def test_first_input_is_disturbance_independent(self):
        strong = _cfg(z1_0=8.0, z2_0=-12.0, disturbance=PAPER_DISTURBANCE, t_final=0.01)
        none = _cfg(z1_0=8.0, z2_0=-12.0, disturbance=Disturbance(), t_final=0.01)
        assert run_simulation(strong).u[0] == run_simulation(none).u[0]

    def test_divergence_reports_step(self):
        cfg = _cfg(z1_0=2e12, z2_0=0.0, t_final=0.1)
        with pytest.raises(SimulationDiverged) as err:
            run_simulation(cfg)
        assert err.value.step == 0

    def test_nonfinite_plant_aborts_with_step(self):
        cfg = _cfg(z1_0=1e300, z2_0=1e300, method="explicit", t_final=0.1)
        with pytest.raises(SimulationDiverged):
            run_simulation(cfg)

    @pytest.mark.parametrize("method", ["explicit", "implicit"])
    def test_nan_state_diverges_at_its_step(self, nan_plant_from_step_3, method):
        # A NaN state fails every comparison, so a `>` limit test would let
        # it through; the loop must still stop at the step that made it.
        with pytest.raises(SimulationDiverged) as err:
            run_simulation(_cfg(method=method, t_final=0.1))
        assert err.value.step == 3
        assert "(z1=nan, z2=0, eta=0)" in str(err.value)


class TestSimConfig:
    def test_step_count_rounds(self):
        assert _cfg(t_final=10.0).steps == 10000
        with pytest.raises(ValueError, match="^t_final must be a whole number of steps"):
            _cfg(h=0.3, t_final=1.0)

    @pytest.mark.parametrize("h, t_final, message", [
        (0.7, 1.0, "t_final must be a whole number of steps"),
        (1.0, 1.5, "t_final must be a whole number of steps"),
        (2.0, 1.0, "t_final must span at least one step"),
        (1e-9, 1.0, "h must give at most 10000000 steps"),
        (5e-324, 1.0, "h must give at most 10000000 steps"),
    ])
    def test_step_grid_rejected(self, h, t_final, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            _cfg(h=h, t_final=t_final)

    def test_step_cap(self):
        # Checked on the config alone: nothing this large is ever run.
        assert _cfg(h=1.0 / MAX_STEPS, t_final=1.0).steps == MAX_STEPS
        with pytest.raises(ValueError, match="^h must give at most"):
            _cfg(h=1.0 / (MAX_STEPS + 1), t_final=1.0)
        assert _cfg(h=1.0, t_final=1.0).steps == 1
        assert _cfg(h=0.1, t_final=0.3).steps == 3  # 0.3/0.1 = 2.9999999999999996

    @pytest.mark.parametrize("gains, message", [
        (Gains(1e308, 1e308, 2e307, 1e307, L=5.0), r"gains kp1=1e\+308, kp2=1e\+308 overflow"),
        (Gains(1.0, 1.0, 1.5e308, 1e308, L=5.0), r"gains kp3=1.5e\+308, kp4=1e\+308 overflow"),
        (Gains(1.0, 1.0, 2.0, 1.0, L=1e-320), "L must be large enough"),
    ])
    def test_overflowing_gains_rejected(self, gains, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            _cfg(gains=gains)

    def test_validation(self):
        with pytest.raises(ValueError):
            _cfg(h=0.0)
        with pytest.raises(ValueError):
            _cfg(t_final=-1.0)
        with pytest.raises(ValueError):
            _cfg(method="midpoint")

    @pytest.mark.parametrize("field", ["h", "t_final", "z1_0", "z2_0", "eta_0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            _cfg(**{field: value})

    def test_overflowing_phase_rejected_by_omega(self):
        # sin(1e308 * 2.0) would be a bare "math domain error" at run time.
        dist = Disturbance(sinusoids=(Sinusoid(1.0, 1e308, "sin"),))
        with pytest.raises(ValueError, match=r"^omega must keep the phase omega\*t finite "
                                             r"up to t=2\.0, got 1e\+308$"):
            _cfg(h=1.0, t_final=2.0, disturbance=dist)
        assert _cfg(h=1.0, t_final=1.0, disturbance=dist).steps == 1


class TestRecords:
    """Configs are read-only values: replace() re-checks, == and hash go by field."""

    @pytest.mark.parametrize("record, change", [
        (_cfg(), {"h": math.nan}),
        (_cfg(), {"method": "midpoint"}),
        (PAPER_GAINS, {"kp3": 1.0}),
        (Disturbance(), {"constant": math.inf}),
        (Sinusoid(1.0, 2.0), {"kind": "tan"}),
    ])
    def test_replace_runs_the_constructor_checks(self, record, change):
        fields = {name: getattr(record, name) for name in record._fields}
        with pytest.raises(ValueError) as built:
            type(record)(**{**fields, **change})
        with pytest.raises(ValueError) as replaced:
            record.replace(**change)
        assert str(replaced.value) == str(built.value)
        assert "\n" not in str(replaced.value)

    def test_replace_keeps_unchanged_fields(self):
        cfg = _cfg(z1_0=8.0, disturbance=PAPER_DISTURBANCE)
        assert cfg.replace(h=0.002) == _cfg(h=0.002, z1_0=8.0, disturbance=PAPER_DISTURBANCE)
        assert PAPER_GAINS.replace(L=2.0).kp1 == PAPER_GAINS.kp1
        with pytest.raises(TypeError):
            cfg.replace(stepsize=0.1)

    def test_equal_records_compare_and_hash_equal(self):
        a = _cfg(disturbance=Disturbance(35.0, (Sinusoid(0.6, 2.0, "cos"),)))
        b = _cfg(disturbance=Disturbance(35.0, (Sinusoid(0.6, 2.0, "cos"),)))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != a.replace(z1_0=1.0)
        assert Gains(1.0, 1.0, 2.0, 1.0) != Gains(1.0, 1.0, 2.0, 1.0, L=2.0)
        assert Sinusoid(1.0, 2.0) != (1.0, 2.0, "sin")
        assert repr(Sinusoid(1.0, 2.0)) == "Sinusoid(amplitude=1.0, omega=2.0, kind='sin')"

    def test_fields_are_read_only(self):
        # Every preset shares PAPER_GAINS: a write would move the goldens.
        with pytest.raises(AttributeError, match="read-only"):
            PAPER_GAINS.kp1 = 1.0
        with pytest.raises(AttributeError, match="read-only"):
            del PAPER_GAINS.L
        with pytest.raises(AttributeError, match="read-only"):
            _cfg().h = 0.5
        assert PAPER_GAINS == Gains(kp1=160.236, kp2=60.3738, kp3=28.5, kp4=15.0, L=5.0)


def _bits(values):
    return [struct.pack("<d", v) for v in values]


# A row as append takes it: t, z1, z2, u, u1, eta, delta.
_ROW = (0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0)


class TestSimTrace:
    """The trace packs each row as seven float64s; columns are read as copies
    or, with view(), in place."""

    EDGE = (-0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.1, 1e308)

    def _edge_trace(self):
        trace = SimTrace(L=3.0)
        for i in range(len(self.EDGE)):
            t, z1, z2, u, u1, eta, delta = (self.EDGE[(i + j) % len(self.EDGE)]
                                            for j in range(7))
            trace.append(t, z1, z2, u, u1, eta, delta)
        return trace

    def test_edge_values_survive_bit_for_bit(self):
        trace = self._edge_trace()
        stored = ("t", "z1", "z2", "u", "u1", "eta", "delta")
        for i in range(trace.n):
            expected = [self.EDGE[(i + j) % len(self.EDGE)] for j in range(7)]
            values = dict(zip(TRACE_COLUMNS, row(trace, i)))
            assert _bits(values[c] for c in stored) == _bits(expected)
            assert _bits([values["z3"]]) == _bits([values["eta"] + values["delta"]])
            assert _bits(values[c] for c in ("x1", "x2", "x3")) == \
                _bits(values[c] / 3.0 for c in ("z1", "z2", "z3"))
        for j, name in enumerate(stored):
            assert _bits(getattr(trace, name)) == \
                _bits(self.EDGE[(i + j) % len(self.EDGE)] for i in range(trace.n))
        for name in ("x1", "x2", "x3"):
            assert _bits(getattr(trace, name)) == \
                _bits(z / 3.0 for z in getattr(trace, "z" + name[1]))

    def test_column_read_is_a_copy(self):
        trace = self._edge_trace()
        before = [_bits(getattr(trace, c)) for c in TRACE_COLUMNS]
        for name in TRACE_COLUMNS:
            column = getattr(trace, name)
            column[0] = 42.0
            column.append(42.0)
        assert [_bits(getattr(trace, c)) for c in TRACE_COLUMNS] == before

    def test_append_while_a_column_is_held(self):
        trace = self._edge_trace()
        held = [getattr(trace, c) for c in TRACE_COLUMNS]
        n = trace.n
        trace.append(1.0, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0)
        assert trace.n == n + 1 and all(len(c) == n for c in held)
        assert row(trace, -1) == (1.0, 2.0, 3.0, 15.0, 2.0 / 3.0, 1.0, 15.0 / 3.0,
                                  5.0, 6.0, 7.0, 8.0)

    def test_view_reads_the_stored_column_in_place(self):
        trace = self._edge_trace()
        stored = ("t", "z1", "z2", "u", "u1", "eta", "delta")
        for name in stored:
            with trace.view(name) as view:
                assert view.readonly and _bits(view) == _bits(getattr(trace, name))
                with pytest.raises(BufferError):
                    trace.append(*_ROW)
        trace.append(*_ROW)
        with trace.view("eta") as view:
            assert view[-1] == 6.0 and len(view) == trace.n

    def test_row_indexes_like_a_list(self):
        trace = run_simulation(_cfg(z1_0=8.0, disturbance=PAPER_DISTURBANCE, t_final=0.01))
        n = trace.n
        assert row(trace, -1) == row(trace, n - 1)
        assert row(trace, -n) == row(trace, 0)
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                row(trace, i)
        columns = [getattr(trace, c) for c in TRACE_COLUMNS]
        assert [row(trace, i) for i in range(n)] == list(zip(*columns))

    @pytest.mark.parametrize("eta, delta", [(math.nan, 1.0), (1.0, math.nan),
                                            (math.inf, -math.inf)])
    def test_nan_eta_or_delta_reads_back_as_nan_z3(self, eta, delta, tmp_path):
        trace = SimTrace(L=5.0)
        trace.append(0.0, 1.0, 2.0, 4.0, 5.0, eta, delta)
        assert math.isnan(trace.z3[0]) and math.isnan(trace.x3[0])
        assert math.isnan(row(trace, 0)[3])
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        cells = path.read_text().splitlines()[1].split(",")
        assert (cells[3], cells[6]) == ("nan", "nan")

    def test_view_reads_rows_a_to_b_of_every_column(self):
        trace = self._edge_trace()
        for a, b in ((0, None), (2, 5), (3, 3), (0, trace.n)):
            for name in TRACE_COLUMNS:
                assert _bits(trace.view(name, a, b)) == _bits(getattr(trace, name)[a:b])
        trace.append(*_ROW)

    @pytest.mark.parametrize("name", ["z3", "x1", "x2", "x3"])
    def test_held_derived_view_blocks_append(self, name):
        trace = self._edge_trace()
        held = trace.view(name)
        with pytest.raises(BufferError):
            trace.append(*_ROW)
        del held
        trace.append(*_ROW)
        assert trace.n == len(self.EDGE) + 1

    @pytest.mark.parametrize("name", ["w", "x4", "Z3"])
    def test_view_of_an_unknown_column_names_the_columns(self, name):
        trace = self._edge_trace()
        with pytest.raises(ValueError, match=f"^'{name}' is not a trace column; the columns "
                                             f"are t, z1, z2, z3, x1, x2, x3, u, u1, eta, delta$"):
            trace.view(name)
        trace.append(*_ROW)

    def test_stores_56_bytes_per_row(self):
        trace = run_simulation(_cfg(t_final=0.01))
        for name in ("t", "z1", "z2", "u", "u1", "eta", "delta"):
            with trace.view(name) as view:
                assert view.strides == (56,) and len(view) == trace.n
                assert view.obj.itemsize * len(view.obj) == 56 * trace.n

    @pytest.mark.parametrize("method", ["explicit", "implicit"])
    def test_run_allocates_exactly_its_rows(self, method):
        cfg = get_preset(f"paper-{method}").cfg
        trace = run_simulation(cfg)
        assert trace.n == cfg.steps + 1
        assert sys.getsizeof(trace._rows) == sys.getsizeof(array("d")) + 56 * (cfg.steps + 1)

    def test_reads_stop_at_the_appended_rows(self):
        trace = SimTrace(L=3.0, rows=5)
        grown = SimTrace(L=3.0)
        for k in range(2):
            trace.append(*_ROW[:1], k + 1.0, *_ROW[2:])
            grown.append(*_ROW[:1], k + 1.0, *_ROW[2:])
        assert trace.n == 2
        for name in TRACE_COLUMNS:
            column = getattr(trace, name)
            assert len(column) == 2 and _bits(column) == _bits(getattr(grown, name))
            assert _bits(list(trace.view(name))) == _bits(column)
        assert [row(trace, i) for i in range(2)] == [row(grown, i) for i in range(2)]
        with pytest.raises(IndexError):
            row(trace, 2)

    def test_fills_its_rows_then_grows(self):
        trace = SimTrace(L=3.0, rows=2)
        trace.append(*_ROW)
        with trace.view("z1") as held:
            trace.append(*_ROW[:1], 8.0, *_ROW[2:])  # fills in place
            assert len(held) == 1 and trace.n == 2
            with pytest.raises(BufferError):  # growing would move the buffer
                trace.append(*_ROW)
        trace.append(*_ROW[:1], 9.0, *_ROW[2:])
        assert trace.n == 3 and list(trace.z1) == [1.0, 8.0, 9.0]

    @pytest.mark.parametrize("L", [0.0, -5.0, math.nan, math.inf])
    def test_rejects_scale_not_positive_and_finite(self, L):
        with pytest.raises(ValueError, match="^L must be positive and finite"):
            SimTrace(L=L)

    @pytest.mark.parametrize("rows", [-1, -3, 2.0, "3", None])
    def test_rejects_rows_not_a_non_negative_integer(self, rows):
        with pytest.raises(ValueError, match="^rows must be a non-negative integer, got "):
            SimTrace(L=3.0, rows=rows)

    def test_x_read_peaks_below_twice_its_result(self):
        trace = run_simulation(get_preset("paper-implicit").cfg)
        tracemalloc.start()
        try:
            x1 = trace.x1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(x1) == trace.n
        assert peak <= 2 * sys.getsizeof(x1)

    def test_paper_implicit_peak_memory_per_row(self):
        cfg = get_preset("paper-implicit").cfg
        tracemalloc.start()
        try:
            trace = run_simulation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n == cfg.steps + 1
        assert peak / trace.n <= 100.0
