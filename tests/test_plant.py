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
from ctasim import plant
from ctasim.plant import (
    DIVERGENCE_LIMIT,
    MAX_STEPS,
    Disturbance,
    SimConfig,
    SimulationDiverged,
    SimTrace,
    Sinusoid,
    TRACE_COLUMNS,
    eval_disturbance,
    plant_step,
    read_trace_csv,
    run_simulation,
    write_trace_csv,
)
from oracles import disturbance, read_trace_csv_text, row

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
        (Sinusoid(0.5, 2.0), "sinusoids must be an iterable of Sinusoids, "
                             "got Sinusoid(amplitude=0.5, omega=2.0, kind='sin')"),
        (None, "sinusoids must be an iterable of Sinusoids, got None"),
        (3.0, "sinusoids must be an iterable of Sinusoids, got 3.0"),
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

    @pytest.mark.parametrize("state", ["z1", "z2", "eta"])
    def test_a_state_at_the_limit_runs_on(self, monkeypatch, state):
        # A state of exactly DIVERGENCE_LIMIT is within it; the next float up
        # diverges at step 0.  eta stays eta_0 with z = 0 (no sign to
        # integrate); z1 and z2 come from a plant that jumps to the value.
        for value, diverges in ((DIVERGENCE_LIMIT, False),
                                (math.nextafter(DIVERGENCE_LIMIT, math.inf), True)):
            cfg = _cfg(method="explicit", t_final=0.001)
            if state == "eta":
                cfg = cfg.replace(eta_0=value)
            else:
                jump = (value, 0.0) if state == "z1" else (0.0, value)
                monkeypatch.setattr(plant, "plant_step", lambda *args: jump)
            if diverges:
                with pytest.raises(SimulationDiverged) as err:
                    run_simulation(cfg)
                assert err.value.step == 0
            else:
                trace = run_simulation(cfg)
                assert trace.n == 2 and getattr(trace, state)[1] == value

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
        assert str(err.value) == ("simulation diverged at step 3 (t=0.003): |state| "
                                  "exceeded 1e+12 (z1=nan, z2=0, eta=0)")


class TestSimConfig:
    def test_step_count_rounds(self):
        assert _cfg(t_final=10.0).steps == 10000
        # t_final may miss steps*h by up to 1e-9 of t_final
        assert _cfg(t_final=10.0 + 5e-9).steps == 10000
        with pytest.raises(ValueError, match="^t_final must be a whole number of steps"):
            _cfg(t_final=10.0 + 2e-8)
        with pytest.raises(ValueError, match="^t_final must be a whole number of steps"):
            _cfg(h=0.3, t_final=1.0)

    @pytest.mark.parametrize("h, t_final, message", [
        (0.7, 1.0, "t_final must be a whole number of steps"),
        (1.0, 1.5, "t_final must be a whole number of steps"),
        (2.0, 1.0, "t_final must span at least one step"),
        (1e-9, 1.0, "h must give at most 10000000 steps"),
        (5e-324, 1.0, "h must give at most 10000000 steps"),
        (1.0, 10_000_000.5, "h must give at most 10000000 steps"),
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
        # kp1*|z1|**(1/3) + kp2*|z2|**0.5 at |z| = 1e12: each term alone, then the sum
        (Gains(1e305, 1.0, 2.0, 1.0, L=5.0), r"gains kp1=1e\+305, kp2=1\.0 overflow"),
        (Gains(1.0, 1e303, 2.0, 1.0, L=5.0), r"gains kp1=1\.0, kp2=1e\+303 overflow"),
        (Gains(1e304, 1e302, 2.0, 1.0, L=5.0), r"gains kp1=1e\+304, kp2=1e\+302 overflow"),
    ])
    def test_overflowing_gains_rejected(self, gains, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            _cfg(gains=gains)

    def test_large_gains_within_the_stage_i_bound_accepted(self):
        assert _cfg(gains=Gains(1e300, 1e300, 2.0, 1.0)).gains.kp1 == 1e300

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

    @pytest.mark.parametrize("change, message", [
        ({"gains": None}, "gains must be a Gains, got None"),
        ({"gains": (160.236, 60.3738, 28.5, 15.0)},
         "gains must be a Gains, got (160.236, 60.3738, 28.5, 15.0)"),
        ({"disturbance": None}, "disturbance must be a Disturbance, got None"),
        ({"disturbance": (35.0, ())}, "disturbance must be a Disturbance, got (35.0, ())"),
    ], ids=["gains-none", "gains-tuple", "disturbance-none", "disturbance-tuple"])
    def test_record_field_of_another_type_rejected_by_name(self, change, message):
        with pytest.raises(ValueError) as exc:
            _cfg(**change)
        assert str(exc.value) == message

    def test_overflowing_phase_rejected_by_omega(self):
        # sin(1e308 * 2.0) would be a bare "math domain error" at run time.
        dist = Disturbance(sinusoids=(Sinusoid(1.0, 1e308, "sin"),))
        with pytest.raises(ValueError, match=r"^omega must keep the phase omega\*t finite "
                                             r"up to t=2\.0, got 1e\+308$"):
            _cfg(h=0.5, t_final=2.0, disturbance=dist)
        assert _cfg(h=0.5, t_final=1.0, disturbance=dist).steps == 2


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


# A row's stored values as append takes them after t: z1, z2, u, u1, eta, delta.
_ROW = (1.0, 2.0, 4.0, 5.0, 6.0, 7.0)
_H = 0.25  # the step of the traces built here row by row


def _append(trace, *stored):
    """Append a row of ``stored`` values at the trace's next time, n*_H."""
    trace.append(trace.n * _H, *stored)


class TestSimTrace:
    """The trace packs each row as six float64s, t = k*h derived; columns
    are read as copies or, with view(), in place."""

    EDGE = (-0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 0.1, 1e308)
    STORED = ("z1", "z2", "u", "u1", "eta", "delta")

    def _edge_trace(self):
        trace = SimTrace(L=3.0)
        for i in range(len(self.EDGE)):
            _append(trace, *(self.EDGE[(i + j) % len(self.EDGE)] for j in range(6)))
        return trace

    def test_edge_values_survive_bit_for_bit(self):
        trace = self._edge_trace()
        for i in range(trace.n):
            expected = [i * _H] + [self.EDGE[(i + j) % len(self.EDGE)] for j in range(6)]
            values = dict(zip(TRACE_COLUMNS, row(trace, i)))
            assert _bits(values[c] for c in ("t", *self.STORED)) == _bits(expected)
            assert _bits([values["z3"]]) == _bits([values["eta"] + values["delta"]])
            assert _bits(values[c] for c in ("x1", "x2", "x3")) == \
                _bits(values[c] / 3.0 for c in ("z1", "z2", "z3"))
        for j, name in enumerate(self.STORED):
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
        _append(trace, 2.0, 3.0, 5.0, 6.0, 7.0, 8.0)
        assert trace.n == n + 1 and all(len(c) == n for c in held)
        assert row(trace, -1) == (n * _H, 2.0, 3.0, 15.0, 2.0 / 3.0, 1.0, 15.0 / 3.0,
                                  5.0, 6.0, 7.0, 8.0)

    def test_view_reads_the_stored_column_in_place(self):
        trace = self._edge_trace()
        for name in self.STORED:
            with trace.view(name) as view:
                assert view.readonly and _bits(view) == _bits(getattr(trace, name))
                with pytest.raises(BufferError):
                    _append(trace, *_ROW)
        _append(trace, *_ROW)
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
        _append(trace, *_ROW)

    @pytest.mark.parametrize("name", ["z3", "x1", "x2", "x3"])
    def test_held_derived_view_blocks_append(self, name):
        trace = self._edge_trace()
        held = trace.view(name)
        with pytest.raises(BufferError):
            _append(trace, *_ROW)
        del held
        _append(trace, *_ROW)
        assert trace.n == len(self.EDGE) + 1

    @pytest.mark.parametrize("name", ["w", "x4", "Z3"])
    def test_view_of_an_unknown_column_names_the_columns(self, name):
        trace = self._edge_trace()
        with pytest.raises(ValueError, match=f"^'{name}' is not a trace column; the columns "
                                             f"are t, z1, z2, z3, x1, x2, x3, u, u1, eta, delta$"):
            trace.view(name)
        _append(trace, *_ROW)

    def test_stores_48_bytes_per_row(self):
        trace = run_simulation(_cfg(t_final=0.01))
        for name in ("z1", "z2", "u", "u1", "eta", "delta"):
            with trace.view(name) as view:
                assert view.strides == (48,) and len(view) == trace.n
                assert view.obj.itemsize * len(view.obj) == 48 * trace.n
        # t = k*h is derived: a lazy map over the row numbers
        assert isinstance(trace.view("t"), map)

    @pytest.mark.parametrize("method", ["explicit", "implicit"])
    def test_run_allocates_exactly_its_rows(self, method):
        cfg = get_preset(f"paper-{method}").cfg
        trace = run_simulation(cfg)
        assert trace.n == cfg.steps + 1
        assert sys.getsizeof(trace._rows) == sys.getsizeof(array("d")) + 48 * (cfg.steps + 1)

    def test_reads_stop_at_the_appended_rows(self):
        trace = SimTrace(L=3.0, rows=5)
        grown = SimTrace(L=3.0)
        for k in range(2):
            _append(trace, k + 1.0, *_ROW[1:])
            _append(grown, k + 1.0, *_ROW[1:])
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
        _append(trace, *_ROW)
        with trace.view("z1") as held:
            _append(trace, 8.0, *_ROW[1:])  # fills in place
            assert len(held) == 1 and trace.n == 2
            with pytest.raises(BufferError):  # growing would move the buffer
                _append(trace, *_ROW)
        _append(trace, 9.0, *_ROW[1:])
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

def _off(t: float, up: bool = True) -> float:
    """t one ulp up (or down)."""
    return math.nextafter(t, math.inf if up else -math.inf)


def _on_grid(ts) -> bool:
    """The grid rule: row 0 at +0.0, row 1 at a finite h > 0, row k at a
    finite k*h."""
    if ts[:1] and _bits(ts[:1]) != _bits([0.0]):
        return False
    h = ts[1] if len(ts) > 1 else 1.0
    return 0.0 < h < math.inf and all(t == k * h < math.inf for k, t in enumerate(ts))


def _first_rejected(ts) -> int:
    """The first row of ``ts`` off the grid, len(ts) if there is none."""
    return next((k for k in range(len(ts)) if not _on_grid(ts[:k + 1])), len(ts))


def _state(trace):
    """n, every column's bits and the step h: what a rejected append keeps."""
    return trace.n, [_bits(getattr(trace, c)) for c in TRACE_COLUMNS], _bits([trace._h])


_GRID = [k * 0.001 for k in range(8)]


class TestTimeAxis:
    """A trace's rows are on a fixed-step grid, and t = k*h reads back bit
    for bit through view(), the column copy and a CSV round trip.  The first
    row off the grid is rejected with one message by append, which leaves
    the trace as it was, and by both readers, at its line: a t that is not
    finite is off the grid, also where k*h overflows to inf."""

    @staticmethod
    def _stored(k):
        return k + 1.0, -2.0 * k, 0.5 * k, 1.0, 3.0 * k, -0.25

    def _trace(self, ts, rows):
        trace = SimTrace(L=5.0, rows=rows)
        for k, t in enumerate(ts):
            trace.append(t, *self._stored(k))
        return trace

    def _check(self, ts, tmp_path):
        """Append ``ts`` row by row and read them from a trace file with row
        k at ts[k]; returns the message that rejects a row, None if none is
        rejected.  append and both readers reject the same first row, with
        one message, and append leaves n, the columns and h as they were."""
        j = _first_rejected(ts)
        messages = set()
        for rows in {0, j // 2, j, j + 3}:
            trace = self._trace(ts[:j], rows)
            assert trace.n == j
            assert _bits(trace.view("t")) == _bits(trace.t) == _bits(ts[:j])
            for a, b in ((1, None), (2, 5), (-3, -1), (4, 4)):
                assert _bits(trace.view("t", a, b)) == _bits(ts[:j][a:b])
            if j < len(ts):
                before = _state(trace)
                with pytest.raises(ValueError) as info:
                    trace.append(ts[j], *self._stored(j))
                assert _state(trace) == before
                messages.add(str(info.value))
        path = tmp_path / "trace.csv"
        write_trace_csv(self._trace([float(k) for k in range(len(ts))], 0), str(path))
        lines = path.read_text().split("\n")
        for k, t in enumerate(ts):
            lines[k + 1] = "%.17g" % t + lines[k + 1][lines[k + 1].index(","):]
        path.write_text("\n".join(lines))
        for reader in (read_trace_csv, read_trace_csv_text):
            if j == len(ts):
                back = reader(str(path), trace.L)
                assert _bits(back.t) == _bits(ts)
                assert back._rows[:6 * back.n] == trace._rows[:6 * trace.n]
                continue
            with pytest.raises(ValueError) as info:
                reader(str(path), trace.L)
            at = f"{path}:{j + 2}: "
            assert str(info.value).startswith(at)
            messages.add(str(info.value)[len(at):])
        assert len(messages) <= 1, messages
        return messages.pop() if messages else None

    @pytest.mark.parametrize("ts, message", [
        ([], None),
        ([0.0], None),
        (_GRID, None),
        # h = 1e308: row 2 is at 2*h = inf, which overflowed: not finite
        ([k * 1e308 for k in range(4)], "t = inf is not finite"),
        ([-0.0] + _GRID[1:], "t = -0.0 is off the grid: row 0 must be at t = +0.0"),
        ([0.5, 0.75, 1.0], "t = 0.5 is off the grid: row 0 must be at t = +0.0"),
        ([_off(0.0)] + _GRID[1:], "t = 5e-324 is off the grid: row 0 must be at t = +0.0"),
        ([_off(0.0, up=False)] + _GRID[1:],
         "t = -5e-324 is off the grid: row 0 must be at t = +0.0"),
        ([math.nan] + _GRID[1:], "t = nan is not finite"),
        ([0.0, math.inf, 1.0], "t = inf is not finite"),
        ([0.0, math.nan, 1.0], "t = nan is not finite"),
        ([0.0, -0.001, 0.001], "t = -0.001 is not greater than the previous row's t = 0.0"),
        ([0.0, 0.0, 0.001], "t = 0.0 is not greater than the previous row's t = 0.0"),
        # row 1 an ulp off sets h, so row 2 is the first off the grid
        (_GRID[:1] + [_off(_GRID[1])] + _GRID[2:], "t = 0.002 is off the grid: row 2 must "
         "be at t = k*h = 0.0020000000000000005 for h = 0.0010000000000000002"),
        (_GRID[:1] + [_off(_GRID[1], up=False)] + _GRID[2:], "t = 0.002 is off the grid: row "
         "2 must be at t = k*h = 0.0019999999999999996 for h = 0.0009999999999999998"),
        (_GRID[:2] + [_off(_GRID[2])] + _GRID[3:], "t = 0.0020000000000000005 is off the "
         "grid: row 2 must be at t = k*h = 0.002 for h = 0.001"),
        (_GRID[:2] + [_off(_GRID[2], up=False)] + _GRID[3:], "t = 0.0019999999999999996 is "
         "off the grid: row 2 must be at t = k*h = 0.002 for h = 0.001"),
        (_GRID[:5] + [_off(_GRID[5])] + _GRID[6:], "t = 0.005000000000000001 is off the "
         "grid: row 5 must be at t = k*h = 0.005 for h = 0.001"),
        (_GRID[:-1] + [_off(_GRID[-1])], "t = 0.007000000000000001 is off the grid: "
         "row 7 must be at t = k*h = 0.007 for h = 0.001"),
        (_GRID[:5] + [math.nan, _GRID[6]], "t = nan is not finite"),
    ], ids=["empty", "row-0", "grid", "grid-to-inf", "t0-negative-zero", "t0-positive",
            "t0-one-ulp", "t0-one-ulp-down", "t0-nan", "t1-inf", "t1-nan", "t1-negative",
            "t1-zero", "t1-ulp-up", "t1-ulp-down", "row-2-ulp-up", "row-2-ulp-down",
            "mid-trace", "last-row", "nan-mid-trace"])
    def test_every_t_reads_back(self, ts, message, tmp_path):
        assert _on_grid(ts) == (message is None)
        assert self._check(ts, tmp_path) == message

    @given(h=st.floats(1e-9, 1e6), n=st.integers(2, 40), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_row_off_the_grid_is_rejected_wherever_it_is(self, tmp_path_factory,
                                                           h, n, data):
        ts = [k * h for k in range(n)]
        j = data.draw(st.integers(0, n))  # n: no row leaves the grid
        if j < n:
            ts[j] = data.draw(st.sampled_from([_off(ts[j]), _off(ts[j], up=False)])
                              | st.floats())
        message = self._check(ts, tmp_path_factory.mktemp("axis"))
        assert (message is None) == _on_grid(ts)

    def test_failed_append_leaves_the_times_as_they_were(self):
        # A held view blocks the row array's growth: a row on the grid is
        # not added, h is not set, and appending it again adds it once.
        for ts in (_GRID[:1], _GRID[:2], _GRID[:4]):
            trace = self._trace(ts[:-1], 0)
            before = _state(trace)
            with trace.view("z1"):
                with pytest.raises(BufferError):
                    trace.append(ts[-1], 9.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            assert _state(trace) == before
            trace.append(ts[-1], 9.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            assert _bits(trace.t) == _bits(ts) and list(trace.z1)[-1] == 9.0


class TestRowsBetween:
    """rows_between(window) selects the rows lo <= t <= hi of the window
    widened by 1e-6 of the step h, by nothing below two rows, and raises one
    message where it selects none."""

    H = 1e6  # its widening, 1e-6*H, is 1.0: the window bounds below are exact

    def _trace(self, n):
        trace = SimTrace(L=5.0)
        for k in range(n):
            trace.append(k * self.H, *_ROW)
        return trace

    def test_rows_at_the_widening_are_selected(self):
        assert self.H * 1e-6 == 1.0
        trace = self._trace(8)
        assert trace.rows_between((2e6 + 1.0, 5e6 - 1.0)) == (2, 6)
        assert trace.rows_between((1.0, 7e6 - 1.0)) == (0, 8)

    def test_a_row_one_ulp_past_the_widening_is_not(self):
        trace = self._trace(8)
        assert trace.rows_between((_off(2e6 + 1.0), 5e6 - 1.0)) == (3, 6)
        assert trace.rows_between((2e6 + 1.0, _off(5e6 - 1.0, up=False))) == (2, 5)
        assert trace.rows_between((_off(1.0), _off(7e6 - 1.0, up=False))) == (1, 7)

    def test_one_row_has_no_widening(self):
        trace = self._trace(1)
        assert trace.rows_between((0.0, 0.0)) == (0, 1)
        assert trace.rows_between((-1.0, 1.0)) == (0, 1)
        for window in ((5e-324, 1.0), (-1.0, -5e-324)):
            with pytest.raises(ValueError) as info:
                trace.rows_between(window)
            assert str(info.value) == f"window {window} selects no trace records"

    @pytest.mark.parametrize("n", [0, 1, 8])
    @pytest.mark.parametrize("window, message", [
        ((3e6, 2e6), "window (3000000.0, 2000000.0) selects no trace records"),
        # reversed by no more than the widening, which would take in row 2
        ((2e6 + 1.0, 2e6 - 1.0), "window (2000001.0, 1999999.0) selects no trace records"),
        ((math.nan, 7e6), "window (nan, 7000000.0) selects no trace records"),
        ((0.0, math.nan), "window (0.0, nan) selects no trace records"),
        ((7e6 + 2.0, 9e6), "window (7000002.0, 9000000.0) selects no trace records"),
        ((-9e6, -2.0), "window (-9000000.0, -2.0) selects no trace records"),
        ((2e6 + 2.0, 3e6 - 2.0), "window (2000002.0, 2999998.0) selects no trace records"),
    ], ids=["reversed", "reversed-within-widening", "nan-start", "nan-end", "after-last",
            "before-first", "between-rows"])
    def test_a_window_with_no_rows_is_rejected(self, n, window, message):
        trace = self._trace(n)
        with pytest.raises(ValueError) as info:
            trace.rows_between(window)
        assert str(info.value) == message
