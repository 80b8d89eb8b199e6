import math

import pytest

from ctasim.cli import PAPER_DISTURBANCE, PAPER_GAINS
from ctasim.controller import Gains, implicit_step
from ctasim.plant import (
    MAX_STEPS,
    Disturbance,
    SimConfig,
    SimulationDiverged,
    Sinusoid,
    eval_disturbance,
    plant_step,
    run_simulation,
)


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
        assert a.row(0) == b.row(0)
        assert all(a.row(i) == b.row(i) for i in range(a.n))

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
