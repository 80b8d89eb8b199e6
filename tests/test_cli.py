import json

import pytest

from ctasim.cli import (
    PRESETS,
    SweepSpec,
    apply_overrides,
    get_preset,
    load_config_overrides,
    main,
    read_trace_csv,
    run_preset,
    run_sweep,
    write_trace_csv,
)
from ctasim.plant import Disturbance


class TestPresets:
    def test_benchmark_parameters_pinned(self):
        cfg = get_preset("paper-explicit").cfg
        assert (cfg.gains.kp1, cfg.gains.kp2) == (160.236, 60.3738)
        assert (cfg.gains.kp3, cfg.gains.kp4) == (28.5, 15.0)
        assert cfg.gains.L == 5.0
        assert cfg.h == 0.001 and cfg.t_final == 10.0
        assert (cfg.z1_0, cfg.z2_0, cfg.eta_0) == (8.0, -12.0, 0.0)
        assert cfg.disturbance.constant == 35.0
        assert get_preset("paper-implicit").cfg.method == "implicit"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_preset("nope")

    def test_zero_preset_runs_flat(self):
        trace, summary = run_preset("zero")
        assert all(v == 0.0 for v in trace.z1)
        assert all(v == 0.0 for v in trace.u)
        assert summary["sup_abs_x"] == [0.0, 0.0, 0.0]
        assert summary["convergence_time_s"] == 0.0

    def test_override_validation(self):
        cfg = get_preset("zero").cfg
        with pytest.raises(ValueError):
            apply_overrides(cfg, {"stepsize": 0.1})
        out = apply_overrides(cfg, {"h": 0.01, "method": "explicit"})
        assert out.h == 0.01 and out.method == "explicit"


class TestTraceCsv:
    def test_round_trip_is_exact(self, tmp_path):
        trace, _ = run_preset("paper-implicit", {"t_final": 0.05})
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        back = read_trace_csv(str(path), L=trace.L)
        assert back.n == trace.n
        for i in range(trace.n):
            assert back.row(i) == trace.row(i)

    def test_header(self, tmp_path):
        trace, _ = run_preset("zero", {"t_final": 0.01})
        path = tmp_path / "t.csv"
        write_trace_csv(trace, str(path))
        first = path.read_text().splitlines()[0]
        assert first == "t,z1,z2,z3,x1,x2,x3,u,u1,eta,delta"


class TestSweep:
    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            SweepSpec(preset="zero", h_values=(0.01, 0.02))

    def test_zero_preset_sweep_has_no_slopes(self):
        res = run_sweep(SweepSpec(preset="zero", h_values=(0.01, 0.005, 0.002)))
        assert all(r.status == "ok" for r in res.rows)
        assert res.slopes == (None, None, None)  # all-zero envelopes


class TestConfigFile:
    def test_parse_and_apply(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# benchmark variant\n"
            "method = explicit\n"
            "h = 0.002\n"
            "t_final = 0.5\n"
            "kp1 = 100.0\n"
            "eta_0 = 1.0\n"
            "delta_constant = 2.0\n"
            "delta_sin = 0.5,3.0\n"
            "threshold = 0.05\n"
        )
        overrides = load_config_overrides(str(cfg_file))
        assert overrides["method"] == "explicit"
        assert overrides["h"] == 0.002
        assert overrides["threshold"] == 0.05
        assert overrides["_gains_kw"] == {"kp1": 100.0}
        dist = overrides["disturbance"]
        assert isinstance(dist, Disturbance) and dist.constant == 2.0
        assert dist.sinusoids[0].kind == "sin"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("stepsize = 0.1\n")
        with pytest.raises(ValueError):
            load_config_overrides(str(cfg_file))


class TestCommandLine:
    def test_simulate_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        summ = tmp_path / "summary.json"
        rc = main([
            "simulate", "--preset", "zero", "--t-final", "0.05",
            "--out", str(out), "--summary", str(summ),
        ])
        assert rc == 0
        payload = json.loads(summ.read_text())
        for key in ("convergence_time_s", "window", "sup_abs_x",
                    "v_constants", "tv_u", "sign_flips"):
            assert key in payload
        printed = json.loads(capsys.readouterr().out)
        assert printed["preset"] == "zero"
        assert out.read_text().startswith("t,z1,z2,z3")

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            rc = main([
                "simulate", "--preset", "paper-implicit",
                "--t-final", "0.2", "--out", str(path),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("h = 0.01\nt_final = 0.5\n")
        rc = main([
            "simulate", "--preset", "zero", "--config", str(cfg_file),
            "--h", "0.005",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["h"] == 0.005

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["simulate", "--preset", "bogus"]) == 1
        assert "unknown preset" in capsys.readouterr().err

    def test_divergence_exit_code(self, tmp_path, capsys):
        rc = main([
            "simulate", "--preset", "zero", "--init", "2e12,0,0",
            "--t-final", "0.01",
        ])
        assert rc == 2
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["explicit", "implicit"])
    @pytest.mark.parametrize("flags, field", [
        (["--t-final", "inf"], "t_final"),
        (["--h", "inf"], "h"),
        (["--init", "nan,0,0"], "z1_0"),
        (["--init", "0,-inf,0"], "z2_0"),
        (["--init", "0,0,nan"], "eta_0"),
        (["--gains", "inf,1,2,1"], "kp1"),
        (["--gains", "1,1,nan,1"], "kp3"),
    ])
    def test_nonfinite_input_is_usage_error(self, capsys, method, flags, field):
        rc = main(["simulate", "--preset", "paper-explicit", "--method", method,
                   "--t-final", "0.01", *flags])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith(f"error: {field} must be") and err.count("\n") == 1

    def test_sweep_requires_three_points(self, capsys):
        rc = main(["sweep", "--preset", "zero", "--h-list", "0.01,0.005"])
        assert rc == 1

    def test_sweep_writes_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--preset", "zero", "--h-list", "0.01,0.005,0.002",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h,sup_abs_x1,sup_abs_x2,sup_abs_x3,status"
        assert len(lines) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["fitted_slopes"] == [None, None, None]
