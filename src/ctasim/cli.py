"""Experiment presets, trace/summary serialization, step-size sweeps, CLI.

Commands:

    ctasim simulate --preset NAME [--method M] [--h SEC] [--t-final SEC]
                    [--gains kp1,kp2,kp3,kp4] [--init z1,z2,eta]
                    [--config PATH] [--out trace.csv] [--summary out.json]
                    [--threshold R]
    ctasim sweep    --preset NAME --h-list h1,h2,... [--method M]
                    [--out table.csv] [--summary out.json]

Exit codes: 0 success, 1 usage error, 2 divergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

from .controller import Gains
from .metrics import chatter_metrics, convergence_time, precision_envelope
from .plant import (
    Disturbance,
    METHODS,
    SimConfig,
    SimTrace,
    SimulationDiverged,
    Sinusoid,
    TRACE_COLUMNS,
    run_simulation,
)

PAPER_GAINS = Gains(kp1=160.236, kp2=60.3738, kp3=28.5, kp4=15.0, L=5.0)

PAPER_DISTURBANCE = Disturbance(
    constant=35.0,
    sinusoids=(Sinusoid(0.6, 2.0, "cos"), Sinusoid(0.4, math.sqrt(10.0), "sin")),
)

# Precision-order exponents per discretization: the implicit scheme gains one
# order per state over the explicit one.
ORDERS = {"explicit": (3.0, 2.0, 1.0), "implicit": (4.0, 3.0, 2.0)}

DEFAULT_THRESHOLD = 0.01
STEADY_WINDOW = (8.0, 10.0)


@dataclass(frozen=True)
class ExperimentPreset:
    name: str
    cfg: SimConfig


def _benchmark_cfg(method: str) -> SimConfig:
    return SimConfig(
        h=0.001,
        t_final=10.0,
        method=method,
        gains=PAPER_GAINS,
        z1_0=8.0,
        z2_0=-12.0,
        eta_0=0.0,
        disturbance=PAPER_DISTURBANCE,
    )


PRESETS = {
    "paper-explicit": ExperimentPreset("paper-explicit", _benchmark_cfg("explicit")),
    "paper-implicit": ExperimentPreset("paper-implicit", _benchmark_cfg("implicit")),
    "zero": ExperimentPreset(
        "zero",
        SimConfig(h=0.001, t_final=1.0, method="implicit", gains=PAPER_GAINS),
    ),
}


def get_preset(name: str) -> ExperimentPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


_OVERRIDABLE = ("method", "h", "t_final", "gains", "z1_0", "z2_0", "eta_0", "disturbance")


def apply_overrides(cfg: SimConfig, overrides: dict) -> SimConfig:
    bad = sorted(set(overrides) - set(_OVERRIDABLE))
    if bad:
        raise ValueError(f"unknown override key(s): {', '.join(bad)}")
    return replace(cfg, **overrides)


def steady_window(cfg: SimConfig) -> tuple[float, float]:
    if cfg.t_final >= STEADY_WINDOW[1]:
        return STEADY_WINDOW
    return (0.8 * cfg.t_final, cfg.t_final)


def summarize(trace: SimTrace, cfg: SimConfig, threshold: float = DEFAULT_THRESHOLD) -> dict:
    window = steady_window(cfg)
    report = precision_envelope(trace, window, cfg.h, ORDERS[cfg.method])
    chatter = chatter_metrics(trace, window)
    tconv = convergence_time(trace, threshold)
    return {
        "method": cfg.method,
        "h": cfg.h,
        "threshold": threshold,
        "convergence_time_s": None if math.isinf(tconv) else tconv,
        "window": list(window),
        "sup_abs_x": list(report.sup_abs_x),
        "v_constants": list(report.v_constants),
        "tv_u": chatter.total_variation_u,
        "sign_flips": chatter.sign_flips_u_delta,
    }


def run_preset(name: str, overrides: dict | None = None,
               threshold: float = DEFAULT_THRESHOLD) -> tuple[SimTrace, dict]:
    preset = get_preset(name)
    cfg = apply_overrides(preset.cfg, overrides or {})
    trace = run_simulation(cfg)
    summary = summarize(trace, cfg, threshold)
    summary["preset"] = name
    return trace, summary


# --- trace serialization ---------------------------------------------------

TRACE_HEADER = "t,z1,z2,z3,x1,x2,x3,u,u1,eta,delta"


def write_trace_csv(trace: SimTrace, path: str) -> None:
    """17 significant digits: parsing the file reproduces the doubles exactly.

    Rows are formatted one at a time and streamed to the file.
    """
    columns = [getattr(trace, c) for c in TRACE_COLUMNS]
    row_format = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="") as f:
        f.write(TRACE_HEADER + "\n")
        f.writelines(row_format % row for row in zip(*columns))


def read_trace_csv(path: str, L: float) -> SimTrace:
    trace = SimTrace(L=L)
    with open(path, "r", newline="") as f:
        header = f.readline().strip()
        if header != TRACE_HEADER:
            raise ValueError(f"unexpected trace header: {header!r}")
        for line in f:
            vals = [float(v) for v in line.split(",")]
            (t, z1, z2, z3, x1, x2, x3, u, u1, eta, delta) = vals
            trace.t.append(t)
            trace.z1.append(z1)
            trace.z2.append(z2)
            trace.z3.append(z3)
            trace.x1.append(x1)
            trace.x2.append(x2)
            trace.x3.append(x3)
            trace.u.append(u)
            trace.u1.append(u1)
            trace.eta.append(eta)
            trace.delta.append(delta)
    return trace


# --- step-size sweep --------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    preset: str
    h_values: tuple[float, ...]
    method: str | None = None

    def __post_init__(self) -> None:
        if len(self.h_values) < 3:
            raise ValueError("a sweep needs at least 3 step sizes")
        if any(not h > 0.0 for h in self.h_values):
            raise ValueError("step sizes must be positive")


@dataclass(frozen=True)
class SweepRow:
    h: float
    sup_abs_x: tuple[float, float, float] | None
    status: str  # "ok" or "divergent"


@dataclass(frozen=True)
class SweepResult:
    method: str
    rows: tuple[SweepRow, ...]
    slopes: tuple[float | None, float | None, float | None]


def fit_loglog_slope(hs: list[float], sups: list[float]) -> float | None:
    pts = [(math.log(h), math.log(s)) for h, s in zip(hs, sups) if s > 0.0]
    if len(pts) < 2:
        return None
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    return sxy / sxx


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Run one simulation per step size; fit log(sup|x_i|) against log(h).

    Divergent runs are kept in the table but excluded from the fits, as are
    identically-zero envelopes.
    """
    preset = get_preset(spec.preset)
    cfg = preset.cfg
    if spec.method is not None:
        cfg = apply_overrides(cfg, {"method": spec.method})
    rows = []
    for h in spec.h_values:
        run_cfg = apply_overrides(cfg, {"h": h})
        try:
            trace = run_simulation(run_cfg)
        except SimulationDiverged:
            rows.append(SweepRow(h=h, sup_abs_x=None, status="divergent"))
            continue
        report = precision_envelope(trace, steady_window(run_cfg), h, ORDERS[run_cfg.method])
        rows.append(SweepRow(h=h, sup_abs_x=report.sup_abs_x, status="ok"))
    slopes = []
    for i in range(3):
        hs = [r.h for r in rows if r.status == "ok"]
        sups = [r.sup_abs_x[i] for r in rows if r.status == "ok"]
        slopes.append(fit_loglog_slope(hs, sups))
    return SweepResult(method=cfg.method, rows=tuple(rows), slopes=tuple(slopes))


SWEEP_HEADER = "h,sup_abs_x1,sup_abs_x2,sup_abs_x3,status"


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(SWEEP_HEADER + "\n")
        for r in result.rows:
            if r.sup_abs_x is None:
                f.write(f"{r.h:.17g},nan,nan,nan,{r.status}\n")
            else:
                s = ",".join(f"{v:.17g}" for v in r.sup_abs_x)
                f.write(f"{r.h:.17g},{s},{r.status}\n")


# --- config files -----------------------------------------------------------


def load_config_overrides(path: str) -> dict:
    """Flat `key = value` file; returns an override dict plus CLI extras.

    Recognized keys: method, h, t_final, kp1..kp4, L, z1_0, z2_0, eta_0,
    threshold, delta_constant, and repeatable delta_sin / delta_cos lines of
    the form `amp,omega`.  Lines starting with '#' are comments.
    """
    raw: list[tuple[str, str]] = []
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected `key = value`")
            key, _, value = stripped.partition("=")
            raw.append((key.strip(), value.strip()))

    overrides: dict = {}
    gains_kw: dict = {}
    sinusoids: list[Sinusoid] = []
    delta_constant: float | None = None
    for key, value in raw:
        if key == "method":
            if value not in METHODS:
                raise ValueError(f"{path}: bad method {value!r}")
            overrides["method"] = value
        elif key in ("h", "t_final", "z1_0", "z2_0", "eta_0", "threshold"):
            overrides[key] = float(value)
        elif key in ("kp1", "kp2", "kp3", "kp4", "L"):
            gains_kw[key] = float(value)
        elif key == "delta_constant":
            delta_constant = float(value)
        elif key in ("delta_sin", "delta_cos"):
            amp, omega = (float(v) for v in value.split(","))
            sinusoids.append(Sinusoid(amp, omega, key.removeprefix("delta_")))
        else:
            raise ValueError(f"{path}: unknown config key {key!r}")
    if gains_kw:
        overrides["_gains_kw"] = gains_kw
    if delta_constant is not None or sinusoids:
        overrides["disturbance"] = Disturbance(
            constant=delta_constant or 0.0, sinusoids=tuple(sinusoids)
        )
    return overrides


# --- command line -----------------------------------------------------------


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [p for p in text.split(",") if p != ""]
    if len(parts) != n:
        raise ValueError(f"{what} expects {n} comma-separated values, got {text!r}")
    return [float(p) for p in parts]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctasim",
        description="Twisting-controller simulator for a perturbed double integrator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one experiment")
    sim.add_argument("--preset", required=True, help=", ".join(sorted(PRESETS)))
    sim.add_argument("--config", help="key = value file applied over the preset")
    sim.add_argument("--method", choices=METHODS)
    sim.add_argument("--h", type=float, help="step size in seconds")
    sim.add_argument("--t-final", type=float, dest="t_final")
    sim.add_argument("--gains", help="kp1,kp2,kp3,kp4")
    sim.add_argument("--L", type=float, help="state scaling factor")
    sim.add_argument("--init", help="z1,z2,eta initial state")
    sim.add_argument("--out", help="trace CSV path")
    sim.add_argument("--summary", help="metrics JSON path")
    sim.add_argument("--threshold", type=float, default=None,
                     help=f"convergence threshold in z units (default {DEFAULT_THRESHOLD})")

    sw = sub.add_parser("sweep", help="order-of-accuracy sweep over step sizes")
    sw.add_argument("--preset", required=True)
    sw.add_argument("--method", choices=METHODS)
    sw.add_argument("--h-list", required=True, dest="h_list", help="h1,h2,h3,...")
    sw.add_argument("--out", help="sweep table CSV path")
    sw.add_argument("--summary", help="sweep JSON path")
    return parser


def _cmd_simulate(args) -> int:
    preset = get_preset(args.preset)
    cfg = preset.cfg
    threshold = DEFAULT_THRESHOLD

    overrides: dict = {}
    if args.config:
        overrides = load_config_overrides(args.config)
        threshold = overrides.pop("threshold", threshold)
        gains_kw = overrides.pop("_gains_kw", None)
        if gains_kw:
            base = {k: getattr(cfg.gains, k) for k in ("kp1", "kp2", "kp3", "kp4", "L")}
            base.update(gains_kw)
            overrides["gains"] = Gains(**base)
    if args.method:
        overrides["method"] = args.method
    if args.h is not None:
        overrides["h"] = args.h
    if args.t_final is not None:
        overrides["t_final"] = args.t_final
    if args.gains or args.L is not None:
        base_gains = overrides.get("gains", cfg.gains)
        kw = {k: getattr(base_gains, k) for k in ("kp1", "kp2", "kp3", "kp4", "L")}
        if args.gains:
            kp1, kp2, kp3, kp4 = _parse_floats(args.gains, 4, "--gains")
            kw.update(kp1=kp1, kp2=kp2, kp3=kp3, kp4=kp4)
        if args.L is not None:
            kw["L"] = args.L
        overrides["gains"] = Gains(**kw)
    if args.init:
        z1_0, z2_0, eta_0 = _parse_floats(args.init, 3, "--init")
        overrides.update(z1_0=z1_0, z2_0=z2_0, eta_0=eta_0)
    if args.threshold is not None:
        threshold = args.threshold

    cfg = apply_overrides(cfg, overrides)
    trace = run_simulation(cfg)
    summary = summarize(trace, cfg, threshold)
    summary["preset"] = args.preset

    if args.out:
        write_trace_csv(trace, args.out)
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    h_values = tuple(float(p) for p in args.h_list.split(",") if p != "")
    spec = SweepSpec(preset=args.preset, h_values=h_values, method=args.method)
    result = run_sweep(spec)
    if args.out:
        write_sweep_csv(result, args.out)
    payload = {
        "preset": args.preset,
        "method": result.method,
        "rows": [
            {"h": r.h, "sup_abs_x": None if r.sup_abs_x is None else list(r.sup_abs_x),
             "status": r.status}
            for r in result.rows
        ],
        "fitted_slopes": list(result.slopes),
    }
    if args.summary:
        with open(args.summary, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    print(json.dumps(payload, indent=2))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_sweep(args)
    except SimulationDiverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
