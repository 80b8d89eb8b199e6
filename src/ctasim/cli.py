"""Experiment presets, settings, summaries, step-size sweeps, config files, CLI.

The trace format and its CSV codec live in ctasim.plant.

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

import math
import sys
from collections import namedtuple

from .controller import Gains
from .metrics import (
    WindowMax, chatter_metrics, convergence_time, fit_loglog_slope, precision_envelope)
from .plant import (
    Disturbance,
    METHODS,
    SimConfig,
    SimTrace,
    SimulationDiverged,
    Sinusoid,
    read_trace_csv,  # perfbench calls cli.read_trace_csv (trace-reload, replay, tracer)
    run_simulation,
    write_trace_csv,
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


ExperimentPreset = namedtuple("ExperimentPreset", "cfg")


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
    "paper-explicit": ExperimentPreset(_benchmark_cfg("explicit")),
    "paper-implicit": ExperimentPreset(_benchmark_cfg("implicit")),
    "zero": ExperimentPreset(
        SimConfig(h=0.001, t_final=1.0, method="implicit", gains=PAPER_GAINS)),
}


def get_preset(name: str) -> ExperimentPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None


# Settings name SimConfig fields, except that the gains go by kp1..kp4 and L,
# plus the convergence threshold.
_GAIN_KEYS = Gains._fields
_CONFIG_KEYS = frozenset(SimConfig._fields) - {"gains"}


def resolve_config(cfg: SimConfig, settings: dict) -> tuple[SimConfig, float]:
    """Apply flat settings over ``cfg``; return the config and the threshold.

    Keys: method, h, t_final, kp1..kp4, L, z1_0, z2_0, eta_0, disturbance
    and threshold.  Unknown keys raise ValueError.
    """
    rest = dict(settings)
    threshold = rest.pop("threshold", DEFAULT_THRESHOLD)
    if not (threshold > 0.0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    kp = {k: rest.pop(k) for k in _GAIN_KEYS if k in rest}
    bad = sorted(set(rest) - _CONFIG_KEYS)
    if bad:
        raise ValueError(f"unknown setting(s): {', '.join(bad)}")
    return cfg.replace(gains=cfg.gains.replace(**kp), **rest), threshold


def steady_window(cfg: SimConfig) -> tuple[float, float]:
    """The last fifth of the run, (0.8*t_final, t_final)."""
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


def run_preset(name: str, settings: dict | None = None) -> tuple[SimTrace, dict]:
    """Run preset ``name`` with ``settings`` (see resolve_config) applied over it."""
    cfg, threshold = resolve_config(get_preset(name).cfg, settings or {})
    trace = run_simulation(cfg)
    summary = summarize(trace, cfg, threshold)
    summary["preset"] = name
    return trace, summary


# --- step-size sweep --------------------------------------------------------


# status is "ok" or "divergent"; a divergent row's sup_abs_x is None.
SweepRow = namedtuple("SweepRow", "h sup_abs_x status")
SweepResult = namedtuple("SweepResult", "method rows slopes")


def run_sweep(preset: str, h_values: tuple[float, ...],
              settings: dict | None = None) -> SweepResult:
    """Run one simulation per step size; fit log(sup|x_i|) against log(h).

    ``settings`` (see resolve_config) apply over the preset, as in
    run_preset; each step size then replaces h.  Every step size is checked
    before the first run.  Each run passes its rows to a metrics.WindowMax
    sink over the steady window, so no trace is stored.  Divergent runs are
    kept in the table but excluded from the fits, as are identically-zero
    envelopes.
    """
    if len(h_values) < 3:
        raise ValueError("a sweep needs at least 3 step sizes")
    if len(set(h_values)) < len(h_values):
        raise ValueError(f"step sizes must be distinct, got {h_values}")
    cfg, _ = resolve_config(get_preset(preset).cfg, settings or {})
    run_cfgs = [cfg.replace(h=h) for h in h_values]
    rows = []
    for h, run_cfg in zip(h_values, run_cfgs):
        try:
            sink = run_simulation(run_cfg, WindowMax(run_cfg.gains.L, steady_window(run_cfg), h))
        except SimulationDiverged:
            rows.append(SweepRow(h=h, sup_abs_x=None, status="divergent"))
            continue
        rows.append(SweepRow(h=h, sup_abs_x=sink.sup_abs_x, status="ok"))
    ok = [r for r in rows if r.status == "ok"]
    slopes = tuple(fit_loglog_slope([r.h for r in ok], [r.sup_abs_x[i] for r in ok])
                   for i in range(3))
    return SweepResult(method=cfg.method, rows=tuple(rows), slopes=slopes)


SWEEP_HEADER = "h,sup_abs_x1,sup_abs_x2,sup_abs_x3,status"


def write_sweep_csv(result: SweepResult, path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(SWEEP_HEADER + "\n")
        for r in result.rows:
            values = (r.h, *(r.sup_abs_x or (math.nan,) * 3))
            f.write(",".join(f"{v:.17g}" for v in values) + f",{r.status}\n")


# --- config files -----------------------------------------------------------


_FLOAT_KEYS = ("h", "t_final", *_GAIN_KEYS, "z1_0", "z2_0", "eta_0", "threshold")


def load_config(path: str) -> dict:
    """Flat `key = value` file; returns settings for resolve_config.

    Keys: method, h, t_final, kp1..kp4, L, z1_0, z2_0, eta_0, threshold,
    delta_constant, and repeatable delta_sin / delta_cos lines of the form
    `amp,omega`; any other key may be set once.  The delta_* lines build the
    `disturbance` setting, which replaces the preset's disturbance.  Lines
    starting with '#' are comments.  Errors start with `path:lineno:` and
    name the key; a file that does not decode raises ValueError starting
    with `path:`.
    """
    settings: dict = {}
    first_set: dict[str, int] = {}
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ValueError(f"{path}:{lineno}: expected `key = value`, got {stripped!r}")
                key, _, value = (part.strip() for part in stripped.partition("="))
                if key in first_set:
                    raise ValueError(f"{path}:{lineno}: {key}: repeated "
                                     f"(first set on line {first_set[key]})")
                try:
                    _set_config_value(settings, key, value)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
                if key not in ("delta_sin", "delta_cos"):
                    first_set[key] = lineno
    except UnicodeDecodeError as exc:
        # Decoding runs in chunks, so the line is unknown.
        raise ValueError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    return settings


def _set_config_value(settings: dict, key: str, value: str) -> None:
    if key == "method":
        if value not in METHODS:
            raise ValueError(f"must be one of {METHODS}, got {value!r}")
        settings[key] = value
    elif key in _FLOAT_KEYS:
        settings[key] = float(value)
    elif key in ("delta_constant", "delta_sin", "delta_cos"):
        d = settings.get("disturbance", Disturbance())
        if key == "delta_constant":
            d = d.replace(constant=float(value))
        else:
            amp, omega = _parse_floats(value, "amp,omega", 2)
            term = Sinusoid(amp, omega, key.removeprefix("delta_"))
            d = d.replace(sinusoids=(*d.sinusoids, term))
        settings["disturbance"] = d
    else:
        raise ValueError("unknown config key")


# --- command line -----------------------------------------------------------


def _parse_floats(text: str, what: str, n: int | None = None) -> list[float]:
    """Comma-separated floats, exactly ``n`` of them when ``n`` is given;
    errors name ``what``."""
    parts = text.split(",")
    if n is not None and len(parts) != n:
        raise ValueError(f"{what} expects {n} comma-separated values, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


def _usage_error(message):
    raise ValueError(message)


def _parser(**kwargs):
    """An ArgumentParser whose usage errors raise ValueError, so that main
    reports them like every other bad input: one `error:` line and exit 1
    (argparse's exit 2 is the divergence code).

    argparse loads here, not at import, so that a library caller of this
    module never loads it."""
    import argparse

    parser = argparse.ArgumentParser(**kwargs)
    parser.error = _usage_error
    return parser


def _build_parser():
    parser = _parser(
        prog="ctasim",
        description="Twisting-controller simulator for a perturbed double integrator.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_parser)

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


def _emit(payload: dict, path: str | None) -> None:
    """Print ``payload`` as JSON and, given a path, write it there too."""
    import json  # here, not at import, as argparse in _parser

    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:  # a non-finite float has no JSON form
        raise ValueError(f"summary is not valid JSON: {exc}") from None
    if path is not None:
        with open(path, "w") as f:
            f.write(text + "\n")
    print(text)


def _cmd_simulate(args) -> int:
    # Flags are written over the file's settings: flags > file > preset.
    settings = load_config(args.config) if args.config is not None else {}
    flags = {"method": args.method, "h": args.h, "t_final": args.t_final,
             "L": args.L, "threshold": args.threshold}
    settings.update((k, v) for k, v in flags.items() if v is not None)
    if args.gains is not None:
        kp = _parse_floats(args.gains, "--gains", 4)
        settings.update(zip(("kp1", "kp2", "kp3", "kp4"), kp))
    if args.init is not None:
        settings.update(zip(("z1_0", "z2_0", "eta_0"), _parse_floats(args.init, "--init", 3)))
    trace, summary = run_preset(args.preset, settings)
    if args.out is not None:
        write_trace_csv(trace, args.out)
    _emit(summary, args.summary)
    return 0


def _cmd_sweep(args) -> int:
    h_values = tuple(_parse_floats(args.h_list, "--h-list"))
    settings = {"method": args.method} if args.method is not None else {}
    result = run_sweep(args.preset, h_values, settings)
    if args.out is not None:
        write_sweep_csv(result, args.out)
    _emit({"preset": args.preset, "method": result.method,
           "rows": [r._asdict() for r in result.rows],
           "fitted_slopes": result.slopes}, args.summary)
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_sweep(args)
    except (SimulationDiverged, ValueError, OSError) as exc:
        # Paths and arguments are echoed raw; escape CR/LF to keep one line.
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, SimulationDiverged) else 1


if __name__ == "__main__":
    sys.exit(main())
