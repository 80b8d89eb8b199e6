"""Experiment presets, settings, summaries, step-size sweeps, config files, CLI.

The trace format and its CSV codec live in ctasim.plant.

Commands:

    ctasim simulate --preset NAME [--method M] [--h SEC] [--t-final SEC]
                    [--gains kp1,kp2,kp3,kp4] [--L SCALE] [--init z1,z2,eta]
                    [--config PATH] [--out trace.csv] [--summary out.json]
                    [--threshold R]
    ctasim sweep    --preset NAME --h-list h1,h2,... [--method M]
                    [--out table.csv] [--summary out.json]

Exit codes: 0 success, 1 usage error, 2 divergence.
"""

from __future__ import annotations

import gc
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
    replacing,
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


# The setting keys: SimConfig's fields, with the gains split into Gains'
# fields, plus the convergence threshold.
_SETTINGS = (*(k for k in SimConfig._fields if k != "gains"), *Gains._fields, "threshold")


def resolve_config(cfg: SimConfig, settings: dict) -> tuple[SimConfig, float]:
    """Apply flat settings over ``cfg``; return the config and the threshold.

    Keys are those of ``_SETTINGS``; unknown keys raise ValueError.
    """
    rest = dict(settings)
    threshold = rest.pop("threshold", DEFAULT_THRESHOLD)
    if not (threshold > 0.0 and math.isfinite(threshold)):
        raise ValueError(f"threshold must be positive and finite, got {threshold!r}")
    bad = sorted(set(rest).difference(_SETTINGS))
    if bad:
        raise ValueError(f"unknown setting(s): {', '.join(bad)}")
    kp = {k: rest.pop(k) for k in Gains._fields if k in rest}
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
    """17 significant digits, as write_trace_csv; a divergent row's
    sup|x_i| cells read nan."""
    with replacing(path) as f:
        f.write(SWEEP_HEADER.encode() + b"\n")
        f.writelines(b"%.17g,%.17g,%.17g,%.17g,%s\n"
                     % (r.h, *(r.sup_abs_x or (math.nan,) * 3), r.status.encode())
                     for r in result.rows)


# --- config files -----------------------------------------------------------


def load_config(path: str) -> dict:
    """Flat `key = value` file; returns settings for resolve_config.

    Keys: those of ``_SETTINGS`` but disturbance, which is built from
    delta_constant and repeatable delta_sin / delta_cos lines (`amp,omega`)
    and replaces the preset's; any other key may be set once.  Lines
    starting with '#' are comments.  The file is UTF-8, whatever the locale,
    and a leading byte-order mark is dropped.  Errors start with
    `path:lineno:` and name the key; a file that is not UTF-8 raises
    ValueError starting with `path:`.
    """
    settings: dict = {}
    first_set: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8-sig") as f:
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
    elif key in _SETTINGS and key != "disturbance":
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


# Each command returns its JSON payload and the writer of its --out file,
# for main's output stage.
def _cmd_simulate(args) -> tuple:
    # Flags are written over the file's settings: flags > file > preset.
    settings = load_config(args.config) if args.config is not None else {}
    settings.update((k, v) for k, v in vars(args).items() if k in _SETTINGS and v is not None)
    for flag, keys in (("gains", Gains._fields[:4]), ("init", ("z1_0", "z2_0", "eta_0"))):
        if (text := getattr(args, flag)) is not None:
            settings.update(zip(keys, _parse_floats(text, f"--{flag}", len(keys))))
    trace, summary = run_preset(args.preset, settings)
    return summary, lambda path: write_trace_csv(trace, path)


def _cmd_sweep(args) -> tuple:
    h_values = tuple(_parse_floats(args.h_list, "--h-list"))
    settings = {"method": args.method} if args.method is not None else {}
    result = run_sweep(args.preset, h_values, settings)
    return ({"preset": args.preset, "method": result.method,
             "rows": [r._asdict() for r in result.rows], "fitted_slopes": result.slopes},
            lambda path: write_sweep_csv(result, path))


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        # The parsers are reference cycles (each action points back at its
        # parser), and a run allocates too few containers to set off the
        # collector, so they would last the whole run: about 21 KB of the
        # heap peak.  A young-generation pass frees them in about 0.05 ms.
        gc.collect(1)
        payload, write_out = (_cmd_simulate if args.command == "simulate" else _cmd_sweep)(args)
        # The one output stage.  The JSON is formed before the first write,
        # so a summary with no JSON form leaves no file behind.
        import json  # here, not at import, as argparse in _parser

        try:
            text = json.dumps(payload, indent=2, allow_nan=False)
        except ValueError as exc:  # a non-finite float has no JSON form
            raise ValueError(f"summary is not valid JSON: {exc}") from None
        # The indented encoder's closures are reference cycles too: freed
        # here, their 2 KB are not held through the --out write.
        gc.collect(1)
        if args.out is not None:
            write_out(args.out)
        if args.summary is not None:
            with replacing(args.summary) as f:
                f.write(text.encode() + b"\n")
        print(text)
        return 0
    except (SimulationDiverged, ValueError, OSError) as exc:
        # Paths and arguments are echoed raw; escape CR/LF to keep one line.
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"error: {message}", file=sys.stderr)
        return 2 if isinstance(exc, SimulationDiverged) else 1


if __name__ == "__main__":
    sys.exit(main())
