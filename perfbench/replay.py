"""Per-call timings of the layers' public functions on recorded inputs.

``record`` runs a preset once with recording wrappers on the same attributes
the tracer uses and keeps every call's arguments and result.  ``time_calls``
replays the arguments through the unwrapped function and requires the
results to equal the recorded ones, so a micro-benchmark cannot time a
different code path than the simulation takes.  ``layer_ms`` times the
trace-level functions (metrics, CSV write/read, summarize) on the recorded
paper-implicit trace and checks each result against the preset's goldens.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

from ctasim import cli, controller, metrics, plant, resolvent
from ctasim.plant import SimTrace, TRACE_COLUMNS

from .tracer import TRACED, Patches
from .workloads import same_summary, sha256_file

RECORDED = tuple(t for t in TRACED if t[2] in (
    "controller.explicit_step", "controller.implicit_step", "plant.eval_disturbance",
    "plant.plant_step", "plant.SimTrace.append", "resolvent.Interval", "resolvent.proj"))


class ReplayMismatch(AssertionError):
    """A replayed call returned something other than the recorded result."""


def record(preset: str) -> tuple[dict[str, list], SimTrace]:
    """Run ``preset`` once; return {span name: [(args, result), ...]} and the trace."""
    calls: dict[str, list] = {t[2]: [] for t in RECORDED}

    def recorder(fn, name):
        log = calls[name]

        def recording(*args):
            result = fn(*args)
            log.append((args, result))
            return result
        return recording

    patches = Patches(RECORDED)
    patches.install(recorder)
    try:
        trace = cli.run_simulation(cli.get_preset(preset).cfg)
    finally:
        patches.uninstall()
    return calls, trace


def time_calls(fn, calls: list, repeats: int) -> float:
    """Median over ``repeats`` passes of the µs per call of ``fn`` on the
    recorded arguments; every pass's results must equal the recorded ones.
    0.0 when the run made no such call."""
    if not calls:
        return 0.0
    args = [a for a, _ in calls]
    expected = [r for _, r in calls]
    per_call = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = [fn(*a) for a in args]
        per_call.append((time.perf_counter() - t0) / len(args) * 1e6)
        if out != expected:
            raise ReplayMismatch(f"{fn.__qualname__}: replayed results differ")
    return statistics.median(per_call)


def time_append(calls: list, L: float, reference: SimTrace, repeats: int) -> float:
    """µs per SimTrace.append, rebuilding the recorded trace row by row."""
    rows = [a[1:] for a, _ in calls]  # drop the recorded ``self``
    per_call = []
    for _ in range(repeats):
        trace = SimTrace(L=L)
        append = trace.append
        t0 = time.perf_counter()
        for row in rows:
            append(*row)
        per_call.append((time.perf_counter() - t0) / len(rows) * 1e6)
        if any(getattr(trace, c) != getattr(reference, c) for c in TRACE_COLUMNS):
            raise ReplayMismatch("plant.SimTrace.append: rebuilt trace differs")
    return statistics.median(per_call)


def two_sgn_oracle(a: float, b: float, x: float, y: float) -> float:
    """proj([proj(-C, y), proj(C, y)], x) with C = [a - b, a + b], by clamps."""
    lo = min(max(y, -(a + b)), -(a - b))
    hi = min(max(y, a - b), a + b)
    return min(max(x, lo), hi)


def two_sgn_calls(seed: int, n: int) -> list:
    """Seeded draws from acceptance criterion 1's domain, a > b > 0."""
    rng = random.Random(seed)
    calls = []
    for _ in range(n):
        a = rng.uniform(1e-3, 100.0)
        b = a * rng.uniform(1e-6, 1.0 - 1e-6)
        x = rng.uniform(-200.0, 200.0)
        y = rng.uniform(-200.0, 200.0)
        calls.append(((a, b, x, y), two_sgn_oracle(a, b, x, y)))
    return calls


def layer_us_per_call(implicit: dict, implicit_trace: SimTrace, explicit: dict,
                      seed: int, repeats: int = 5) -> dict[str, float]:
    """The ``*.us_per_call`` per-layer metrics from recorded preset calls."""
    return {
        "resolvent.Interval.us_per_call": time_calls(
            resolvent.Interval, implicit["resolvent.Interval"], repeats),
        "resolvent.proj.us_per_call": time_calls(resolvent.proj, implicit["resolvent.proj"], repeats),
        "resolvent.solve_two_sgn.us_per_call": time_calls(
            resolvent.solve_two_sgn, two_sgn_calls(seed, 20_000), repeats),
        "controller.implicit_step.us_per_call": time_calls(
            controller.implicit_step, implicit["controller.implicit_step"], repeats),
        "controller.explicit_step.us_per_call": time_calls(
            controller.explicit_step, explicit["controller.explicit_step"], repeats),
        "plant.eval_disturbance.us_per_call": time_calls(
            plant.eval_disturbance, implicit["plant.eval_disturbance"], repeats),
        "plant.plant_step.us_per_call": time_calls(
            plant.plant_step, implicit["plant.plant_step"], repeats),
        "plant.trace_append.us_per_call": time_append(
            implicit["plant.SimTrace.append"], implicit_trace.L, implicit_trace, repeats),
    }


def time_call(fn, args: tuple, check, repeats: int) -> float:
    """Median ms of ``fn(*args)`` over ``repeats`` calls; ``check(result)``
    must hold for every result."""
    ms = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        ms.append((time.perf_counter() - t0) * 1e3)
        if not check(result):
            raise ReplayMismatch(f"{fn.__qualname__}: result differs from the golden")
    return statistics.median(ms)


def trace_bytes_per_row(trace: SimTrace) -> float:
    """Bytes held by the trace's column lists and their float objects, per row."""
    seen: set[int] = set()
    total = 0
    for column in TRACE_COLUMNS:
        values = getattr(trace, column)
        total += sys.getsizeof(values)
        for v in values:
            if id(v) not in seen:
                seen.add(id(v))
                total += sys.getsizeof(v)
    return total / trace.n


def layer_ms(trace: SimTrace, csv_path: str, golden: dict, repeats: int = 5) -> dict[str, float]:
    """The metrics and cli ``*.ms`` per-layer metrics, on the paper-implicit
    trace; each result is checked against the preset's golden outputs."""
    cfg = cli.get_preset("paper-implicit").cfg
    summary = golden["summary"]
    window = cli.steady_window(cfg)
    orders = cli.ORDERS[cfg.method]
    return {
        "metrics.precision_envelope.ms": time_call(
            metrics.precision_envelope, (trace, window, cfg.h, orders),
            lambda r: list(r.sup_abs_x) == summary["sup_abs_x"], repeats),
        "metrics.chatter_metrics.ms": time_call(
            metrics.chatter_metrics, (trace, window),
            lambda r: (r.total_variation_u, r.sign_flips_u_delta)
            == (summary["tv_u"], summary["sign_flips"]), repeats),
        "metrics.convergence_time.ms": time_call(
            metrics.convergence_time, (trace, summary["threshold"]),
            lambda r: r == summary["convergence_time_s"], repeats),
        "cli.write_trace_csv.ms": time_call(
            cli.write_trace_csv, (trace, csv_path),
            lambda r: sha256_file(csv_path) == golden["trace_sha256"], repeats),
        "cli.write_trace_csv.bytes": os.path.getsize(csv_path),
        "cli.read_trace_csv.ms": time_call(
            cli.read_trace_csv, (csv_path, cfg.gains.L),
            lambda r: all(getattr(r, c) == getattr(trace, c) for c in TRACE_COLUMNS), repeats),
        "cli.summarize.ms": time_call(
            cli.summarize, (trace, cfg), lambda r: same_summary(r, summary), repeats),
        "plant.trace_bytes_per_row": trace_bytes_per_row(trace),
    }


def layer_metrics(seed: int, csv_path: str, golden: dict) -> dict[str, float]:
    """Every replayed per-layer metric; ``golden`` is the paper-implicit one."""
    implicit, implicit_trace = record("paper-implicit")
    explicit, _ = record("paper-explicit")
    out = layer_us_per_call(implicit, implicit_trace, explicit, seed)
    out.update(layer_ms(implicit_trace, csv_path, golden))
    return out
