"""Run one benchmark workload and print its metrics as JSON.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 makes
the traced run and measures the per-layer metrics.  Every iteration's output
goes through the golden gate.  The last line of stdout is
{"correct", "attempted", "failed", "metrics"}; the line before it is the full
record (host, tail percentile, error rate, closure of self times), which is
also written under .bench_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
try:
    from perfbench import hostref, replay, stats, workloads
    from perfbench.tracer import Tracer
except ImportError as exc:  # not started from a checkout with src/ctasim
    sys.exit(f"error: run from the repository root: {exc}")

OUT_DIR = os.path.join(ROOT, ".bench_out")
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")

SETUP_PROBES = 15
PROFILE_ITERATIONS = 3


def host_record() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_sha256": src_tree_hash(),
    }


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_tree_hash() -> str:
    """Identifies the code under test where there is no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ctasim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode() + b"\0")
            with open(os.path.join(src, name), "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class Gate:
    """Counts attempted and failed gate checks; keeps the first errors."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, step) -> object:
        """Attempt ``step()``; an exception counts as one failure."""
        self.attempted += 1
        try:
            return step()
        except Exception as exc:  # every failure mode of an iteration counts
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
            return None


def timed(workload, gate: Gate, tracer=None) -> float:
    """One iteration: run (timed), then the golden check (untimed)."""
    gc.collect()
    box = {}

    def step():
        t0 = time.perf_counter()
        try:
            if tracer is None:
                box["result"] = workload.run()
            else:
                with tracer.iteration():
                    box["result"] = workload.run()
        finally:
            box["s"] = time.perf_counter() - t0
        workload.check(box["result"])

    gate.run(step)
    return box["s"]


def setup_argv(name: str, workdir: str) -> list[str]:
    if name == "trace-reload":
        return ["preset", "paper-implicit"]
    if name == "order-sweep":
        return ["main", *workloads.SWEEP_ARGV]
    return ["main", *workloads.simulate_argv(name, workdir)]


def setup_s(name: str, workdir: str) -> float:
    """Set-up time of one fresh interpreter."""
    proc = subprocess.run([sys.executable, PROBE, *setup_argv(name, workdir)],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def peak_mem_mb(workload, gate: Gate) -> float | None:
    """Peak Python-heap allocation of one untimed, checked iteration
    (tracemalloc).  This pass is also the warm-up before the timed ones."""
    def step():
        tracemalloc.start()
        try:
            result = workload.run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workload.check(result)
        return peak / 1e6

    gc.collect()
    return gate.run(step)


def end_to_end(workload, args, gate: Gate, workdir: str) -> tuple[dict, dict]:
    """The memory pass, then timed iterations with set-up probes between them.

    Every timed sample is rescaled to the nominal host speed (hostref.py).
    """
    peak_mb = peak_mem_mb(workload, gate)
    # Host speed moves in plateaus of seconds, so the set-up probes are
    # spread over the timed loop rather than run back to back.
    probe_every = args.seconds / SETUP_PROBES
    ref = hostref.Reference()
    raw, times, raw_setup, setup = [], [], [], []

    def probe():
        s, norm = ref.around(lambda: setup_s(args.workload, workdir))
        raw_setup.append(s)
        setup.append(norm)

    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < args.seconds:
        while len(setup) < SETUP_PROBES and elapsed >= len(setup) * probe_every:
            probe()
        s, norm = ref.around(lambda: timed(workload, gate))
        raw.append(s)
        times.append(norm)
    while len(setup) < SETUP_PROBES:
        probe()
    tail = stats.tail(times)
    metrics = {
        "steps_per_s": workload.steps * len(times) / sum(times),
        "iter_s.p50": statistics.median(times),
        "iter_s.tail": tail["value"],
        "setup_s": statistics.median(setup),
        "peak_mem_mb": peak_mb,
    }
    detail = {"iterations": len(times), "steps_per_iteration": workload.steps,
              "nominal_ref_chunk_s": hostref.NOMINAL_S, "iter_s": times, "tail": tail,
              "setup_s": setup,
              "raw": {"steps_per_s": workload.steps * len(raw) / sum(raw),
                      "iter_s.p50": statistics.median(raw), "iter_s": raw,
                      "setup_s": raw_setup},
              "ref_chunk_s": ref.chunks,
              "peak_mem": "Python heap only (tracemalloc peak)"}
    return metrics, detail


def layer_totals(iteration: dict) -> dict[str, float]:
    """Self seconds of one traced iteration summed per layer."""
    totals: dict[str, float] = {}
    for name, (_, _, self_s) in iteration.items():
        layer = name.partition(".")[0]
        totals[layer] = totals.get(layer, 0.0) + self_s
    return totals


def traced_run(workload, args, gate: Gate) -> tuple[dict, dict]:
    """Alternate untraced and traced iterations of the workload."""
    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not traced:
        plain.append(timed(workload, gate))
        tracer.install()
        try:
            traced.append(timed(workload, gate, tracer))
        finally:
            tracer.uninstall()
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    closure = []
    for wall, it in zip(traced, tracer.iterations):
        self_sum = sum(s[2] for s in it.values())
        closure.append({"traced_iter_s": wall, "self_sum_s": self_sum,
                        "gap_frac": abs(wall - self_sum) / wall,
                        "self_s_by_layer": layer_totals(it)})
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write_spans(spans_path)
    detail = {"missing_targets": tracer.patches.missing,
              "untraced_iter_s": plain, "traced_iter_s": traced,
              "trace_overhead_frac": overhead, "closure": closure,
              # trace-reload makes few wrapped calls, so its overhead is
              # near 0 and can read slightly negative.
              "closure_within_overhead": all(c["gap_frac"] <= abs(overhead) for c in closure),
              "spans_file": os.path.relpath(spans_path, ROOT),
              "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
              "calls_by_name": tracer.iterations[0]}
    return {"trace_overhead_frac": overhead}, detail


def profile(workdir: str, goldens: dict, gate: Gate) -> dict[str, float]:
    """Self times and per-step counts from traced paper-implicit simulate runs."""
    sim = workloads.Simulate("paper-implicit", workdir, goldens)
    tracer = Tracer(keep=0)
    tracer.install()
    try:
        for _ in range(PROFILE_ITERATIONS):
            timed(sim, gate, tracer)
    finally:
        tracer.uninstall()
    steps = sim.steps

    def med(name, field):
        return statistics.median([it.get(name, [0, 0.0, 0.0])[field] for it in tracer.iterations])

    def self_us_per_call(name):
        calls = med(name, 0)
        return med(name, 2) / calls * 1e6 if calls else 0.0

    return {
        "resolvent.intervals_per_step": med("resolvent.Interval", 0) / steps,
        "resolvent.proj_calls_per_step": med("resolvent.proj", 0) / steps,
        "controller.implicit_stage1.self_us": self_us_per_call("controller.implicit_stage1"),
        "controller.implicit_stage2.self_us": self_us_per_call("controller.implicit_stage2"),
        "controller.reconstructs_per_step": med("controller.reconstruct_disturbance", 0) / steps,
        "controller.velocity_refs_per_step": med("controller.velocity_reference", 0) / steps,
        "plant.eval_disturbance.calls_per_step": med("plant.eval_disturbance", 0) / steps,
        "plant.run_simulation.self_us_per_step": med("plant.run_simulation", 2) / steps * 1e6,
        "cli.main.self_ms": med("cli.main", 2) * 1e3,
    }


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def check_declared(metrics: dict, declared: dict) -> None:
    if set(metrics) != set(declared):
        raise ValueError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}")


def per_layer(workload, args, gate: Gate, workdir: str, goldens: dict) -> tuple[dict, dict]:
    values, detail = traced_run(workload, args, gate)
    values.update(profile(workdir, goldens, gate))
    csv_path = os.path.join(workdir, "replay.csv")
    values.update(gate.run(lambda: replay.layer_metrics(
        args.seed, csv_path, goldens["simulate"]["paper-implicit"])) or {})
    return values, detail


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    host = host_record()
    host["ref_chunk_s_start"] = hostref.median_chunk()
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir)
    gate = Gate()
    metrics, detail = {}, {}
    try:
        goldens = workloads.load_goldens()
        workload = gate.run(lambda: workloads.make(args.workload, workdir, goldens))
        if workload is not None:  # else its set-up failed the gate
            if args.trace:
                metrics, detail = per_layer(workload, args, gate, workdir, goldens)
            else:
                metrics, detail = end_to_end(workload, args, gate, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    host["ref_chunk_s_end"] = hostref.median_chunk()

    declared = declared_metrics(args.trace)
    if metrics:
        gate.run(lambda: check_declared(metrics, declared))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items() if k in metrics},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "host": host, "error_rate": gate.failed / gate.attempted,
              "errors": gate.errors, **detail, "result": result}
    path = os.path.join(OUT_DIR, f"record-{args.workload}-trace{args.trace}-seed{args.seed}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
