"""Check the benchmark presets, the order sweep and the loop's kernels.

Usage (any Python from 3.10 on, from anywhere): python3 tests/golden_check.py

Runs perfbench's golden gate (perfbench/workloads.py) through ctasim.cli.main
in a temporary directory: each preset's trace CSV SHA-256 and summary and
the 4-point `paper-implicit` sweep's JSON against perfbench/goldens.json.
Then it checks what the gate does not: the sweep table's SHA-256 against
SWEEP_TABLE_SHA256; the paper-implicit trace CSV read back, as written
(in two processes where a second CPU is usable), in one process and as a
CRLF copy, into exactly sized arrays holding the simulated rows, with the
golden summary; that `simulate` and `sweep` start their runs
with no argparse parser alive (gc generations and array growth
are interpreter internals); and resolvent.nested_clamp and
plant.eval_disturbance against tests/oracles.py's references, bit for bit.
Prints one line per check and exits 1 on any mismatch.  It needs the
standard library only, so it runs on interpreters that cannot run the test
suite; tests/test_goldens.py calls the same checks, and runs this script
without numpy, hypothesis or pytest and with warnings as errors.
"""

import gc
import math
import os
import platform
import random
import sys
import tempfile
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path[1:1] = [os.path.join(ROOT, "src"), ROOT]

from ctasim import cli, plant  # noqa: E402
from ctasim.plant import Disturbance, Sinusoid, eval_disturbance  # noqa: E402
from ctasim.resolvent import nested_clamp  # noqa: E402
from oracles import disturbance, outcome, reference_nested_clamp  # noqa: E402
from perfbench import workloads  # noqa: E402

PRESETS = ("paper-explicit", "paper-implicit")
# The sweep's --out table (goldens.json pins only its JSON); the same on
# Python 3.10 to 3.13.
SWEEP_TABLE_SHA256 = "92732410b4966ce84fb832cb07e8d7587ae3f93d82908e168709935f0a2b7d1c"
# Commands of the zero preset that check_parsers_freed runs.
PARSER_ARGVS = {
    "simulate": ["simulate", "--preset", "zero", "--t-final", "0.01"],
    "sweep": ["sweep", "--preset", "zero", "--h-list", "0.5,0.25,0.2"],
}


def _gate(check, result) -> list[str]:
    """The benchmark gate's ``check(result)``: its GateError, or nothing."""
    try:
        check(result)
    except workloads.GateError as exc:
        return [str(exc)]
    return []


def check_preset(preset: str, workdir: str) -> list[str]:
    """`simulate --preset PRESET --out --summary`, writing to ``workdir``,
    through the benchmark's gate; returns the mismatches, empty if none."""
    sim = workloads.Simulate(preset, workdir, workloads.load_goldens())
    return _gate(sim.check, sim.run())


def _read_in_one_process(path: str, L: float):
    """cli.read_trace_csv with plant._two_processes forced false."""
    split = plant._two_processes
    plant._two_processes = lambda rows: False
    try:
        return cli.read_trace_csv(path, L)
    finally:
        plant._two_processes = split


def check_reload(workdir: str) -> list[str]:
    """Read back the paper-implicit trace CSV that check_preset wrote to
    ``workdir``, summarize it, and compare the result with the golden summary
    as the benchmark's trace-reload gate does; the trace's array must be
    sized exactly for its rows, 48 B each.  A CRLF copy of the file, and the
    file read in one process (the default read takes two where a second CPU
    is usable), must read back as the same rows, and all must hold the
    simulated trace's rows and times bit for bit.
    Returns the mismatches, empty if none."""
    cfg = cli.get_preset("paper-implicit").cfg
    plain = os.path.join(workdir, "paper-implicit.csv")
    crlf = os.path.join(workdir, "paper-implicit-crlf.csv")
    try:
        with open(plain, "rb") as src, open(crlf, "wb") as dst:
            dst.write(src.read().replace(b"\n", b"\r\n"))
        traces = [cli.read_trace_csv(path, cfg.gains.L) for path in (plain, crlf)]
        traces.append(_read_in_one_process(plain, cfg.gains.L))
    except (OSError, ValueError) as exc:
        return [f"cannot read the trace: {exc}"]
    golden = workloads.load_goldens()["simulate"]["paper-implicit"]["summary"]
    problems = [] if workloads.same_summary(cli.summarize(traces[0], cfg), golden) \
        else ["summary differs"]
    simulated = cli.run_simulation(cfg)
    for name, trace in zip(("plain", "CRLF", "one-process"), traces):
        slack = sys.getsizeof(trace._rows) - sys.getsizeof(array("d")) - 48 * trace.n
        if slack:
            problems.append(f"{name}: {slack} B of growth slack at {trace.n} rows")
        if (trace._rows.tobytes(), trace.t.tobytes()) != (simulated._rows.tobytes(),
                                                          simulated.t.tobytes()):
            problems.append(f"{name}: rows differ from the simulated trace's")
    if traces[2]._rows != traces[0]._rows:
        problems.append("the one-process read differs from the default read")
    return problems


def check_sweep(workdir: str) -> list[str]:
    """The 4-point sweep's printed JSON through the benchmark's gate, and the
    SHA-256 of its --out table, written to ``workdir``, against
    SWEEP_TABLE_SHA256; returns the mismatches, empty if none."""
    table = os.path.join(workdir, "sweep.csv")
    rc, out = workloads.quiet_main([*workloads.SWEEP_ARGV, "--out", table])
    sweep = workloads.OrderSweep(workdir, workloads.load_goldens())
    problems = _gate(sweep.check, (rc, out))
    if rc == 0 and workloads.sha256_file(table) != SWEEP_TABLE_SHA256:
        problems.append("sweep table SHA-256 differs")
    return problems


def check_parsers_freed(argv: list[str]) -> list[str]:
    """``argv`` must enter cli.run_simulation with no argparse object alive
    but its Namespace; returns the mismatches, empty if none."""
    def argparse_objects():
        return [o for o in gc.get_objects() if type(o).__module__ == "argparse"]

    gc.collect()
    before = {id(o) for o in argparse_objects()}  # a caller's own parsers
    real = cli.run_simulation
    seen = []

    def spy(*args):
        seen.append(sorted(type(o).__name__ for o in argparse_objects()
                           if id(o) not in before))
        return real(*args)

    cli.run_simulation = spy
    try:
        rc, _ = workloads.quiet_main(argv)
    finally:
        cli.run_simulation = real
    if rc != 0:
        return [f"{argv[0]}: exit code {rc}"]
    if not seen or any(names != ["Namespace"] for names in seen):
        return [f"{argv[0]}: {max(map(len, seen), default=0)} argparse "
                f"objects alive at run start, not only its Namespace"]
    return []


KERNEL_SAMPLES = 2000


def check_kernels() -> list[str]:
    """resolvent.nested_clamp and plant.eval_disturbance against
    oracles.reference_nested_clamp and oracles.disturbance on
    KERNEL_SAMPLES draws each of a fixed random.Random(0), bit for bit (and
    nested_clamp's ValueError message for a bad interval); returns the
    first three mismatches, empty if none.

    nested_clamp gets C = [A - B, A + B] with A, B >= 0, and y, x drawn
    from signed zeros, infinities, NaN and values across the float range;
    one draw in eight swaps lo and hi.  eval_disturbance gets 0 to 4 terms
    of both kinds and a finite t, and the paper's disturbance."""
    rng = random.Random(0)
    special = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 5e-324, 1e308)

    def value():
        if rng.random() < 0.25:
            return rng.choice(special)
        return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-20.0, 20.0)

    problems = []
    for _ in range(KERNEL_SAMPLES):
        a, b, y, x = abs(value()), abs(value()), value(), value()
        lo, hi = (a + b, a - b) if rng.random() < 0.125 else (a - b, a + b)
        got = outcome(nested_clamp, lo, hi, y, x)
        if got != outcome(reference_nested_clamp, lo, hi, y, x):
            problems.append(f"nested_clamp{(lo, hi, y, x)!r} gives {got!r}")
    disturbances = [cli.PAPER_DISTURBANCE]
    for _ in range(KERNEL_SAMPLES):
        terms = [Sinusoid(rng.uniform(-1e3, 1e3), rng.uniform(-1e2, 1e2),
                          rng.choice(("sin", "cos"))) for _ in range(rng.randint(0, 4))]
        disturbances.append(Disturbance(rng.uniform(-1e3, 1e3), terms))
    for d in disturbances:
        t = rng.uniform(-1e3, 1e3)
        if outcome(eval_disturbance, d, t) != outcome(disturbance, d, t):
            problems.append(f"eval_disturbance({d!r}, {t!r}) differs")
    return problems[:3]


def main() -> int:
    print(f"Python {platform.python_version()}")
    with tempfile.TemporaryDirectory() as workdir:
        results = [(preset, check_preset(preset, workdir)) for preset in PRESETS]
        results.append(("trace-reload", check_reload(workdir)))
        results.append(("sweep", check_sweep(workdir)))
    for name, problems in results:
        print(f"{'MISMATCH' if problems else 'ok'}  {name}: "
              f"{'; '.join(problems) or 'matches the golden'}")
    parsers = [p for argv in PARSER_ARGVS.values() for p in check_parsers_freed(argv)]
    print(f"{'FAIL' if parsers else 'ok'}  parsers: "
          f"{'; '.join(parsers) or 'none alive at run start'}")
    kernels = check_kernels()
    print(f"{'FAIL' if kernels else 'ok'}  kernels: "
          f"{'; '.join(kernels) or 'nested_clamp and eval_disturbance match the oracles'}")
    return 1 if parsers or kernels or any(problems for _, problems in results) else 0


if __name__ == "__main__":
    sys.exit(main())
