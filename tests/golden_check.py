"""Check the benchmark presets and the order sweep against the goldens.

Usage (any Python from 3.10 on, from anywhere): python3 tests/golden_check.py

Runs `ctasim simulate` for paper-explicit and paper-implicit and the 4-point
`paper-implicit` sweep through ctasim.cli.main in a temporary directory, and
compares the trace CSV SHA-256s, the summaries and the sweep JSON with
perfbench/goldens.json, which it only reads, and the sweep table's SHA-256
with SWEEP_TABLE_SHA256.  It also reads the paper-implicit trace CSV back
and summarizes it (the read side of the CSV codec), which must give the
golden summary from a trace with no array growth slack; reads a CRLF copy
of it, which takes the reader's text path; compares both reads with the
simulated trace's rows; and checks that both commands start their runs
with no argparse parser alive.  gc generations and array growth are
interpreter internals, so those two facts are checked on every version
too.  Last, it compares the loop's two kernels, resolvent.nested_clamp and
plant.eval_disturbance, with inline reference formulas on a fixed random
sample, bit for bit.  Prints one line per check and exits 1 on any
mismatch.  It needs the standard library only (no pytest, numpy or
hypothesis), so it runs on interpreters that cannot run the test suite;
tests/test_goldens.py calls the same golden and kernel check functions,
and tests/test_cli.py makes the parser check its own way.
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import struct
import sys
import tempfile
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))

from ctasim import cli  # noqa: E402
from ctasim.plant import Disturbance, Sinusoid, eval_disturbance  # noqa: E402
from ctasim.resolvent import nested_clamp  # noqa: E402

GOLDENS = os.path.join(ROOT, "perfbench", "goldens.json")
PRESETS = ("paper-explicit", "paper-implicit")
SWEEP_ARGV = ["sweep", "--preset", "paper-implicit", "--h-list", "1e-3,5e-4,2e-4,1e-4"]
# The sweep's --out table (goldens.json pins only its JSON); the same on
# Python 3.10 to 3.13.
SWEEP_TABLE_SHA256 = "92732410b4966ce84fb832cb07e8d7587ae3f93d82908e168709935f0a2b7d1c"


def load_goldens() -> dict:
    with open(GOLDENS) as f:
        return json.load(f)


def _main(argv: list[str]) -> tuple[int, str]:
    """cli.main with its stdout captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def check_preset(preset: str, workdir: str) -> list[str]:
    """`simulate --preset PRESET --out --summary` against its golden trace
    SHA-256 and summary; returns the mismatches, empty if none."""
    golden = load_goldens()["simulate"][preset]
    csv, summary = (os.path.join(workdir, f"{preset}.{ext}") for ext in ("csv", "json"))
    rc, _ = _main(["simulate", "--preset", preset, "--out", csv, "--summary", summary])
    if rc != 0:
        return [f"exit code {rc}"]
    problems = []
    with open(csv, "rb") as f:
        if hashlib.sha256(f.read()).hexdigest() != golden["trace_sha256"]:
            problems.append("trace SHA-256 differs")
    with open(summary) as f:
        if json.load(f) != golden["summary"]:
            problems.append("summary differs")
    return problems


def check_reload(workdir: str) -> list[str]:
    """Read back the paper-implicit trace CSV that check_preset wrote to
    ``workdir``, summarize it, and compare the result with the golden summary
    less its preset key; the trace's array must be sized exactly for its
    rows.  A CRLF copy of the file, which the reader decodes as text where
    it parses the plain file as bytes, must read back as the same rows, and
    both must hold the simulated trace's rows bit for bit.  Returns the
    mismatches, empty if none."""
    cfg = cli.get_preset("paper-implicit").cfg
    plain = os.path.join(workdir, "paper-implicit.csv")
    crlf = os.path.join(workdir, "paper-implicit-crlf.csv")
    try:
        with open(plain, "rb") as src, open(crlf, "wb") as dst:
            dst.write(src.read().replace(b"\n", b"\r\n"))
        traces = [cli.read_trace_csv(path, cfg.gains.L) for path in (plain, crlf)]
    except (OSError, ValueError) as exc:
        return [f"cannot read the trace: {exc}"]
    golden = dict(load_goldens()["simulate"]["paper-implicit"]["summary"])
    del golden["preset"]
    summary = json.loads(json.dumps(cli.summarize(traces[0], cfg)))
    problems = [] if summary == golden else ["summary differs"]
    simulated = cli.run_simulation(cfg)._rows.tobytes()
    for name, trace in zip(("plain", "CRLF"), traces):
        slack = sys.getsizeof(trace._rows) - sys.getsizeof(array("d")) - 56 * trace.n
        if slack:
            problems.append(f"{name}: {slack} B of growth slack at {trace.n} rows")
        if trace._rows.tobytes() != simulated:
            problems.append(f"{name}: rows differ from the simulated trace's")
    return problems


def check_sweep(workdir: str) -> list[str]:
    """The 4-point sweep's printed JSON against its golden and the SHA-256 of
    its --out table, written to ``workdir``, against SWEEP_TABLE_SHA256;
    returns the mismatches, empty if none."""
    table = os.path.join(workdir, "sweep.csv")
    rc, out = _main([*SWEEP_ARGV, "--out", table])
    if rc != 0:
        return [f"exit code {rc}"]
    problems = [] if json.loads(out) == load_goldens()["sweep"] else ["sweep JSON differs"]
    with open(table, "rb") as f:
        if hashlib.sha256(f.read()).hexdigest() != SWEEP_TABLE_SHA256:
            problems.append("sweep table SHA-256 differs")
    return problems


def check_parsers_freed() -> list[str]:
    """`simulate` and `sweep` of the zero preset must enter
    cli.run_simulation with no argparse object alive but their Namespace;
    returns the mismatches, empty if none."""
    def argparse_objects():
        return [o for o in gc.get_objects() if type(o).__module__ == "argparse"]

    real = cli.run_simulation
    seen = []

    def spy(*args):
        seen.append(sorted(type(o).__name__ for o in argparse_objects()
                           if id(o) not in before))
        return real(*args)

    problems = []
    cli.run_simulation = spy
    try:
        for argv in (["simulate", "--preset", "zero", "--t-final", "0.01"],
                     ["sweep", "--preset", "zero", "--h-list", "0.5,0.25,0.2"]):
            gc.collect()
            before = {id(o) for o in argparse_objects()}  # a caller's own parsers
            seen.clear()
            rc, _ = _main(argv)
            if rc != 0:
                problems.append(f"{argv[0]}: exit code {rc}")
            elif not seen or any(names != ["Namespace"] for names in seen):
                problems.append(f"{argv[0]}: {max(map(len, seen), default=0)} argparse "
                                f"objects alive at run start, not only its Namespace")
    finally:
        cli.run_simulation = real
    return problems


def _clamp(lo: float, hi: float, v: float) -> float:
    return lo if v < lo else (hi if v > hi else v)


def _reference_nested_clamp(lo: float, hi: float, y: float, x: float) -> float:
    """proj([proj(-C, y), proj(C, y)], x) for C = [lo, hi], checking C and
    then the inner interval as resolvent.Interval does."""
    if not lo <= hi:
        raise ValueError(f"malformed interval: lo={lo!r} > hi={hi!r}")
    ilo, ihi = _clamp(-hi, -lo, y), _clamp(lo, hi, y)
    if not ilo <= ihi:
        raise ValueError(f"malformed interval: lo={ilo!r} > hi={ihi!r}")
    return _clamp(ilo, ihi, x)


def _reference_disturbance(d: Disturbance, t: float) -> float:
    """delta(t) from each term's fields, added in order."""
    delta = d.constant
    for term in d.sinusoids:
        phase = term.omega * t
        delta += term.amplitude * (math.sin(phase) if term.kind == "sin" else math.cos(phase))
    return delta


def _outcome(f, *args):
    """f(*args) as its result's bits, or the message of the ValueError it raises."""
    try:
        return struct.pack("d", f(*args))
    except ValueError as exc:
        return str(exc)


KERNEL_SAMPLES = 2000


def check_kernels() -> list[str]:
    """resolvent.nested_clamp and plant.eval_disturbance against the inline
    reference formulas above on KERNEL_SAMPLES draws each of a fixed
    random.Random(0), bit for bit (and nested_clamp's ValueError message
    for a bad interval); returns the first three mismatches, empty if none.

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
        got = _outcome(nested_clamp, lo, hi, y, x)
        if got != _outcome(_reference_nested_clamp, lo, hi, y, x):
            problems.append(f"nested_clamp{(lo, hi, y, x)!r} gives {got!r}")
    disturbances = [cli.PAPER_DISTURBANCE]
    for _ in range(KERNEL_SAMPLES):
        terms = [Sinusoid(rng.uniform(-1e3, 1e3), rng.uniform(-1e2, 1e2),
                          rng.choice(("sin", "cos"))) for _ in range(rng.randint(0, 4))]
        disturbances.append(Disturbance(rng.uniform(-1e3, 1e3), terms))
    for d in disturbances:
        t = rng.uniform(-1e3, 1e3)
        if _outcome(eval_disturbance, d, t) != _outcome(_reference_disturbance, d, t):
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
    parsers = check_parsers_freed()
    print(f"{'FAIL' if parsers else 'ok'}  parsers: "
          f"{'; '.join(parsers) or 'none alive at run start'}")
    kernels = check_kernels()
    print(f"{'FAIL' if kernels else 'ok'}  kernels: "
          f"{'; '.join(kernels) or 'nested_clamp and eval_disturbance match the references'}")
    return 1 if parsers or kernels or any(problems for _, problems in results) else 0


if __name__ == "__main__":
    sys.exit(main())
