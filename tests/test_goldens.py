"""The benchmark presets' outputs, pinned to the recorded goldens.

``perfbench/goldens.json`` holds the SHA-256 of each preset's trace CSV and
its summary JSON (recorded on this platform's libm; see
``perfbench/make_goldens.py``).  Any change to the bytes a preset writes
fails here, not only in the benchmark's gate.  The preset, trace read-back,
sweep, parser and kernel checks are ``tests/golden_check.py``'s, which runs
perfbench's gate and ``tests/oracles.py``'s references; the last test runs
that script as the interpreters without pytest run it, with warnings as
errors.  The writer tests compare the trace and sweep CSVs with a per-value
format.
"""

import math
import os
import subprocess
import sys

import pytest

import golden_check
from ctasim.cli import SWEEP_HEADER, SweepResult, SweepRow, write_sweep_csv
from ctasim.plant import TRACE_HEADER, SimTrace, write_trace_csv
from oracles import row


@pytest.mark.parametrize("preset", golden_check.PRESETS)
def test_preset_trace_and_summary(preset, tmp_path):
    assert golden_check.check_preset(preset, str(tmp_path)) == []


def test_trace_reload_summary(tmp_path):
    """The paper-implicit trace, read back from its CSV, summarizes to the
    golden summary, and its array holds no growth slack: 48 B per row, with
    t = k*h derived."""
    assert golden_check.check_preset("paper-implicit", str(tmp_path)) == []
    assert golden_check.check_reload(str(tmp_path)) == []


def test_writer_matches_per_value_format(tmp_path):
    """Row-at-a-time %-formatting writes the bytes of a per-value
    f"{v:.17g}" join, edge values in the six stored columns and the derived
    t = k*h, z3 = eta + delta and x = z/L columns included."""
    edge = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, 1e308, -1e308,
            math.nan, 0.1, 1.0 / 3.0, 35.6, 1e-17, 123456789012345678.0]
    trace = SimTrace(L=3.0)
    for k in range(len(edge)):
        trace.append(k * 0.1, *(edge[(k + j) % len(edge)] for j in range(6)))
    path = tmp_path / "edge.csv"
    write_trace_csv(trace, str(path))
    expected = TRACE_HEADER + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in row(trace, i)) + "\n" for i in range(trace.n))
    assert path.read_bytes() == expected.encode()


def test_sweep_writer_matches_per_value_format(tmp_path):
    """The sweep table's one %-format per row writes the bytes of a per-value
    f"{v:.17g}" join, a divergent row's nan cells included."""
    result = SweepResult(method="implicit", slopes=(None, None, None), rows=(
        SweepRow(h=5e-324, sup_abs_x=(0.0, -0.0, 1e308), status="ok"),
        SweepRow(h=1e308, sup_abs_x=None, status="divergent"),
        SweepRow(h=0.1, sup_abs_x=(1.0 / 3.0, 5e-324, 123456789012345678.0), status="ok"),
    ))
    path = tmp_path / "sweep.csv"
    write_sweep_csv(result, str(path))
    expected = SWEEP_HEADER + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in (r.h, *(r.sup_abs_x or (math.nan,) * 3)))
        + f",{r.status}\n" for r in result.rows)
    assert path.read_bytes() == expected.encode()


def test_kernels_match_inline_references():
    """nested_clamp and eval_disturbance against the stdlib references in
    tests/oracles.py, the check that interpreters without pytest run."""
    assert golden_check.check_kernels() == []


@pytest.mark.parametrize("argv", golden_check.PARSER_ARGVS.values(),
                         ids=golden_check.PARSER_ARGVS.keys())
def test_run_starts_with_no_parser_alive(argv):
    """Parsers are reference cycles, and a run allocates too few containers
    to trigger the collector; main collects them first."""
    assert golden_check.check_parsers_freed(argv) == []


def test_order_sweep_json(tmp_path):
    """The sweep perfbench times, with its JSON pinned bit for bit: the only
    check on precision_envelope's bits across step sizes (criterion 6 checks
    the fitted slopes to +-0.7).  Its --out table is pinned by SHA-256."""
    assert golden_check.check_sweep(str(tmp_path)) == []


def test_script_runs_on_the_standard_library_alone(tmp_path):
    """golden_check as __main__, from outside the repository and with
    numpy, hypothesis and pytest unimportable, as `python3
    tests/golden_check.py` runs on interpreters without them: exit 0 and
    one ok line per check, with any warning an error."""
    script = os.path.abspath(golden_check.__file__)
    code = ("import runpy, sys\n"
            "sys.modules.update(numpy=None, hypothesis=None, pytest=None)\n"
            f"sys.path[0] = {os.path.dirname(script)!r}  # a script's own directory\n"
            f"runpy.run_path({script!r}, run_name='__main__')\n")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("Python ")
    assert [line.split(":")[0] for line in lines[1:]] == [
        "ok  paper-explicit", "ok  paper-implicit", "ok  trace-reload", "ok  sweep",
        "ok  parsers", "ok  kernels"]
