"""The benchmark presets' outputs, pinned to the recorded goldens.

``perfbench/goldens.json`` holds the SHA-256 of each preset's trace CSV and
its summary JSON (recorded on this platform's libm; see
``perfbench/make_goldens.py``).  Any change to the bytes a preset writes
fails here, not only in the benchmark's gate.  The preset, trace read-back
and sweep (JSON and table) checks, and the kernel check, are
``tests/golden_check.py``'s, which also runs alone on interpreters without
pytest.
"""

import math

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
    golden summary, and its array holds no growth slack."""
    assert golden_check.check_preset("paper-implicit", str(tmp_path)) == []
    assert golden_check.check_reload(str(tmp_path)) == []


def test_writer_matches_per_value_format(tmp_path):
    """Row-at-a-time %-formatting writes the bytes of a per-value
    f"{v:.17g}" join, edge values and the derived z3 = eta + delta and
    x = z/L columns included."""
    edge = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, 1e308, -1e308,
            math.nan, 0.1, 1.0 / 3.0, 35.6, 1e-17, 123456789012345678.0]
    trace = SimTrace(L=3.0)
    for i in range(len(edge)):
        t, z1, z2, u, u1, eta, delta = (edge[(i + j) % len(edge)] for j in range(7))
        trace.append(t, z1, z2, u, u1, eta, delta)
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
    """nested_clamp and eval_disturbance against golden_check's stdlib
    reference formulas, the check that interpreters without pytest run."""
    assert golden_check.check_kernels() == []


def test_order_sweep_json(tmp_path):
    """The sweep perfbench times, with its JSON pinned bit for bit: the only
    check on precision_envelope's bits across step sizes (criterion 6 checks
    the fitted slopes to +-0.7).  Its --out table is pinned by SHA-256."""
    assert golden_check.check_sweep(str(tmp_path)) == []
