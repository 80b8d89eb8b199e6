"""The benchmark presets' outputs, pinned to the recorded goldens.

``perfbench/goldens.json`` holds the SHA-256 of each preset's trace CSV and
its summary JSON (recorded on this platform's libm; see
``perfbench/make_goldens.py``).  Any change to the bytes a preset writes
fails here, not only in the benchmark's gate.
"""

import hashlib
import json
import math
import os

import pytest

from ctasim.cli import TRACE_HEADER, run_preset, write_trace_csv
from ctasim.plant import SimTrace

GOLDENS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "goldens.json")


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDENS) as f:
        return json.load(f)["simulate"]


@pytest.mark.parametrize("preset", ["paper-explicit", "paper-implicit"])
def test_preset_trace_and_summary(preset, goldens, tmp_path):
    trace, summary = run_preset(preset)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == goldens[preset]["trace_sha256"]
    assert json.loads(json.dumps(summary)) == goldens[preset]["summary"]


def test_writer_matches_per_value_format(tmp_path):
    """Row-at-a-time %-formatting writes the bytes of a per-value
    f"{v:.17g}" join, edge values and the derived x = z/L columns included."""
    edge = [-0.0, 0.0, 5e-324, -5e-324, math.inf, -math.inf, 1e308, -1e308,
            math.nan, 0.1, 1.0 / 3.0, 35.6, 1e-17, 123456789012345678.0]
    trace = SimTrace(L=3.0)
    for i in range(len(edge)):
        trace.append(*(edge[(i + j) % len(edge)] for j in range(8)))
    path = tmp_path / "edge.csv"
    write_trace_csv(trace, str(path))
    expected = TRACE_HEADER + "\n" + "".join(
        ",".join(f"{v:.17g}" for v in trace.row(i)) + "\n" for i in range(trace.n))
    assert path.read_bytes() == expected.encode()
