"""The hooks the benchmark relies on, checked through perfbench itself.

``perfbench.replay.record`` wraps the names that ``ctasim.plant`` calls the
controller step, the plant step, the disturbance and ``SimTrace.append``
through, runs a preset, and keeps every call's arguments and result;
``run.py --trace 1`` replays them through the unwrapped functions and times
the trace-level functions it reaches through ``ctasim.cli``.  A loop that
stops calling one of these names through its module, a step whose result is
not a function of its arguments, or a name moved out of the module the
benchmark reads it from breaks the traced benchmark without failing any
other test.  ``perfbench/setup_probe.py`` stops each listed workload's
command at its first ``cli.run_simulation`` call; a command that stops
calling it, or calls it with arguments the probe's stand-in does not take,
fails every set-up probe, and so every benchmark run.
"""

import json
import math
import os
import subprocess
import sys

import pytest

from ctasim import controller
from ctasim.cli import get_preset
from perfbench import replay, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def _listed_workloads() -> list[str]:
    with open(BENCHMARK) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


@pytest.fixture(scope="module")
def recorded():
    implicit, implicit_trace = replay.record("paper-implicit")
    explicit, _ = replay.record("paper-explicit")
    return implicit, implicit_trace, explicit


def test_paper_implicit_calls_are_recorded_and_replay(recorded):
    calls, trace, _ = recorded
    n = get_preset("paper-implicit").cfg.steps
    assert trace.n == n + 1
    assert len(calls["controller.implicit_step"]) == n + 1  # n steps + the final row
    assert len(calls["plant.SimTrace.append"]) == n + 1
    assert len(calls["plant.plant_step"]) == n
    assert len(calls["plant.eval_disturbance"]) == n + 1
    assert calls["controller.explicit_step"] == []
    steps = calls["controller.implicit_step"]
    sample = steps[:3] + steps[3:-1:97] + steps[-1:]
    # raises ReplayMismatch unless every replayed result equals the recorded one
    assert replay.time_calls(controller.implicit_step, sample, repeats=1) > 0.0


def test_per_layer_replay_reaches_every_name_and_matches_goldens(recorded, tmp_path):
    """layer_us_per_call and layer_ms look up each cli, metrics, plant,
    controller and resolvent name the traced run reads, and raise
    ReplayMismatch unless every result equals the recorded call or the
    paper-implicit golden (trace SHA-256 and summary)."""
    implicit, trace, explicit = recorded
    golden = workloads.load_goldens()["simulate"]["paper-implicit"]
    values = replay.layer_us_per_call(implicit, trace, explicit, seed=0, repeats=1)
    values.update(replay.layer_ms(trace, str(tmp_path / "trace.csv"), golden, repeats=1))
    with open(BENCHMARK) as f:
        declared = {m["name"] for m in json.load(f)["per_layer"]}
    assert set(values) <= declared
    assert all(math.isfinite(v) and v >= 0.0 for v in values.values())
    assert values["controller.explicit_step.us_per_call"] > 0.0
    assert values["cli.read_trace_csv.ms"] > 0.0


@pytest.mark.parametrize("workload", _listed_workloads())
def test_setup_probe_reaches_the_first_step(workload, monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends to it on import
    from perfbench import run

    proc = subprocess.run([sys.executable, run.PROBE, *run.setup_argv(workload, str(tmp_path))],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.splitlines()[-1]) > 0.0
