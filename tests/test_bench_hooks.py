"""The hooks the benchmark relies on, checked through perfbench itself.

``perfbench.replay.record`` wraps the names that ``ctasim.plant`` calls the
controller step, the plant step, the disturbance and ``SimTrace.append``
through, runs a preset, and keeps every call's arguments and result;
``run.py --trace 1`` replays them through the unwrapped functions.  A loop
that stops calling one of these names through its module, or a step whose
result is not a function of its arguments, breaks the traced benchmark
without failing any other test.
"""

from ctasim import controller
from ctasim.cli import get_preset
from perfbench import replay


def test_paper_implicit_calls_are_recorded_and_replay():
    calls, trace = replay.record("paper-implicit")
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
