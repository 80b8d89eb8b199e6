import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# Filled in by test_acceptance; printed at the end of the run so every
# criterion gets its own pass/fail line in the terminal summary.
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status}  {name}: {detail}")


@pytest.fixture
def nan_plant_from_step_3(monkeypatch):
    """Make ctasim.plant.plant_step return the state (nan, 0) from step 3 on."""
    from ctasim import plant

    real = plant.plant_step
    calls = []

    def fake(z1, z2, u, delta, h):
        calls.append(None)
        return (math.nan, 0.0) if len(calls) > 3 else real(z1, z2, u, delta, h)

    monkeypatch.setattr(plant, "plant_step", fake)
