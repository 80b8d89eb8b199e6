"""Continuous twisting algorithm simulator.

Explicit and implicit Euler discretizations of a twisting controller on a
perturbed double integrator, with interval-projection resolvents for the
set-valued signum terms, a fixed-step simulation harness, trace metrics,
and a CLI for reproducing the benchmark experiments.
"""

from .resolvent import (
    Interval,
    nested_sgn_projection,
    proj,
    sign_selection,
    solve_interval_sgn,
    solve_sgnsat,
    solve_two_sgn,
)
from .controller import (
    ControlOutput,
    ControllerState,
    Gains,
    explicit_step,
    fractional_power,
    implicit_step,
    initial_state,
)
from .plant import (
    DIVERGENCE_LIMIT,
    Disturbance,
    PlantState,
    SimConfig,
    SimTrace,
    SimulationDiverged,
    Sinusoid,
    eval_disturbance,
    plant_step,
    run_simulation,
)
from .metrics import (
    ChatterReport,
    PrecisionReport,
    chatter_metrics,
    convergence_time,
    precision_envelope,
)
from .cli import (
    ORDERS,
    PAPER_DISTURBANCE,
    PAPER_GAINS,
    PRESETS,
    SweepResult,
    SweepSpec,
    read_trace_csv,
    run_preset,
    run_sweep,
    write_trace_csv,
)

__all__ = [
    "Interval", "nested_sgn_projection", "proj", "sign_selection",
    "solve_interval_sgn", "solve_sgnsat", "solve_two_sgn",
    "ControlOutput", "ControllerState", "Gains", "explicit_step",
    "fractional_power", "implicit_step", "initial_state",
    "DIVERGENCE_LIMIT", "Disturbance", "PlantState", "SimConfig", "SimTrace",
    "SimulationDiverged", "Sinusoid", "eval_disturbance", "plant_step",
    "run_simulation",
    "ChatterReport", "PrecisionReport", "chatter_metrics", "convergence_time",
    "precision_envelope",
    "ORDERS", "PAPER_DISTURBANCE", "PAPER_GAINS", "PRESETS", "SweepResult",
    "SweepSpec", "read_trace_csv", "run_preset", "run_sweep", "write_trace_csv",
]
