"""Continuous twisting algorithm simulator.

Explicit and implicit Euler discretizations of a twisting controller on a
perturbed double integrator, with interval-projection resolvents for the
set-valued signum terms, a fixed-step simulation harness, trace metrics,
and a CLI (``ctasim.cli``) for reproducing the benchmark experiments.
"""

from .controller import Gains
from .plant import Disturbance, SimConfig, Sinusoid, run_simulation
from .metrics import chatter_metrics, precision_envelope

__all__ = [
    "Gains", "Disturbance", "SimConfig", "Sinusoid", "run_simulation",
    "chatter_metrics", "precision_envelope",
]
