"""Perturbed double integrator, disturbance signals, fixed-step closed loop.

The plant is integrated with forward Euler exactly as the experiments
require:

    z1' = z1 + h*z2
    z2' = z2 + h*u + h*delta

The disturbance entering a step is sampled at the step's end time t + h
(an implicit sample, matching the backward-Euler controller's model of the
interval).  The controller itself is never shown delta; it only ever sees
the measured (z1, z2) and its own state.

Each trace row at time t holds the state at t, the input computed from it,
the integrator value eta at t, delta(t), and the fictitious state
z3 = eta + delta(t).  The final row's input is the controller output for
the final state, evaluated without committing the controller update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .controller import Gains, explicit_step, implicit_step, initial_state

DIVERGENCE_LIMIT = 1e12

METHODS = ("explicit", "implicit")


class SimulationDiverged(RuntimeError):
    """Raised when a state magnitude leaves the finite simulation range."""

    def __init__(self, step: int, t: float, detail: str):
        super().__init__(f"simulation diverged at step {step} (t={t:g}): {detail}")
        self.step = step
        self.t = t


@dataclass(frozen=True)
class PlantState:
    z1: float
    z2: float


@dataclass(frozen=True)
class Sinusoid:
    """One disturbance term amplitude*sin(omega*t) or amplitude*cos(omega*t)."""

    amplitude: float
    omega: float
    kind: str = "sin"

    def __post_init__(self) -> None:
        for name in ("amplitude", "omega"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.kind not in ("sin", "cos"):
            raise ValueError(f"kind must be 'sin' or 'cos', got {self.kind!r}")


@dataclass(frozen=True)
class Disturbance:
    """Constant plus a sum of sinusoids."""

    constant: float = 0.0
    sinusoids: tuple[Sinusoid, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.constant):
            raise ValueError(f"constant must be finite, got {self.constant!r}")


def eval_disturbance(d: Disturbance, t: float) -> float:
    """Return delta(t)."""
    delta = d.constant
    for term in d.sinusoids:
        phase = term.omega * t
        if term.kind == "sin":
            delta += term.amplitude * math.sin(phase)
        else:
            delta += term.amplitude * math.cos(phase)
    return delta


def plant_step(s: PlantState, u: float, delta: float, h: float) -> PlantState:
    """One forward-Euler update of the double integrator."""
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    nxt = PlantState(z1=s.z1 + h * s.z2, z2=s.z2 + h * u + h * delta)
    if not (math.isfinite(nxt.z1) and math.isfinite(nxt.z2)):
        raise SimulationDiverged(-1, float("nan"), f"non-finite plant state {nxt}")
    return nxt


@dataclass(frozen=True)
class SimConfig:
    h: float
    t_final: float
    method: str
    gains: Gains
    z1_0: float = 0.0
    z2_0: float = 0.0
    eta_0: float = 0.0
    disturbance: Disturbance = Disturbance()

    def __post_init__(self) -> None:
        for name in ("h", "t_final"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("z1_0", "z2_0", "eta_0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")

    @property
    def steps(self) -> int:
        return round(self.t_final / self.h)


TRACE_COLUMNS = ("t", "z1", "z2", "z3", "x1", "x2", "x3", "u", "u1", "eta", "delta")


@dataclass
class SimTrace:
    """Column-oriented record of one run; one row per time point."""

    L: float
    t: list[float] = field(default_factory=list)
    z1: list[float] = field(default_factory=list)
    z2: list[float] = field(default_factory=list)
    z3: list[float] = field(default_factory=list)
    x1: list[float] = field(default_factory=list)
    x2: list[float] = field(default_factory=list)
    x3: list[float] = field(default_factory=list)
    u: list[float] = field(default_factory=list)
    u1: list[float] = field(default_factory=list)
    eta: list[float] = field(default_factory=list)
    delta: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.t)

    def row(self, i: int) -> tuple[float, ...]:
        return tuple(getattr(self, c)[i] for c in TRACE_COLUMNS)

    def append(self, t, z1, z2, z3, u, u1, eta, delta) -> None:
        self.t.append(t)
        self.z1.append(z1)
        self.z2.append(z2)
        self.z3.append(z3)
        self.x1.append(z1 / self.L)
        self.x2.append(z2 / self.L)
        self.x3.append(z3 / self.L)
        self.u.append(u)
        self.u1.append(u1)
        self.eta.append(eta)
        self.delta.append(delta)


def _step_fn(method: str):
    return explicit_step if method == "explicit" else implicit_step


def run_simulation(cfg: SimConfig) -> SimTrace:
    """Run the closed loop for round(t_final/h) steps; return the full trace.

    Within a step: the input is computed from the current measured state and
    the controller memory, the row is recorded, then the plant advances with
    the disturbance sampled at the end of the interval.  That sample is the
    next step's delta(t): (k + 1)*h is the same float as the next k*h, so it
    is carried over rather than evaluated twice.
    """
    step = _step_fn(cfg.method)
    g = cfg.gains
    h = cfg.h
    n = cfg.steps
    state = initial_state(cfg.z1_0, cfg.z2_0, cfg.eta_0)
    plant = PlantState(cfg.z1_0, cfg.z2_0)
    trace = SimTrace(L=g.L)

    delta_now = eval_disturbance(cfg.disturbance, 0.0)
    for k in range(n):
        t = k * h
        out, next_state = step(plant.z1, plant.z2, state, g, h)
        trace.append(t, plant.z1, plant.z2, state.eta + delta_now,
                     out.u, out.u1, state.eta, delta_now)
        delta_now = eval_disturbance(cfg.disturbance, (k + 1) * h)
        try:
            plant = plant_step(plant, out.u, delta_now, h)
        except SimulationDiverged:
            raise SimulationDiverged(k, t, "non-finite plant state")
        state = next_state
        if (abs(plant.z1) > DIVERGENCE_LIMIT or abs(plant.z2) > DIVERGENCE_LIMIT
                or abs(state.eta) > DIVERGENCE_LIMIT):
            raise SimulationDiverged(
                k, t, f"|state| exceeded {DIVERGENCE_LIMIT:g} "
                      f"(z1={plant.z1:g}, z2={plant.z2:g}, eta={state.eta:g})")

    t = n * h
    out, _ = step(plant.z1, plant.z2, state, g, h)  # evaluated, not committed
    trace.append(t, plant.z1, plant.z2, state.eta + delta_now,
                 out.u, out.u1, state.eta, delta_now)
    return trace
