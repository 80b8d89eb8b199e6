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

# The largest run in the repository is the sweep's 1e5 steps; 1e7 rows of
# eight float columns take about 2.6 GB.
MAX_STEPS = 10_000_000

METHODS = ("explicit", "implicit")


class SimulationDiverged(RuntimeError):
    """Raised when a state magnitude leaves the finite simulation range."""

    def __init__(self, step: int, t: float, detail: str):
        super().__init__(f"simulation diverged at step {step} (t={t:g}): {detail}")
        self.step = step
        self.t = t


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


def plant_step(z1: float, z2: float, u: float, delta: float, h: float) -> tuple[float, float]:
    """One forward-Euler update of the double integrator; returns (z1, z2)."""
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    return z1 + h * z2, z2 + h * u + h * delta


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
        # A whole number of steps, from 1 to MAX_STEPS; the ratio overflows
        # to inf for a tiny h, which fails the first test too.
        steps = self.t_final / self.h
        if not steps < MAX_STEPS + 0.5:
            raise ValueError(f"h must give at most {MAX_STEPS} steps over t_final="
                             f"{self.t_final!r}, got {self.h!r} ({steps:.3g} steps)")
        if round(steps) < 1:
            raise ValueError(f"t_final must span at least one step h={self.h!r}, "
                             f"got {self.t_final!r}")
        if abs(round(steps) * self.h - self.t_final) > 1e-9 * self.t_final:
            raise ValueError(f"t_final must be a whole number of steps h={self.h!r}, "
                             f"got {self.t_final!r} ({steps:.6g} steps)")
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
    """Column-oriented record of one run; one row per time point.

    x1..x3 = z/L are derived on each read, not stored.
    """

    L: float
    t: list[float] = field(default_factory=list)
    z1: list[float] = field(default_factory=list)
    z2: list[float] = field(default_factory=list)
    z3: list[float] = field(default_factory=list)
    u: list[float] = field(default_factory=list)
    u1: list[float] = field(default_factory=list)
    eta: list[float] = field(default_factory=list)
    delta: list[float] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.t)

    x1 = property(lambda self: [z / self.L for z in self.z1])
    x2 = property(lambda self: [z / self.L for z in self.z2])
    x3 = property(lambda self: [z / self.L for z in self.z3])

    def row(self, i: int) -> tuple[float, ...]:
        z1, z2, z3, L = self.z1[i], self.z2[i], self.z3[i], self.L
        return (self.t[i], z1, z2, z3, z1 / L, z2 / L, z3 / L,
                self.u[i], self.u1[i], self.eta[i], self.delta[i])

    def append(self, t, z1, z2, z3, u, u1, eta, delta) -> None:
        self.t.append(t)
        self.z1.append(z1)
        self.z2.append(z2)
        self.z3.append(z3)
        self.u.append(u)
        self.u1.append(u1)
        self.eta.append(eta)
        self.delta.append(delta)


def run_simulation(cfg: SimConfig) -> SimTrace:
    """Run the closed loop for cfg.steps steps; return the full trace.

    Within a step: the input is computed from the current measured state and
    the controller memory, the row is recorded, then the plant advances with
    the disturbance sampled at the end of the interval.  That sample is the
    next step's delta(t): (k + 1)*h is the same float as the next k*h, so it
    is carried over rather than evaluated twice.
    """
    step = explicit_step if cfg.method == "explicit" else implicit_step
    g = cfg.gains
    h = cfg.h
    n = cfg.steps
    state = initial_state(cfg.z1_0, cfg.z2_0, cfg.eta_0)
    z1, z2 = cfg.z1_0, cfg.z2_0
    trace = SimTrace(L=g.L)

    delta_now = eval_disturbance(cfg.disturbance, 0.0)
    for k in range(n):
        t = k * h
        out, next_state = step(z1, z2, state, g, h)
        trace.append(t, z1, z2, state.eta + delta_now,
                     out.u, out.u1, state.eta, delta_now)
        delta_now = eval_disturbance(cfg.disturbance, (k + 1) * h)
        z1, z2 = plant_step(z1, z2, out.u, delta_now, h)
        state = next_state
        # Written as "not within", so that NaN, which fails every
        # comparison, diverges too.
        if not (abs(z1) <= DIVERGENCE_LIMIT and abs(z2) <= DIVERGENCE_LIMIT
                and abs(state.eta) <= DIVERGENCE_LIMIT):
            raise SimulationDiverged(
                k, t, f"|state| exceeded {DIVERGENCE_LIMIT:g} "
                      f"(z1={z1:g}, z2={z2:g}, eta={state.eta:g})")

    t = n * h
    out, _ = step(z1, z2, state, g, h)  # evaluated, not committed
    trace.append(t, z1, z2, state.eta + delta_now,
                 out.u, out.u1, state.eta, delta_now)
    return trace
