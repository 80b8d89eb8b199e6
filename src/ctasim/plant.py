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

from ._record import Record
from .controller import Gains, explicit_step, implicit_step

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


class Sinusoid(Record):
    """One disturbance term amplitude*sin(omega*t) or amplitude*cos(omega*t)."""

    def __init__(self, amplitude: float, omega: float, kind: str = "sin"):
        self._set(locals())
        for name in ("amplitude", "omega"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if kind not in ("sin", "cos"):
            raise ValueError(f"kind must be 'sin' or 'cos', got {kind!r}")


class Disturbance(Record):
    """Constant plus a sum of sinusoids."""

    def __init__(self, constant: float = 0.0, sinusoids: tuple[Sinusoid, ...] = ()):
        self._set(locals())
        if not math.isfinite(constant):
            raise ValueError(f"constant must be finite, got {constant!r}")


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
    return z1 + h * z2, z2 + h * u + h * delta


class SimConfig(Record):
    def __init__(self, h: float, t_final: float, method: str, gains: Gains,
                 z1_0: float = 0.0, z2_0: float = 0.0, eta_0: float = 0.0,
                 disturbance: Disturbance = Disturbance()):
        self._set(locals())
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
        # eval_disturbance samples up to t = steps*h; an infinite phase would
        # end in a bare "math domain error" from sin/cos.
        t_last = self.steps * self.h
        for term in self.disturbance.sinusoids:
            if not math.isfinite(term.omega * t_last):
                raise ValueError(f"omega must keep the phase omega*t finite up to "
                                 f"t={t_last!r}, got {term.omega!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        # The controller's largest magnitudes, within the divergence limit,
        # must stay finite: the stage-I bound, the stage-II rate and x = z/L.
        g = self.gains
        if not math.isfinite(g.kp1 * DIVERGENCE_LIMIT ** (1.0 / 3.0)
                             + g.kp2 * DIVERGENCE_LIMIT ** 0.5):
            raise ValueError(f"gains kp1={g.kp1!r}, kp2={g.kp2!r} overflow the stage-I bound "
                             f"kp1*|z1|**(1/3) + kp2*|z2|**0.5 at |z| = {DIVERGENCE_LIMIT:g}")
        if not math.isfinite(self.h * (g.kp3 + g.kp4)):
            raise ValueError(f"gains kp3={g.kp3!r}, kp4={g.kp4!r} overflow the stage-II "
                             f"rate h*(kp3 + kp4) for h={self.h!r}")
        if not math.isfinite(DIVERGENCE_LIMIT / g.L):
            raise ValueError(f"L must be large enough that x = z/L stays finite for "
                             f"|z| <= {DIVERGENCE_LIMIT:g}, got {g.L!r}")

    @property
    def steps(self) -> int:
        return round(self.t_final / self.h)


TRACE_COLUMNS = ("t", "z1", "z2", "z3", "x1", "x2", "x3", "u", "u1", "eta", "delta")


class SimTrace:
    """Column-oriented record of one run; one row per time point.

    x1..x3 = z/L are derived on each read, not stored.
    """

    def __init__(self, L: float):
        self.L = L
        self.t, self.z1, self.z2, self.z3, self.u, self.u1, self.eta, self.delta = (
            [] for _ in range(8))

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
    is carried over rather than evaluated twice.  The controller memory is
    local floats, passed to and returned by the step (see
    controller.implicit_step).
    """
    step = explicit_step if cfg.method == "explicit" else implicit_step
    g = cfg.gains
    h = cfg.h
    n = cfg.steps
    z1, z2, eta = cfg.z1_0, cfg.z2_0, cfg.eta_0
    zb1, zb2, u1, d_est = z1, z2, 0.0, 0.0
    trace = SimTrace(L=g.L)

    delta_now = eval_disturbance(cfg.disturbance, 0.0)
    for k in range(n):
        t = k * h
        u, u1, eta_next, d_est = step(k, z1, z2, zb1, zb2, eta, u1, d_est, g, h)
        trace.append(t, z1, z2, eta + delta_now, u, u1, eta, delta_now)
        delta_now = eval_disturbance(cfg.disturbance, (k + 1) * h)
        zb1, zb2, eta = z1, z2, eta_next
        z1, z2 = plant_step(z1, z2, u, delta_now, h)
        # Written as "not within", so that NaN, which fails every
        # comparison, diverges too.
        if not (abs(z1) <= DIVERGENCE_LIMIT and abs(z2) <= DIVERGENCE_LIMIT
                and abs(eta) <= DIVERGENCE_LIMIT):
            raise SimulationDiverged(
                k, t, f"|state| exceeded {DIVERGENCE_LIMIT:g} "
                      f"(z1={z1:g}, z2={z2:g}, eta={eta:g})")

    u, u1, _, _ = step(n, z1, z2, zb1, zb2, eta, u1, d_est, g, h)  # evaluated, not committed
    trace.append(n * h, z1, z2, eta + delta_now, u, u1, eta, delta_now)
    return trace
