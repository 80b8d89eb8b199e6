"""Continuous twisting control of a perturbed double integrator, discretized.

The continuous law for the scaled state (z1, z2) is

    u    = -kp1*|z1|^(1/3)*sgn(z1) - kp2*|z2|^(1/2)*sgn(z2) + eta
    d(eta)/dt in -kp3*sgn(z1) - kp4*sgn(z2)

where eta integrates the signum terms and converges to the negative of the
matched disturbance.  Two discretizations are provided:

* ``explicit_step``: plain forward Euler.  The signum terms are evaluated at
  the current state, which makes eta chatter with amplitude proportional to
  the step size.

* ``implicit_step``: a two-stage backward-Euler scheme, computed in one
  pass.  Each stage is an inclusion in the *next* values of the
  discontinuous terms, solved exactly by the nested interval projection of
  :mod:`ctasim.resolvent` (written out as clamps), so the selections at
  zero are chosen by the solver instead of by a sign lookup.  Stage I
  resolves the twisting part u1 inside the state-dependent bound
  |h*u1| <= kp1*|zb1|^(1/3) + kp2*|zb2|^(1/2); stage II resolves the rate-
  limited integrator increment inside h*[kp3 - kp4, kp3 + kp4].

The implicit scheme is built for the forward-Euler plant

    z1' = z1 + h*z2,   z2' = z2 + h*(u + delta)

used by the simulation harness.  Because z1' does not depend on the current
input, stage I alternates between two velocity references: on even steps it
commands the velocity that lands the position at zero one plant update
later, on odd steps it commands zero velocity.  A single combined reference
would either park momentum in z2 forever (a neutrally stable rotation) or
cancel every disturbance residual out of z2; the interleave is what yields
the one-order-per-state accuracy gain over the explicit scheme.

Stage II needs the fictitious state z3 = eta + delta, which is not
measurable.  The controller reconstructs the previous disturbance sample
exactly from the measured z2 increment (zb2 holds the previous measurement,
u1_prev the previous twisting component) and extrapolates it linearly one
step ahead; the estimate enters stage II as z3 ~= eta + delta_forecast.
Before any measurement history exists the forecast is zero and stage II
reduces to the nominal identification z3 = eta.
"""

from __future__ import annotations

from ._record import Record
from .resolvent import nested_clamp, sign_selection


class Gains(Record):
    """Scaled twisting gains plus the reporting scale factor L.

    kp3 > kp4 keeps the stage-II interval h*[kp3 - kp4, kp3 + kp4] strictly
    positive, which the two-signum resolvent requires.
    """

    def __init__(self, kp1: float, kp2: float, kp3: float, kp4: float, L: float = 1.0):
        self._set(locals())
        self._check_finite(*self._fields, positive=True)
        if not kp3 > kp4:
            raise ValueError(f"kp3 must exceed kp4 for the integrator resolvent, "
                             f"got kp3={kp3!r}, kp4={kp4!r}")


def explicit_step(
    k: int, z1: float, z2: float, zb1: float, zb2: float, eta: float,
    u1_prev: float, d_prev: float, g: Gains, h: float,
) -> tuple[float, float, float, float]:
    """Forward-Euler step: u = u1 + eta, then bang-bang eta update.

    Takes the implicit step's arguments and ignores its memory (k, zb1,
    zb2, u1_prev, d_prev); returns (u, u1, eta_next, 0.0).
    """
    s1, s2 = sign_selection(z1), sign_selection(z2)
    u1 = -g.kp1 * (abs(z1) ** (1.0 / 3.0) * s1) - g.kp2 * (abs(z2) ** 0.5 * s2)
    eta_next = eta - h * g.kp3 * s1 - h * g.kp4 * s2
    return u1 + eta, u1, eta_next, 0.0


def implicit_step(
    k: int, z1: float, z2: float, zb1: float, zb2: float, eta: float,
    u1_prev: float, d_prev: float, g: Gains, h: float,
) -> tuple[float, float, float, float]:
    """Implicit step k at the measured (z1, z2): stage I, stage II, u = u1 + eta_next.

    The memory is the previous measurement (zb1, zb2), seeded with the
    initial state, the integrator eta, the previous twisting component
    u1_prev and the previous reconstruction d_prev (both 0.0 at k = 0).
    Returns (u, u1, eta_next, delta_est); the caller carries u1, eta_next
    and delta_est into step k + 1 as u1_prev, eta and d_prev.  h and the
    gains are validated once, by SimConfig and Gains.

    Stage I: with a = kp1*|zb1|^(1/3) and b = kp2*|zb2|^(1/2), h*u1 is
    the velocity correction (v_ref - z2) clamped into
    [proj(-A, -z2), proj(A, -z2)], A = [a - b, a + b].  The velocity
    reference alternates: even steps command v_ref = -(z1 + h*z2)/h, which
    zeroes the position one further plant update ahead (z1 + h*z2 is
    already fixed); odd steps command v_ref = 0.

    Stage II: the previous disturbance sample is reconstructed from the
    measured z2 increment, delta_est = (z2 - zb2)/h - u1_prev - eta, and
    extrapolated linearly (2*delta_est - d_prev; only delta_est at k = 1, 0
    at k = 0).  Once both clamps stay inactive the loop is deadbeat: on each
    row z3 is exactly this forecast's error, the second difference
    d_k - 2*d_{k-1} + d_{k-2} of the delta samples, and z1 and z2 follow from
    it row by row (pinned by tests/test_controller.py::TestImplicitSteadyState::
    test_steady_rows_obey_the_deadbeat_identity).  With z3k = eta + forecast
    and ztilde2 = z2 + h*u1,

        y1 = ztilde2/h + z3k,   y2 = (ztilde2 - v_ref)/h + z3k

    and the increment is -y2 clamped into [proj(-B, -y1), proj(B, -y1)],
    B = h*[kp3 - kp4, kp3 + kp4].

    Both projections go through resolvent.nested_clamp, which raises
    ValueError on a NaN interval endpoint (NaN magnitudes, z2 or y1).
    """
    a = g.kp1 * abs(zb1) ** (1.0 / 3.0)
    b = g.kp2 * abs(zb2) ** 0.5
    v_ref = -(z1 + h * z2) / h if k % 2 == 0 else 0.0
    u1 = nested_clamp(a - b, a + b, -z2, v_ref - z2) / h

    if k == 0:
        delta_est = forecast = 0.0
    else:
        delta_est = (z2 - zb2) / h - u1_prev - eta
        forecast = delta_est if k == 1 else 2.0 * delta_est - d_prev
    # Each expression rounds as in the two-stage form (tests/oracles.py),
    # e.g. z2 + h*u1 rather than z2 plus the clamped h*u1: the golden
    # traces pin every bit.
    ztilde2 = z2 + h * u1
    z3k = eta + forecast
    y1 = ztilde2 / h + z3k
    y2 = (ztilde2 - v_ref) / h + z3k
    eta_next = eta + nested_clamp(h * (g.kp3 - g.kp4), h * (g.kp3 + g.kp4), -y1, -y2)
    return u1 + eta_next, u1, eta_next, delta_est
