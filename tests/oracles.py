"""Independent oracles for the resolvent and controller tests.

The brute-force resolvent oracles check set membership directly from the
defining inclusions; none of them shares code with the nested-projection
solvers under test.  ``reference_implicit_step`` is the implicit step in
its two-stage form, built from validated ``Interval``s and ``proj``, for
bit-identity checks of the one-pass step.
"""

import numpy as np

from ctasim.controller import ControllerState, ControlOutput
from ctasim.resolvent import Interval, proj


def _sgn_bounds(w):
    """Vectorized bounds of the set-valued signum: [-1,1] exactly at 0."""
    lo = np.where(w > 0.0, 1.0, -1.0)
    hi = np.where(w < 0.0, -1.0, 1.0)
    return lo, hi


def two_sgn_distance(z, a, b, x, y):
    """Distance from z to the set a*sgn(x - z) + b*sgn(y - z)."""
    z = np.asarray(z, dtype=float)
    lo1, hi1 = _sgn_bounds(x - z)
    lo2, hi2 = _sgn_bounds(y - z)
    lo = a * lo1 + b * lo2
    hi = a * hi1 + b * hi2
    return np.maximum(0.0, np.maximum(lo - z, z - hi))


def grid_solve_two_sgn(a, b, x, y, step=1e-4):
    """Grid search for z with z in a*sgn(x - z) + b*sgn(y - z).

    Scans a coarse grid over the full reachable range, refines around the
    best candidate at the requested step, and always includes the points
    where the right-hand side jumps (x, y, and the four corners +-a+-b);
    isolated solutions can only sit at those points.  Returns the candidate
    with the smallest inclusion distance.
    """
    span = a + b + 1.0
    special = np.array([x, y, a + b, a - b, b - a, -a - b])
    special = special[np.abs(special) <= span]
    coarse = np.concatenate([np.arange(-span, span, 0.25), special])
    z0 = coarse[np.argmin(two_sgn_distance(coarse, a, b, x, y))]
    fine = np.concatenate([np.arange(z0 - 0.3, z0 + 0.3, step), special])
    dists = two_sgn_distance(fine, a, b, x, y)
    return float(fine[np.argmin(dists)])


# --- the implicit step, stage by stage --------------------------------------


def reference_velocity(z1, z2, steps, h):
    """Even steps land the position one plant update ahead; odd steps stop."""
    if steps % 2 == 0:
        return -(z1 + h * z2) / h
    return 0.0


def reference_stage1(z1, z2, state, g, h):
    """u1 from h*u1 = proj([proj(-A, -z2), proj(A, -z2)], v_ref - z2)."""
    if not h > 0.0:
        raise ValueError(f"step size must be positive, got {h!r}")
    a = g.kp1 * abs(state.zbar1) ** (1.0 / 3.0)
    b = g.kp2 * abs(state.zbar2) ** 0.5
    bound = Interval(a - b, a + b)
    inner = Interval(proj(bound.negate(), -z2), proj(bound, -z2))
    v_ref = reference_velocity(z1, z2, state.steps, h)
    return proj(inner, v_ref - z2) / h


def reference_reconstruction(state, z2, h):
    """Previous disturbance sample from the measured z2 increment."""
    return (z2 - state.zbar2) / h - state.u1_prev - state.eta


def reference_forecast(state, z2, h):
    """Linear extrapolation of the two newest reconstructions."""
    if state.steps == 0:
        return 0.0
    newest = reference_reconstruction(state, z2, h)
    if state.steps == 1:
        return newest
    return 2.0 * newest - state.delta_est


def reference_stage2(z1, z2, u1, state, g, h):
    """eta_next from the rate-limited nested projection."""
    ztilde2 = z2 + h * u1
    z3k = state.eta + reference_forecast(state, z2, h)
    v_ref = reference_velocity(z1, z2, state.steps, h)
    y1 = ztilde2 / h + z3k
    y2 = (ztilde2 - v_ref) / h + z3k
    rate = Interval(h * (g.kp3 - g.kp4), h * (g.kp3 + g.kp4))
    inner = Interval(proj(rate.negate(), -y1), proj(rate, -y1))
    return state.eta + proj(inner, -y2)


def reference_implicit_step(z1, z2, state, g, h):
    """Stage I, stage II, then the measured state becomes the memory."""
    u1 = reference_stage1(z1, z2, state, g, h)
    eta_next = reference_stage2(z1, z2, u1, state, g, h)
    delta_est = reference_reconstruction(state, z2, h) if state.steps >= 1 else 0.0
    return (ControlOutput(u=u1 + eta_next, u1=u1),
            ControllerState(eta=eta_next, zbar1=z1, zbar2=z2, u1_prev=u1,
                            delta_est=delta_est, steps=state.steps + 1))
