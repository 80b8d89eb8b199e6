"""Post-processing of simulation traces: precision envelopes, convergence
time, and chattering measures."""

from __future__ import annotations

import math
from collections import namedtuple

from .plant import SimTrace

# Steady-window sup of |x_i| plus implied constants v_i = sup/h^p_i.
PrecisionReport = namedtuple("PrecisionReport", "sup_abs_x v_constants")
ChatterReport = namedtuple("ChatterReport", "total_variation_u sign_flips_u_delta")


def _window_indices(trace: SimTrace, window: tuple[float, float]) -> list[int]:
    t0, t1 = window
    ts = trace.t
    # Row times are k*h, so boundary rows can miss the nominal window by an
    # ulp; use a grid-relative tolerance.
    tol = (ts[1] - ts[0]) * 1e-6 if len(ts) >= 2 else 0.0
    idx = [i for i, t in enumerate(ts) if t0 - tol <= t <= t1 + tol]
    if not idx:
        raise ValueError(f"window {window} selects no trace records")
    return idx


def precision_envelope(
    trace: SimTrace,
    window: tuple[float, float],
    h: float,
    orders: tuple[float, float, float],
) -> PrecisionReport:
    """Exact maxima of |x_i| over the window, and v_i = sup|x_i| / h^p_i."""
    if not h > 0.0:
        raise ValueError(f"h must be positive, got {h!r}")
    try:
        scales = tuple(h**p for p in orders)
    except OverflowError:
        raise ValueError(f"h must be small enough that h**{max(orders):g} "
                         f"does not overflow, got {h!r}") from None
    if 0.0 in scales:
        raise ValueError(f"h must be large enough that h**{max(orders):g} "
                         f"does not underflow to 0, got {h!r}")
    idx = _window_indices(trace, window)
    # x = z/L.  Correctly rounded division by L > 0 is monotone, so
    # max|z_i| / L equals max|z_i / L| bit for bit.
    sups = tuple(
        max(abs(col[i]) for i in idx) / trace.L for col in (trace.z1, trace.z2, trace.z3)
    )
    v = tuple(s / scale for s, scale in zip(sups, scales))
    return PrecisionReport(sup_abs_x=sups, v_constants=v)


def convergence_time(trace: SimTrace, threshold: float) -> float:
    """Smallest t after which |z1| and |z2| both stay below the threshold.

    Returns math.inf if the final record still violates the threshold.
    """
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold!r}")
    return state_settling_time(trace, (threshold, threshold, math.inf))


def state_settling_time(trace: SimTrace, bands: tuple[float, float, float]) -> float:
    """Smallest t after which |z1| < b1, |z2| < b2 and |z3| < b3 all hold.

    Settling time of the whole closed-loop state, including the fictitious
    z3 = eta + delta, with one band per state; convergence_time is the
    (z1, z2) pair case, with no band on z3.  Returns math.inf if the final
    record still violates a band.
    """
    b1, b2, b3 = bands
    for name, band in zip(("z1", "z2", "z3"), bands):
        if not band > 0.0:
            raise ValueError(f"{name} band must be positive, got {band!r}")
    last_bad = -1
    for i, (z1, z2, z3) in enumerate(zip(trace.z1, trace.z2, trace.z3)):
        if abs(z1) >= b1 or abs(z2) >= b2 or abs(z3) >= b3:
            last_bad = i
    if last_bad == trace.n - 1:
        return math.inf
    return trace.row(last_bad + 1)[0]


def chatter_metrics(trace: SimTrace, window: tuple[float, float]) -> ChatterReport:
    """Total variation of u and sign changes of its increments over the window."""
    idx = _window_indices(trace, window)
    u = trace.u
    us = [u[i] for i in idx]
    diffs = [us[i + 1] - us[i] for i in range(len(us) - 1)]
    tv = sum(abs(d) for d in diffs)
    flips = sum(1 for i in range(len(diffs) - 1) if diffs[i] * diffs[i + 1] < 0.0)
    return ChatterReport(total_variation_u=tv, sign_flips_u_delta=flips)
