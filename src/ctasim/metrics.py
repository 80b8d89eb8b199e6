"""Post-processing of simulation traces: precision envelopes, convergence
time, and chattering measures; and the sweep's log-log slope fit.

Every metric reads the trace in place through SimTrace.view, with no
column copies, and uses up or releases each view before it returns or
raises.  A trace's rows are on a fixed step, t = k*h (see SimTrace), so a
time window is one contiguous run of rows, which SimTrace.rows_between
finds by bisection on t.  WindowMax takes
precision_envelope's maxima from the rows of a run as they are produced,
with no trace stored.

Float sums are taken left to right from 0.0 (_plain_sum), not with sum(),
which compensates rounding from Python 3.12 on: the bits of a metric and
of a fitted slope do not depend on the Python version.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from itertools import pairwise
from operator import add, sub

from .plant import SimTrace

# Steady-window sup of |x_i| plus implied constants v_i = sup/h^p_i.
PrecisionReport = namedtuple("PrecisionReport", "sup_abs_x v_constants")
ChatterReport = namedtuple("ChatterReport", "total_variation_u sign_flips_u_delta")


def _bounds(window: tuple[float, float], h: float) -> tuple[float, float]:
    """The window widened to (lo, hi) by 1e-6 of h, the time between the
    first two rows: row times are k*h, so boundary rows can miss the
    nominal window by an ulp."""
    t0, t1 = window
    tol = h * 1e-6
    return t0 - tol, t1 + tol


def _no_rows(window: tuple[float, float]) -> ValueError:
    return ValueError(f"window {window} selects no trace records")


def _window(trace: SimTrace, window: tuple[float, float]) -> tuple[int, int]:
    """The window's rows a..b-1, the rows with lo <= t <= hi, with a < b."""
    ts = [*trace.view("t", 0, 2)]
    lo, hi = _bounds(window, ts[1] - ts[0] if len(ts) == 2 else 0.0)
    a, b = trace.rows_between(lo, hi)
    # lo <= hi fails for a NaN bound, which bisection does not see.
    if not (lo <= hi and a < b):
        raise _no_rows(window)
    return a, b


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
    a, b = _window(trace, window)
    sups = tuple(max(map(abs, trace.view(x, a, b))) for x in ("x1", "x2", "x3"))
    v = tuple(s / scale for s, scale in zip(sups, scales))
    return PrecisionReport(sup_abs_x=sups, v_constants=v)


class WindowMax:
    """Run sink (see plant.run_simulation) that keeps only sup|x_i| over a
    time window: precision_envelope's sup_abs_x, bit for bit.

    ``h`` is the time between the first two rows, a run's step (0.0 for a
    single row).  The sink takes the rows _window selects, lo <= t <= hi,
    and folds them with the float operations and tie rule of max(): max(s,
    x) keeps s unless x > s.  Read sup_abs_x after the last row.
    """

    def __init__(self, L: float, window: tuple[float, float], h: float):
        self.L = L
        self.window = window
        self._lo, self._hi = _bounds(window, h)
        self._sup = None

    def append(self, t, z1, z2, u, u1, eta, delta) -> None:
        if self._lo <= t <= self._hi:
            L = self.L
            x = (abs(z1 / L), abs(z2 / L), abs((eta + delta) / L))
            self._sup = x if self._sup is None else tuple(map(max, self._sup, x))

    @property
    def sup_abs_x(self) -> tuple[float, float, float]:
        """max|x_i| over the window's rows; ValueError if there are none."""
        if self._sup is None:
            raise _no_rows(self.window)
        return self._sup


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
    z3, with one band per state; convergence_time is the (z1, z2) pair
    case, with no band on z3.  Returns math.inf if the final record still
    violates a band.
    """
    b1, b2, b3 = bands
    for name, band in zip(("z1", "z2", "z3"), bands):
        if not band > 0.0:
            raise ValueError(f"{name} band must be positive, got {band!r}")
    last_bad = -1
    for i, (z1, z2, z3) in enumerate(zip(trace.view("z1"), trace.view("z2"), trace.view("z3"))):
        if abs(z1) >= b1 or abs(z2) >= b2 or abs(z3) >= b3:
            last_bad = i
    if last_bad == trace.n - 1:
        return math.inf
    t, = trace.view("t", last_bad + 1, last_bad + 2)
    return t


def chatter_metrics(trace: SimTrace, window: tuple[float, float]) -> ChatterReport:
    """Total variation of u and sign changes of its increments over the window.

    The increments are summed from 0.0 in row order, so a one-row window
    has a float total of 0.0.
    """
    a, b = _window(trace, window)
    with trace.view("u") as u:
        tv = _plain_sum(map(abs, map(sub, u[a + 1:b], u[a:b - 1])))
        flips = sum(1 for d0, d1 in pairwise(map(sub, u[a + 1:b], u[a:b - 1]))
                    if d0 * d1 < 0.0)
    return ChatterReport(total_variation_u=tv, sign_flips_u_delta=flips)


def _plain_sum(values) -> float:
    """Left-to-right float sum from 0.0 (see the module docstring)."""
    return reduce(add, values, 0.0)


def fit_loglog_slope(hs: list[float], sups: list[float]) -> float | None:
    """Least-squares slope of log(sup) against log(h) over the points with
    sup > 0; None if fewer than two distinct log(h) remain (distinct step
    sizes can share one log(h))."""
    pts = [(math.log(h), math.log(s)) for h, s in zip(hs, sups) if s > 0.0]
    if len({x for x, _ in pts}) < 2:
        return None
    mx = _plain_sum(p[0] for p in pts) / len(pts)
    my = _plain_sum(p[1] for p in pts) / len(pts)
    sxx = _plain_sum((p[0] - mx) ** 2 for p in pts)
    sxy = _plain_sum((p[0] - mx) * (p[1] - my) for p in pts)
    return sxy / sxx
