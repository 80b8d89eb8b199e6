"""Independent oracles, one per kernel, step, metric and reader, for the
tests and for ``tests/golden_check.py``, which imports this module where
numpy is missing: only the three grid oracles import it.

The grid oracles check the resolvent's set membership directly from the
defining inclusions, sharing no code with the solvers under test.
``reference_nested_clamp`` is the resolvent kernel as inline clamps, with
its own ``malformed interval`` message; ``reference_implicit_step`` is the
implicit step in its two-stage form over validated ``Interval``s, for
bit-identity checks of the one-pass step; ``reference_explicit_step`` is
the explicit step through an odd fractional power with its own branch at
z = 0.  ``disturbance`` evaluates a disturbance from its terms' fields, and
``disturbance_second_derivative`` is delta'' differentiated by hand;
``outcome`` is a call's result bits, item by item for a tuple (a metric's
report too), or its ValueError message.  The ``reference_*`` trace metrics
select the window row by row over column copies; ``row`` reads one trace
row as the CSV writes it.
``deadbeat_rows`` predicts an implicit trace's steady rows from its own
delta samples, within a derived rounding bound.
``read_trace_csv_text`` decodes every file as UTF-8 text with lines
ending at LF, checks the time grid itself and appends row by row, for
equivalence checks of the reader that parses lines as bytes.
"""

import math
import struct
from collections import namedtuple
from functools import reduce
from operator import add, le

from ctasim.metrics import ChatterReport, PrecisionReport
from ctasim.plant import TRACE_HEADER, SimTrace
from ctasim.resolvent import Interval, proj, sign_selection


def _bits(result):
    """A float as its float64 bytes, so that -0.0 differs from 0.0 and NaNs
    compare by payload; a tuple (a namedtuple too) as a tuple of its items'."""
    if isinstance(result, tuple):
        return tuple(map(_bits, result))
    return struct.pack("d", result)


def outcome(f, *args):
    """f(*args) as its result's bits, or the message of the ValueError it raises."""
    try:
        return _bits(f(*args))
    except ValueError as exc:
        return str(exc)


def _sgn_bounds(w):
    """Vectorized bounds of the set-valued signum: [-1,1] exactly at 0."""
    import numpy as np
    lo = np.where(w > 0.0, 1.0, -1.0)
    hi = np.where(w < 0.0, -1.0, 1.0)
    return lo, hi


def two_sgn_distance(z, a, b, x, y):
    """Distance from z to the set a*sgn(x - z) + b*sgn(y - z)."""
    import numpy as np
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
    import numpy as np
    span = a + b + 1.0
    special = np.array([x, y, a + b, a - b, b - a, -a - b])
    special = special[np.abs(special) <= span]
    coarse = np.concatenate([np.arange(-span, span, 0.25), special])
    z0 = coarse[np.argmin(two_sgn_distance(coarse, a, b, x, y))]
    fine = np.concatenate([np.arange(z0 - 0.3, z0 + 0.3, step), special])
    dists = two_sgn_distance(fine, a, b, x, y)
    return float(fine[np.argmin(dists)])


# --- the explicit step ------------------------------------------------------


def reference_fractional_power(z, p):
    """Odd fractional power |z|^p * sgn(z), with the 0 selection at z = 0."""
    if z == 0.0:
        return 0.0
    return abs(z) ** p * sign_selection(z)


def reference_explicit_step(k, z1, z2, zb1, zb2, eta, u1_prev, d_prev, g, h):
    """(u, u1, eta_next, 0.0) as explicit_step returns them."""
    u1 = (-g.kp1 * reference_fractional_power(z1, 1.0 / 3.0)
          - g.kp2 * reference_fractional_power(z2, 0.5))
    eta_next = eta - h * g.kp3 * sign_selection(z1) - h * g.kp4 * sign_selection(z2)
    return u1 + eta, u1, eta_next, 0.0


# --- the implicit step, stage by stage --------------------------------------


def _clamp(lo, hi, v):
    return lo if v < lo else (hi if v > hi else v)


def reference_nested_clamp(lo, hi, y, x):
    """proj([proj(-C, y), proj(C, y)], x) for C = [lo, hi] as inline
    clamps, checking C and then the inner interval as resolvent.Interval
    does, but with this module's own message."""
    if not lo <= hi:
        raise ValueError(f"malformed interval: lo={lo!r} > hi={hi!r}")
    ilo, ihi = _clamp(-hi, -lo, y), _clamp(lo, hi, y)
    if not ilo <= ihi:
        raise ValueError(f"malformed interval: lo={ilo!r} > hi={ihi!r}")
    return _clamp(ilo, ihi, x)


def _nested_proj(lo, hi, y, x):
    """proj([proj(-C, y), proj(C, y)], x) for C = [lo, hi], through validated
    Intervals: C is built (and checked) first, then the inner interval."""
    c = Interval(lo, hi)
    return proj(Interval(proj(Interval(-c.hi, -c.lo), y), proj(c, y)), x)


def reference_velocity(z1, z2, k, h):
    """Even steps land the position one plant update ahead; odd steps stop."""
    if k % 2 == 0:
        return -(z1 + h * z2) / h
    return 0.0


def reference_stage1(k, z1, z2, zb1, zb2, g, h):
    """u1 from h*u1 = proj([proj(-A, -z2), proj(A, -z2)], v_ref - z2)."""
    a = g.kp1 * abs(zb1) ** (1.0 / 3.0)
    b = g.kp2 * abs(zb2) ** 0.5
    return _nested_proj(a - b, a + b, -z2, reference_velocity(z1, z2, k, h) - z2) / h


def reference_reconstruction(z2, zb2, eta, u1_prev, h):
    """Previous disturbance sample from the measured z2 increment."""
    return (z2 - zb2) / h - u1_prev - eta


def reference_forecast(k, z2, zb2, eta, u1_prev, d_prev, h):
    """Linear extrapolation of the two newest reconstructions."""
    if k == 0:
        return 0.0
    newest = reference_reconstruction(z2, zb2, eta, u1_prev, h)
    if k == 1:
        return newest
    return 2.0 * newest - d_prev


def reference_stage2(k, z1, z2, zb2, eta, u1_prev, d_prev, u1, g, h):
    """eta_next from the rate-limited nested projection."""
    ztilde2 = z2 + h * u1
    z3k = eta + reference_forecast(k, z2, zb2, eta, u1_prev, d_prev, h)
    v_ref = reference_velocity(z1, z2, k, h)
    y1 = ztilde2 / h + z3k
    y2 = (ztilde2 - v_ref) / h + z3k
    return eta + _nested_proj(h * (g.kp3 - g.kp4), h * (g.kp3 + g.kp4), -y1, -y2)


def reference_implicit_step(k, z1, z2, zb1, zb2, eta, u1_prev, d_prev, g, h):
    """Stage I, stage II, then (u, u1, eta_next, delta_est) as implicit_step
    returns them."""
    u1 = reference_stage1(k, z1, z2, zb1, zb2, g, h)
    eta_next = reference_stage2(k, z1, z2, zb2, eta, u1_prev, d_prev, u1, g, h)
    delta_est = reference_reconstruction(z2, zb2, eta, u1_prev, h) if k >= 1 else 0.0
    return u1 + eta_next, u1, eta_next, delta_est


def disturbance(d, t):
    """delta(t) of a plant.Disturbance read term by term from its Sinusoid
    fields: the constant, then amplitude*sin(omega*t) or amplitude*cos(omega*t)
    as each term's kind says, added in order."""
    delta = d.constant
    for term in d.sinusoids:
        phase = term.omega * t
        if term.kind == "sin":
            delta += term.amplitude * math.sin(phase)
        else:
            delta += term.amplitude * math.cos(phase)
    return delta


def disturbance_second_derivative(d, t):
    """delta''(t) of a plant.Disturbance in closed form, term by term:
    (a*sin(w*t))'' = -a*w**2*sin(w*t), and the same for cos."""
    return -sum(term.amplitude * term.omega ** 2
                * (math.sin if term.kind == "sin" else math.cos)(term.omega * t)
                for term in d.sinusoids)


# --- trace metrics, row by row -----------------------------------------------


def row(trace, i):
    """Row i as the eleven TRACE_COLUMNS values, from t's column copy and
    the stored columns, with z3 = eta + delta and x = z/L; i < 0 counts
    from the end."""
    cells = [trace.t[i]]
    for name in ("z1", "z2", "u", "u1", "eta", "delta"):
        with trace.view(name) as column:
            cells.append(column[i])
    t, z1, z2, u, u1, eta, delta = cells
    z3 = eta + delta
    L = trace.L
    return (t, z1, z2, z3, z1 / L, z2 / L, z3 / L, u, u1, eta, delta)


def reference_window_indices(trace, window):
    t0, t1 = window
    ts = trace.t
    tol = (ts[1] - ts[0]) * 1e-6 if len(ts) >= 2 else 0.0
    # A window that is not t0 <= t1 selects nothing, however slightly reversed.
    idx = [i for i, t in enumerate(ts) if t0 - tol <= t <= t1 + tol] if t0 <= t1 else []
    if not idx:
        raise ValueError(f"window {window} selects no trace records")
    return idx


def reference_precision_envelope(trace, window, h, orders):
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
    idx = reference_window_indices(trace, window)
    sups = tuple(
        max(abs(col[i]) for i in idx) / trace.L for col in (trace.z1, trace.z2, trace.z3)
    )
    v = tuple(s / scale for s, scale in zip(sups, scales))
    return PrecisionReport(sup_abs_x=sups, v_constants=v)


def reference_state_settling_time(trace, bands):
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
    return row(trace, last_bad + 1)[0]


def reference_chatter_metrics(trace, window):
    idx = reference_window_indices(trace, window)
    u = trace.u
    us = [u[i] for i in idx]
    diffs = [us[i + 1] - us[i] for i in range(len(us) - 1)]
    # Left to right from 0.0 on every Python version (sum() compensates from
    # 3.12), through operator.add as the metric: a NaN's payload follows it.
    tv = reduce(add, (abs(d) for d in diffs), 0.0)
    flips = sum(1 for i in range(len(diffs) - 1) if diffs[i] * diffs[i + 1] < 0.0)
    return ChatterReport(total_variation_u=tv, sign_flips_u_delta=flips)


# --- the steady implicit loop, row by row --------------------------------------


# Worst |z - predicted| that rounding allows on a steady row, in units of
# ulp(max|delta|) * h**j, for (z1, z2, z3) with j = (2, 1, 0); see deadbeat_rows.
DEADBEAT_BOUND = (44.0, 22.0, 18.0)

Deadbeat = namedtuple("Deadbeat", "onset worst before")


def deadbeat_rows(trace):
    """Where an implicit trace obeys the steady loop's exact row identity.

    With both clamps of the implicit step inactive, stage I commands
    z2 + h*u1 = v_ref and stage II sets eta_next = -forecast, and the
    reconstruction returns the previous sample exactly, so (in exact
    arithmetic) the loop is deadbeat.  With e_k = d_k - 2*d_{k-1} + d_{k-2}
    for the row's delta d_k:

    * z3_k = e_k on every row;
    * on a row after an odd step (k even): z2_k = h*e_k, z1_k = h**2*e_{k-1};
    * on a row after an even step (k odd): z1_k = h**2*(e_{k-1} + e_{k-2})
      and z2_k = -z1_k/h + h*e_k.

    The bound (DEADBEAT_BOUND) counts the roundings of the loop, to first
    order.  Let D = max|delta| over the trace and eps = 2**-53.  A rounded
    result r is off by at most eps*|r|, and eps*D < ulp(D), the unit.  Only
    results of size about D (or h*D, in z2) count: the others (z1, z2, u1,
    v_ref, z3 and their sums) are smaller by a factor h or more.

    * The plant's z2 update rounds h*u, z2 + h*u and h*delta, each about
      h*D: 3*h units.  u = u1 + eta_next rounds once: 1 unit, times h in z2.
    * The next step's reconstruction divides z2's increment by h (4 units
      so far) and subtracts eta (1): it is off by 5.  The forecast
      2*d_k - d_{k-1} doubles one reconstruction and adds the previous one
      (15), rounds once (1), and eta_next = eta - y2 rounds once (1): z3 is
      off by 17.  Forming e_k rounds d_k - 2*d_{k-1} (1): 18 units for z3.
    * z2 = h*z3 + (the rounding of u and the plant update): 18 + 1 + 3 = 22
      units of h, on both kinds of row (v_ref and z1/h cancel exactly:
      controller and plant form z1 + h*z2 alike).
    * z1 after an odd step is h times the previous row's z2 deviation: 22
      units of h**2; after an even step it adds two such rows: 44.

    Returns (onset, worst, before): onset is the first row k >= 4 (e_{k-2}
    needs d_{k-4}) from which every row holds all three identities within
    the bound; worst is each column's largest deviation from the onset on,
    and before row onset - 1's, in units (None when onset is 4).  An onset
    of trace.n means the last row fails.
    """
    n = trace.n
    with trace.view("delta") as delta:
        d_max = max(map(abs, delta))
        e = [0.0, 0.0] + [delta[k] - 2.0 * delta[k - 1] + delta[k - 2] for k in range(2, n)]
    h, = trace.view("t", 1, 2)
    unit = math.ulp(d_max)
    scales = (unit * h * h, unit * h, unit)
    deviations = []
    with trace.view("z1") as z1, trace.view("z2") as z2:
        for k, z3 in enumerate(trace.view("z3", 4), start=4):
            if k % 2 == 0:
                p1, p2 = h * h * e[k - 1], h * e[k]
            else:
                p1 = h * h * (e[k - 1] + e[k - 2])
                p2 = -z1[k] / h + h * e[k]
            deviations.append(tuple(abs(z - p) / s for z, p, s in
                                    zip((z1[k], z2[k], z3), (p1, p2, e[k]), scales)))
    onset = n
    while onset > 4 and all(map(le, deviations[onset - 5], DEADBEAT_BOUND)):
        onset -= 1
    held = deviations[onset - 4:]
    worst = tuple(max(column) for column in zip(*held)) if held else None
    before = deviations[onset - 5] if onset > 4 else None
    return Deadbeat(onset, worst, before)


# --- the trace CSV, decoded whole ---------------------------------------------


def read_trace_csv_text(path: str, L: float) -> SimTrace:
    """Parse a trace CSV.  The z3 and x columns are not stored.  A header
    other than TRACE_HEADER (lineno 1), a malformed row (a field count other
    than 11, a cell that is not a float, a blank line), a row whose t is not
    finite, not greater than the previous row's, or off the fixed-step grid
    SimTrace requires (row 0 at +0.0, row 1 at the step h, row k at k*h), or
    a row whose z3 and x are not eta + delta and z/L bit for bit (-0 is not
    0; NaN never is) raises ValueError starting with `path:lineno:`, and a
    file that does not decode raises ValueError starting with `path:`.  An L
    that is not positive and finite raises ValueError before the file is
    opened.

    Every file is decoded as UTF-8, whatever the locale, with newline="\n":
    lines end at LF, a CR before it stays in the line (float() and strip()
    drop it), and a lone CR ends no line.  The time checks are this
    function's own, not SimTrace's, and each row that passes them goes
    through SimTrace.append."""
    trace = SimTrace(L=L)  # rejects a bad L before the file is opened
    t_prev, h = -math.inf, math.nan
    try:
        with open(path, encoding="utf-8", newline="\n") as f:
            header = f.readline().strip()
            if header != TRACE_HEADER:
                raise ValueError(f"{path}:1: unexpected trace header: {header!r}")
            for lineno, line in enumerate(f, start=2):
                try:
                    t, z1, z2, z3, x1, x2, x3, u, u1, eta, delta = map(float, line.split(","))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                if not t_prev < t < math.inf:
                    if not math.isfinite(t):
                        raise ValueError(f"{path}:{lineno}: t = {t!r} is not finite")
                    raise ValueError(f"{path}:{lineno}: t = {t!r} is not greater than "
                                     f"the previous row's t = {t_prev!r}")
                t_prev = t
                k = lineno - 2
                if k == 1:
                    h = t
                t_grid = k * h if k else 0.0
                if struct.pack("d", t) != struct.pack("d", t_grid):
                    rule = ("row 0 must be at t = +0.0" if k == 0 else
                            f"row {k} must be at t = k*h = {t_grid!r} for h = {h!r}")
                    raise ValueError(f"{path}:{lineno}: t = {t!r} is off the grid: {rule}")
                z3_row = eta + delta
                cells, derived = (z3, x1, x2, x3), (z3_row, z1 / L, z2 / L, z3_row / L)
                # != fails every NaN; the bits tell -0 from 0.
                if (any(c != d for c, d in zip(cells, derived))
                        or struct.pack("4d", *cells) != struct.pack("4d", *derived)):
                    z3_named = math.isnan(z3) or struct.pack("d", z3) != struct.pack("d", z3_row)
                    message = (f"z3 = {z3!r} is not eta + delta = {z3_row!r}" if z3_named else
                               f"x1..x3 = {x1!r}, {x2!r}, {x3!r} are not "
                               f"z/L = {z1 / L!r}, {z2 / L!r}, {z3_row / L!r} for L = {L!r}")
                    if any(map(math.isnan, [z3] if z3_named else [x1, x2, x3])):
                        message += " (a NaN cell never matches)"
                    raise ValueError(f"{path}:{lineno}: {message}")
                trace.append(t, z1, z2, u, u1, eta, delta)
    except UnicodeDecodeError as exc:
        # Decoding runs in chunks, so the line is unknown.
        raise ValueError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    return trace
