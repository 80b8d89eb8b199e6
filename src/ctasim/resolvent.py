"""Closed intervals, projections, and set-valued signum resolvents.

The discrete sliding-mode steps in this package reduce to scalar inclusions
of the two-signum form

    z in A*sgn(x - z) + B*sgn(y - z)

where sgn is set-valued at zero (sgn(0) = [-1, 1]).  The inclusion has a
closed-form solution built from nested projections onto closed intervals;
this module provides the interval type, the projection, the nested clamp
kernel and the solver built on it.

For the two-signum form with A > B > 0 the solution is the unique

    z = proj([proj(-C, y), proj(C, y)], x),   C = [A - B, A + B].

The same nested formula stays well defined (the inner bounds remain ordered)
for any A > 0, B >= 0, because |A - B| <= A + B; the uniqueness guarantee is
only established for A > B > 0, so outside that regime the formula is backed
by brute-force grid checks in the test suite rather than by the lemma.
"""

from __future__ import annotations

from ._record import Record


class Interval(Record):
    """Closed real interval [lo, hi].

    Construction with lo > hi (or NaN endpoints) raises: ordering bugs in
    nested projections must surface loudly, never be silently swapped.
    """

    def __init__(self, lo: float, hi: float):
        self._set(locals())
        _check_ordered(lo, hi)


def _check_ordered(lo: float, hi: float) -> None:
    # NaN compares false, so this also rejects NaN endpoints.
    if not lo <= hi:
        raise ValueError(f"malformed interval: lo={lo!r} > hi={hi!r}")


def proj(a: Interval, x: float) -> float:
    """Closest point of the closed interval ``a`` to ``x`` (clamp)."""
    if x < a.lo:
        return a.lo
    if x > a.hi:
        return a.hi
    return x


def sign_selection(x: float) -> float:
    """Single-valued selection of sgn; the selection at 0 is 0.

    The midpoint selection keeps explicit sliding-mode steps symmetric and
    avoids injecting bias exactly at the origin.
    """
    if x > 0.0:
        return 1.0
    if x < 0.0:
        return -1.0
    return 0.0


def nested_clamp(lo: float, hi: float, y: float, x: float) -> float:
    """Resolvent kernel proj([proj(-C, y), proj(C, y)], x) for C = [lo, hi].

    Requires hi >= |lo| so that the inner bounds come out ordered; every
    interval of the form [A - B, A + B] with A, B >= 0 qualifies.  Each proj
    is written out as a clamp, so no Interval is built, but C and the inner
    interval are checked as Interval would check them, in one comparison:
    a disordered or NaN endpoint (a NaN y in the inner one) raises
    ValueError, which names C when both are bad.
    """
    ilo = -hi if y < -hi else (-lo if y > -lo else y)
    ihi = lo if y < lo else (hi if y > hi else y)
    if not (lo <= hi and ilo <= ihi):
        _check_ordered(lo, hi)
        _check_ordered(ilo, ihi)
    return ilo if x < ilo else (ihi if x > ihi else x)


def solve_two_sgn(a: float, b: float, x: float, y: float) -> float:
    """Solve z in a*sgn(x - z) + b*sgn(y - z) for z.

    Evaluates the nested-projection formula with C = [a - b, a + b].  The
    solution is unique and exact for a > b > 0; for a > 0, b >= 0 the formula
    is still evaluated verbatim (empirically validated in the tests).
    """
    if not a > 0.0:
        raise ValueError(f"leading gain must be positive, got a={a!r}")
    if not b >= 0.0:
        raise ValueError(f"second gain must be nonnegative, got b={b!r}")
    return nested_clamp(a - b, a + b, y, x)
