"""Perturbed double integrator, disturbance signals, fixed-step closed loop.

The plant is integrated with forward Euler exactly as the experiments
require:

    z1' = z1 + h*z2
    z2' = z2 + h*u + h*delta

The disturbance entering a step is sampled at the step's end time t + h
(an implicit sample, matching the backward-Euler controller's model of the
interval).  A Disturbance resolves each sinusoid to its sin or cos once,
when it is built, so a sample is a constant plus a fixed sum.  The
controller itself is never shown delta; it only ever sees the measured
(z1, z2) and its own state.

Each trace row at time t holds the state at t, the input computed from it,
the integrator value eta at t, delta(t), and the fictitious state
z3 = eta + delta(t).  The final row's input is the controller output for
the final state, evaluated without committing the controller update.

This module owns the trace format and its time axis: SimTrace alone knows
the stored row layout, derives t = k*h, holds the row invariants (row k at
a finite t = k*h, L > 0) and selects a window's rows (widen_window).  It
forms z3 = eta + delta and x = z/L on each read; for speed, read_trace_csv
and metrics.WindowMax restate them per row.  The CSV codec sits beside it;
where a second CPU is usable, write_trace_csv formats half of the rows in
a forked child process, and read_trace_csv parses half of them in one, and
the file's bytes, the trace read back and every error are the same either
way.  A run passes its rows to a sink (see run_simulation), by default a
SimTrace.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import struct
import threading
from array import array
from bisect import bisect_left, bisect_right
from itertools import islice, repeat
from operator import add, truediv

from ._record import Record
from .controller import Gains, explicit_step, implicit_step

DIVERGENCE_LIMIT = 1e12

# The largest run in the repository is the sweep's 1e5 steps, which stores
# no trace.  A run that keeps its trace allocates it up front: 1e7 rows of
# six packed float64s take about 0.48 GB.
MAX_STEPS = 10_000_000

METHODS = ("explicit", "implicit")


class SimulationDiverged(RuntimeError):
    """Raised when a state magnitude leaves the finite simulation range."""

    def __init__(self, step: int, t: float, detail: str):
        super().__init__(f"simulation diverged at step {step} (t={t:g}): {detail}")
        self.step = step


class Sinusoid(Record):
    """One disturbance term amplitude*sin(omega*t) or amplitude*cos(omega*t)."""

    def __init__(self, amplitude: float, omega: float, kind: str = "sin"):
        self._set(locals())
        self._check_finite("amplitude", "omega")
        if kind not in ("sin", "cos"):
            raise ValueError(f"kind must be 'sin' or 'cos', got {kind!r}")


class Disturbance(Record):
    """Constant plus a tuple of Sinusoid terms, each resolved once, when the
    record is built, to (amplitude, omega, math.sin or math.cos)."""

    def __init__(self, constant: float = 0.0, sinusoids: tuple[Sinusoid, ...] = ()):
        try:
            terms = iter(sinusoids)
        except TypeError:
            raise ValueError(f"sinusoids must be an iterable of Sinusoids, "
                             f"got {sinusoids!r}") from None
        sinusoids = tuple(terms)
        self._set(locals())
        self._check_finite("constant")
        for i, term in enumerate(sinusoids):
            if not isinstance(term, Sinusoid):
                raise ValueError(f"sinusoids[{i}] must be a Sinusoid, got {term!r}")
        object.__setattr__(self, "_terms", tuple(
            (s.amplitude, s.omega, math.sin if s.kind == "sin" else math.cos) for s in sinusoids))


def eval_disturbance(d: Disturbance, t: float) -> float:
    """Return delta(t): the constant, then each term amplitude*wave(omega*t)
    added in order, from the terms the Disturbance resolved when built."""
    delta = d.constant
    for amplitude, omega, wave in d._terms:
        delta += amplitude * wave(omega * t)
    return delta


def plant_step(z1: float, z2: float, u: float, delta: float, h: float) -> tuple[float, float]:
    """One forward-Euler update of the double integrator; returns (z1, z2)."""
    return z1 + h * z2, z2 + h * u + h * delta


class SimConfig(Record):
    def __init__(self, h: float, t_final: float, method: str, gains: Gains,
                 z1_0: float = 0.0, z2_0: float = 0.0, eta_0: float = 0.0,
                 disturbance: Disturbance = Disturbance()):
        self._set(locals())
        self._check_finite("h", "t_final", positive=True)
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
        self._check_finite("z1_0", "z2_0", "eta_0")
        if not isinstance(self.disturbance, Disturbance):
            raise ValueError(f"disturbance must be a Disturbance, got {self.disturbance!r}")
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
        if not isinstance(g, Gains):
            raise ValueError(f"gains must be a Gains, got {g!r}")
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
TRACE_HEADER = ",".join(TRACE_COLUMNS)

# One stored row: these six columns as native float64s.
_STORED = ("z1", "z2", "u", "u1", "eta", "delta")
_WIDTH = len(_STORED)
_ROW = struct.Struct(f"{_WIDTH}d")
_ROW_BYTES = _ROW.size  # 48
_pack, _pack_into = _ROW.pack, _ROW.pack_into
_DERIVED = struct.Struct("4d")  # a CSV row's z3, x1, x2, x3


def no_rows_error(window: tuple[float, float]) -> ValueError:
    return ValueError(f"window {window} selects no trace records")


def widen_window(window: tuple[float, float], h: float) -> tuple[float, float]:
    """(lo, hi): the window (t0, t1) widened by 1e-6 of the step h, which
    a boundary row's t = k*h can miss by an ulp.  A window that is not
    t0 <= t1 (reversed, or with a NaN bound) selects no rows, however
    slightly it is reversed: ValueError."""
    t0, t1 = window
    if not t0 <= t1:
        raise no_rows_error(window)
    return t0 - h * 1e-6, t1 + h * 1e-6


def _copy(name: str) -> property:
    return property(lambda self: array("d", self.view(name)),
                    doc=f"Column {name}, as a new array('d').")


class SimTrace:
    """Record of one run on a fixed step h: one row of six float64s (z1,
    z2, u, u1, eta, delta) per time point, packed row after row in one
    array('d') (48 B per row).  t, z3 = eta + delta and x1..x3 = z/L are
    derived on each read.

    Row k is at t = k*h: row 0 at +0.0, row 1 at a finite t > 0, which sets
    the step h, and each later row k at a finite t == k*h, as run_simulation
    writes them.  append raises ValueError for a row off that grid, before
    it writes anything, so the rows are in time order and every t reads back
    bit for bit.  rows_between selects a time window's rows by bisection.

    ``SimTrace(L, rows)`` allocates ``rows`` rows up front, and append fills
    them in place before it grows the array; run_simulation and
    read_trace_csv size their traces exactly this way.  ``n`` counts the
    rows appended, and every read stops there.

    L must be positive and finite, so that x = z/L keeps the sign and order
    of z.  Each column attribute returns a fresh array('d') copy, O(n): bind
    a column once before indexing it in a loop, or read it with view().
    """

    def __init__(self, L: float, rows: int = 0):
        if not (L > 0.0 and math.isfinite(L)):
            raise ValueError(f"L must be positive and finite, got {L!r}")
        if not (isinstance(rows, int) and rows >= 0):
            raise ValueError(f"rows must be a non-negative integer, got {rows!r}")
        self.L = L
        self._rows = array("d", [0.0]) * (_WIDTH * rows)
        # Byte offsets: the end of the appended rows, of the allocated ones.
        self._end = 0
        self._allocated = _ROW_BYTES * rows
        # The step, NaN until row 1 sets it, so that t == k*h fails for the
        # rows _step checks.
        self._h = math.nan

    @property
    def n(self) -> int:
        return self._end // _ROW_BYTES

    t, z1, z2, z3, x1, x2, x3, u, u1, eta, delta = map(_copy, TRACE_COLUMNS)

    def view(self, name: str, a: int = 0, b: int | None = None):
        """Rows a..b-1 of column ``name``, read in place.

        A stored column is a read-only strided memoryview; z3 = eta + delta
        (the float operation run_simulation performs) and x = z/L are lazy
        maps over such views, and t is a lazy map over the row numbers k,
        giving k*h.  Each memoryview covers the rows appended so far and
        holds the trace's buffer, so an append that grows the array raises
        BufferError while it is alive: take a memoryview in a ``with``
        block, and use a map up within one expression.  An unknown name
        raises ValueError.
        """
        if name in _STORED:
            j = _STORED.index(name)
            return memoryview(self._rows).toreadonly()[j:_WIDTH * self.n:_WIDTH][a:b]
        if name == "t":
            return map(self._k_times_h(), range(self.n)[a:b])
        if name == "z3":
            return map(add, self.view("eta", a, b), self.view("delta", a, b))
        if name in ("x1", "x2", "x3"):
            return map(truediv, self.view("z" + name[1], a, b), repeat(self.L))
        raise ValueError(f"{name!r} is not a trace column; the columns are "
                         f"{', '.join(TRACE_COLUMNS)}")

    def rows_between(self, window: tuple[float, float]) -> tuple[int, int]:
        """(a, b), a < b: rows a..b-1 are the rows lo <= t <= hi for (lo, hi)
        = widen_window(window, h), h = 0.0 below two rows, found by bisection
        over k with k*h as the key.  ValueError if there are none."""
        ks, key = range(self.n), self._k_times_h()
        lo, hi = widen_window(window, key(1))  # key(1) = 1*h
        a, b = bisect_left(ks, lo, key=key), bisect_right(ks, hi, key=key)
        if a < b:
            return a, b
        raise no_rows_error(window)

    def _k_times_h(self):
        """Row k's t as a function of k: k*h, with 0.0 for h before row 1
        sets it, so that row 0 reads +0.0."""
        return (self._h if self._end > _ROW_BYTES else 0.0).__rmul__

    def _step(self, k: int, t: float) -> float:
        """The slow path of append, for a row k not at a finite t == k*h: the
        step h that row 0 at +0.0 keeps, or that row 1 at a finite t > 0 sets.
        Any other row, t = k*h = inf too, is off the grid: ValueError, naming
        the first rule it breaks."""
        if k == 0 and t == 0.0 and math.copysign(1.0, t) > 0.0:
            return self._h
        if k == 1 and 0.0 < t < math.inf:
            return t
        h = self._h
        t_prev = (k - 1) * h if k >= 2 else 0.0
        if not math.isfinite(t):
            problem = "is not finite"
        elif k and not t > t_prev:
            problem = f"is not greater than the previous row's t = {t_prev!r}"
        elif k == 0:
            problem = "is off the grid: row 0 must be at t = +0.0"
        else:
            problem = f"is off the grid: row {k} must be at t = k*h = {k * h!r} for h = {h!r}"
        raise ValueError(f"t = {t!r} {problem}")

    def append(self, t, z1, z2, u, u1, eta, delta) -> None:
        """Add one row at t, which must be on the grid (see SimTrace): fill
        the next allocated row, or grow the array by one.  A row off the
        grid raises ValueError, and one that cannot grow the array
        BufferError, with the trace left as it was."""
        end = self._end
        h = self._h
        if not (t == end // _ROW_BYTES * h < math.inf):  # on the grid and finite
            h = self._step(end // _ROW_BYTES, t)
        if end < self._allocated:
            _pack_into(self._rows, end, z1, z2, u, u1, eta, delta)
        else:
            self._rows.frombytes(_pack(z1, z2, u, u1, eta, delta))
        self._end = end + _ROW_BYTES
        self._h = h


@contextlib.contextmanager
def replacing(path: str):
    """``with replacing(path) as f:`` writes the binary file ``path`` whole
    or not at all.

    ``f`` is a new file beside ``path``, ``.NAME.PID.RANDOM.tmp``, which
    os.replace moves over ``path`` once the block ends and the file closes
    without error.  Any exception removes it, so a write that fails part way
    leaves neither a truncated ``path`` nor a temporary.  A file already at
    that name, such as one a killed run left, is never written: it is left
    as it is and another name is drawn.  A symlink's target is replaced,
    not the link.  A path with no file name (empty, or ending in a
    separator) and one that exists but is not a regular file (a device, a
    FIFO) are opened in place: open reports the first, and the second is
    written as it always was.  A file that cannot be created is reported
    under ``path`` as given.
    """
    tmp = None
    if os.path.basename(path) and (os.path.isfile(path) or not os.path.exists(path)):
        real = os.path.realpath(path)
        head, name = os.path.split(real)
        for last in (False, False, True):
            tmp = os.path.join(head, f".{name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
            try:
                f = open(tmp, "xb")
                break
            except FileExistsError:
                if last:  # three names taken: report the last one
                    raise
            except OSError as exc:
                exc.filename = path
                raise
    else:
        f = open(path, "wb")
    try:
        try:
            yield f
        finally:
            f.close()  # a buffered write can fail here
        if tmp:
            os.replace(tmp, real)
    except BaseException:
        if tmp:
            with contextlib.suppress(OSError):  # the error that stopped the write is reported
                os.remove(tmp)
        raise


# A CSV row: 11 cells of at most 24 bytes (the longest "%.17g" of a double
# is -2.2250738585072014e-308), each followed by a comma or the newline.
_CSV_ROW = b",".join([b"%.17g"] * len(TRACE_COLUMNS)) + b"\n"
_CSV_ROW_BYTES = len(TRACE_COLUMNS) * (24 + 1)  # 275
_USED = struct.Struct("Q")  # the bytes a child wrote, at the start of its mapping


def _csv_rows(trace: SimTrace, a: int, b: int):
    """Rows a..b-1 of ``trace`` as CSV lines, zipped from the column views,
    z3 and x included, and formatted one at a time."""
    return map(_CSV_ROW.__mod__, zip(*[trace.view(name, a, b) for name in TRACE_COLUMNS]))


# Forking and waiting take about 1 ms from the command line's process, and
# more from a larger one, and the child starts 1-5 ms after the fork.  Below
# this many rows a second process costs more than it saves: on a 2-vCPU KVM
# guest, timed in one process with the child on the other CPU, a split write
# broke even at 1,000-2,000 rows and a split read, which also opens the file
# again and copies its rows back, at 2,000-2,500.
_SPLIT_ROWS = 3_000


def _two_processes(rows: int) -> bool:
    """Whether the CSV codec splits its ``rows`` rows between this process
    and a forked child: only for at least _SPLIT_ROWS rows, where os.fork
    exists, more than one CPU is usable and no other thread is alive.
    Threads are counted by the kernel where it lists them, native ones
    included, as Python 3.12+ counts them when it warns about a fork."""
    if rows < _SPLIT_ROWS or not hasattr(os, "fork"):
        return False
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    return cpus > 1 and threads == 1


def _leave_parents_cpu() -> None:
    """Moves this forked child off the CPU its parent last ran on, where
    the kernel often starts it, so that the two halves run side by side
    rather than in turns.  Does nothing where the CPU cannot be read from
    /proc or no other CPU is usable."""
    with contextlib.suppress(OSError, AttributeError, IndexError, ValueError):
        fd = os.open(f"/proc/{os.getppid()}/stat", os.O_RDONLY)
        try:
            stat = os.read(fd, 4096)
        finally:
            os.close(fd)
        cpu = int(stat.rsplit(b")", 1)[1].split()[36])  # field 39, processor
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})


def _with_child(split: bool, child, parent) -> int | str | None:
    """Run child() in a forked child process, if ``split``, while parent()
    runs here.  Returns the child's exit code: 0 once child() returns, 1 if
    it raises, minus the signal's number if one ends it, or "unknown" where
    the kernel reaped the child itself (SIGCHLD is ignored).  Returns None,
    and has run parent() alone, when ``split`` is false or os.fork fails
    (EAGAIN, ENOMEM): the caller then does the child's part itself.  So a
    caller learns whether child() finished from what it left in shared
    memory, not from the code.

    The child ends in os._exit, so it never flushes the files it inherits,
    runs its callers' cleanup (replacing's removal of the temporary) or
    runs atexit handlers.  The wait is in a finally block, so no child
    outlives the call, even when parent() raises."""
    pid = None
    if split:
        with contextlib.suppress(OSError):
            pid = os.fork()
    if pid == 0:
        code = 1
        try:
            _leave_parents_cpu()
            child()
            code = 0
        finally:
            os._exit(code)
    code = None
    try:
        parent()
    finally:
        if pid:
            try:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            except ChildProcessError:  # raised only once the reaped child has ended
                code = "unknown"
    return code


def write_trace_csv(trace: SimTrace, path: str) -> None:
    """17 significant digits: parsing the file reproduces the doubles exactly.

    The rows stream to a file that replaces ``path`` only once it is
    complete (see replacing).  Where _two_processes allows it, a forked
    child formats rows m..n-1, m = n//2, into an anonymous shared mapping
    sized for 275 B per row, while this process writes rows 0..m-1; then it
    waits for the child and appends the child's bytes.  Otherwise, or if
    the fork fails, this process writes every row.  The bytes are the same
    either way.

    Any failure in the child, a row that does not fit the mapping included,
    ends it with status 1 before it writes its used length, and a child
    that leaves no used length raises OSError here, naming its status.  No
    child outlives the call (see _with_child).
    """
    n = trace.n
    m = n // 2 if _two_processes(n) else n
    # Not closed by a with block: while a failed write's traceback holds a
    # view of the mapping, close raises BufferError in place of that error.
    # The mapping goes with its last reference.
    shared = mmap.mmap(-1, _USED.size + _CSV_ROW_BYTES * (n - m))

    def child():
        shared.seek(_USED.size)
        shared.write(b"".join(_csv_rows(trace, m, n)))  # ValueError if it does not fit
        _USED.pack_into(shared, 0, shared.tell())

    with replacing(path) as f:
        f.write(TRACE_HEADER.encode() + b"\n")
        code = _with_child(m < n, child, lambda: f.writelines(_csv_rows(trace, 0, m)))
        used = _USED.unpack_from(shared)[0]
        if code is None:
            f.writelines(_csv_rows(trace, m, n))
        elif not used:
            raise OSError(f"the child process formatting trace rows {m}..{n - 1} ended "
                          f"with status {code}")
        else:
            f.write(memoryview(shared)[_USED.size:used])


def _data_rows(f) -> tuple[int, int, int]:
    """(rows, s, k0) for the binary file ``f``, from one pass over its
    newlines in 64 KiB blocks: ``rows``, the lines after the header, a last
    line with no newline included; ``s``, the byte offset of the first line
    that starts at or after half the file's size, and ``k0``, that line's
    row number, or (0, 0) if no line starts there.  (0, 0, 0), without
    reading, when ``f`` cannot seek back to its start (a pipe)."""
    if not f.seekable():
        return 0, 0, 0
    half = f.seek(0, os.SEEK_END) // 2
    f.seek(0)
    newlines = pos = s = k0 = 0
    last = b""
    for block in iter(lambda: f.read(1 << 16), b""):
        if not s and pos + len(block) >= half:
            i = block.find(b"\n", max(half - 1 - pos, 0))
            if i >= 0:  # the line after this newline starts at or after half
                s, k0 = pos + i + 1, newlines + block.count(b"\n", 0, i)
        newlines += block.count(b"\n")
        pos += len(block)
        last = block[-1:]
    f.seek(0)
    return newlines - 1 if last == b"\n" else newlines, s, k0


def _parse_rows(path: str, trace: SimTrace, lines, stop: int | None = None) -> None:
    """Parse ``lines``, binary lines of the trace CSV ``path``, as rows
    trace.n, trace.n + 1, ... of ``trace``, up to row stop - 1 or to the
    last line; row k is on line k + 2.  Raises ValueError as read_trace_csv
    describes, and UnicodeDecodeError for a line that is not UTF-8."""
    L, append, n = trace.L, trace.append, trace.n
    for k, line in enumerate(islice(lines, None if stop is None else stop - n), n):
        try:
            t, z1, z2, z3, x1, x2, x3, u, u1, eta, delta = map(float, line.split(b","))
        except ValueError:  # again as text: for 'abc', not b'abc', and non-ASCII digits
            cells = line.decode().split(",")  # UnicodeDecodeError leaves the handler
            try:
                t, z1, z2, z3, x1, x2, x3, u, u1, eta, delta = map(float, cells)
            except ValueError as exc:
                raise ValueError(f"{path}:{k + 2}: {exc}") from None
        try:
            append(t, z1, z2, u, u1, eta, delta)
        except ValueError as exc:
            raise ValueError(f"{path}:{k + 2}: {exc}") from None
        z3_row = eta + delta
        # != fails every NaN.  Equal floats differ in bits only at -0 and 0,
        # so the bits are compared only when a cell is zero.
        if (z3 != z3_row or x1 != z1 / L or x2 != z2 / L or x3 != z3_row / L
                or not (z3 and x1 and x2 and x3)
                and _DERIVED.pack(z3, x1, x2, x3)
                != _DERIVED.pack(z3_row, z1 / L, z2 / L, z3_row / L)):
            nan = " (a NaN cell never matches)"  # not even where both print as nan
            if math.isnan(z3) or struct.pack("d", z3) != struct.pack("d", z3_row):
                raise ValueError(f"{path}:{k + 2}: z3 = {z3!r} is not eta + delta = "
                                 f"{z3_row!r}{nan if math.isnan(z3) else ''}")
            raise ValueError(f"{path}:{k + 2}: x1..x3 = {x1!r}, {x2!r}, {x3!r} are not "
                             f"z/L = {z1 / L!r}, {z2 / L!r}, {z3_row / L!r} for L = {L!r}"
                             f"{nan if any(map(math.isnan, (x1, x2, x3))) else ''}")


def _rows_from_child(path: str, trace: SimTrace, f, s: int, k0: int) -> bool:
    """Parse rows k0.. of the file ``path`` in a forked child while this
    process parses rows trace.n..k0-1 from ``f``; True once the child's rows
    are in ``trace``, which is then full.

    The child goes on from its copy of ``trace`` at row k0, through the same
    _parse_rows, and reads from byte ``s`` through a file description of its
    own, because it shares the file offset of ``f``.  It never maps the
    file, since a file truncated under a mapping ends the process with
    SIGBUS.  It copies its rows, 48 B each, into an anonymous shared mapping,
    then writes their used length before them.  False, with rows k0.. left
    for this process to parse, unless that length says the child filled the
    mapping with exactly the rows the count found, and ``f`` stops at ``s``:
    a bad row, a file that grew, shrank or was replaced since the count, a
    failed fork and a child that dies all end here.  So every error is
    raised here, by the one-process loop, in file order."""
    a = k0 * _ROW_BYTES
    shared = mmap.mmap(-1, _USED.size + trace._allocated - a)

    def child():
        with open(path, "rb") as g:
            if not os.path.sameopenfile(f.fileno(), g.fileno()):
                return  # another file took path's name: the used length stays 0
            g.seek(s)
            trace._end = a
            _parse_rows(path, trace, g)
        shared.seek(_USED.size)
        shared.write(memoryview(trace._rows).cast("B")[a:trace._end])  # ValueError if it grew
        _USED.pack_into(shared, 0, shared.tell())

    _with_child(True, child, lambda: _parse_rows(path, trace, f, k0))
    if f.tell() != s or _USED.unpack_from(shared)[0] != len(shared):
        return False
    memoryview(trace._rows).cast("B")[a:] = memoryview(shared)[_USED.size:]
    trace._end = trace._allocated
    return True


def read_trace_csv(path: str, L: float) -> SimTrace:
    """Parse a trace CSV.  The t, z3 and x columns are not stored (see
    SimTrace).  A header other than TRACE_HEADER (lineno 1), a malformed
    row (a field count other than 11, a cell that is not a float, a blank
    line), a row that SimTrace.append rejects (a t that is not finite, not
    greater than the previous row's t, or off the fixed-step grid), or a
    row whose z3 and x are not eta + delta and z/L bit for bit (-0 is
    not 0; NaN never is) raises ValueError starting with `path:lineno:`,
    and a file that is not UTF-8 raises ValueError starting with `path:`.
    An L that is not positive and finite raises ValueError before the file
    is opened.

    The trace is allocated for the rows a first pass over the file's
    newlines counts, and each row goes through SimTrace.append, which fills
    them in place, so the trace holds no growth slack; it grows only past
    that count (a file that grew in between, or a pipe, which is read in
    one pass).  Lines end at LF (a CR before it is whitespace; a lone CR
    ends no line) and split into cells as bytes; a line whose bytes do not
    parse is decoded and parsed again, for cells such as non-ASCII digits
    that float() reads only as text.

    Where _two_processes allows it, this process parses rows 0 and 1, which
    set the step, then forks a child that parses the rows from the first
    line at or after half the file while this process parses the rows
    before it (see _rows_from_child).  The trace and every error message
    are the same either way: any child outcome but a full set of good rows
    leaves those rows to this process, so an error is always the first in
    file order."""
    SimTrace(L=L)  # rejects a bad L before the file is opened
    try:
        with open(path, "rb") as f:
            rows, s, k0 = _data_rows(f)
            trace = SimTrace(L=L, rows=rows)
            # decoded first: str.strip() also removes \x1c-\x1f
            header = f.readline().decode().strip()
            if header != TRACE_HEADER:
                raise ValueError(f"{path}:1: unexpected trace header: {header!r}")
            if 2 <= k0 < rows and _two_processes(rows):
                _parse_rows(path, trace, f, 2)
                if _rows_from_child(path, trace, f, s, k0):
                    return trace
            _parse_rows(path, trace, f)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not {exc.encoding} text ({exc.reason})") from None
    return trace


def run_simulation(cfg: SimConfig, sink=None):
    """Run the closed loop for cfg.steps steps; pass each row to sink.append.

    A row is (t, z1, z2, u, u1, eta, delta), as SimTrace.append takes it,
    and the run returns the sink.  With no sink, it is a SimTrace allocated
    for exactly the n + 1 rows, so the run returns the full trace; a sink
    that keeps less (metrics.WindowMax) makes the run store no trace.

    Within a step: the input is computed from the current measured state and
    the controller memory, the row is recorded, then the plant advances with
    the disturbance sampled at the end of the interval.  That sample is the
    next step's delta(t) and t: (k + 1)*h is the same float as the next k*h.
    The controller memory is local floats, passed to and returned by the
    step (see controller.implicit_step).  The step and this module's
    eval_disturbance, plant_step and DIVERGENCE_LIMIT are bound once per run.
    """
    step = explicit_step if cfg.method == "explicit" else implicit_step
    g = cfg.gains
    h = cfg.h
    n = cfg.steps
    z1, z2, eta = cfg.z1_0, cfg.z2_0, cfg.eta_0
    zb1, zb2, u1, d_est = z1, z2, 0.0, 0.0
    if sink is None:
        sink = SimTrace(L=g.L, rows=n + 1)
    append = sink.append
    d, delta_at, advance, limit = cfg.disturbance, eval_disturbance, plant_step, DIVERGENCE_LIMIT

    t, delta_now = 0.0, delta_at(d, 0.0)
    for k in range(n):
        u, u1, eta_next, d_est = step(k, z1, z2, zb1, zb2, eta, u1, d_est, g, h)
        append(t, z1, z2, u, u1, eta, delta_now)
        t = (k + 1) * h
        delta_now = delta_at(d, t)
        zb1, zb2, eta = z1, z2, eta_next
        z1, z2 = advance(z1, z2, u, delta_now, h)
        # Written as "not within", so that NaN, which fails every
        # comparison, diverges too.
        if not (abs(z1) <= limit and abs(z2) <= limit and abs(eta) <= limit):
            raise SimulationDiverged(
                k, k * h, f"|state| exceeded {limit:g} "
                          f"(z1={z1:g}, z2={z2:g}, eta={eta:g})")

    u, u1, _, _ = step(n, z1, z2, zb1, zb2, eta, u1, d_est, g, h)  # evaluated, not committed
    append(t, z1, z2, u, u1, eta, delta_now)  # t = n*h
    return sink
