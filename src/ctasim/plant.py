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
where a second CPU is usable, it splits its rows in blocks between this
process and a forked child, which start from either end and meet where
they meet (_from_both_ends).  Whatever the child does not finish is done
here, so the bytes, the trace and every error are as in one process.  A
run passes its rows to a sink (see run_simulation), by default a SimTrace.
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

    ``SimTrace(L, rows)`` allocates ``rows`` rows up front, which append
    fills in place before it grows the array, as run_simulation and
    read_trace_csv use it.  ``n`` counts the rows appended; reads stop there.
    L must be positive and finite, so that x = z/L keeps the sign and order
    of z.  Each column attribute returns a fresh array('d') copy, O(n): bind
    it once before indexing it in a loop, or read it with view()."""

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
        """Rows a..b-1 of column ``name``, read in place: a stored column as
        a read-only strided memoryview; z3 = eta + delta (run_simulation's
        float operation) and x = z/L as lazy maps over such views, and t as
        a lazy map of k*h over the row numbers k.  A memoryview holds the
        trace's buffer, so an append that grows the array raises BufferError
        while it is alive: take one in a ``with`` block, and use a map up
        within one expression.  An unknown name raises ValueError."""
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
    or not at all: ``f`` is a new file beside it, ``.NAME.PID.RANDOM.tmp``,
    which os.replace moves over ``path`` once the block ends and the file
    closes without error, and any exception removes.  A file already at
    that name (a killed run's) is left as it is and another name drawn.  A
    symlink's target is replaced, not the link.  A path with no file name
    (empty, or ending in a separator) and one that exists but is not a
    regular file (a device, a FIFO) are opened in place: open reports the
    first, and the second is written as it always was.  A file that cannot
    be created is reported under ``path`` as given."""
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
_USED = struct.Struct("Q")  # the bytes in one of the writer's slots, at its start
# A split job's blocks: the writer's hold _BLOCK_ROWS rows; each of the
# reader's starts at the first line that starts in a _BLOCK_BYTES block.
_BLOCK_ROWS = 256
_BLOCK_BYTES = 1 << 16


def _csv_rows(trace: SimTrace, a: int, b: int):
    """Rows a..b-1 of ``trace`` as CSV lines, zipped from the column views,
    z3 and x included, and formatted one at a time."""
    return map(_CSV_ROW.__mod__, zip(*[trace.view(name, a, b) for name in TRACE_COLUMNS]))


# Forking and waiting take about 1 ms, and the child starts 1-5 ms later, so
# a second process pays only from this many rows: on a 2-vCPU KVM guest a
# split write broke even at 1,000-2,000 rows and a split read at 2,000-2,500.
_SPLIT_ROWS = 3_000


def _two_processes(rows: int) -> bool:
    """Whether the CSV codec splits its ``rows`` rows with a forked child:
    from _SPLIT_ROWS rows, where os.fork exists, more than one CPU is usable
    and no other thread is alive, counted by the kernel where it lists them
    (native ones too, as Python 3.12+ counts them when it warns of a fork)."""
    if rows < _SPLIT_ROWS or not hasattr(os, "fork"):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = threading.active_count()
    return cpus > 1 and threads == 1


def _leave_parents_cpu() -> None:
    """Moves this forked child off the CPU its parent last ran on, where the
    kernel often starts it, so that the two run side by side, not in turns;
    not where /proc has no such CPU or no other CPU is usable."""
    with contextlib.suppress(OSError, AttributeError, IndexError, ValueError):
        fd = os.open(f"/proc/{os.getppid()}/stat", os.O_RDONLY)
        try:
            stat = os.read(fd, 4096)
        finally:
            os.close(fd)
        cpu = int(stat.rsplit(b")", 1)[1].split()[36])  # field 39, processor
        os.sched_setaffinity(0, os.sched_getaffinity(0) - {cpu})


def _claimed(progress, nb: int):
    """The child's blocks, nb-1 down to 1 until this process has one (progress[0]),
    each claimed in progress[1], and finished in progress[2] once it asks for the next."""
    for j in range(nb - 1, 0, -1):
        progress[1] = j
        if progress[0] >= j:
            return
        yield j
        progress[2] = j


def _from_both_ends(nb: int, size: int, here, child):
    """Do blocks 0..nb-1 of a codec job from both ends: this process calls
    here(0), here(1), ... while, if nb > 1, a forked child runs child(out,
    blocks) and does each block of ``blocks`` (_claimed: nb-1, nb-2, ...)
    into ``out``, ``size`` bytes of a shared anonymous mapping.  Each side
    claims a block in the mapping's header before it starts it and stops
    at the first block the other has claimed, so the faster does more.

    Returns (d, out): the child finished blocks d..nb-1 in ``out``, and this
    process did 0..d-1.  The child's are read after the wait, from where this
    process stopped on; it does any block in between itself, in order: one
    a child that raised, was killed or never forked (nb < 2, or the mapping
    or os.fork failed) left, or one both passed over.  So no result depends
    on memory order.  The child ends in os._exit, never flushing inherited
    files or running cleanup or atexit handlers; the wait is in a finally
    block, so no child outlives the call."""
    # This process's block, the child's, and the first the child finished.
    pid, out, progress = None, None, [0, nb, nb]
    if nb > 1:
        with contextlib.suppress(OSError):
            # Never closed: it goes with the last reference to a view of it.
            mapped = mmap.mmap(-1, 24 + size)
            progress, out = memoryview(mapped)[:24].cast("Q"), memoryview(mapped)[24:]
            progress[1] = progress[2] = nb
            pid = os.fork()
    if pid == 0:
        try:
            _leave_parents_cpu()
            child(out, _claimed(progress, nb))
        finally:
            os._exit(0)
    done = 0
    try:
        for i in range(nb):
            progress[0] = i
            if progress[1] <= i:  # the child has it
                break
            here(i)
            done = i + 1
    finally:
        progress[0] = nb  # the child stops at its next block
        if pid:
            with contextlib.suppress(ChildProcessError):  # reaped by the kernel once it ended
                os.waitpid(pid, 0)
    for i in range(done, progress[2]):
        here(i)
    return max(done, progress[2]), out


def write_trace_csv(trace: SimTrace, path: str) -> None:
    """17 significant digits: parsing the file reproduces the doubles exactly.

    The rows stream to a file that replaces ``path`` only once it is
    complete (see replacing).  Where _two_processes allows it, blocks of
    _BLOCK_ROWS rows are split from both ends (_from_both_ends): this
    process writes its blocks as it formats them, then the child's, each in
    a slot of 275 B per row (a block that does not fit is left here).  The
    bytes are the same however the blocks fall."""
    n = trace.n
    rows = _BLOCK_ROWS if _two_processes(n) else max(n, 1)
    slot = _USED.size + _CSV_ROW_BYTES * rows

    def block(i):
        return _csv_rows(trace, i * rows, min(n, i * rows + rows))

    def fill(mine, data):  # a call, so that a block's bytes go before the next's
        struct.pack_into(f"Q{len(data)}s", mine, 0, len(data), data)

    def child(out, blocks):
        for j in blocks:  # struct.error for a block that does not fit its slot
            fill(out[j * slot:j * slot + slot], b"".join(block(j)))

    with replacing(path) as f:
        f.write(TRACE_HEADER.encode() + b"\n")
        nb = -(-n // rows)
        d, out = _from_both_ends(nb, nb * slot, lambda i: f.writelines(block(i)), child)
        for j in range(d, nb):
            a = j * slot + _USED.size
            f.write(out[a:a + _USED.unpack_from(out, j * slot)[0]])


def _data_rows(f) -> tuple[int, array, array]:
    """(rows, offsets, ks) for the binary file ``f`` from one pass over its
    newlines in _BLOCK_BYTES blocks: the lines after the header, a last one
    with no newline included, and the offset and row k of the first line
    that starts in each block, where k >= 2, then the file's size and rows.
    (0, [], []), without reading, when ``f`` cannot seek back (a pipe)."""
    offsets, ks = array("q"), array("q")
    if not f.seekable():
        return 0, offsets, ks
    newlines, pos, last = 0, 0, b""
    for block in iter(lambda: f.read(_BLOCK_BYTES), b""):
        at = last == b"\n"  # a line starts at pos; else, after the block's first newline
        i = -1 if at else block.find(b"\n", 0, len(block) - 1)
        if (at or i >= 0) and newlines - at >= 2:
            offsets.append(pos + i + 1)
            ks.append(newlines - at)
        newlines += block.count(b"\n")
        pos += len(block)
        last = block[-1:]
    f.seek(0)
    rows = newlines - 1 if last == b"\n" else newlines
    offsets.append(pos)
    ks.append(rows)
    return rows, offsets, ks


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

    The trace is allocated for the rows a first pass over the newlines
    counts and filled in place through SimTrace.append, so it holds no
    growth slack; it grows only past that count (a file that grew since, or
    a pipe, read in one pass).  Lines end at LF (a CR before it is
    whitespace; a lone CR ends no line) and split into cells as bytes; a
    line whose bytes do not parse is decoded and parsed again, for cells
    such as non-ASCII digits that float() reads only as text.

    Where _two_processes allows it, this process parses rows 0 and 1, which
    set the step; the rest go in blocks, each from the first line in a
    _BLOCK_BYTES block of the file, split from both ends (_from_both_ends).
    The child reads through its own file description, never a mapping,
    which a file cut short turns into SIGBUS, parses each block's rows into
    their place in the shared mapping, and hands a block over only if it
    ends where the count found the next (the last, at the end of the file).
    This process takes the child's rows only if its own end where they
    begin.  So a bad row, a file changed since the count and a child that
    did not finish leave their rows here: the trace and every error are as
    in one process, in file order."""
    SimTrace(L=L)  # rejects a bad L before the file is opened
    try:
        with open(path, "rb") as f:
            # Block i ends where block i + 1 starts: at offsets[i], row ks[i].
            rows, offsets, ks = _data_rows(f)
            trace = SimTrace(L=L, rows=rows)
            # decoded first: str.strip() also removes \x1c-\x1f
            header = f.readline().decode().strip()
            if header != TRACE_HEADER:
                raise ValueError(f"{path}:1: unexpected trace header: {header!r}")
            nb = len(ks) if _two_processes(rows) else 0

            def child(out, blocks):
                with open(path, "rb") as g:
                    if not os.path.sameopenfile(f.fileno(), g.fileno()):
                        return  # another file took path's name
                    trace._rows = out  # row k at byte 48*k, as in the trace
                    for j in blocks:
                        g.seek(offsets[j - 1])
                        trace._end = ks[j - 1] * _ROW_BYTES
                        _parse_rows(path, trace, g, ks[j])
                        if (g.tell(), trace.n) != (offsets[j], ks[j]) or j == nb - 1 and g.read(1):
                            return

            if nb > 1:
                _parse_rows(path, trace, f, 2)
                d, out = _from_both_ends(nb, trace._allocated,
                                         lambda i: _parse_rows(path, trace, f, ks[i]), child)
                if d < nb and (f.tell(), trace.n) == (offsets[d - 1], ks[d - 1]):
                    a = ks[d - 1] * _ROW_BYTES
                    memoryview(trace._rows).cast("B")[a:] = out[a:]
                    trace._end = trace._allocated
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
