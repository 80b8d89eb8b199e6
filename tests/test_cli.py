import errno
import gc
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import types
from array import array
from contextlib import contextmanager, redirect_stderr, redirect_stdout, suppress
from functools import cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ctasim
from ctasim import cli, plant
from ctasim.cli import (
    ORDERS,
    ExperimentPreset,
    get_preset,
    load_config,
    main,
    read_trace_csv,
    resolve_config,
    run_preset,
    run_sweep,
    steady_window,
    write_sweep_csv,
    write_trace_csv,
)
from ctasim.controller import Gains
from ctasim.metrics import precision_envelope
from ctasim.plant import TRACE_HEADER, Disturbance, SimTrace, Sinusoid, run_simulation
from oracles import read_trace_csv_text, row

# Three distinct step sizes whose math.log is one float, -6.907755278982137.
SAME_LOG_H = "1e-3,0.0010000000000000002,0.0010000000000000004"

H = "t,z1,z2,z3,x1,x2,x3,u,u1,eta,delta\n"  # a trace CSV's header line


class TestPresets:
    def test_benchmark_parameters_pinned(self):
        cfg = get_preset("paper-explicit").cfg
        assert (cfg.gains.kp1, cfg.gains.kp2) == (160.236, 60.3738)
        assert (cfg.gains.kp3, cfg.gains.kp4) == (28.5, 15.0)
        assert cfg.gains.L == 5.0
        assert cfg.h == 0.001 and cfg.t_final == 10.0
        assert (cfg.z1_0, cfg.z2_0, cfg.eta_0) == (8.0, -12.0, 0.0)
        assert cfg.disturbance.constant == 35.0
        assert get_preset("paper-implicit").cfg.method == "implicit"

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            get_preset("nope")

    def test_preset_holds_only_its_config(self):
        # The name is the PRESETS key; it is not repeated in the value.
        assert ExperimentPreset._fields == ("cfg",)

    def test_zero_preset_runs_flat(self):
        trace, summary = run_preset("zero")
        assert all(v == 0.0 for v in trace.z1)
        assert all(v == 0.0 for v in trace.u)
        assert summary["sup_abs_x"] == [0.0, 0.0, 0.0]
        assert summary["convergence_time_s"] == 0.0

    def test_override_validation(self):
        cfg = get_preset("zero").cfg
        for bad in ({"stepsize": 0.1}, {"gains": cfg.gains}):
            with pytest.raises(ValueError, match="unknown setting"):
                resolve_config(cfg, bad)
        out, threshold = resolve_config(cfg, {"h": 0.01, "method": "explicit"})
        assert out.h == 0.01 and out.method == "explicit"
        assert out.gains == cfg.gains and threshold == 0.01
        g = cfg.gains
        out, threshold = resolve_config(cfg, {"kp1": 100.0, "L": 2.0, "threshold": 0.5})
        assert out.gains == Gains(100.0, g.kp2, g.kp3, g.kp4, L=2.0) and threshold == 0.5


# One row per rule: the file (the header line H, then its rows), the L
# it is read with, and the exact message, with {} standing for the file.
REJECTED = [
    ("h = 0.001\n", 5.0, "{}:1: unexpected trace header: 'h = 0.001'"),
    ("", 5.0, "{}:1: unexpected trace header: ''"),
    # a -0 for 0, or the reverse, would be written back as the derived value
    (H + "0,0,0,-0,0,0,-0,0,0,0,0\n", 5.0, "{}:2: z3 = -0.0 is not eta + delta = 0.0"),
    # eta + delta = 0.1 + 0.2 = 0.30000000000000004; z3 one ulp up, then one down
    (H + "0,0,0,0.3000000000000001,0,0,0.06000000000000001,0,0,0.1,0.2\n", 5.0,
     "{}:2: z3 = 0.3000000000000001 is not eta + delta = 0.30000000000000004"),
    (H + "0,0,0,0.3,0,0,0.06000000000000001,0,0,0.1,0.2\n", 5.0,
     "{}:2: z3 = 0.3 is not eta + delta = 0.30000000000000004"),
    (H + "0,0,0,nan,0,0,nan,0,0,nan,0\n", 5.0,
     "{}:2: z3 = nan is not eta + delta = nan (a NaN cell never matches)"),
    (H + "0,-0,0,0,0,0,0,0,0,0,0\n", 5.0,
     "{}:2: x1..x3 = 0.0, 0.0, 0.0 are not z/L = -0.0, 0.0, 0.0 for L = 5.0"),
    (H + "0,nan,0,0,nan,0,0,0,0,0,0\n", 5.0, "{}:2: x1..x3 = nan, 0.0, 0.0 are not "
     "z/L = nan, 0.0, 0.0 for L = 5.0 (a NaN cell never matches)"),
    (H + "0,1,2,0,0.2,0.8,0,0,0,0,0\n", 5.0,
     "{}:2: x1..x3 = 0.2, 0.8, 0.0 are not z/L = 0.2, 0.4, 0.0 for L = 5.0"),
    (H + "0,1,2,0,0.2,0.4,0,0,0,0,0\n", 2.5,
     "{}:2: x1..x3 = 0.2, 0.4, 0.0 are not z/L = 0.4, 0.8, 0.0 for L = 2.5"),
    (H + "0,0,0,0,0,0,0,0,0,0\n", 5.0,
     "{}:2: not enough values to unpack (expected 11, got 10)"),
    (H + "0,0,0,0,0,0,0,0,0,0,0,0\n", 5.0, "{}:2: too many values to unpack (expected 11)"),
    (H + "abc,0,0,0,0,0,0,0,0,0,0\n", 5.0, "{}:2: could not convert string to float: 'abc'"),
    (H + "0,0,0,0,0,0,0,0,0,0,0\n\n", 5.0, "{}:3: could not convert string to float: '\\n'"),
    (H + "0,0,0,0,0,0,0,0,0,0,0\n" * 2, 5.0,
     "{}:3: t = 0.0 is not greater than the previous row's t = 0.0"),
    (H + "nan,0,0,0,0,0,0,0,0,0,0\n", 5.0, "{}:2: t = nan is not finite"),
    (H + "0,0,0,0,0,0,0,0,0,0,0\ninf,0,0,0,0,0,0,0,0,0,0\n", 5.0,
     "{}:3: t = inf is not finite"),
    (H + "0,0,0,0,0,0,0,0,0,0,0\n", 0.0, "L must be positive and finite, got 0.0"),
    # rows off the fixed-step grid: row 0 at -0 and at 0.5, row 6 an ulp up
    (H + "-0,0,0,0,0,0,0,0,0,0,0\n", 5.0,
     "{}:2: t = -0.0 is off the grid: row 0 must be at t = +0.0"),
    (H + "0.5,0,0,0,0,0,0,0,0,0,0\n", 5.0,
     "{}:2: t = 0.5 is off the grid: row 0 must be at t = +0.0"),
    (H + "".join(f"{k * 0.001!r},0,0,0,0,0,0,0,0,0,0\n" for k in range(6))
     + "0.006000000000000001,0,0,0,0,0,0,0,0,0,0\n", 5.0,
     "{}:8: t = 0.006000000000000001 is off the grid: row 6 must be at t = k*h = 0.006 "
     "for h = 0.001"),
    # a lone CR ends no line: the header line runs on to the end of the file
    (TRACE_HEADER + "\r0,0,0,0,0,0,0,0,0,0,0\r", 5.0, "{}:1: unexpected trace header: "
     "'t,z1,z2,z3,x1,x2,x3,u,u1,eta,delta\\r0,0,0,0,0,0,0,0,0,0,0'"),
    # one zero cell among nonzero ones is still compared bit for bit
    (H + "0,-0,1,1,0,0.2,0.2,0,0,1,0\n", 5.0,
     "{}:2: x1..x3 = 0.0, 0.2, 0.2 are not z/L = -0.0, 0.2, 0.2 for L = 5.0"),
]
REJECTED_IDS = ["header-config-file", "header-empty-file", "z3-negative-zero", "z3-ulp-up",
                "z3-ulp-down", "z3-nan", "x1-positive-zero", "x1-nan", "x2-edited", "other-L",
                "too-few-fields", "too-many-fields", "non-numeric-cell", "blank-line",
                "time-not-increasing", "time-not-finite", "time-inf", "L-zero",
                "t0-negative-zero", "t0-positive", "row-6-ulp", "lone-cr",
                "x1-positive-zero-among-nonzero"]


class TestTraceCsv:
    @pytest.mark.parametrize("text, L, message", REJECTED, ids=REJECTED_IDS)
    def test_rejected_with_its_message(self, tmp_path, text, L, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            read_trace_csv(str(path), L)
        assert str(info.value) == message.format(path)

    def test_row_with_zero_cells_reads_back(self, tmp_path):
        # A zero cell takes the bit-for-bit compare of every derived cell.
        path = tmp_path / "trace.csv"
        path.write_text(H + "0,0,1,0,0,0.2,0,0,0,0,0\n")
        back = read_trace_csv(str(path), 5.0)
        assert row(back, 0) == (0.0, 0.0, 1.0, 0.0, 0.0, 0.2, 0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("edit, rows", [
        (lambda text: text.rstrip("\n"), 11),
        (lambda text: text.replace("\n", "\r\n"), 11),
        (lambda text: text.split("\n", 1)[0] + "\n", 0),
    ], ids=["no-final-newline", "crlf", "header-only"])
    def test_trace_is_allocated_for_exactly_its_rows(self, tmp_path, edit, rows):
        trace, _ = run_preset("paper-implicit", {"t_final": 0.01})
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        path.write_bytes(edit(path.read_text()).encode())
        back = read_trace_csv(str(path), L=trace.L)
        assert back.n == rows
        assert [row(back, i) for i in range(rows)] == [row(trace, i) for i in range(rows)]
        assert sys.getsizeof(back._rows) == sys.getsizeof(array("d")) + 48 * back.n

    def test_pipe_reads_the_rows_of_the_file(self, tmp_path):
        # A FIFO cannot seek back after a count, so it is read in one pass.
        trace, _ = run_preset("paper-implicit", {"t_final": 0.05})
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        fifo = tmp_path / "trace.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(path.read_bytes()),
                                  daemon=True)
        writer.start()
        back = read_trace_csv(str(fifo), L=trace.L)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert back.n == trace.n
        assert [row(back, i) for i in range(back.n)] == [row(trace, i) for i in range(trace.n)]

    def test_paper_implicit_read_peaks_at_the_trace(self, tmp_path):
        _assert_read_peaks_at_the_trace(tmp_path, split=False)

    @pytest.mark.parametrize("edit", [
        lambda text: text.encode(),
        lambda text: text.replace("\n", "\r\n").encode(),
        lambda text: text.replace("\n", "\r").encode(),
        lambda text: text.encode().replace(b",", b",\xff", 1),
        lambda text: _with_cell(text, 3, 7, "\udcff").encode(errors="surrogateescape"),
        lambda text: _with_cell(text, 3, 7, "\u0661").encode(),
    ], ids=["plain", "crlf", "lone-cr", "undecodable-byte", "undecodable-cell",
            "arabic-indic-digit"])
    def test_non_plain_file_is_decoded_as_the_text_reader_does(self, tmp_path, edit):
        # The byte 0xff, which is not UTF-8, is in the header of one file and
        # in a data row's u cell in the next.  The last file's u cell is
        # ARABIC-INDIC DIGIT ONE, which float() reads from text as 1.0, so the
        # row is accepted.
        path = tmp_path / "trace.csv"
        path.write_bytes(edit(_short_trace_text("paper-implicit")))
        assert _read_outcome(read_trace_csv, path) == _read_outcome(read_trace_csv_text, path)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_reads_every_edit_as_the_text_reader_does(self, scratch_csv, data):
        text = _edited_trace(data.draw)
        scratch_csv.write_bytes(text.encode())
        assert _read_outcome(read_trace_csv, scratch_csv) == _read_outcome(
            read_trace_csv_text, scratch_csv), text


@cache
def _short_trace_text(preset: str) -> str:
    """The CSV of a run of ``preset`` to t = 0.01 (11 rows, L = 5)."""
    trace, _ = run_preset(preset, {"t_final": 0.01})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv(trace, path)
        with open(path) as f:
            return f.read()


def _with_cell(text: str, i: int, j: int, cell: str) -> str:
    """``text`` with cell ``j`` of line ``i`` (0 is the header) set to ``cell``."""
    lines = text.split("\n")
    cells = lines[i].split(",")
    cells[j] = cell
    lines[i] = ",".join(cells)
    return "\n".join(lines)


def _read_outcome(reader, path, L=5.0):
    """(n, the bytes of the trace's rows and of its t column, its step h) of
    ``reader``'s read of ``path`` with ``L``, or the message of the
    ValueError it raises."""
    try:
        trace = reader(str(path), L)
    except ValueError as exc:
        return str(exc)
    return trace.n, trace._rows.tobytes(), trace.t.tobytes(), trace._h.hex()


def _assert_read_peaks_at_the_trace(tmp_path, split):
    """The paper-implicit trace read back, with the second process forced on
    or off, peaks at its rows and 12,000 B: the binary file's buffer (the
    block size, often 4 KiB) and the line being parsed."""
    trace, _ = run_preset("paper-implicit")
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    with _split_forced(split) as forks:
        tracemalloc.start()
        try:
            back = read_trace_csv(str(path), trace.L)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(forks) == split
    assert back._rows == trace._rows
    assert sys.getsizeof(back._rows) == 480_128
    assert peak <= sys.getsizeof(back._rows) + 12_000


EDITS = ["ulp", "-0", "nan", "inf", "1_0", "abc", "", "add-field", "drop-field",
         "blank-line", "repeat-t", "separator", "separator-around-header",
         "nan-z3-and-eta", "t-ulp"]


def _edited_trace(draw) -> str:
    """A short trace with one to three drawn edits, each on a drawn cell.
    Every derived cell of the zero preset's trace is 0, which a -0 edit
    makes wrong; paper-implicit's rarely offers such a cell.  The
    nan-z3-and-eta edit makes z3 and eta + delta the same NaN, which must
    still be named as z3, and t-ulp moves a row's t one ulp off the grid,
    which both readers reject."""
    preset = draw(st.sampled_from(["paper-implicit", "zero"]))
    lines = _short_trace_text(preset).split("\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))  # the header too
        edit = draw(st.sampled_from(EDITS))
        if edit == "blank-line":
            lines.insert(i + 1, "")
            continue
        sep = draw(st.sampled_from("\x1c\x1d\x1e\x1f"))  # str.strip() removes them
        if edit == "separator-around-header":
            lines[0] = draw(st.sampled_from([sep + lines[0], lines[0] + sep]))
            continue
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if edit == "t-ulp":
            edit, j = "ulp", 0
        if edit == "ulp":
            with suppress(ValueError):  # a header cell, or one edited to a non-number
                cells[j] = repr(math.nextafter(float(cells[j]),
                                               draw(st.sampled_from([-math.inf, math.inf]))))
        elif edit == "add-field":
            cells.insert(j, draw(st.sampled_from(["0", cells[j]])))
        elif edit == "drop-field":
            del cells[j]
        elif edit == "repeat-t":
            cells[0] = lines[i - 1].split(",")[0]
        elif edit == "nan-z3-and-eta":
            cells[3::6] = ["nan"] * len(cells[3::6])  # z3, and eta where there is one
        elif edit == "separator":
            cells[j] = draw(st.sampled_from([sep + cells[j], cells[j] + sep]))
        else:
            cells[j] = edit
        lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def scratch_csv(tmp_path_factory):
    return tmp_path_factory.mktemp("edited") / "trace.csv"


# --- the trace written in one process or two ---------------------------------

# The widest "%.17g" cells, 24 bytes each: a row of them (t, which is never
# negative, takes 23) fills all but one of the 275 B a child reserves per row.
WIDEST = [-2.2250738585072014e-308, -1.7976931348623157e+308]
stored_cells = st.one_of(st.floats(), st.sampled_from([-0.0, math.nan, math.inf, -math.inf,
                                                       *WIDEST]))


@st.composite
def drawn_traces(draw, cells=stored_cells):
    """(L, h, rows): a trace's L, step and stored rows (z1, z2, u, u1, eta,
    delta) of ``cells``, with row k at t = k*h."""
    L = draw(st.one_of(st.just(1.0), st.floats(min_value=5e-324, max_value=1e308)))
    h = draw(st.one_of(st.just(-WIDEST[0]), st.floats(min_value=5e-324, max_value=1e300)))
    rows = draw(st.lists(st.tuples(*[cells] * 6), max_size=12))
    return L, h, rows


def _widest(n):
    """n rows whose cells are all 24 bytes wide but t (L = 1, so x = z)."""
    return 1.0, -WIDEST[0], [(WIDEST[0], WIDEST[1], WIDEST[0], WIDEST[1], WIDEST[1],
                              WIDEST[0])] * n


def _trace(L, h, rows):
    trace = SimTrace(L)
    for k, stored in enumerate(rows):
        trace.append(k * h, *stored)
    return trace


# Blocks small enough that a trace of a few rows splits into several: the
# writer's rows per block and the reader's bytes per block.
SMALL_BLOCKS = {"_BLOCK_ROWS": 2, "_BLOCK_BYTES": 128}


@contextmanager
def _split_forced(split, small=False):
    """Within the block, the CSV codec's second process is forced on or off
    (plant._two_processes), and its blocks are SMALL_BLOCKS if ``small``;
    yields the list that each os.fork call adds to."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(None)
        return real_fork()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(plant, "_two_processes", lambda rows: split)
        mp.setattr(os, "fork", fork)
        for name, value in SMALL_BLOCKS.items() if small else ():
            mp.setattr(plant, name, value)
        yield forks


def _written(trace, path, split, small=False):
    """write_trace_csv with the second process forced on or off: (the file's
    bytes, the number of os.fork calls)."""
    with _split_forced(split, small) as forks:
        write_trace_csv(trace, str(path))
    return Path(path).read_bytes(), len(forks)


def _write_blocks(n, rows=plant._BLOCK_ROWS):
    """The writer's blocks of an n-row trace, ``rows`` rows each, as (first
    row, end row)."""
    return [(a, min(a + rows, n)) for a in range(0, n, rows)]


@contextmanager
def _stalled(side):
    """Within the block, one side of each split codec job waits, after the
    fork, until the other is done: the ``"parent"`` until the child has
    ended, so that the child does every block but block 0; the ``"child"``
    until the parent waits for it, so that the parent does every block."""
    real_fork, real_waitpid, ends = os.fork, os.waitpid, []

    def fork():
        r, w = os.pipe()
        pid = real_fork()
        if pid == 0 and side == "child":
            os.close(w)
            os.read(r, 1)  # b"" once the parent closes its end
        elif pid:
            os.close(r)
            ends.append(w)
            if side == "parent":
                os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        return pid

    def waitpid(pid, options):
        while ends:
            os.close(ends.pop())
        return real_waitpid(pid, options)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(os, "fork", fork)
        mp.setattr(os, "waitpid", waitpid)
        yield
    for w in ends:
        os.close(w)


def _child_stops(block, stop):
    """A plant._claimed under which the child calls stop() when it comes to
    its block number ``block`` (1 is the first it claims, the last block)."""
    real = plant._claimed

    def claimed(progress, nb):
        for j in real(progress, nb):
            if j == nb - block:
                stop()
            yield j

    return claimed


def _killed():
    os.kill(os.getpid(), signal.SIGKILL)


def _out_of_memory():
    raise MemoryError


def _no_fork():
    raise AssertionError("os.fork was called")


def _failed_fork():
    # As where a user's process limit is reached.
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


def _formatted_here(monkeypatch):
    """A list that gets (a, b) for each _csv_rows(trace, a, b) call made in
    this process, not in a forked child."""
    here, real = [], plant._csv_rows
    monkeypatch.setattr(plant, "_csv_rows",
                        lambda trace, a, b: here.append((a, b)) or real(trace, a, b))
    return here


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _sigchld_ignored():
    """Within the block SIGCHLD is ignored, so the kernel reaps each child
    itself, and os.waitpid raises ChildProcessError once the child has
    ended."""
    old = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        yield
    finally:
        signal.signal(signal.SIGCHLD, old)


@pytest.fixture(scope="module")
def split_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("split")


# Each case: the rows of the trace written in a fresh interpreter, which
# runs one thread, the code run there before the write, and the os.fork
# calls the write makes.
TWO_CPUS = "os.sched_getaffinity = lambda pid: {0, 1}; "
PREDICATE_CASES = {
    "two-cpus": (3_000, TWO_CPUS, 1),
    "rows-below-split": (2_999, TWO_CPUS, 0),
    "one-cpu": (3_000, "os.sched_getaffinity = lambda pid: {0}", 0),
    "cpu-count-two": (3_000, "del os.sched_getaffinity; os.cpu_count = lambda: 2", 1),
    "cpu-count-one": (3_000, "del os.sched_getaffinity; os.cpu_count = lambda: 1", 0),
    "cpu-count-unknown": (3_000, "del os.sched_getaffinity; os.cpu_count = lambda: None", 0),
    "no-fork": (3_000, TWO_CPUS + "del os.fork", 0),
    "no-fork-rows-below-split": (2_999, TWO_CPUS + "del os.fork", 0),
    "thread-alive": (3_000, TWO_CPUS + "threading.Thread(target=stop.wait).start()", 0),
    "threads-not-listed": (3_000, TWO_CPUS + "os.listdir = unlisted", 1),
    "threads-not-listed-one-alive": (3_000, TWO_CPUS + "os.listdir = unlisted; "
                                     "threading.Thread(target=stop.wait).start()", 0),
}
PREDICATE_SCRIPT = """
import os, sys, threading
from ctasim import plant
from ctasim.cli import run_preset

trace, _ = run_preset("zero", {"t_final": float(sys.argv[3]), "h": 1.0})
forks, real_fork, stop = [], os.fork, threading.Event()

def fork():
    forks.append(None)
    return real_fork()

def unlisted(path):
    raise FileNotFoundError(path)

os.fork = fork
exec(sys.argv[1])
try:
    plant.write_trace_csv(trace, sys.argv[2])
finally:
    stop.set()
print(len(forks))
"""


class TestTwoProcessWrite:
    @given(drawn_traces())
    @example(_widest(1))
    @example(_widest(2))
    @example(_widest(7))
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_in_one_or_two_processes(self, split_dir, drawn):
        trace = _trace(*drawn)
        one, forks = _written(trace, split_dir / "one.csv", split=False)
        assert forks == 0
        assert one.decode() == H + "".join(",".join("%.17g" % cell for cell in row(trace, k))
                                           + "\n" for k in range(trace.n))
        # In blocks of 2 rows: this process formats a prefix of whole blocks,
        # and the child the rest.
        blocks = _write_blocks(trace.n, SMALL_BLOCKS["_BLOCK_ROWS"])
        with pytest.MonkeyPatch.context() as mp:
            here = _formatted_here(mp)
            two, forks = _written(trace, split_dir / "two.csv", split=True, small=True)
        assert forks == (len(blocks) > 1)
        assert here[:1] == blocks[:1] and here == blocks[:len(here)]
        assert two == one
        _assert_no_child_left()

    def test_child_maps_275_bytes_per_row(self, tmp_path, monkeypatch):
        sizes = []
        real_mmap = plant.mmap.mmap

        def spy(fileno, length):
            sizes.append(length)
            return real_mmap(fileno, length)

        monkeypatch.setattr(plant.mmap, "mmap", spy)
        trace, _ = run_preset("paper-implicit", {})
        _written(trace, tmp_path / "trace.csv", split=False)
        assert sizes == []
        # The mapping holds the 24 B header, then one slot per block of 256
        # rows: the used length, then 275 B per row.
        _written(trace, tmp_path / "trace.csv", split=True)
        assert (trace.n, sizes) == (10_001, [24 + 40 * (8 + 275 * 256)])
        # The child's heap holds one block at a time, its rows and then their
        # 61 KB joined, though it formats every block but block 0 (3.0 MB
        # when it formatted a half).
        r, w = os.pipe()
        real = plant._claimed

        def claimed(progress, nb):
            tracemalloc.start()
            yield from real(progress, nb)
            os.write(w, b"%d" % tracemalloc.get_traced_memory()[1])

        monkeypatch.setattr(plant, "_claimed", claimed)
        with _stalled("parent"):
            assert _written(trace, tmp_path / "trace.csv", split=True)[1] == 1
        os.close(w)
        with os.fdopen(r, "rb") as child:
            peak = int(child.read())
        assert 256 * 200 < peak < 3 * 256 * 275

    def test_row_that_does_not_fit_is_formatted_here(self, tmp_path, monkeypatch, capsys):
        # A child that cannot fit its rows never cuts one short: it leaves
        # them all to this process, and the write succeeds.
        one, _ = _written(_preset_trace(), tmp_path / "one.csv", split=False)
        monkeypatch.setattr(plant, "_two_processes", lambda rows: True)
        monkeypatch.setattr(plant, "_CSV_ROW_BYTES", 100)
        target = tmp_path / "trace.csv"
        assert main(["simulate", "--preset", "paper-implicit", "--out", str(target)]) == 0
        assert capsys.readouterr().err == ""
        assert target.read_bytes() == one
        _assert_no_child_left()
        # The child's block 1 of this trace, rows 256..511, is of rows nearly
        # all as wide as a row can be, 274 B: it fits in 274 B per row, not
        # in 273.
        widest = _trace(*_widest(512))
        one, _ = _written(widest, tmp_path / "one.csv", split=False)
        assert 273 * 256 < len(b"".join(one.splitlines(keepends=True)[257:])) <= 274 * 256
        here = _formatted_here(monkeypatch)
        for row_bytes, formatted in [(273, [(0, 256), (256, 512)]), (274, [(0, 256)])]:
            monkeypatch.setattr(plant, "_CSV_ROW_BYTES", row_bytes)
            here.clear()
            with _stalled("parent"):
                write_trace_csv(widest, str(target))
            assert (target.read_bytes(), here) == (one, formatted)
            _assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_child_leaves_the_parents_cpu(self, monkeypatch):
        # A process blocked on its stdin stands in for the parent, which
        # waits for the child: the CPU it last ran on then stays put.
        calls = []
        monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, cpus)))
        with subprocess.Popen([sys.executable, "-c", "print(flush=True); input()"],
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE) as parent:
            parent.stdout.readline()
            monkeypatch.setattr(os, "getppid", lambda: parent.pid)
            plant._leave_parents_cpu()
            stat = Path(f"/proc/{parent.pid}/stat").read_bytes()
            parent.communicate(b"\n")
        cpu = int(stat[stat.rindex(b")") + 2:].split(b" ")[39 - 3])  # field 39
        assert calls == [(0, os.sched_getaffinity(0) - {cpu})]
        monkeypatch.setattr(os, "getppid", lambda: 0)  # no /proc/0: nothing is moved
        plant._leave_parents_cpu()
        assert len(calls) == 1

    def test_child_reaped_by_the_kernel(self, tmp_path, monkeypatch):
        # The wait cannot learn the status; the blocks the child marked
        # finished decide.
        trace = _preset_trace()
        one, _ = _written(trace, tmp_path / "one.csv", split=False)
        target = tmp_path / "trace.csv"
        here = _formatted_here(monkeypatch)
        blocks = _write_blocks(trace.n)
        with _sigchld_ignored():
            assert _written(trace, target, split=True) == (one, 1)
            assert here == blocks[:len(here)]
            monkeypatch.setattr(plant, "_CSV_ROW_BYTES", 10)  # no block fits
            here.clear()
            assert _written(trace, target, split=True) == (one, 1)
            assert here == blocks
        _assert_no_child_left()

    def test_failing_child_leaves_its_error_to_this_process(self, tmp_path, monkeypatch):
        # This process formats the child's rows itself, so it raises the
        # error that stopped the child, and no file is left.
        trace, _ = run_preset("paper-implicit", {})
        real_view = trace.view

        def view(name, a=0, b=None):
            if a >= 5_120:  # block 20 and on
                raise ValueError(f"row {a} is unreadable")
            return real_view(name, a, b)

        monkeypatch.setattr(trace, "view", view)
        with pytest.raises(ValueError, match="^row 5120 is unreadable$"):
            _written(trace, tmp_path / "trace.csv", split=True)
        assert list(tmp_path.iterdir()) == []
        _assert_no_child_left()

    def test_no_fork_while_another_thread_is_alive(self, tmp_path, monkeypatch):
        # Python 3.12+ warns about a fork with other threads alive.
        trace, _ = run_preset("paper-implicit", {})
        expected, _ = _written(trace, tmp_path / "one.csv", split=False)
        monkeypatch.setattr(plant.os, "fork", _no_fork)
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            write_trace_csv(trace, str(tmp_path / "trace.csv"))
        finally:
            stop.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()
        assert (tmp_path / "trace.csv").read_bytes() == expected

    def test_failed_fork_writes_in_one_process(self, tmp_path, monkeypatch, capsys):
        trace, _ = run_preset("paper-implicit", {})
        expected, _ = _written(trace, tmp_path / "one.csv", split=False)
        monkeypatch.setattr(plant, "_two_processes", lambda rows: True)
        monkeypatch.setattr(plant.os, "fork", _failed_fork)
        target = tmp_path / "trace.csv"
        assert main(["simulate", "--preset", "paper-implicit", "--out", str(target)]) == 0
        assert capsys.readouterr().err == ""
        assert target.read_bytes() == expected

    @pytest.mark.parametrize("rows, setup, forks", PREDICATE_CASES.values(),
                             ids=PREDICATE_CASES)
    def test_second_process_only_where_it_pays(self, tmp_path, rows, setup, forks):
        trace, _ = run_preset("zero", {"t_final": rows - 1.0, "h": 1.0})
        assert trace.n == rows
        expected, _ = _written(trace, tmp_path / "one.csv", split=False)
        src = str(Path(ctasim.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", PREDICATE_SCRIPT, setup,
             str(tmp_path / "trace.csv"), str(rows - 1.0)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"{forks}\n")
        assert (tmp_path / "trace.csv").read_bytes() == expected


# --- the trace read in one process or two ------------------------------------

# A NaN cell fails the reader's derived-cell check, so these cells hold none.
readable_cells = st.one_of(st.floats(allow_nan=False),
                           st.sampled_from([-0.0, math.inf, -math.inf, *WIDEST]))


@cache
def _preset_trace():
    return run_preset("paper-implicit")[0]


def _read_split(path, L, split, small=True):
    """read_trace_csv with the second process forced on or off, in
    SMALL_BLOCKS if ``small``: (its outcome as _read_outcome gives it, the
    number of os.fork calls, the rows appended in this process).  No child
    is left."""
    appended = []
    real_append = SimTrace.append

    def append(self, *cells):
        appended.append(None)
        return real_append(self, *cells)

    with _split_forced(split, small) as forks, pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimTrace, "append", append)
        outcome = _read_outcome(read_trace_csv, path, L)
    _assert_no_child_left()
    return outcome, len(forks), len(appended)


def _read_blocks(data: bytes, size=SMALL_BLOCKS["_BLOCK_BYTES"]):
    """The rows at which the split reader's blocks of the trace CSV ``data``
    end, in blocks of ``size`` bytes: the row of the first line that starts
    in each block of the file, where that is row 2 or later, then the
    file's row count.  Block 0 is parsed here; the child may take any
    later ones."""
    first, start, rows = {}, 0, 0
    for k, line in enumerate(data.split(b"\n")):  # line k holds row k - 1
        if 0 < start < len(data):
            first.setdefault(start // size, k - 1)
            rows = k
        start += len(line) + 1
    return [k for k in first.values() if k >= 2] + [rows]


def _counted_ends(path, size=SMALL_BLOCKS["_BLOCK_BYTES"]):
    """The rows at which the count of the file ``path``, in blocks of
    ``size`` bytes, ends the reader's blocks (plant._data_rows)."""
    with pytest.MonkeyPatch.context() as mp, open(path, "rb") as f:
        mp.setattr(plant, "_BLOCK_BYTES", size)
        return list(plant._data_rows(f)[2])


def _text_of_size(*ends):
    """A trace CSV of zeros on the step h = 1 whose lines end exactly at
    each of the byte counts ``ends``: the last row before each end has its u
    cell padded with leading zeros."""
    lines, size = [H], len(H)
    for end in ends:
        while True:
            k = len(lines) - 1
            line = f"{k},0,0,0,0,0,0,0,0,0,0\n"
            if end - size < 3 * len(line):
                line = f"{k},0,0,0,0,0,0,{'0' * (end - size - len(line) + 1)},0,0,0\n"
            lines.append(line)
            size += len(line)
            if size == end:
                break
    return "".join(lines)


def _write_text(path, text):
    """Writes ``text`` to ``path``, a lone surrogate as the byte it stands for."""
    path.write_bytes(text.encode(errors="surrogateescape"))
    return path


# Edits that make a row bad, each from the row's cells to the new cells.
BAD_ROWS = {
    "non-numeric-cell": lambda cells: ["abc", *cells[1:]],
    "too-few-fields": lambda cells: cells[:-1],
    "z3-ulp": lambda cells: [*cells[:3], repr(math.nextafter(float(cells[3]), math.inf)),
                             *cells[4:]],
    "t-ulp": lambda cells: [repr(math.nextafter(float(cells[0]), math.inf)), *cells[1:]],
    "undecodable-cell": lambda cells: [*cells[:7], "\udcff", *cells[8:]],
}


@cache
def _race_text():
    """The CSV of a run of paper-implicit to t = 0.12 (121 rows, L = 5)."""
    trace, _ = run_preset("paper-implicit", {"t_final": 0.12})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        write_trace_csv(trace, path)
        return Path(path).read_bytes()


def _row_end(k):
    """The byte count of _race_text() up to the end of row k."""
    return len(b"".join(_race_text().splitlines(keepends=True)[:k + 2]))


def _resized(k):
    """A change to a file: cut it to, or fill it up to, the end of row k of
    _race_text(); with a negative k, to 20 bytes into row -k."""
    def change(path):
        size = _row_end(k) if k >= 0 else _row_end(-k - 1) + 20
        with open(path, "r+b") as f:
            f.truncate(size)
            f.seek(0, os.SEEK_END)
            f.write(_race_text()[f.tell():size])
    return change


def _with_u(path, k, u):
    """The bytes of ``path`` with row k's u cell set to u(cell)."""
    lines = path.read_bytes().split(b"\n")
    cells = lines[k + 1].split(b",")
    cells[7] = u(cells[7])
    lines[k + 1] = b",".join(cells)
    return b"\n".join(lines)


def _replaced(path):
    """Moves a copy of ``path``, with row 90's u cell written as zeros of the
    same width, into its place: the child's rows would parse, as other
    values."""
    copy = path.with_name("copy.csv")
    copy.write_bytes(_with_u(path, 90, lambda cell: b"0" * len(cell)))
    os.replace(copy, path)


def _shifted(path):
    """Rewrites ``path`` in place with the last digit of row 10's u cell
    dropped.  Every later line starts one byte earlier, so the child's first
    line, read from the counted offset, lacks its leading 0 and still
    parses: t < 1 there."""
    data = _with_u(path, 10, lambda cell: cell[:-1])
    with open(path, "r+b") as f:
        f.write(data)
        f.truncate()


# Each case: the change made to a 101-row file after the count, before the
# parse.
RACES = {
    "grew": _resized(120),
    "shrank-in-childs-half": _resized(90),
    "shrank-mid-line": _resized(-90),
    "shrank-into-parents-half": _resized(20),
    "replaced": _replaced,
    "shifted": _shifted,
}

READ_PREDICATE_CASES = {
    **{key: (*PREDICATE_CASES[key], False)
       for key in ("two-cpus", "rows-below-split", "one-cpu", "thread-alive")},
    "fifo": (3_000, TWO_CPUS, 0, True),
}
READ_SCRIPT = """
import hashlib, os, sys, threading
from ctasim import plant

forks, real_fork, stop = [], os.fork, threading.Event()

def fork():
    forks.append(None)
    return real_fork()

os.fork = fork
exec(sys.argv[1])
try:
    trace = plant.read_trace_csv(sys.argv[2], float(sys.argv[3]))
finally:
    stop.set()
print(len(forks), trace.n, hashlib.sha256(trace._rows).hexdigest())
"""


# The rows of REJECTED whose files are long enough to split; the others
# are read in one process whatever the predicate says.
REJECTED_SPLIT = {key: case for key, case in zip(REJECTED_IDS, REJECTED)
                  if len(_read_blocks(case[0].encode())) > 1}


class TestTwoProcessRead:
    @given(drawn_traces(readable_cells))
    @example("paper-implicit")
    @example(_widest(3))  # the child starts at row 2
    @example((1.0, 1.0, [(0.0,) * 6] * 2 + _widest(1)[2]))  # no line starts past block 0
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_in_one_or_two_processes(self, split_dir, drawn):
        trace = _preset_trace() if drawn == "paper-implicit" else _trace(*drawn)
        path = split_dir / "read.csv"
        write_trace_csv(trace, str(path))
        one, forks, appended = _read_split(path, trace.L, split=False)
        assert forks == 0
        two, forks, appended = _read_split(path, trace.L, split=True)
        assert two == one
        ends = _read_blocks(path.read_bytes())
        assert _counted_ends(path) == ends
        if isinstance(one, tuple):
            # This process parsed a prefix of whole blocks, and the child the rest.
            assert (forks, appended in ends) == (len(ends) > 1, True)
        else:  # a bad row 0 or 1 (lines 2 and 3), which set the step, stops it before the fork
            assert forks == (len(ends) > 1 and int(one.split(":")[1]) > 3)

    @pytest.mark.parametrize("ends", [(65_536, 131_072), (65_537, 131_074)],
                             ids=["newline-ends-first-block", "newline-starts-second-block"])
    def test_split_at_a_block_boundary(self, tmp_path, ends):
        # The count reads 64 KiB blocks; here a line starts at byte 65,536 or
        # 65,537, and the newline before it ends block 0 or starts block 1.
        # Either way block 1 starts at that line, the only block after 0, so
        # a stalled parent parses the rows before it and the child the rest.
        path = _write_text(tmp_path / "trace.csv", _text_of_size(*ends))
        data = path.read_bytes()
        assert len(data) == ends[1] and data[ends[0] - 1:ends[0]] == b"\n"
        n = data.count(b"\n") - 1
        k = data[:ends[0]].count(b"\n") - 1
        assert _read_blocks(data, 1 << 16) == _counted_ends(path, 1 << 16) == [k, n]
        one, forks, appended = _read_split(path, 1.0, split=False)
        assert (one[0], forks, appended) == (n, 0, n)
        with _stalled("parent"):
            assert _read_split(path, 1.0, split=True, small=False) == (one, 1, k)

    def test_no_block_starts_at_row_0_or_1(self, tmp_path):
        # Rows 0 and 1 set the step before the fork, so the count starts no
        # block at either, even where one of them starts a block of the file.
        path = tmp_path / "trace.csv"
        path.write_text(_short_trace_text("zero"))
        data = path.read_bytes()
        for k in (0, 1):
            size = len(b"".join(data.splitlines(keepends=True)[:k + 1]))  # row k's offset
            assert data[size - 1:size] == b"\n"
            assert _counted_ends(path, size) == _read_blocks(data, size)

    @pytest.mark.parametrize("text, L, message", REJECTED_SPLIT.values(), ids=REJECTED_SPLIT)
    def test_rejected_with_its_message(self, tmp_path, text, L, message):
        path = tmp_path / "trace.csv"
        path.write_text(text)
        assert _read_split(path, L, split=True)[:2] == (message.format(path), 1)

    @pytest.mark.parametrize("edit", BAD_ROWS.values(), ids=BAD_ROWS)
    def test_first_bad_row_in_either_half_is_reported(self, tmp_path, edit):
        # In blocks of 128 B the 11-row trace's rows 3 and 8 are in different
        # blocks, so either process may come to either.
        text = _short_trace_text("paper-implicit")
        assert any(3 < k <= 8 for k in _read_blocks(text.encode()))
        outcomes = {}
        for bad in [(3,), (8,), (3, 8)]:
            lines = text.split("\n")
            for k in bad:
                lines[k + 1] = ",".join(edit(lines[k + 1].split(",")))
            path = _write_text(tmp_path / "bad.csv", "\n".join(lines))
            one, _, appended = _read_split(path, 5.0, split=False)
            assert _read_split(path, 5.0, split=True) == (one, 1, appended)
            assert one == _read_outcome(read_trace_csv_text, path)
            assert isinstance(one, str)
            outcomes[bad] = one
        assert outcomes[3, 8] == outcomes[3,]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_reads_every_edit_as_in_one_process(self, scratch_csv, data):
        text = _edited_trace(data.draw)
        scratch_csv.write_bytes(text.encode())
        assert _read_split(scratch_csv, 5.0, split=True)[0] == _read_split(
            scratch_csv, 5.0, split=False)[0], text

    def test_failed_fork_reads_in_one_process(self, tmp_path, monkeypatch):
        trace = _preset_trace()
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        monkeypatch.setattr(plant, "_two_processes", lambda rows: True)
        monkeypatch.setattr(plant.os, "fork", _failed_fork)
        back = read_trace_csv(str(path), trace.L)
        assert (back.n, back._rows, back.t) == (trace.n, trace._rows, trace.t)

    def test_child_reaped_by_the_kernel(self, tmp_path):
        # The wait cannot learn the status; the blocks the child marked
        # finished decide.
        trace = _preset_trace()
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        one, _, _ = _read_split(path, trace.L, split=False)
        with _sigchld_ignored():
            two, forks, appended = _read_split(path, trace.L, split=True, small=False)
        assert (two, forks) == (one, 1)
        assert appended in _read_blocks(path.read_bytes(), 1 << 16)

    def test_paper_implicit_read_peaks_at_the_trace(self, tmp_path):
        # The child's rows, 48 B each, arrive through a shared mapping, which
        # is not on this heap.
        _assert_read_peaks_at_the_trace(tmp_path, split=True)

    @pytest.mark.parametrize("change", RACES.values(), ids=RACES)
    def test_file_changed_after_the_count_reads_as_in_one_process(
            self, tmp_path, monkeypatch, change):
        # Every row is then parsed here: the child, though it comes first to
        # every block but block 0, hands none over.  It reads the file, never
        # a mapping of it, which a file cut short would turn into SIGBUS.
        path = tmp_path / "trace.csv"
        real_count = plant._data_rows

        def count(f):
            counted = real_count(f)
            change(path)
            return counted

        monkeypatch.setattr(plant, "_data_rows", count)
        reads = []
        for split in (False, True):
            path.write_bytes(_race_text()[:_row_end(100)])
            with _stalled("parent"):
                reads.append(_read_split(path, 5.0, split))
        (one, no_forks, appended), two = reads
        assert no_forks == 0
        assert two == (one, 1, appended)
        assert isinstance(one, tuple) or "\n" not in one

    @pytest.mark.parametrize("rows, setup, forks, fifo", READ_PREDICATE_CASES.values(),
                             ids=READ_PREDICATE_CASES)
    def test_second_process_only_where_it_pays(self, tmp_path, rows, setup, forks, fifo):
        trace, _ = run_preset("zero", {"t_final": rows - 1.0, "h": 1.0})
        assert trace.n == rows
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, str(path))
        source = path
        if fifo:  # it cannot seek back after a count, so it is read in one pass
            source = tmp_path / "trace.fifo"
            os.mkfifo(source)
            writer = threading.Thread(target=lambda: source.write_bytes(path.read_bytes()),
                                      daemon=True)
            writer.start()
        src = str(Path(ctasim.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", READ_SCRIPT, setup, str(source),
             repr(trace.L)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        if fifo:
            writer.join(timeout=10)
            assert not writer.is_alive()
        digest = hashlib.sha256(trace._rows).hexdigest()
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"{forks} {rows} {digest}\n")


def _failed_mmap(fileno, length):
    raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))


@pytest.mark.parametrize("direction", ["write", "read"])
def test_failed_mapping_leaves_the_rows_to_one_process(tmp_path, monkeypatch, direction):
    # As where the address space runs out: the codec then forks no child
    # and does its part in this process.
    trace = _preset_trace()
    path = tmp_path / "trace.csv"
    one, _ = _written(trace, path, split=False)
    monkeypatch.setattr(plant.mmap, "mmap", _failed_mmap)
    with _split_forced(True) as forks:
        if direction == "write":
            write_trace_csv(trace, str(path))
            assert path.read_bytes() == one
        else:
            back = read_trace_csv(str(path), trace.L)
            assert (back.n, back._rows, back.t) == (trace.n, trace._rows, trace.t)
    assert forks == []
    _assert_no_child_left()


def test_child_claims_blocks_from_the_end():
    # The child claims blocks nb-1, nb-2, ... down to 1 and stops at the
    # first block this process has claimed, each finished once it asks for
    # the next.
    progress = [0, 4, 4]
    assert list(plant._claimed(progress, 4)) == [3, 2, 1]
    assert progress == [0, 1, 1]
    progress = [2, 4, 4]
    blocks = plant._claimed(progress, 4)
    assert (next(blocks), progress) == (3, [2, 3, 4])
    assert (list(blocks), progress) == ([], [2, 2, 3])
    assert list(plant._claimed([3, 4, 4], 4)) == []


# Each case: the side that waits until the other is done, what the child does
# when it comes to its third block, if anything, and how many blocks of nb it
# hands over.
FROM_BOTH_ENDS = {
    "stalled-child": ("child", None, lambda nb: 0),
    "stalled-parent": ("parent", None, lambda nb: nb - 1),
    "child-dies": ("parent", _killed, lambda nb: 2),
    "child-raises": ("parent", _out_of_memory, lambda nb: 2),
}


@pytest.mark.parametrize("side, stop, taken", FROM_BOTH_ENDS.values(), ids=FROM_BOTH_ENDS)
def test_each_block_is_done_once_from_either_end(tmp_path, monkeypatch, side, stop, taken):
    # In both directions this process does a prefix of whole blocks and the
    # child the rest, however far each gets: a block the child did not
    # finish is done here, and the bytes and the trace are those of one
    # process.
    trace = _preset_trace()
    path = tmp_path / "trace.csv"
    one, _ = _written(trace, path, split=False)
    read, _, _ = _read_split(path, trace.L, split=False)
    written, ends = _write_blocks(trace.n), _read_blocks(one, 1 << 16)
    if stop:
        monkeypatch.setattr(plant, "_claimed", _child_stops(3, stop))
    here = _formatted_here(monkeypatch)
    with _stalled(side):
        assert _written(trace, tmp_path / "two.csv", split=True) == (one, 1)
        assert _read_split(path, trace.L, split=True, small=False) == (
            read, 1, ends[len(ends) - 1 - taken(len(ends))])
    assert here == written[:len(written) - taken(len(written))]
    _assert_no_child_left()


class TestSweep:
    @pytest.mark.parametrize("h", [0.0, -0.005, float("nan")])
    def test_rejects_nonpositive_step(self, h):
        # SimConfig checks each step size; the sweep builds every one before
        # its first run.
        with pytest.raises(ValueError, match="^h must be positive and finite"):
            run_sweep("zero", (0.01, h, 0.002))

    def test_rejects_repeated_step(self):
        # A repeated h adds no information to the table; the slope fit
        # itself only needs two distinct log(h) (see the test below).
        with pytest.raises(ValueError, match="step sizes must be distinct"):
            run_sweep("paper-implicit", (0.5, 0.25, 0.5))

    def test_step_sizes_sharing_one_log_fit_no_slope(self, capsys):
        # Three distinct h a few ulps apart: math.log rounds all three to one
        # value, which leaves the least-squares fit undefined.
        argv = ["sweep", "--preset", "paper-implicit", "--h-list", SAME_LOG_H]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert [r["status"] for r in out["rows"]] == ["ok"] * 3
        assert out["fitted_slopes"] == [None, None, None]

    def test_rows_equal_the_stored_traces_envelopes(self):
        h_values = (0.01, 0.005, 0.002)
        res = run_sweep("paper-explicit", h_values)
        cfg = get_preset("paper-explicit").cfg
        for r, h in zip(res.rows, h_values):
            run_cfg = cfg.replace(h=h)
            report = precision_envelope(run_simulation(run_cfg), steady_window(run_cfg), h,
                                        ORDERS["explicit"])
            assert (r.h, r.status) == (h, "ok")
            assert r.sup_abs_x == report.sup_abs_x

    def test_divergent_step_keeps_its_row(self, monkeypatch, tmp_path):
        real = plant.plant_step

        def nan_at_half(z1, z2, u, delta, h):
            return (math.nan, 0.0) if h == 0.5 else real(z1, z2, u, delta, h)

        monkeypatch.setattr(plant, "plant_step", nan_at_half)
        res = run_sweep("paper-implicit", (0.5, 0.25, 0.2))
        assert [(r.h, r.status) for r in res.rows] == \
            [(0.5, "divergent"), (0.25, "ok"), (0.2, "ok")]
        assert res.rows[0].sup_abs_x is None
        assert all(s is not None for s in res.slopes)  # fitted on the two ok rows
        path = tmp_path / "sweep.csv"
        write_sweep_csv(res, str(path))
        assert path.read_text().splitlines()[1] == "0.5,nan,nan,nan,divergent"

    def test_settings_apply_over_the_preset(self):
        # The two paper presets differ only in their method.
        hs = (0.01, 0.005, 0.002)
        via_settings = run_sweep("paper-implicit", hs, {"method": "explicit"})
        assert via_settings.method == "explicit"
        assert repr(via_settings) == repr(run_sweep("paper-explicit", hs))

    def test_unknown_setting_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown setting\(s\): stepsize$"):
            run_sweep("zero", (0.5, 0.25, 0.2), {"stepsize": 0.1})

    def test_every_step_size_checked_before_the_first_run(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_simulation", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="t_final must be a whole number of steps"):
            run_sweep("zero", (0.5, 0.25, 0.3))
        assert calls == []

    def test_zero_preset_sweep_has_no_slopes(self):
        res = run_sweep("zero", (0.01, 0.005, 0.002))
        assert all(r.status == "ok" for r in res.rows)
        assert res.slopes == (None, None, None)  # all-zero envelopes


class TestConfigFile:
    def test_parse_and_apply(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# benchmark variant\n"
            "method = explicit\n"
            "h = 0.002\n"
            "t_final = 0.5\n"
            "kp1 = 100.0\n"
            "eta_0 = 1.0\n"
            "delta_constant = 2.0\n"
            "delta_sin = 0.5,3.0\n"
            "threshold = 0.05\n"
        )
        settings = load_config(str(cfg_file))
        dist = Disturbance(2.0, (Sinusoid(0.5, 3.0, "sin"),))
        assert settings == {"method": "explicit", "h": 0.002, "t_final": 0.5,
                            "kp1": 100.0, "eta_0": 1.0, "disturbance": dist,
                            "threshold": 0.05}
        preset = get_preset("paper-implicit").cfg
        cfg, threshold = resolve_config(preset, settings)
        assert (cfg.method, cfg.h, cfg.t_final, cfg.eta_0) == ("explicit", 0.002, 0.5, 1.0)
        assert cfg.gains.kp1 == 100.0 and cfg.gains.kp2 == preset.gains.kp2
        assert (cfg.z1_0, cfg.z2_0) == (preset.z1_0, preset.z2_0)
        assert cfg.disturbance == dist and threshold == 0.05

    @pytest.mark.parametrize("key, value", [
        ("h", 0.002), ("t_final", 5.0), ("kp1", 100.0), ("kp2", 50.0), ("kp3", 30.0),
        ("kp4", 20.0), ("L", 2.5), ("z1_0", 1.5), ("z2_0", -2.5), ("eta_0", 0.5),
        ("threshold", 0.05),
    ])
    def test_each_float_setting_sets_its_field(self, tmp_path, key, value):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {value!r}\n")
        preset = get_preset("paper-implicit").cfg
        if key == "threshold":
            expected = (preset, value)
        elif key in Gains._fields:
            expected = (preset.replace(gains=preset.gains.replace(**{key: value})),
                        cli.DEFAULT_THRESHOLD)
        else:
            expected = (preset.replace(**{key: value}), cli.DEFAULT_THRESHOLD)
        assert resolve_config(preset, load_config(str(cfg_file))) == expected

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("stepsize = 0.1\n")
        with pytest.raises(ValueError):
            load_config(str(cfg_file))

    @pytest.mark.parametrize("line, key", [
        ("kp1 = abc", "kp1"),
        ("delta_sin = 1", "delta_sin"),
        ("method = rk4", "method"),
        ("stepsize = 0.1", "stepsize"),
        ("delta_sin = 0.4,,3", "delta_sin"),
        ("delta_cos = 0.6,2,", "delta_cos"),
        # SimConfig fields that are not config keys
        ("gains = 1", "gains"),
        ("disturbance = 1", "disturbance"),
    ])
    def test_errors_name_file_line_and_key(self, tmp_path, line, key):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text(f"# comment\n{line}\n")
        with pytest.raises(ValueError) as info:
            load_config(str(cfg_file))
        assert str(info.value).startswith(f"{cfg_file}:2: {key}: ")

    @pytest.mark.parametrize("first, again", [
        ("h = 0.001", "h = 0.002"),
        ("method = explicit", "method = implicit"),
        ("delta_constant = 1", "delta_constant = 2"),
    ])
    def test_repeated_key_rejected(self, tmp_path, first, again):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{first}\n# comment\ndelta_sin = 1,2\n{again}\n")
        key = first.partition(" ")[0]
        with pytest.raises(ValueError) as info:
            load_config(str(cfg_file))
        assert str(info.value) == f"{cfg_file}:4: {key}: repeated (first set on line 1)"

    def test_repeated_sinusoid_lines_add_terms(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("delta_sin = 0.5,3\ndelta_cos = 0.2,1\ndelta_sin = 0.1,4\n")
        assert load_config(str(cfg_file))["disturbance"].sinusoids == (
            Sinusoid(0.5, 3.0, "sin"), Sinusoid(0.2, 1.0, "cos"), Sinusoid(0.1, 4.0, "sin"))

    def test_byte_order_mark_is_dropped(self, tmp_path, capsys):
        # str.strip() keeps U+FEFF, so it would start the first key.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("h = 0.002\n", encoding="utf-8-sig")
        assert main(["simulate", "--preset", "zero", "--t-final", "0.01",
                     "--config", str(cfg_file)]) == 0
        assert json.loads(capsys.readouterr().out)["h"] == 0.002

    def test_line_without_equals_rejected(self, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("h 0.001\n")
        with pytest.raises(ValueError) as info:
            load_config(str(cfg_file))
        assert str(info.value) == f"{cfg_file}:1: expected `key = value`, got 'h 0.001'"


class TestNotText:
    """A file that is not UTF-8 is named in a one-line ValueError."""

    @pytest.fixture
    def binary_file(self, tmp_path):
        path = tmp_path / "binary.dat"
        path.write_bytes(b"\xd0\xff = 1\n")
        return path

    def test_config_file(self, binary_file):
        with pytest.raises(ValueError) as info:
            load_config(str(binary_file))
        assert type(info.value) is ValueError
        assert str(info.value) == f"{binary_file}: not utf-8 text (invalid continuation byte)"

    def test_trace_csv(self, binary_file):
        with pytest.raises(ValueError) as info:
            read_trace_csv(str(binary_file), 5.0)
        assert type(info.value) is ValueError
        assert str(info.value) == f"{binary_file}: not utf-8 text (invalid continuation byte)"

    def test_main_prints_one_error_line(self, binary_file, capsys):
        assert main(["simulate", "--preset", "zero", "--config", str(binary_file)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {binary_file}: not ") and err.count("\n") == 1


def test_files_are_read_as_utf8_whatever_the_locale(tmp_path):
    # Under an ASCII locale, a config with a byte-order mark and a trace with
    # a non-ASCII digit (ARABIC-INDIC DIGIT ONE) decode as UTF-8 all the same.
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("h = 0.002\n", encoding="utf-8-sig")
    trace_file = tmp_path / "trace.csv"
    trace_file.write_text(_with_cell(_short_trace_text("paper-implicit"), 3, 7, "\u0661"),
                          encoding="utf-8")
    env = {k: v for k, v in os.environ.items() if k not in ("LANG", "LC_CTYPE")}
    env.update(PYTHONCOERCECLOCALE="0", PYTHONUTF8="0", LC_ALL="C",
               PYTHONPATH=str(Path(ctasim.__file__).resolve().parents[1]))
    code = ("import codecs, locale, sys; from ctasim.cli import load_config, read_trace_csv; "
            "print(codecs.lookup(locale.getpreferredencoding(False)).name); "
            "print(load_config(sys.argv[1])['h'], read_trace_csv(sys.argv[2], 5.0).n)")
    proc = subprocess.run([sys.executable, "-c", code, str(cfg_file), str(trace_file)],
                          capture_output=True, text=True, env=env, timeout=60)
    encoding, _, result = proc.stdout.partition("\n")
    if encoding == "utf-8":
        pytest.skip("the C locale's preferred encoding is UTF-8 on this platform")
    assert proc.returncode == 0, proc.stderr
    assert result == "0.002 11\n"


# The command line's failure exits: argv, the text of a config file passed
# as --config (or None), the exit code, and what the one line on stderr
# holds.  A fragment that starts with "error: " is that line's prefix, and
# with its "\n" the whole line; any other fragment is a part of it.
# "{cfg}" stands for the config file's path.
FAILURE_EXITS = [
    (["simulate", "--preset", "zero", "--h-bogus", "1"], None, 1, "unrecognized arguments"),
    (["simulate"], None, 1, "required: --preset"),
    (["simulate", "--preset", "zero", "--method", "bogus"], None, 1,
     "argument --method: invalid"),
    (["simulate", "--preset", "zero", "--h", "abc"], None, 1, "argument --h: invalid float"),
    (["simulate", "--preset", "zero", "--gains", "1,abc,2,1"], None, 1, "--gains: could not"),
    (["simulate", "--preset", "zero", "--init", "1,x,0"], None, 1, "--init: could not"),
    (["sweep", "--preset", "zero", "--h-list", "1e-3,abc,3e-3"], None, 1, "--h-list: could not"),
    ([], None, 1, "required: command"),
    # An empty field, or an empty list, is an error, not a value left out.
    (["simulate", "--preset", "zero", "--gains", "1,,2,0.5,0.1"], None, 1,
     "--gains expects 4 comma-separated values, got '1,,2,0.5,0.1'"),
    (["simulate", "--preset", "zero", "--gains", ""], None, 1, "--gains expects 4"),
    (["simulate", "--preset", "zero", "--init", ""], None, 1, "--init expects 3"),
    (["sweep", "--preset", "zero", "--h-list", "0.01,,0.005,0.002"], None, 1,
     "--h-list: could not convert string to float: ''"),
    # An empty path is a path that cannot be opened, not a flag left out.
    (["simulate", "--preset", "zero", "--out", ""], None, 1, "No such file or directory: ''"),
    (["simulate", "--preset", "zero", "--summary", ""], None, 1, "No such file or directory: ''"),
    (["simulate", "--preset", "zero", "--config", ""], None, 1, "No such file or directory: ''"),
    (["sweep", "--preset", "zero", "--h-list", "0.5,0.25,0.2", "--out", ""], None, 1,
     "No such file or directory: ''"),
    (["sweep", "--preset", "zero", "--h-list", "0.5,0.25,0.2", "--summary", ""], None, 1,
     "No such file or directory: ''"),
    # Settings no run can take, each named before the run starts.
    (["simulate", "--preset", "bogus"], None, 1, "unknown preset"),
    *[(["simulate", "--preset", "paper-explicit", "--method", method, "--t-final", "0.01",
        *flags], None, 1, f"error: {field} must be")
      for flags, field in [
          (["--t-final", "inf"], "t_final"),
          (["--h", "inf"], "h"),
          (["--init", "nan,0,0"], "z1_0"),
          (["--init", "0,-inf,0"], "z2_0"),
          (["--init", "0,0,nan"], "eta_0"),
          (["--gains", "inf,1,2,1"], "kp1"),
          (["--gains", "1,1,nan,1"], "kp3"),
      ]
      for method in ("explicit", "implicit")],
    *[(["simulate", "--preset", "paper-explicit", "--t-final", "0.01"], f"{line}\n", 1,
       f"error: {{cfg}}:1: {line.split()[0]}: {field} must be finite")
      for line, field in [
          ("delta_constant = nan", "constant"),
          ("delta_sin = inf,1", "amplitude"),
          ("delta_cos = 1,-inf", "omega"),
      ]],
    *[(["simulate", "--preset", "zero", "--h", h, "--t-final", "1"], None, 1,
       f"error: {field} must")
      for h, field in [("0.3", "t_final"), ("0.7", "t_final"), ("2", "t_final"), ("1e-9", "h")]],
    *[(["simulate", "--preset", "paper-explicit", "--method", method, "--t-final", "0.01",
        "--gains", "1e308,1e308,2e307,1e307"], None, 1,
       "error: gains kp1=1e+308, kp2=1e+308 overflow")
      for method in ("explicit", "implicit")],
    (["simulate", "--preset", "zero", "--h", "1e-300", "--t-final", "1e-300"], None, 1,
     "error: h must be"),
    (["simulate", "--preset", "zero", "--t-final", "2", "--h", "1"], "delta_sin = 1,1e308\n", 1,
     "error: omega must keep the phase omega*t finite up to t=2.0, got 1e+308\n"),
    (["sweep", "--preset", "zero", "--h-list", "0.01,0.005"], None, 1,
     "error: a sweep needs at least 3 step sizes\n"),
    # A state past 1e12 is a divergence, the one exit 2.
    (["simulate", "--preset", "zero", "--init", "2e12,0,0", "--t-final", "0.01"], None, 2,
     "diverged"),
]


class TestCommandLine:
    def test_simulate_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        summ = tmp_path / "summary.json"
        rc = main([
            "simulate", "--preset", "zero", "--t-final", "0.05",
            "--out", str(out), "--summary", str(summ),
        ])
        assert rc == 0
        payload = json.loads(summ.read_text())
        for key in ("convergence_time_s", "window", "sup_abs_x",
                    "v_constants", "tv_u", "sign_flips"):
            assert key in payload
        printed = json.loads(capsys.readouterr().out)
        assert printed["preset"] == "zero"
        assert out.read_text().startswith("t,z1,z2,z3")

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            rc = main([
                "simulate", "--preset", "paper-implicit",
                "--t-final", "0.2", "--out", str(path),
            ])
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("h = 0.01\nt_final = 0.5\n")
        rc = main([
            "simulate", "--preset", "zero", "--config", str(cfg_file),
            "--h", "0.005",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["h"] == 0.005

    @pytest.mark.parametrize("t_final, h, window", [
        ("14", "7", [11.200000000000001, 14.0]),
        ("11", "5.5", [8.8, 11.0]),
        ("20", "0.5", [16.0, 20.0]),
    ])
    def test_steady_window_is_the_last_fifth(self, capsys, t_final, h, window):
        rc = main(["simulate", "--preset", "zero", "--t-final", t_final, "--h", h])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["window"] == window

    def test_nan_state_is_divergence(self, nan_plant_from_step_3, capsys):
        rc = main(["simulate", "--preset", "zero", "--t-final", "0.01"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: simulation diverged at step 3") and err.count("\n") == 1
        assert "z1=nan" in err

    @pytest.mark.parametrize(
        "argv, config, code, fragment", FAILURE_EXITS,
        # argv{i}-{fragment}: an id that stays the same when a row gains a column.
        ids=[f"argv{i}-{fragment.rstrip()}" for i, (*_, fragment) in enumerate(FAILURE_EXITS)])
    def test_usage_error_is_one_line_exit_1(self, tmp_path, capsys, argv, config, code,
                                            fragment):
        if config is not None:
            cfg_file = tmp_path / "run.cfg"
            cfg_file.write_text(config)
            argv = [*argv, "--config", str(cfg_file)]
            fragment = fragment.replace("{cfg}", str(cfg_file))
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == code and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        if fragment.startswith("error: "):
            assert captured.err.startswith(fragment)
        else:
            assert fragment in captured.err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--help"])
        assert info.value.code == 0
        assert "--preset" in capsys.readouterr().out

    def test_each_command_accepts_exactly_its_options(self):
        # Option strings, not --help text, whose layout varies across Pythons.
        commands = next(a.choices for a in cli._build_parser()._actions
                        if a.dest == "command")
        assert {name: {s for a in p._actions for s in a.option_strings}
                for name, p in commands.items()} == {
            "simulate": {"-h", "--help", "--preset", "--config", "--method", "--h",
                         "--t-final", "--gains", "--L", "--init", "--out", "--summary",
                         "--threshold"},
            "sweep": {"-h", "--help", "--preset", "--method", "--h-list", "--out",
                      "--summary"},
        }

    @pytest.mark.parametrize("preset, flags, message", [
        ("zero", ["--threshold", "inf"], "threshold must be positive and finite"),
        ("paper-implicit", ["--L", "1e-320"], "L must be large enough"),
        ("zero", ["--h", "1e100", "--t-final", "1e100"], "h must be small enough"),
        # v = sup|x| / h**4 overflows; only the JSON backstop sees it
        ("paper-implicit", ["--h", "1e-78", "--t-final", "1e-78"],
         "summary is not valid JSON"),
        ("zero", ["--threshold", "0"], "threshold must be positive and finite, got 0.0"),
    ])
    def test_nonfinite_summary_is_usage_error(self, tmp_path, capsys, preset, flags, message):
        # The JSON is formed before the first write, so no case writes --out.
        summ, out = tmp_path / "summary.json", tmp_path / "trace.csv"
        rc = main(["simulate", "--preset", preset, "--t-final", "0.01",
                   "--summary", str(summ), "--out", str(out), *flags])
        captured = capsys.readouterr()
        assert rc == 1 and captured.out == "" and not summ.exists()
        assert not out.exists()
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1

    def test_runs_as_module(self):
        # The package must not import ctasim.cli, or runpy warns that the
        # module was already imported before running it as __main__.
        src = str(Path(ctasim.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ctasim.cli",
             "simulate", "--preset", "zero", "--t-final", "0.01"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert proc.returncode == 0 and proc.stderr == ""
        assert json.loads(proc.stdout)["preset"] == "zero"

    @pytest.mark.parametrize("module", ["dataclasses", "inspect", "argparse", "json"])
    def test_import_does_not_load(self, module):
        # `dataclasses` pulls in `inspect` (and ast, dis, tokenize), and
        # argparse and json cost about 3 ms each; the command line imports
        # the last two when it parses and prints.  The baseline is what a
        # bare `import sys` already has, whatever site/.pth files load.
        src = str(Path(ctasim.__file__).resolve().parents[1])
        code = ("import sys; before = set(sys.modules); import ctasim.cli; "
                "print(*sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        added = proc.stdout.split()
        assert "ctasim.cli" in added and module not in added

    @pytest.mark.parametrize("raw, shown", [
        ("a\nb", r"a\nb"), ("a\rb", r"a\rb"), ("a\r\nb", r"a\r\nb"),
    ])
    def test_error_with_raw_newline_is_one_line(self, tmp_path, capsys, raw, shown):
        # argparse and load_config's `path:lineno:` prefix echo raw strings.
        rc = main(["simulate", "--preset", "zero", "--t-final", "0.01", raw])
        assert rc == 1
        assert capsys.readouterr().err == f"error: unrecognized arguments: {shown}\n"
        (tmp_path / f"bad{raw}name.cfg").write_text("stepsize = 0.1\n")
        rc = main(["simulate", "--preset", "zero", "--config", f"{tmp_path}/bad{raw}name.cfg"])
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {tmp_path}/bad{shown}name.cfg:1: "
                                           f"stepsize: unknown config key\n")

    def test_out_is_written_with_no_encoder_closure_alive(self, monkeypatch, tmp_path,
                                                          capsys):
        # json's indented encoder builds closures that refer to each other;
        # main collects them before the trace is written.
        def encoder_closures():
            return [o for o in gc.get_objects() if type(o) is types.FunctionType
                    and o.__qualname__.startswith("_make_iterencode.")]

        gc.collect()
        alive = []
        real = cli.write_trace_csv

        def spy(*args):
            alive.append(len(encoder_closures()))
            return real(*args)

        monkeypatch.setattr(cli, "write_trace_csv", spy)
        assert main(["simulate", "--preset", "zero", "--t-final", "0.01",
                     "--out", str(tmp_path / "trace.csv")]) == 0
        assert alive == [0]

    @pytest.mark.parametrize("argv, room", [
        pytest.param(["simulate", "--preset", "zero", "--t-final", "0.01", "--out"], 60,
                     id="simulate-out"),
        pytest.param(["simulate", "--preset", "zero", "--t-final", "0.01", "--summary"], 60,
                     id="simulate-summary"),
        pytest.param(["sweep", "--preset", "zero", "--h-list", "0.5,0.25,0.2", "--out"], 60,
                     id="sweep-out"),
        pytest.param(["sweep", "--preset", "zero", "--h-list", "0.5,0.25,0.2", "--summary"], 60,
                     id="sweep-summary"),
        # The 2,375,196 B trace: the room runs out 1.5 MB in, in this
        # process's blocks or the child's, wherever the two met.
        pytest.param(["simulate", "--preset", "paper-implicit", "--out"], 1_500_000,
                     id="simulate-out-child-rows"),
    ])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, monkeypatch, capsys, argv,
                                                 room):
        monkeypatch.setattr(plant, "open", _disk_full_after(room), raising=False)
        monkeypatch.setattr(plant, "_two_processes", lambda rows: True)
        target = tmp_path / "output"
        assert main([*argv, str(target)]) == 1
        assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []
        _assert_no_child_left()
        target.write_text("earlier output\n")
        assert main([*argv, str(target)]) == 1
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_text() == "earlier output\n"
        _assert_no_child_left()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "zero", "--t-final", "0.01", "--out"],
        ["simulate", "--preset", "zero", "--t-final", "0.01", "--summary"],
        ["sweep", "--preset", "zero", "--h-list", "0.5,0.25,0.2", "--out"],
        ["sweep", "--preset", "zero", "--h-list", "0.5,0.25,0.2", "--summary"],
    ], ids=["simulate-out", "simulate-summary", "sweep-out", "sweep-summary"])
    @pytest.mark.parametrize("directory", ["missing", "dangling-link"])
    def test_output_that_cannot_be_created_is_named_as_given(self, tmp_path, capsys,
                                                              argv, directory):
        # The temporary sits beside the symlink's target; neither its name
        # nor that target is what was asked for.
        if directory == "dangling-link":
            (tmp_path / directory).symlink_to(tmp_path / "gone")
        target = f"{tmp_path}/{directory}/output"
        assert main([*argv, target]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{target}'\n"

    def test_stale_temporary_is_passed_over_and_kept(self, tmp_path, capsys, monkeypatch):
        # A run killed part way leaves its temporary, and a later run may get
        # its PID; here the first name drawn is taken too.
        pid = os.getpid()
        stale = [tmp_path / f".summary.json.{pid}.tmp",
                 tmp_path / f".summary.json.{pid}.00000000.tmp"]
        for path in stale:
            path.write_text("someone else's\n")
        draws = iter([b"\x00" * 4, b"\x01" * 4])
        monkeypatch.setattr(os, "urandom", lambda n: next(draws))
        summary = tmp_path / "summary.json"
        assert main(["simulate", "--preset", "zero", "--t-final", "0.01",
                     "--summary", str(summary)]) == 0
        assert next(draws, None) is None
        assert sorted(tmp_path.iterdir()) == sorted([*stale, summary])
        assert [path.read_text() for path in stale] == ["someone else's\n"] * 2
        assert summary.read_bytes() == capsys.readouterr().out.encode()

    def test_every_temporary_name_taken_is_named(self, tmp_path, capsys, monkeypatch):
        stale = tmp_path / f".summary.json.{os.getpid()}.00000000.tmp"
        stale.write_text("someone else's\n")
        monkeypatch.setattr(os, "urandom", lambda n: b"\x00" * n)
        assert main(["simulate", "--preset", "zero", "--t-final", "0.01",
                     "--summary", str(tmp_path / "summary.json")]) == 1
        assert capsys.readouterr().err == f"error: [Errno 17] File exists: '{stale}'\n"
        assert list(tmp_path.iterdir()) == [stale]
        assert stale.read_text() == "someone else's\n"

    @pytest.mark.parametrize("argv", [
        ["simulate", "--preset", "zero", "--t-final", "0.01"],
        ["sweep", "--preset", "zero", "--h-list", "0.5,0.25,0.2"],
    ], ids=["simulate", "sweep"])
    def test_summary_file_holds_the_printed_bytes(self, tmp_path, capsys, argv):
        summ = tmp_path / "summary.json"
        assert main([*argv, "--summary", str(summ)]) == 0
        assert summ.read_bytes() == capsys.readouterr().out.encode()

    def test_output_through_a_symlink_replaces_its_target(self, tmp_path, capsys):
        target = tmp_path / "summary.json"
        target.write_text("earlier output\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert main(["simulate", "--preset", "zero", "--t-final", "0.01",
                     "--summary", str(link)]) == 0
        assert link.is_symlink() and sorted(tmp_path.iterdir()) == [link, target]
        assert json.loads(target.read_text())["preset"] == "zero"

    def test_output_to_a_fifo_is_written_in_place(self, tmp_path, capsys):
        fifo = tmp_path / "summary.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()),
                                  daemon=True)
        reader.start()
        assert main(["simulate", "--preset", "zero", "--t-final", "0.01",
                     "--summary", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert json.loads(received[0])["preset"] == "zero"
        assert list(tmp_path.iterdir()) == [fifo]

    def test_sweep_writes_table(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--preset", "zero", "--h-list", "0.01,0.005,0.002",
            "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h,sup_abs_x1,sup_abs_x2,sup_abs_x3,status"
        assert len(lines) == 4
        payload = json.loads(capsys.readouterr().out)
        assert payload["fitted_slopes"] == [None, None, None]


class _FullDisk:
    """A file that takes ``room`` bytes, then writes part of the next write
    and raises ENOSPC, as a disk that fills part way through would."""

    def __init__(self, f, room):
        self.f, self.room = f, room

    def write(self, data):
        if len(data) > self.room:
            self.f.write(data[:self.room])
            self.f.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= len(data)
        return self.f.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def close(self):
        self.f.close()


def _disk_full_after(room):
    """An ``open`` whose files fill after ``room`` bytes (see _FullDisk)."""
    return lambda *args, **kwargs: _FullDisk(open(*args, **kwargs), room)


# --- main() under generated flag values ---------------------------------------

# Finite, extreme, non-finite, empty and malformed values.  Step sizes are
# drawn so that no example runs more than a few hundred steps, except the
# sweep's SAME_LOG_H (at most 3 x 10,000 steps, about 0.1 s): the step cap
# is tested through the config error alone (tests/test_plant.py).
ODD_VALUES = ["0", "-0", "1e308", "-1e308", "5e-324", "1e-320", "inf", "-inf", "nan",
              "", " ", "abc", "1e", "0x10", "1,2"]
numbers = st.one_of(st.floats().map(repr), st.sampled_from(ODD_VALUES))
t_finals = st.one_of(st.floats(min_value=-1.0, max_value=0.02).map(repr),
                     st.sampled_from(["0.01", "0.02", *ODD_VALUES]))
steps = st.one_of(st.floats(min_value=1e-4, max_value=1.0).map(repr),
                  st.sampled_from(["0.001", "0.002", "0.005", "0.01", "1e-300",
                                   *ODD_VALUES]))
presets = st.sampled_from(["zero", "paper-explicit", "paper-implicit", "bogus"])
methods = st.sampled_from(["explicit", "implicit", "bogus", ""])
extra_flags = st.sampled_from([[], [], ["--h-bogus", "1"], ["--gains"]])


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _joined(values, max_size):
    return st.lists(values, max_size=max_size).map(",".join)


simulate_argvs = st.tuples(
    st.just(["simulate", "--preset"]), presets.map(lambda p: [p]),
    t_finals.map(lambda t: ["--t-final", t]),
    _optional("--method", methods), _optional("--h", steps),
    _optional("--gains", _joined(numbers, 5)), _optional("--init", _joined(numbers, 4)),
    _optional("--L", numbers), _optional("--threshold", numbers), extra_flags,
).map(lambda parts: sum(parts, []))

sweep_steps = st.sampled_from(["0.5", "0.25", "0.2", "0.1", "1", "2", "0.3", *ODD_VALUES])
sweep_argvs = st.tuples(
    st.just(["sweep", "--preset"]), presets.map(lambda p: [p]),
    _optional("--method", methods),
    _optional("--h-list", st.one_of(_joined(sweep_steps, 5), st.just(SAME_LOG_H))),
    extra_flags,
).map(lambda parts: sum(parts, []))


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def _check_main(argv):
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"main({argv!r}) raised {exc!r}")
    err = err.getvalue()
    assert rc in (0, 1, 2), argv
    if rc == 0:
        assert err == "", argv
        json.loads(out.getvalue(), parse_constant=_no_constant)
    else:
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        assert (rc == 2) == err.startswith("error: simulation diverged"), (argv, err)


class TestMainProperty:
    """Every input ends in exit 0 with JSON, exit 1 with one `error:` line,
    or exit 2 with one divergence line; nothing escapes main()."""

    @given(simulate_argvs)
    @settings(max_examples=150, deadline=None)
    def test_simulate(self, argv):
        _check_main(argv)

    @given(sweep_argvs)
    @settings(max_examples=60, deadline=None)
    def test_sweep(self, argv):
        _check_main(argv)
