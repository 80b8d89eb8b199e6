"""Span tracer that times calls into ctasim's layers from the outside.

The tracer replaces module (and class) attributes through which the layers
call each other with timing wrappers, so no file of the package changes.
Each wrapped call is a span with a name, start, end, parent and iteration
id.  Self time (a span's duration minus the time covered by its children)
is accumulated as spans close; the first ``keep`` spans of a run are also
kept in memory and written out at the end.
"""

from __future__ import annotations

import contextlib
import importlib
import time

# (owner, attribute, span name) triples wrapped by the traced run.  The
# owner is the module (or class) *through which* the caller looks the name
# up: plant calls the controller steps through ``ctasim.plant``, the
# controller builds intervals through ``ctasim.controller`` and
# ``Interval.negate`` through ``ctasim.resolvent``.  The span name is the
# layer the function belongs to.  ``main`` and ``read_trace_csv`` are the
# benchmark's own entry points into the cli layer.
TRACED = (
    ("ctasim.cli", "main", "cli.main"),
    ("ctasim.cli", "read_trace_csv", "cli.read_trace_csv"),
    ("ctasim.cli", "run_simulation", "plant.run_simulation"),
    ("ctasim.cli", "summarize", "cli.summarize"),
    ("ctasim.cli", "write_trace_csv", "cli.write_trace_csv"),
    ("ctasim.cli", "precision_envelope", "metrics.precision_envelope"),
    ("ctasim.cli", "chatter_metrics", "metrics.chatter_metrics"),
    ("ctasim.cli", "convergence_time", "metrics.convergence_time"),
    ("ctasim.plant", "explicit_step", "controller.explicit_step"),
    ("ctasim.plant", "implicit_step", "controller.implicit_step"),
    ("ctasim.plant", "eval_disturbance", "plant.eval_disturbance"),
    ("ctasim.plant", "plant_step", "plant.plant_step"),
    ("ctasim.plant:SimTrace", "append", "plant.SimTrace.append"),
    ("ctasim.controller", "implicit_stage1", "controller.implicit_stage1"),
    ("ctasim.controller", "implicit_stage2", "controller.implicit_stage2"),
    ("ctasim.controller", "reconstruct_disturbance", "controller.reconstruct_disturbance"),
    ("ctasim.controller", "velocity_reference", "controller.velocity_reference"),
    ("ctasim.controller", "Interval", "resolvent.Interval"),
    ("ctasim.controller", "proj", "resolvent.proj"),
    ("ctasim.resolvent", "Interval", "resolvent.Interval"),
)

ROOT = "iteration"


def resolve_owner(spec: str):
    """'pkg.mod' -> module; 'pkg.mod:Class' -> class defined in it; None if
    the program has no such module or class."""
    module_name, _, class_name = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, class_name, None) if class_name else owner


class Patches:
    """Replace owner attributes and put the originals back by identity.

    A target the program no longer has is skipped and listed in
    ``missing``, so the benchmark still runs on a changed program; the
    skipped calls then count as zero.
    """

    def __init__(self, targets=TRACED):
        self.targets: list[tuple[object, str, str]] = []
        self.missing: list[str] = []
        for spec, attr, name in targets:
            owner = resolve_owner(spec)
            if owner is not None and attr in vars(owner):
                self.targets.append((owner, attr, name))
            else:
                self.missing.append(f"{spec}.{attr}")
        self.saved: list[tuple[object, str, object]] = []

    def install(self, make_wrapper) -> None:
        """Set each attribute to ``make_wrapper(original, span_name)``."""
        if self.saved:
            raise RuntimeError("patches already installed")
        for owner, attr, name in self.targets:
            original = vars(owner)[attr]
            self.saved.append((owner, attr, original))
            setattr(owner, attr, make_wrapper(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


class Tracer:
    """Records spans for wrapped calls; see the module docstring.

    After each ``iteration()`` block, ``iterations`` gains a dict mapping
    span name -> [calls, total_s, self_s] for that iteration.
    """

    def __init__(self, targets=TRACED, clock=time.perf_counter, keep=250_000):
        self.patches = Patches(targets)
        self.clock = clock
        self.keep = keep
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped = 0
        self.iterations: list[dict[str, list]] = []
        self._stats: dict[str, list] = {}
        self._stack: list[list] = []  # open spans: [child_s, span_id, parent_id]
        self._next_id = 0
        self._iteration = 0

    def _stat(self, name: str) -> list:
        return self._stats.setdefault(name, [0, 0.0, 0.0])

    def _open(self) -> tuple[list, float]:
        sid = self._next_id
        self._next_id = sid + 1
        frame = [0.0, sid, self._stack[-1][1] if self._stack else -1]
        self._stack.append(frame)
        return frame, self.clock()

    def _close(self, name: str, stat: list, frame: list, start: float) -> None:
        end = self.clock()
        self._stack.pop()
        dur = end - start
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur
        if len(self.spans) < self.keep:
            self.spans.append((self._iteration, frame[1], frame[2], name, start, end))
        else:
            self.dropped += 1

    def wrap(self, fn, name: str):
        stat = self._stat(name)

        def traced(*args, **kwargs):
            frame, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, stat, frame, start)

        return traced

    def install(self) -> None:
        self.patches.install(self.wrap)

    def uninstall(self) -> None:
        self.patches.uninstall()

    @contextlib.contextmanager
    def iteration(self):
        """One workload iteration: a root span enclosing the block; every
        span opened inside it carries the same iteration id."""
        stat = self._stat(ROOT)
        frame, start = self._open()
        try:
            yield
        finally:
            self._close(ROOT, stat, frame, start)
            self.iterations.append({n: s[:] for n, s in self._stats.items() if s[0]})
            for s in self._stats.values():
                s[:] = [0, 0.0, 0.0]
            self._iteration += 1

    def write_spans(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("iteration,span,parent,name,start_s,end_s\n")
            for it, sid, parent, name, start, end in self.spans:
                f.write(f"{it},{sid},{parent},{name},{start!r},{end!r}\n")
