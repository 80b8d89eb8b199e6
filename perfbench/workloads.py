"""The benchmark's workloads and the golden-output gate.

Every workload drives ctasim through a public entry point and returns what
the gate needs; ``check`` compares that with the recorded goldens and
raises ``GateError`` on any difference.  Timing covers ``run`` only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

from ctasim import cli

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")

SWEEP_H_LIST = "1e-3,5e-4,2e-4,1e-4"


class GateError(AssertionError):
    """An iteration's output differs from its golden."""


def load_goldens() -> dict:
    with open(GOLDENS_PATH) as f:
        return json.load(f)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def same_summary(summary: dict, golden: dict) -> bool:
    """``summarize`` output equals a golden summary file, ``preset`` aside.

    A JSON round trip turns the summary's tuples into lists, as on disk.
    """
    strip = {k: v for k, v in golden.items() if k != "preset"}
    return json.loads(json.dumps(summary)) == strip


def quiet_main(argv: list[str]) -> tuple[int, str]:
    """cli.main with its stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def simulate_argv(preset: str, workdir: str) -> list[str]:
    return ["simulate", "--preset", preset,
            "--out", os.path.join(workdir, f"{preset}.csv"),
            "--summary", os.path.join(workdir, f"{preset}.json")]


SWEEP_ARGV = ["sweep", "--preset", "paper-implicit", "--h-list", SWEEP_H_LIST]


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise GateError(what)


class Simulate:
    """`ctasim simulate --preset P --out ... --summary ...` in process."""

    def __init__(self, preset: str, workdir: str, goldens: dict):
        self.preset = preset
        self.argv = simulate_argv(preset, workdir)
        self.csv, self.json = self.argv[4], self.argv[6]
        self.golden = goldens["simulate"][preset]
        self.steps = cli.get_preset(preset).cfg.steps

    def run(self):
        return quiet_main(self.argv)

    def check(self, result) -> None:
        rc, _ = result
        _expect(rc == 0, f"{self.preset}: exit code {rc}")
        _expect(sha256_file(self.csv) == self.golden["trace_sha256"],
                f"{self.preset}: trace CSV differs from golden")
        with open(self.json) as f:
            _expect(json.load(f) == self.golden["summary"],
                    f"{self.preset}: summary differs from golden")


class OrderSweep:
    """`ctasim sweep --preset paper-implicit --h-list 1e-3,5e-4,2e-4,1e-4`."""

    def __init__(self, workdir: str, goldens: dict):
        self.argv = SWEEP_ARGV
        self.golden = goldens["sweep"]
        cfg = cli.get_preset("paper-implicit").cfg
        self.steps = sum(round(cfg.t_final / float(h)) for h in SWEEP_H_LIST.split(","))

    def run(self):
        return quiet_main(self.argv)

    def check(self, result) -> None:
        rc, out = result
        _expect(rc == 0, f"order-sweep: exit code {rc}")
        _expect(json.loads(out) == self.golden, "order-sweep: sweep JSON differs from golden")


class TraceReload:
    """read_trace_csv of a paper-implicit trace, then summarize it.

    The trace is written once, through the CLI, before any timing.
    """

    def __init__(self, workdir: str, goldens: dict):
        sim = Simulate("paper-implicit", workdir, goldens)
        sim.check(sim.run())
        self.path = sim.csv
        self.cfg = cli.get_preset("paper-implicit").cfg
        self.golden = sim.golden["summary"]
        self.steps = self.cfg.steps + 1  # rows re-summarized

    def run(self):
        trace = cli.read_trace_csv(self.path, self.cfg.gains.L)
        return cli.summarize(trace, self.cfg)

    def check(self, summary) -> None:
        _expect(same_summary(summary, self.golden),
                "trace-reload: summary differs from the paper-implicit golden")


WORKLOADS = ("paper-explicit", "paper-implicit", "order-sweep", "trace-reload")


def make(name: str, workdir: str, goldens: dict):
    if name in ("paper-explicit", "paper-implicit"):
        return Simulate(name, workdir, goldens)
    if name == "order-sweep":
        return OrderSweep(workdir, goldens)
    if name == "trace-reload":
        return TraceReload(workdir, goldens)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
