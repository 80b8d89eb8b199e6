"""The benchmark's own tests.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run: the
traced counts below are predictions about today's code, which a later
optimisation is expected to change.
"""

import os
import shutil
import subprocess
import sys
import types

import pytest

from ctasim.resolvent import solve_two_sgn

from perfbench import hostref, replay, workloads
from perfbench.stats import tail
from perfbench.tracer import ROOT, TRACED, Patches, Tracer, resolve_owner

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def span_tree(monkeypatch):
    """a -> (b -> c), c: each function advances a fake clock by fixed steps."""
    clock = FakeClock()
    mod = types.ModuleType("fake_layers")

    def c():
        clock.now += 7

    def b():
        clock.now += 5
        mod.c()

    def a():
        clock.now += 1
        mod.b()
        clock.now += 2
        mod.c()
        clock.now += 3

    for fn in (a, b, c):
        fn.__module__, fn.__qualname__ = "fake_layers", fn.__name__
        setattr(mod, fn.__name__, fn)
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    targets = [("fake_layers", n, f"fake_layers.{n}") for n in ("a", "b", "c")]
    return mod, Tracer(targets, clock=clock)


def test_self_time_on_synthetic_span_tree(span_tree):
    mod, tracer = span_tree
    tracer.install()
    try:
        for _ in range(2):
            with tracer.iteration():
                mod.a()
    finally:
        tracer.uninstall()
    first, second = tracer.iterations
    assert first == second
    # [calls, total, self]: a spans 1+(5+7)+2+7+3 = 25 and owns 1+2+3.
    assert first["fake_layers.a"] == [1, 25.0, 6.0]
    assert first["fake_layers.b"] == [1, 12.0, 5.0]
    assert first["fake_layers.c"] == [2, 14.0, 14.0]
    assert first[ROOT] == [1, 25.0, 0.0]
    assert sum(s[2] for s in first.values()) == first[ROOT][1]

    spans = {sid: (it, parent, name) for it, sid, parent, name, _, _ in tracer.spans}
    assert len(spans) == 10
    for it, parent, name in spans.values():
        if name == ROOT:
            assert parent == -1
        else:
            assert spans[parent][0] == it  # children share the iteration id

    def parents_of(name):
        return sorted(spans[p][2] for _, p, n in spans.values() if n == name)

    assert parents_of("fake_layers.a") == [ROOT] * 2
    assert parents_of("fake_layers.b") == ["fake_layers.a"] * 2
    assert parents_of("fake_layers.c") == ["fake_layers.a"] * 2 + ["fake_layers.b"] * 2


def test_span_cap_counts_dropped(span_tree):
    mod, tracer = span_tree
    tracer.keep = 3
    tracer.install()
    try:
        with tracer.iteration():
            mod.a()
    finally:
        tracer.uninstall()
    assert len(tracer.spans) == 3 and tracer.dropped == 2


@pytest.mark.parametrize("n, rank, beyond", [(100, 90, 10), (11, 1, 10), (37, 27, 10)])
def test_tail_has_ten_samples_beyond(n, rank, beyond):
    samples = [float(i) for i in range(n, 0, -1)]  # distinct, unsorted
    t = tail(samples)
    assert t["value"] == float(rank)
    assert t["beyond"] == beyond == sum(1 for x in samples if x > t["value"])
    assert t["percentile"] == pytest.approx(100.0 * rank / n)
    assert t["samples"] == n


def test_tail_of_short_run_is_the_maximum():
    t = tail([3.0, 1.0, 2.0])
    assert t == {"value": 3.0, "percentile": 100.0, "beyond": 0, "samples": 3}


def test_reference_rescales_to_the_nominal_host(monkeypatch):
    """A sample is scaled by the nominal chunk time over the mean of the two
    chunks around it; both chunks are kept."""
    chunks = iter([0.004, 0.006])
    monkeypatch.setattr(hostref, "chunk", lambda: next(chunks))
    ref = hostref.Reference()
    raw, norm = ref.around(lambda: 0.5)
    assert raw == 0.5
    assert norm == pytest.approx(0.5 * hostref.NOMINAL_S / 0.005)
    assert ref.chunks == [0.004, 0.006]


def test_uninstall_restores_every_attribute_by_identity():
    originals = [(resolve_owner(o), a, vars(resolve_owner(o))[a]) for o, a, _ in TRACED]
    tracer = Tracer()
    assert tracer.patches.missing == []
    tracer.install()
    try:
        assert all(vars(owner)[a] is not orig for owner, a, orig in originals)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[a] is orig for owner, a, orig in originals)
    patches = Patches()
    patches.install(lambda fn, name: fn)
    with pytest.raises(RuntimeError):
        patches.install(lambda fn, name: fn)
    patches.uninstall()


def test_missing_targets_are_skipped(span_tree):
    mod, _ = span_tree
    patches = Patches([("fake_layers", "a", "a"), ("fake_layers", "gone", "gone"),
                       ("no_such_module", "f", "f"), ("fake_layers:Nope", "g", "g")])
    assert [attr for _, attr, _ in patches.targets] == ["a"]
    assert patches.missing == ["fake_layers.gone", "no_such_module.f", "fake_layers:Nope.g"]


def test_traced_counts_on_paper_implicit(tmp_path):
    """6 intervals, 6 projections and 2 velocity references per controller
    evaluation (n steps + the final uncommitted one), 2 reconstructions per
    step, and 2 disturbance samples per step plus 1."""
    goldens = workloads.load_goldens()
    sim = workloads.Simulate("paper-implicit", str(tmp_path), goldens)
    n = sim.steps
    tracer = Tracer(keep=0)
    tracer.install()
    try:
        with tracer.iteration():
            result = sim.run()
    finally:
        tracer.uninstall()
    sim.check(result)  # the wrappers change no output
    calls = {name: s[0] for name, s in tracer.iterations[0].items()}
    assert calls["resolvent.Interval"] == 6 * (n + 1)
    assert calls["resolvent.proj"] == 6 * (n + 1)
    assert calls["controller.velocity_reference"] == 2 * (n + 1)
    assert calls["controller.reconstruct_disturbance"] == 2 * n
    assert calls["plant.eval_disturbance"] == 2 * n + 1
    assert calls["controller.implicit_step"] == n + 1
    assert "controller.explicit_step" not in calls


def test_replay_rejects_a_different_code_path():
    calls = [((1.0, 2.0), 3.0), ((2.0, 2.0), 4.0)]
    assert replay.time_calls(lambda x, y: x + y, calls, repeats=2) > 0.0
    with pytest.raises(replay.ReplayMismatch):
        replay.time_calls(lambda x, y: x * y, calls, repeats=1)


def test_two_sgn_oracle_matches_solver():
    for (a, b, x, y), z in replay.two_sgn_calls(seed=7, n=2000):
        assert a > b > 0.0
        assert solve_two_sgn(a, b, x, y) == z


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(os.path.join(REPO, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-explicit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
