"""Tests of the benchmark's own arithmetic and its "not measured" path.

Run from the repository root with `python3 -m pytest perfbench -q`.
"""

import json
import sys
import threading
import types
from pathlib import Path

import pytest

import metrics
import tracer
from tracer import Span, Tracer
from workloads import GRID, WORKLOADS, X_COMPARE, TrajectoryLong

ROOT = Path(__file__).resolve().parent.parent


def test_union_length_merges_overlaps():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 1), (2, 3)]) == 2.0
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracer.union_length([(0, 10), (2, 3)]) == 10.0


def _synthetic_call():
    # cli [0, 10]; in the main thread A [1, 4] with child C [2, 3];
    # in a pool thread B [3, 6] (parent: the root); D [7, 8] after both.
    return [
        Span("cli", 0.0, 1, None, end=10.0),
        Span("encoding.synth", 1.0, 1, 0, end=4.0),
        Span("statevector.run", 2.0, 1, 1, end=3.0),
        Span("statevector.run", 3.0, 2, 0, end=6.0),
        Span("mitigation.fit", 7.0, 1, 0, end=8.0),
    ]


def test_self_times_subtract_the_union_of_children():
    own = tracer.self_times(_synthetic_call())
    # root: 10 - |[1, 6] u [7, 8]| = 10 - 6
    assert own == [4.0, 2.0, 1.0, 3.0, 1.0]


def test_call_summary_overlap_and_closure():
    s = tracer.summarize_call(_synthetic_call(), 0)
    assert s["wall_s"] == 10.0
    assert s["cli_self_s"] == 4.0
    assert s["layer_self_s"] == {"encoding.synth": 2.0, "statevector.run": 4.0, "mitigation.fit": 1.0}
    assert s["layer_total_s"]["statevector.run"] == 4.0
    assert s["span_overlap"] == pytest.approx(0.7)
    # A [1, 4] and B [3, 6] share [3, 4]: one second counted twice.
    assert s["concurrent_s"] == pytest.approx(1.0)
    assert s["self_sum_s"] - s["concurrent_s"] == pytest.approx(s["wall_s"])


def test_sequential_self_times_add_up_to_wall_time():
    spans = [
        Span("cli", 0.0, 1, None, end=5.0),
        Span("schedule.build", 0.5, 1, 0, end=1.5),
        Span("subspace.evolve", 1.5, 1, 0, end=4.0),
    ]
    s = tracer.summarize_call(spans, 0)
    assert s["concurrent_s"] == pytest.approx(0.0)
    assert s["self_sum_s"] == pytest.approx(5.0)
    assert s["cli_self_s"] == pytest.approx(1.5)


def test_shot_split_recovers_the_injected_cost():
    clean, fixed, injected_cost = 30e-6, 5e-3, 1e-3
    runs, shots, injected = 4, 2048, 400.0
    total = runs * fixed + (shots - injected) * clean + injected * injected_cost
    assert tracer.shot_split(total, runs, shots, injected, clean, fixed) == pytest.approx(injected_cost)
    assert tracer.shot_split(total, runs, shots, 0.0, clean, fixed) is None


class _FakeModel:
    def __init__(self, p1=2.8e-4, p2=2.8e-3):
        self.p1, self.p2 = p1, p2

    def scaled(self, factor):
        return _FakeModel(self.p1 * factor, self.p2 * factor)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_clean_shot_probe_separates_per_shot_and_per_run_cost():
    clock = _FakeClock()
    seen = []

    def run_noisy(circuit, model, shots, seed):
        seen.append(model.p2)
        clock.now += 4e-3 + shots * 25e-6

    per_shot, fixed = tracer.clean_shot_probe(run_noisy, None, _FakeModel(), 512, 0, clock=clock)
    assert per_shot == pytest.approx(25e-6)
    assert fixed == pytest.approx(4e-3)
    assert all(0 < p2 < 1e-10 for p2 in seen)


def test_injected_fraction_of_the_one_step_circuit():
    # 56 CNOTs and 118 one-qubit gates under the default model.
    assert tracer.injected_fraction(56, 118, 2.8e-4, 2.8e-3) == pytest.approx(0.173, abs=1e-3)
    assert tracer.injected_fraction(56, 118, 0.0, 0.0) == 0.0


def test_injected_fraction_is_grouped_by_factor():
    runs = [{"p2": 2.8e-3, "q": 0.17}, {"p2": 2.8e-3 * 1.5, "q": 0.25},
            {"p2": 2.8e-3 * 2, "q": 0.32}, {"p2": 2.8e-3, "q": 0.19}]
    assert tracer.injected_by_factor(runs) == pytest.approx({"f1": 0.18, "f1.5": 0.25, "f2": 0.32})


def test_p90_is_nearest_rank():
    assert metrics.p90([3.0]) == 3.0
    assert metrics.p90([1.0, 2.0]) == 2.0
    assert metrics.p90([float(v) for v in range(1, 11)]) == 9.0


@pytest.fixture
def fake_program(monkeypatch):
    """A stand-in package whose cli lacks `evolve` and whose noise module is gone."""
    pkg = types.ModuleType("fakepair")
    cli = types.ModuleType("fakepair.cli")
    cli.build_schedule = lambda params: list(range(params))
    cli.run_circuit = lambda circuit: "state"
    monkeypatch.setitem(sys.modules, "fakepair", pkg)
    monkeypatch.setitem(sys.modules, "fakepair.cli", cli)
    wrapped = (
        ("fakepair.cli", "build_schedule", "schedule.build"),
        ("fakepair.cli", "evolve", "subspace.evolve"),
        ("fakepair.noise", "run_noisy_circuit", "noise.run"),
    )
    return cli, wrapped


def test_missing_names_are_not_measured_and_do_not_crash(fake_program):
    cli, wrapped = fake_program
    original = cli.build_schedule
    trace = Tracer()
    trace.install(wrapped)
    assert cli.build_schedule is not original
    with trace.root():
        assert cli.build_schedule(3) == [0, 1, 2]
    trace.uninstall()
    assert cli.build_schedule is original
    assert trace.missing == ["fakepair.cli.evolve", "fakepair.noise.run_noisy_circuit"]

    summary = tracer.summarize_call(trace.spans, trace.root_index)
    assert summary["counts"]["schedule.build"] == {"steps": 3}
    missing_layers = {
        layer: reason
        for layer, reason in trace.missing_layers().items()
        if layer in ("subspace.evolve", "noise.run")
    }
    assert "fakepair.cli.evolve not found" in missing_layers["subspace.evolve"]
    kernel = {k: "not measured: no circuit" for k in tracer.GATE_KINDS}
    values, why = metrics.per_layer([summary], [1.0], [1.0], [10], kernel, None, missing_layers)
    assert values["schedule.steps"] == 3
    for name in ("subspace.evolve_s", "subspace.ns_per_slice", "noise.run_s", "noise.shots"):
        assert values[name] is None
        assert why[name].startswith("not measured")
    assert set(values) | {"setup.import_background_s"} == {n for n, *_ in metrics.PER_LAYER}


def test_counter_errors_leave_the_call_alone(fake_program):
    cli, _ = fake_program
    trace = Tracer()
    # build_schedule's counter takes len() of the result, which an int lacks.
    cli.build_schedule = lambda params: 7
    trace.install((("fakepair.cli", "build_schedule", "schedule.build"),))
    with trace.root():
        assert cli.build_schedule(3) == 7
    trace.uninstall()
    assert trace.counter_errors and trace.spans[1].counts == {}


def test_pool_thread_spans_nest_under_the_root(monkeypatch):
    mod = types.ModuleType("fakepool")
    mod.work = lambda: None
    monkeypatch.setitem(sys.modules, "fakepool", mod)
    trace = Tracer()
    trace.install((("fakepool", "work", "statevector.run"),))
    with trace.root():
        t = threading.Thread(target=lambda: mod.work())
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
    trace.uninstall()
    (span,) = [s for s in trace.spans if s.name == "statevector.run"]
    assert span.parent == trace.root_index
    assert span.thread != trace.spans[trace.root_index].thread


def test_workload_inputs_follow_the_seed():
    for name, workload in WORKLOADS.items():
        assert workload.inputs(7) == workload.inputs(7), name
    sweep = WORKLOADS["sweep-deep"]
    xs = sweep.inputs(3)["x"]
    assert all(x in GRID for x in xs)
    assert max(xs) >= X_COMPARE and min(xs) < X_COMPARE
    assert {tuple(sweep.inputs(s)["x"]) for s in range(20)} != {tuple(xs)}
    argv = sweep.argv(sweep.inputs(3), 3, Path("out"))
    assert "--workers" not in argv and argv[argv.index("--seed") + 1] == "3"


def test_trajectory_check_flags_rows_that_do_not_sum_to_one(tmp_path):
    wl = TrajectoryLong()
    inputs = {"n_steps": 1}
    ref = {"p_pair": {1.5: 0.25, 2.0: 0.25}}
    for x in wl.X_DEFAULT:
        (tmp_path / f"trajectory_x{x:g}.csv").write_text(
            "# header\ny,p_vac,p_plus,p_minus,p_pair,n_k_analytic\n"
            "-80.0,1.0,0.0,0.0,0.0,0.1\n"
            f"0.0,0.75,0.0,0.0,{0.25 if x == 1.5 else 0.3},0.1\n"
        )
    problems, err, _ = wl.check(inputs, ref, tmp_path)
    assert len(problems) == 2  # x = 2.0: the sum is off and so is the last p_pair
    assert all("x=2.0" in p for p in problems)
    assert err == pytest.approx(abs(0.3 - 1 / 64) / (1 / 64))


def test_benchmark_json_matches_the_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in metrics.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
