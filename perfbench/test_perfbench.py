"""Tests of the benchmark's own logic, not of ucrsynth.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import signal
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

import run
from spans import Tracer, instrument, self_times, targets
from speed import SpeedProbe
from workloads import (
    WORKLOADS,
    MapVerify,
    full_counts,
    half_counts,
    import_ucrsynth,
)

HERE = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def m():
    return import_ucrsynth(run.SRC)


def test_self_time_on_hand_built_tree():
    spans = [
        ["op", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["c", 5.0, 9.0, 0, 0],
        ["d", 6.0, 7.0, 3, 0],
        ["e", 6.5, 8.0, 3, 0],  # overlaps d: c's children cover 6..8 once
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.5])


def test_tracer_nests_spans_and_sets_bookkeeping_apart():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner", after=lambda t, args, r: t.count("n", r))
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    with tracer.op(7):
        assert outer(1) == 4
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "outer", "inner", "trace.bookkeeping"]
    parents = [s[3] for s in tracer.spans]
    assert parents == [-1, 0, 1, 1]
    assert {s[4] for s in tracer.spans} == {7}
    assert tracer.counters["n"] == 2


def test_probe_work_weights_wall_time_by_sampled_speed():
    probe = SpeedProbe()
    # 1 ms probes every 0.1 s for 1 s, then 2 ms probes (half speed) for 1 s
    probe.samples = [(0.1 * i, 0.001 if i < 10 else 0.002) for i in range(20)]
    probe._starts = [t for t, _ in probe.samples]
    assert probe.work(0.3, 0.6) == pytest.approx(0.3 * 1000 - 3)
    assert probe.work(1.3, 1.6) == pytest.approx(0.3 * 500 - 3)


def test_probe_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        end = perf_counter() + 0.2
        while perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 3
    assert probe.work(end - 0.2, end) > 0


def test_closed_form_counts():
    assert full_counts(5) == {"cnot": 104, "rot": 123}
    assert half_counts(5) == {"cnot": 52, "rot": 62}
    assert full_counts(1) == {"cnot": 0, "rot": 3}
    assert full_counts(10) == {"cnot": 4052, "rot": 4091}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_reproduces_identical_inputs(m, name, tmp_path):
    cls = WORKLOADS[name]
    first = cls(m, 11, tmp_path / "one", n=3).inputs()
    again = cls(m, 11, tmp_path / "two", n=3).inputs()
    other = cls(m, 12, tmp_path / "three", n=3).inputs()
    assert len(first) == len(again)
    assert all(np.array_equal(x, y) for x, y in zip(first, again))
    assert not all(np.array_equal(x, y) for x, y in zip(first, other))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_passes_its_checks(m, name, tmp_path):
    workload = WORKLOADS[name](m, 5, tmp_path, n=3)
    tally = run.Tally()
    for k in range(workload.POOL):
        assert run.attempt(workload, k, tally) is not None
    assert tally.failed == 0, tally.failures
    assert len(tally.counts) == workload.POOL


class Corrupting(MapVerify):
    """Nudges one rotation of every slot-1 circuit; raises on slot 2."""

    def run(self, k):
        result, image = super().run(k)
        if k % self.POOL == 2:
            raise RuntimeError("broken op")
        if k % self.POOL == 1:
            circuit = self.m.circuit
            gates = list(result.circuit.gates)
            i = next(j for j, g in enumerate(gates) if isinstance(g, circuit.Rot))
            g = gates[i]
            gates[i] = circuit.Rot(g.axis, g.target, g.angle + 0.5)
            bad = circuit.Circuit(result.circuit.n, tuple(gates))
            result = dataclasses.replace(result, circuit=bad)
            image = self.m.sim.apply_circuit(self.pairs[k % self.POOL][0], bad)
        return result, image


def test_corrupted_circuit_fails_without_aborting_the_run(m, tmp_path):
    workload = Corrupting(m, 3, tmp_path, n=4)
    tally = run.Tally()
    run.measure(workload, 0.5, tally)
    ks = range(1, tally.attempted + 1)
    assert tally.attempted >= 2 * workload.POOL
    assert tally.failed == sum(1 for k in ks if k % workload.POOL in (1, 2))
    assert any("fidelity" in msg for msg in tally.failures)
    assert any("RuntimeError" in msg for msg in tally.failures)


def _bindings(m):
    return [vars(o).get(a) if isinstance(o, type) else getattr(o, a)
            for o, a, _, _ in targets(m)]


def test_instrument_restores_every_name(m, tmp_path):
    before = _bindings(m)
    tracer = Tracer()
    with instrument(tracer, m):
        m.synth.prepare(*MapVerify(m, 1, tmp_path, n=3).pairs[0])
    assert _bindings(m) == before
    names = {s[0] for s in tracer.spans}
    assert {"synth.prepare", "circuit.lower_ucr", "gray.alpha_to_theta",
            "circuit.Circuit.post_init", "circuit.simplify"} <= names


def test_benchmark_json_matches_what_run_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == run.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_a_result_line(trace, capsys):
    assert run.main(["--workload", "cli-files", "--seed", "1", "--seconds", "0.3",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.per_layer_units() if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_run_refuses_a_tree_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli-files", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
