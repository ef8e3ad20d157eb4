"""In-memory spans around the calls into each ucrsynth layer.

Tracing is done entirely from the benchmark: ``instrument`` replaces the
names the package looks up at call time (``ucrsynth.synth.lower_ucr``,
``ucrsynth.circuit.alpha_to_theta``, the class attribute
``ucrsynth.circuit.Circuit.__post_init__``, ...) with wrappers that record a
span per call, and puts the originals back afterwards. Per-gate calls are
never wrapped. A span is (name, start, end, parent, op); spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Work the tracer does for itself (counting gates); it is recorded as a span
# so that it is subtracted from its parent's self time.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = -1

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    @contextmanager
    def op(self, k: int):
        """Root span of op k; every span opened inside it carries op id k."""
        self._op = k
        try:
            with self.span("op"):
                yield
        finally:
            self._op = -1

    def count(self, name: str, value: float) -> None:
        self.counters[name] += value

    def wrap(self, fn, name: str, after=None):
        """fn with a span around each call; ``after(tracer, args, result)`` feeds counters."""

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                with self.span(BOOKKEEPING):
                    after(self, args, result)
            return result

        return traced

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# --- what is wrapped, and the counters read off each call --------------------


def _sim_counts(tracer, args, result):
    circuit = args[1]
    tracer.count("sim.gates_in", len(circuit.gates))
    tracer.count("sim.gate_amps", len(circuit.gates) * (1 << circuit.n))


def _simplify_counts(cnot_type):
    def after(tracer, args, result):
        before = args[0]
        cnots_in = sum(1 for g in before.gates if isinstance(g, cnot_type))
        cnots_out = sum(1 for g in result.gates if isinstance(g, cnot_type))
        tracer.count("circuit.simplify.gates_in", len(before.gates))
        tracer.count("circuit.simplify.gates_out", len(result.gates))
        tracer.count("circuit.simplify.cnots_cancelled", cnots_in - cnots_out)
        tracer.count(
            "circuit.simplify.rots_removed",
            (len(before.gates) - cnots_in) - (len(result.gates) - cnots_out),
        )

    return after


def _bytes_counter(name):
    def after(tracer, args, result):
        tracer.count(name, len(result.encode()))

    return after


def targets(m) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, counter hook) for every wrapped lookup."""
    simplify_counts = _simplify_counts(m.circuit.Cnot)
    return [
        (m.synth, "prepare", "synth.prepare", None),
        (m.cli, "prepare", "synth.prepare", None),
        (m.synth, "prepare_from_basis", "synth.prepare_from_basis", None),
        (m.sim, "apply_circuit", "sim.apply_circuit", _sim_counts),
        (m.cli, "apply_circuit", "sim.apply_circuit", _sim_counts),
        (m.synth, "angle_schedule", "angles.angle_schedule", None),
        (m.synth, "lower_ucr", "circuit.lower_ucr", None),
        (m.synth, "dagger", "circuit.dagger", None),
        (m.synth, "simplify", "circuit.simplify", simplify_counts),
        (m.cli, "simplify", "circuit.simplify", simplify_counts),
        (m.circuit, "alpha_to_theta", "gray.alpha_to_theta", None),
        (m.circuit.Circuit, "__post_init__", "circuit.Circuit.post_init", None),
        (m.state, "make_state", "state.make_state", None),
        (m.formats, "make_state", "state.make_state", None),
        (m.cli, "load_state", "formats.load_state", None),
        (m.cli, "dump_circuit", "formats.dump_circuit",
         _bytes_counter("formats.circuit_json_bytes")),
        (m.cli, "load_circuit", "formats.load_circuit", None),
        (m.cli, "export_qasm", "formats.export_qasm", _bytes_counter("formats.qasm_bytes")),
        (m.cli, "cmd_synth", "cli.synth", None),
        (m.cli, "cmd_verify", "cli.verify", None),
    ]


@contextmanager
def instrument(tracer: Tracer, m):
    """Wrap every target that exists in ``m`` for the duration of the block.

    A name the package no longer defines is skipped, and its metrics read 0.
    """
    saved = []
    try:
        for owner, attr, name, after in targets(m):
            original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, after))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
