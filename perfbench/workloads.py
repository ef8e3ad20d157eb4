"""Workloads of the ucrsynth benchmark: seeded inputs, timed ops, output checks.

Every input is drawn from ``numpy.random.default_rng(seed)`` and passed
through ``ucrsynth.state.make_state``; state files are written with this
module's own ``json.dumps``. Every reference a check compares against (the
closed-form gate counts, the residual-phase formula, fidelity) is computed
here from the inputs, never read from ``ucrsynth.bounds`` or from a result's
metadata, so a change to the program cannot move its own yardstick.

A workload object is built once per set-up round from freshly imported
``ucrsynth`` modules. ``run(k)`` performs op k (the timed part) and
``check(k, out)`` returns the failures found in its output plus the gate
counts of each circuit it produced.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

FIDELITY_ATOL = 1e-9
PHASE_ATOL = 1e-9

MODULES = ("state", "angles", "gray", "circuit", "synth", "sim", "formats", "cli")


def import_ucrsynth(src: Path) -> SimpleNamespace:
    """Import ucrsynth afresh from ``src`` and return its modules by name.

    Modules already loaded are dropped first, so every call pays the full
    import again and set-up can be timed more than once in one process.
    """
    for name in [m for m in sys.modules if m == "ucrsynth" or m.startswith("ucrsynth.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    package = importlib.import_module("ucrsynth")
    origin = Path(package.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"ucrsynth was imported from {origin}, not from {src}")
    mods = {name: importlib.import_module(f"ucrsynth.{name}") for name in MODULES}
    return SimpleNamespace(package=package, **mods)


# --- references -------------------------------------------------------------


def full_counts(n: int) -> dict[str, int]:
    """Closed-form counts of a generic state-to-state map on n qubits."""
    return {"cnot": (1 << (n + 2)) - 4 * n - 4, "rot": (1 << (n + 2)) - 5}


def half_counts(n: int) -> dict[str, int]:
    """Closed-form counts of a generic map from a basis state."""
    return {"cnot": (1 << (n + 1)) - 2 * n - 2, "rot": (1 << (n + 1)) - 2}


def wrap(angle: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    w = math.remainder(angle, 2.0 * math.pi)
    return w + 2.0 * math.pi if w <= -math.pi else w


def mean_phase(amps: np.ndarray) -> float:
    """Mean of arg(a_i) in (-pi, pi] over all amplitudes, zeros counted as 0."""
    p = np.angle(amps)
    p[amps == 0] = 0.0
    p[p <= -np.pi] += 2.0 * np.pi
    return float(np.sum(p)) / amps.size


def count_gates(circuit, cnot_type) -> dict[str, int]:
    cnot = sum(1 for g in circuit.gates if isinstance(g, cnot_type))
    return {"cnot": cnot, "rot": len(circuit.gates) - cnot}


def check_counts(label: str, got: dict, want: dict, exact: bool) -> list[str]:
    over = got["cnot"] > want["cnot"] or got["rot"] > want["rot"]
    if over or (exact and got != want):
        relation = "==" if exact else "<="
        return [f"{label}: counts {got} not {relation} closed form {want}"]
    return []


def check_phase(label: str, got: float, want: float) -> list[str]:
    gap = abs(wrap(got - want))
    if not gap <= PHASE_ATOL:
        return [f"{label}: phase {got!r} differs from formula {want!r} by {gap:.3e}"]
    return []


# --- inputs -----------------------------------------------------------------


def haar(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)


def ghz(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = amps[-1] = 1.0
    return amps


def w_state(rng: np.random.Generator, n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[[1 << j for j in range(n)]] = 1.0
    return amps


def real_nonneg(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.abs(rng.standard_normal(1 << n)).astype(np.complex128)


def block_sparse(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar amplitudes with every other 4-amplitude block zeroed."""
    amps = haar(rng, n)
    idx = np.arange(1 << n)
    amps[(idx >> 2) & 1 == 1] = 0.0
    return amps


KINDS = {
    "generic": haar,
    "ghz": ghz,
    "w": w_state,
    "real": real_nonneg,
    "block": block_sparse,
}


def draw_state(m: SimpleNamespace, rng: np.random.Generator, n: int, kind: str = "generic"):
    return m.state.make_state(n, KINDS[kind](rng, n), normalize=True)


def state_json(x) -> str:
    pairs = [[float(a.real), float(a.imag)] for a in x.amplitudes]
    return json.dumps({"n": x.n, "amplitudes": pairs})


# --- workloads --------------------------------------------------------------


class Workload:
    name = ""
    N = 0
    POOL = 1

    def __init__(self, m: SimpleNamespace, seed: int, workdir: Path, n: int | None = None):
        self.m = m
        self.n = n or self.N
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def run(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> tuple[list[str], list[dict]]:
        raise NotImplementedError

    def inputs(self) -> list[np.ndarray]:
        """Every generated amplitude vector, for reproducibility checks."""
        raise NotImplementedError


class MapVerify(Workload):
    """prepare(a, b) on a Haar-random pair, then certify by simulation."""

    name = "map-verify"
    N = 12
    POOL = 4

    def build(self) -> None:
        self.pairs = [
            (draw_state(self.m, self.rng, self.n), draw_state(self.m, self.rng, self.n))
            for _ in range(self.POOL)
        ]

    def inputs(self):
        return [x.amplitudes for pair in self.pairs for x in pair]

    def run(self, k):
        a, b = self.pairs[k % self.POOL]
        result = self.m.synth.prepare(a, b)
        return result, self.m.sim.apply_circuit(a, result.circuit)

    def check(self, k, out):
        a, b = self.pairs[k % self.POOL]
        result, image = out
        counts = count_gates(result.circuit, self.m.circuit.Cnot)
        formula = wrap(mean_phase(a.amplitudes) - mean_phase(b.amplitudes))
        overlap = complex(np.vdot(b.amplitudes, image.amplitudes))
        failures = check_counts("prepare", counts, full_counts(self.n), exact=True)
        if not abs(overlap) >= 1.0 - FIDELITY_ATOL:
            failures.append(f"fidelity {abs(overlap)!r} below 1 - {FIDELITY_ATOL}")
        failures += check_phase("simulated phase", math.atan2(overlap.imag, overlap.real), formula)
        failures += check_phase("reported phase", result.residual_phase, formula)
        return failures, [counts]


class CompileLarge(Workload):
    """prepare(a, b) plus prepare_from_basis(i, b) at n=16, no simulation."""

    name = "compile-large"
    N = 16
    POOL = 2

    def build(self) -> None:
        self.cases = []
        for _ in range(self.POOL):
            a = draw_state(self.m, self.rng, self.n)
            b = draw_state(self.m, self.rng, self.n)
            i = int(self.rng.integers(1, 1 << self.n))
            self.cases.append((a, b, i))

    def inputs(self):
        return [x.amplitudes for a, b, _ in self.cases for x in (a, b)] + [
            np.array([i for _, _, i in self.cases])
        ]

    def run(self, k):
        a, b, i = self.cases[k % self.POOL]
        return self.m.synth.prepare(a, b), self.m.synth.prepare_from_basis(i, b)

    def check(self, k, out):
        a, b, i = self.cases[k % self.POOL]
        full, half = out
        cnot = self.m.circuit.Cnot
        full_got = count_gates(full.circuit, cnot)
        half_got = count_gates(half.circuit, cnot)
        pa, pb = mean_phase(a.amplitudes), mean_phase(b.amplitudes)
        failures = check_counts("prepare", full_got, full_counts(self.n), exact=True)
        failures += check_counts(f"prepare_from_basis({i})", half_got, half_counts(self.n), exact=True)
        failures += check_phase("prepare phase", full.residual_phase, wrap(pa - pb))
        failures += check_phase("prepare_from_basis phase", half.residual_phase, wrap(-pb))
        return failures, [full_got, half_got]


class CliFiles(Workload):
    """In-process ``ucrsynth synth`` then ``ucrsynth verify`` on state files."""

    name = "cli-files"
    N = 8
    PAIRS = (
        ("generic", "generic"),
        ("generic", "generic"),
        ("ghz", "generic"),
        ("generic", "w"),
        ("w", "ghz"),
        ("real", "generic"),
        ("generic", "real"),
        ("block", "generic"),
        ("generic", "block"),
        ("real", "block"),
    )
    POOL = len(PAIRS)

    def build(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        order = self.rng.permutation(self.POOL)
        self.cases = []
        for slot, which in enumerate(order):
            kinds = self.PAIRS[which]
            states = tuple(draw_state(self.m, self.rng, self.n, kind) for kind in kinds)
            case = {"kinds": kinds, "states": states}
            for side, x in zip("ab", states):
                case[side] = str(self.workdir / f"{side}{slot}.json")
                Path(case[side]).write_text(state_json(x))
            case["json"] = str(self.workdir / f"c{slot}.json")
            case["qasm"] = str(self.workdir / f"c{slot}.qasm")
            self.cases.append(case)

    def inputs(self):
        files = [Path(c[side]).read_bytes() for c in self.cases for side in "ab"]
        amps = [x.amplitudes for c in self.cases for x in c["states"]]
        return amps + [np.frombuffer(b"".join(files), dtype=np.uint8)]

    def run(self, k):
        case = self.cases[k % self.POOL]
        synth_argv = ["synth", case["a"], case["b"], "--prune-epsilon", "1e-12",
                      "--json", case["json"], "--qasm", case["qasm"]]
        verify_argv = ["verify", case["json"], case["a"], case["b"]]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            synth_rc = self.m.cli.main(synth_argv)
            verify_rc = self.m.cli.main(verify_argv)
        return synth_rc, verify_rc, sink.getvalue()

    def check(self, k, out):
        case = self.cases[k % self.POOL]
        synth_rc, verify_rc, log = out
        failures = []
        if synth_rc != 0 or verify_rc != 0:
            failures.append(f"exit codes synth={synth_rc} verify={verify_rc}: {log[-200:]!r}")
            return failures, []
        doc = json.loads(Path(case["json"]).read_text())
        kinds = [g["type"] for g in doc["gates"]]
        counts = {"cnot": kinds.count("cnot"), "rot": len(kinds) - kinds.count("cnot")}
        generic = case["kinds"] == ("generic", "generic")
        failures += check_counts(f"{case['kinds']}", counts, full_counts(self.n), exact=generic)
        qasm = Path(case["qasm"]).read_text().splitlines()
        qasm_counts = {
            "cnot": sum(line.startswith("cx ") for line in qasm),
            "rot": sum(line.startswith(("ry(", "rz(")) for line in qasm),
        }
        if qasm_counts != counts:
            failures.append(f"qasm counts {qasm_counts} differ from circuit file {counts}")
        return failures, [counts]


WORKLOADS = {w.name: w for w in (MapVerify, CompileLarge, CliFiles)}
