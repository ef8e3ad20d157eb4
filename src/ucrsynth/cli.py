"""Command-line front end.

Subcommands: synth, verify, export-qasm, bench. Exit codes are fixed for
scripting: 0 success, 1 verification failure, 2 parse or usage failure,
3 dimension mismatch, 4 export failure (or an unwritable output file).
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import functools
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .circuit import Circuit, gate_counts, simplify
from .errors import DimensionError, ExportError, ParseError
from .formats import dump_circuit, dump_state, export_qasm, load_circuit, load_state
from .sim import _plan, apply_circuit
from .state import StateVector, make_state, random_state, wrap_angle
from .synth import SynthesisResult, disentangle, prepare, prepare_from_basis

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_EXPORT = 4
# The exit code of each error a command may raise.
ERROR_EXITS = {ParseError: EXIT_PARSE, DimensionError: EXIT_DIMENSION, ExportError: EXIT_EXPORT}

# Allowed infidelity: a circuit passes iff its simulated fidelity >= 1 - this.
TOLERANCE = 1e-9

# bench --json reports the best of this many timed calls.
BENCH_REPEATS = 5


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from e


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise ExportError(f"{path}: {e.strerror or e}") from e


def _in_range(convert, low, high=math.inf):
    """argparse type: ``convert``, then require low <= value < high (NaN fails)."""

    def parse(text: str):
        value = convert(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"expected {low} <= value < {high}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # argparse's wording: "invalid float value"
    return parse


def _load_state_file(path: str, normalize: bool) -> StateVector:
    return load_state(_read(path), label=path, normalize=normalize)


def _metadata(result: SynthesisResult) -> dict:
    return {
        "residual_phase": result.residual_phase,
        "counts": dict(result.counts),
        "bounds": asdict(result.bounds),
    }


def _print_report(result: SynthesisResult) -> None:
    counts, limits = result.counts, result.bounds
    print(f"n = {limits.n}")
    print(
        f"CNOT {counts['cnot']}/{limits.upper_cnot} (upper), "
        f"ROT {counts['rot']}/{limits.upper_rot} (upper)"
    )
    print(f"lower bounds: CNOT {limits.lower_cnot}, ROT {limits.lower_rot}")
    print(f"residual phase {result.residual_phase!r}")


def _certify(a: StateVector, b: StateVector, circuit: Circuit) -> tuple[float, float, float]:
    """Simulate circuit on a: fidelity to b, phase phi of the overlap, max |out - e^(i phi) b|."""
    out = apply_circuit(a, circuit).amplitudes
    overlap = complex(np.vdot(b.amplitudes, out))
    phase = cmath.phase(overlap)
    error = float(np.max(np.abs(out - cmath.exp(1j * phase) * b.amplitudes)))
    return abs(overlap), phase, error


def cmd_synth(args: argparse.Namespace) -> int:
    a = _load_state_file(args.input_a, args.normalize)
    b = _load_state_file(args.input_b, args.normalize)
    result = prepare(a, b)
    if args.prune_epsilon is not None:
        result = replace(result, circuit=simplify(result.circuit, prune_atol=args.prune_epsilon))
    _print_report(result)
    fidelity, _, error = _certify(a, b, result.circuit)
    print(f"fidelity {fidelity!r}")
    print(f"max amplitude error {error!r}")
    if args.json:
        _write(args.json, dump_circuit(result.circuit, _metadata(result)))
    if args.qasm:
        _write(args.qasm, export_qasm(result.circuit))
    if fidelity < 1.0 - TOLERANCE:
        print(f"error: fidelity below threshold {1.0 - TOLERANCE!r}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    circuit, metadata = load_circuit(_read(args.circuit), label=args.circuit)
    a = _load_state_file(args.input_a, args.normalize)
    b = _load_state_file(args.input_b, args.normalize)
    fidelity, phase, error = _certify(a, b, circuit)
    threshold = 1.0 - args.tolerance
    passed = fidelity >= threshold
    print(f"fidelity {fidelity!r}")
    print(f"residual phase {phase!r}")
    print(f"max amplitude error {error!r}")
    reported = metadata.get("residual_phase")
    if type(reported) in (int, float) and math.isfinite(reported):
        gap = wrap_angle(phase - reported)
        print(f"reported residual phase {reported!r} (gap {gap!r})")
    print(f"{'PASS' if passed else 'FAIL'} (threshold {threshold!r})")
    return EXIT_OK if passed else EXIT_VERIFY


def cmd_export_qasm(args: argparse.Namespace) -> int:
    circuit, _ = load_circuit(_read(args.circuit), label=args.circuit)
    text = export_qasm(circuit)
    if args.qasm:
        _write(args.qasm, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _machine() -> dict:
    """CPU count and model, Python and numpy versions."""
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            names = (line.split(":", 1)[1] for line in f if line.startswith("model name"))
            model = next(names, "").strip() or None
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _best_of(repeats: int, call) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_cli(a: StateVector, b: StateVector, *flags: str) -> float:
    """Best time of in-process ``synth --json`` with these flags plus ``verify``
    on files of a and b; flags name their files relative to a fresh directory."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        _write("a.json", dump_state(a))
        _write("b.json", dump_state(b))
        synth = ["synth", "a.json", "b.json", "--json", "c.json", *flags]
        argvs = synth, ["verify", "c.json", "a.json", "b.json"]
        with contextlib.redirect_stdout(io.StringIO()):
            return _best_of(BENCH_REPEATS, lambda: [main(argv) for argv in argvs])


def _product(n: int, seed: int) -> np.ndarray:
    """Amplitudes of a product of n one-qubit states, qubit q drawn with seed + q."""
    return functools.reduce(np.kron, [random_state(1, seed + q).amplitudes for q in range(n)])


def _bench_pruned(n: int = 12) -> dict:
    """``synth --prune-epsilon 1e-12`` plus ``verify`` on seeded product states,
    with the time of the pruning pass alone and the counts it leaves."""
    a, b = (make_state(n, _product(n, 100 * seed)) for seed in (n, n + 1))
    circuit = prepare(a, b).circuit
    pruned = simplify(circuit, prune_atol=1e-12)
    return {
        "n": n,
        "synth_verify_s": _bench_cli(a, b, "--prune-epsilon", "1e-12"),
        "simplify_s": _best_of(BENCH_REPEATS, lambda: simplify(circuit, prune_atol=1e-12)),
        "before": gate_counts(circuit),
        "after": gate_counts(pruned),
    }


def _digest_states(n: int, seed: int) -> list[StateVector]:
    """A Haar state, the same with a random half of its amplitudes zeroed, a product state."""
    haar = random_state(n, seed)
    half_zero = haar.amplitudes * (np.random.default_rng(seed).permutation(1 << n) & 1)
    product = _product(n, 16 * seed)
    return [haar, *(make_state(n, amps, normalize=True) for amps in (half_zero, product))]


def _words(c: Circuit) -> list:
    """n, the control, target and axis columns, and the axes and angles by float.hex."""
    columns = np.stack([c.control, c.target, c.axis]).astype("<i4").tobytes().hex()
    floats = [v for axis in c.axes for v in (axis.ay, axis.az)] + c.angle.tolist()
    return [c.n, columns, *map(float.hex, floats)]


def _digests() -> dict[str, str]:
    """SHA-256 digests of seeded outputs; equal digests mean bit-identical outputs.

    n = 1..10; Haar, half-zero and product states, three seeds each.
    ``digest`` covers 360 results: disentangle, prepare, and
    prepare_from_basis at i = 0 and at a random i. Each result adds its
    circuit's n, control, target and axis columns, axes and angles, its
    residual phase by float.hex, and its counts. ``digest_pruned`` covers
    the circuits of ``simplify(prepare(a, b).circuit, prune_atol=1e-12)``
    the same way, and ``digest_sim`` the amplitudes of
    ``apply_circuit(a, prepare(a, b).circuit)`` by float.hex.
    """
    digests = {name: hashlib.sha256() for name in ("digest", "digest_pruned", "digest_sim")}

    def add(name: str, words: list) -> None:
        digests[name].update(" ".join(map(str, words)).encode() + b"\n")

    for n in range(1, 11):
        for seed in range(100 * n, 100 * n + 3):
            i = int(np.random.default_rng(seed).integers(1 << n))
            for a, b in zip(_digest_states(n, 2 * seed), _digest_states(n, 2 * seed + 1)):
                results = [disentangle(a), prepare(a, b)]
                for r in results + [prepare_from_basis(j, b) for j in (0, i)]:
                    words = [float.hex(r.residual_phase), *r.counts.values()]
                    add("digest", _words(r.circuit) + words)
                circuit = results[1].circuit
                add("digest_pruned", _words(simplify(circuit, prune_atol=1e-12)))
                amplitudes = apply_circuit(a, circuit).amplitudes.view(np.float64)
                add("digest_sim", list(map(float.hex, amplitudes.tolist())))
    return {name: d.hexdigest() for name, d in digests.items()}


def _digest_large() -> str:
    """SHA-256 digest of seeded outputs past ``_digests``' reach: n = 11..16,
    one Haar pair and one product pair each, seeded like ``_digests``. Each
    prepare result adds its control, target and axis columns as <i4 bytes,
    its angles as <f8 bytes, its residual phase by float.hex, and the
    amplitudes of apply_circuit(a, circuit) as <c16 bytes.
    """
    digest = hashlib.sha256()
    for n in range(11, 17):
        haar_and_product = (_digest_states(n, 200 * n + side)[::2] for side in (0, 1))
        for a, b in zip(*haar_and_product):
            result = prepare(a, b)
            c = result.circuit
            for column in (c.control, c.target, c.axis):
                digest.update(column.astype("<i4").tobytes())
            digest.update(c.angle.astype("<f8").tobytes())
            digest.update(float.hex(result.residual_phase).encode())
            digest.update(apply_circuit(a, c).amplitudes.astype("<c16").tobytes())
    return digest.hexdigest()


def _append_run(path: str, run: dict) -> None:
    """Add one run to the {"runs": [...]} record at path, creating it if absent."""
    doc = {"runs": []}
    if Path(path).exists():
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as e:  # an unwritable record, like _write's
            raise ExportError(f"{path}: {e.strerror or e}") from e
        except ValueError as e:
            raise ParseError(f"{path}: {e}") from e
        if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
            raise ParseError(f'{path}: expected an object with a "runs" list')
    doc["runs"].append(run)
    _write(path, json.dumps(doc, indent=1) + "\n")


def cmd_bench(args: argparse.Namespace) -> int:
    print(
        f"{'n':>3} {'cnot':>7} {'rot':>7} {'cnot_up':>8} {'rot_up':>7} "
        f"{'cnot_lo':>8} {'rot_lo':>7} {'qr_cnot':>8} {'time_s':>8}"
    )
    rows = []
    for n in range(1, args.n_max + 1):
        a = random_state(n, args.seed + 2 * n)
        b = random_state(n, args.seed + 2 * n + 1)
        start = time.perf_counter()
        result = prepare(a, b)
        elapsed = time.perf_counter() - start
        counts, limits = result.counts, result.bounds
        print(
            f"{n:>3} {counts['cnot']:>7} {counts['rot']:>7} "
            f"{limits.upper_cnot:>8} {limits.upper_rot:>7} "
            f"{limits.lower_cnot:>8} {limits.lower_rot:>7} "
            f"{int(limits.qr_comparison_cnot):>8} {elapsed:>8.3f}"
        )
        if args.json:
            row = {"n": n, **counts, "cnot_up": limits.upper_cnot, "rot_up": limits.upper_rot}
            row["prepare_s"] = _best_of(BENCH_REPEATS, lambda: prepare(a, b))
            last = (1 << n) - 1  # the basis vector with every qubit's bit set
            pfb = _best_of(BENCH_REPEATS, lambda: prepare_from_basis(last, b))
            row["prepare_from_basis_s"] = pfb
            circuit = result.circuit
            row["apply_circuit_s"] = _best_of(BENCH_REPEATS, lambda: apply_circuit(a, circuit))
            runs = _plan(circuit, n).runs
            row["sim_runs"] = len(runs)
            row["sim_swaps"] = sum(len(run.swaps) for run in runs)
            rows.append(row)
    if args.json:
        a8, b8 = (random_state(8, args.seed + 16 + side) for side in (0, 1))
        run = {
            "label": args.label,
            "machine": _machine(),
            "seed": args.seed,
            "repeats": BENCH_REPEATS,
            "rows": rows,
            "cli": {"n": 8, "synth_verify_s": _bench_cli(a8, b8, "--qasm", "c.qasm")},
            "cli_pruned": _bench_pruned(),
            **_digests(),
            "digest_large": _digest_large(),
        }
        _append_run(args.json, run)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; main looks cmd_* up per call."""
    parser = argparse.ArgumentParser(
        prog="ucrsynth",
        description="Synthesize exact CNOT + y/z-rotation circuits mapping one "
        "n-qubit state onto another.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="compile a circuit taking state A to state B")
    synth.add_argument("input_a", help="path to the source state file")
    synth.add_argument("input_b", help="path to the target state file")
    synth.add_argument("--normalize", action="store_true", help="rescale input states")
    synth.add_argument(
        "--prune-epsilon",
        type=_in_range(float, 0),
        default=None,
        metavar="EPS",
        help="drop rotations with |angle| <= EPS after synthesis, and cancel the CNOTs "
        "this leaves commuting into one target",
    )
    synth.add_argument("--json", metavar="PATH", help="write the circuit file here")
    synth.add_argument("--qasm", metavar="PATH", help="also export OpenQASM 2.0 here")

    verify = sub.add_parser("verify", help="check a circuit file against two states")
    verify.add_argument("circuit", help="path to the circuit file")
    verify.add_argument("input_a", help="path to the source state file")
    verify.add_argument("input_b", help="path to the target state file")
    verify.add_argument("--normalize", action="store_true", help="rescale input states")
    verify.add_argument(
        "--tolerance",
        type=_in_range(float, 0),
        default=TOLERANCE,
        help="allowed infidelity; pass iff fidelity >= 1 - tolerance",
    )

    export = sub.add_parser("export-qasm", help="emit OpenQASM 2.0 for a circuit file")
    export.add_argument("circuit", help="path to the circuit file")
    export.add_argument("--qasm", metavar="PATH", help="output path (default stdout)")

    bench = sub.add_parser("bench", help="synthesize random pairs and tabulate counts")
    bench.add_argument(
        "--n-max", type=_in_range(int, 1, 21), default=8, help="largest qubit count, 1..20"
    )
    bench.add_argument("--seed", type=_in_range(int, 0), default=0, help="random state seed")
    bench.add_argument(
        "--json",
        metavar="PATH",
        help="append a run (machine, counts against the bounds, best-of-5 times of prepare, "
        "prepare_from_basis and apply_circuit per n, of CLI synth plus verify at n = 8 and "
        "of a pruned synth plus verify at n = 12, and SHA-256 digests of seeded results, "
        "pruned circuits and simulated states) to the record at PATH",
    )
    bench.add_argument("--label", default=None, help="name of the run in the --json record")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except tuple(ERROR_EXITS) as e:
        print(f"error: {e}", file=sys.stderr)
        return ERROR_EXITS[type(e)]


if __name__ == "__main__":
    sys.exit(main())
