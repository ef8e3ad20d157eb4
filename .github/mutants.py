"""Mutant catalogue: each entry breaks src/ucrsynth in one place, and the
tests it names must fail on the broken copy.

    python .github/mutants.py

Run from the repository root. For each entry, src/ is copied to a temporary
directory, the entry's old text is replaced by its new text there, and
pytest runs the entry's tests with -x and PYTHONPATH on the copy. Hypothesis
runs only explicit @examples, so a kill never rests on a drawn input. The
listed tests first run once on an unbroken copy and must pass. Exit 0 when
every mutant is killed; exit 1 when one survives, when an entry's old text
does not occur exactly once in its file, or when the unbroken copy fails.
The catalogue only grows: an entry leaves when the code it mutates is gone.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# pytest with hypothesis held to its explicit examples and no example database
RUNNER = """
import sys
import pytest
from hypothesis import Phase, settings
settings.register_profile("mutants", phases=[Phase.explicit], database=None)
settings.load_profile("mutants")
sys.exit(pytest.main(["-q", "-x", "-p", "no:cacheprovider", *sys.argv[1:]]))
"""


class Mutant(NamedTuple):
    name: str
    file: str  # under src/ucrsynth
    old: str
    new: str
    tests: tuple[str, ...]  # pytest ids, at least one of which fails


FORMATS = "tests/test_formats.py::"
CIRCUIT = "tests/test_circuit.py::"
SIM = "tests/test_sim.py::"

MUTANTS = [
    # the state reader: the inline read takes the writer's own pairs only
    Mutant(
        "state-inline-first-part-only",
        "formats.py",
        "type(entry[0]) is type(entry[1]) is float",
        "type(entry[0]) is float",
        (FORMATS + "test_state_reader_equals_record_reader",),
    ),
    Mutant(
        "state-inline-any-length",
        "formats.py",
        "type(entry) is list and len(entry) == 2 and type(entry[0])",
        "type(entry) is list and type(entry[0])",
        (FORMATS + "test_state_reader_equals_record_reader",),
    ),
    Mutant(
        "state-inline-never-taken",
        "formats.py",
        "if type(entry) is list and len(entry) == 2",
        "if type(entry) is tuple and len(entry) == 2",
        (FORMATS + "test_writer_pairs_are_read_inline",),
    ),
    Mutant(
        "state-rule-takes-bool",
        "formats.py",
        "and not isinstance(v, bool) for v in entry",
        "for v in entry",
        (FORMATS + "test_state_reader_equals_record_reader",),
    ),
    Mutant(
        "state-rule-no-overflow-branch",
        "formats.py",
        """    try:
        return float(entry[0]), float(entry[1])
    except OverflowError:
        raise ParseError(f"{where}: integer beyond the float range") from None
""",
        "    return float(entry[0]), float(entry[1])\n",
        (FORMATS + "test_state_reader_equals_record_reader",),
    ),
    # the circuit reader: the inline read takes the writer's own records only
    Mutant(
        "circuit-inline-isinstance-control",
        "formats.py",
        'type(c := rec["control"]) is type(t) is int',
        'isinstance(c := rec["control"], int) and type(t) is int',
        (FORMATS + "test_column_reader_words_errors_like_record_reader",),
    ),
    Mutant(
        "circuit-inline-control-is-target",
        "formats.py",
        "is int and c != t:",
        "is int:",
        (FORMATS + "test_column_reader_words_errors_like_record_reader",),
    ),
    Mutant(
        "circuit-inline-non-finite-angle",
        "formats.py",
        "if type(value) is float and math.isfinite(value):",
        "if type(value) is float:",
        (FORMATS + "test_column_reader_words_errors_like_record_reader",),
    ),
    Mutant(
        "circuit-rule-no-coincide-check",
        "formats.py",
        """        if c == t:
            raise ParseError(f"{label}: {path}: cnot control and target coincide on qubit {c}")
""",
        "",
        (FORMATS + "test_column_reader_words_errors_like_record_reader",),
    ),
    Mutant(
        "circuit-metadata-before-records",
        "formats.py",
        '    records = _get(data, "gates", list, label)\n',
        '    records = _get(data, "gates", list, label)\n'
        '    if not isinstance(data.get("metadata", {}), dict):\n'
        '        raise ParseError(f"{label}: metadata: expected an object")\n',
        (FORMATS + "test_column_reader_words_errors_like_record_reader",),
    ),
    # the angle transform and the ladder
    Mutant(
        "theta-scaled-twice-over",
        "gray.py",
        "theta *= 0.5**k",
        "theta *= 0.5 ** (k + 1)",
        ("tests/test_gray.py::test_angle_transform_k1_frozen",),
    ),
    Mutant(
        "hadamard-bits-2-3-transposed",
        "gray.py",
        "_H_BITS_2_3 = np.kron(_H[2], np.eye(4))",
        "_H_BITS_2_3 = np.kron(np.eye(4), _H[2])",
        ("tests/test_gray.py::test_fwht_matches_the_dense_hadamard_product",),
    ),
    Mutant(
        "ladder-closing-cnot-unclamped",
        "circuit.py",
        "k - np.minimum(np.bitwise_count((s & -s) - 1), k - 1)",
        "k - np.bitwise_count((s & -s) - 1)",
        (CIRCUIT + "test_lower_ucr_k2_control_sequence",),
    ),
    Mutant(
        "mirrored-member-angles-not-reversed",
        "synth.py",
        """        if index % 2:
            theta = theta[::-1]
""",
        "",
        ("tests/test_synth.py::test_prepare_counts_and_fidelity",),
    ),
    # simplify and the circuit's hash
    Mutant(
        "block-keeps-every-cnot",
        "circuit.py",
        "odd = last[(count & 1).astype(bool)]",
        "odd = last",
        (SIM + "test_stack_orders_pinned",),
    ),
    Mutant(
        "tiny-mask-takes-cnots",
        "circuit.py",
        "tiny = (key < 0) & (-atol <= angle) & (angle <= atol)",
        "tiny = (-atol <= angle) & (angle <= atol)",
        (SIM + "test_stack_orders_pinned",),
    ),
    Mutant(
        "merge-to-atol-kept",
        "circuit.py",
        "            if abs(a) <= atol:\n",
        "            if abs(a) < atol:\n",
        (SIM + "test_simplify_matches_gate_object_oracle",),
    ),
    Mutant(
        "hash-without-signed-zero-fold",
        "circuit.py",
        "rot = self.angle[self.control == 0] + 0.0",
        "rot = self.angle[self.control == 0]",
        (SIM + "test_equal_circuits_hash_alike",),
    ),
    Mutant(
        "stack-key-never-widened",
        "circuit.py",
        "if (max(c.n, len(c.axes)) + 1) * span >= 2**31:",
        "if False:",
        (SIM + "test_simplify_matches_gate_object_oracle",),
    ),
    # the fused simulator
    Mutant(
        "batched-y-matrix-signs-swapped",
        "sim.py",
        "np.stack((cos_h, ys, -ys, cos_h), axis=1)",
        "np.stack((cos_h, -ys, ys, cos_h), axis=1)",
        (SIM + "test_apply_circuit_matches_per_gate_fold",),
    ),
    Mutant(
        "batched-z-diagonal-unconjugated",
        "sim.py",
        "np.stack((r00, r00.conj()), axis=1)",
        "np.stack((r00, r00), axis=1)",
        (SIM + "test_apply_circuit_matches_per_gate_fold",),
    ),
    Mutant(
        "batched-y-buffers-not-swapped",
        "sim.py",
        "                flat, spare = spare, flat\n",
        "",
        (SIM + "test_apply_circuit_matches_per_gate_fold",),
    ),
    Mutant(
        "control-below-target-batched",
        "sim.py",
        "batched = all(ax < t_axis for ax in axes)",
        "batched = not all(ax < t_axis for ax in axes)",
        (SIM + "test_apply_circuit_matches_per_gate_fold",),
    ),
    Mutant(
        "fused-result-left-in-spare-buffer",
        "sim.py",
        "    return flat\n",
        "    return amps\n",
        ("tests/test_synth.py::test_prepare_counts_and_fidelity",),
    ),
    Mutant(
        "closing-swaps-dropped",
        "sim.py",
        "        for b in swaps:\n",
        "        for b in swaps[:0]:\n",
        (SIM + "test_circuit_unitary_examples",),
    ),
    # the public constructors refuse malformed input with ValueError
    Mutant(
        "axis-overflow-escapes",
        "circuit.py",
        """        except OverflowError:
            raise ValueError("axis has a component beyond the float range") from None
""",
        "        finally:\n            pass\n",
        (CIRCUIT + "test_axis_components_are_real_floats",),
    ),
    Mutant(
        "ucr-controls-kept-as-given",
        "circuit.py",
        'object.__setattr__(self, "controls", tuple(self.controls))',
        "tuple(self.controls)",
        (CIRCUIT + "test_ucr_gate_validation",),
    ),
    Mutant(
        "ucr-angles-any-type",
        "circuit.py",
        "if not _instances(angles.flat, Real):",
        "if False:",
        (CIRCUIT + "test_ucr_gate_validation",),
    ),
    Mutant(
        "gate-list-columns-unchecked",
        "circuit.py",
        "return cls._check(n, cnot, control, target, axis, tuple(index), angle)",
        "return cls._from_columns(n, control, target, axis, tuple(index), angle)",
        (CIRCUIT + "test_public_constructor_checks_columns",),
    ),
    # copies and pickles rebuild through the constructors
    Mutant(
        "circuit-copied-by-default",
        "circuit.py",
        """    def __reduce__(self):  # copy, deepcopy and pickle rebuild read-only columns
        return type(self)._from_columns, tuple(getattr(self, name) for name in self.__slots__)
""",
        "",
        (CIRCUIT + "test_copies_rebuild_through_the_constructors",),
    ),
    Mutant(
        "state-copied-by-default",
        "state.py",
        """    def __reduce__(self):
        # copies and pickles rebuild through __init__, which makes the amplitudes read-only
        return type(self), (self.n, self.amplitudes)
""",
        "",
        (CIRCUIT + "test_copies_rebuild_through_the_constructors",),
    ),
    Mutant(
        "ucr-gate-copied-by-default",
        "circuit.py",
        """    def __reduce__(self):  # copies and pickles rebuild through the checks: read-only angles
        return type(self), (self.controls, self.target, self.axis, self.angles)
""",
        "",
        (CIRCUIT + "test_copies_rebuild_through_the_constructors",),
    ),
    Mutant(
        "state-attributes-rebindable",
        "state.py",
        """    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: a StateVector is immutable")
""",
        "",
        (CIRCUIT + "test_copies_rebuild_through_the_constructors",),
    ),
]


def pytest_in(copy: Path, tests) -> int:
    """pytest's exit code for tests run against the package in copy."""
    # no bytecode: a mutant and its restored file can share a size and an mtime second
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-c", RUNNER, *tests]
    return subprocess.run(command, cwd=ROOT, env=env, capture_output=True).returncode


def main() -> int:
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(ROOT / "src", copy / "src", ignore=ignore)
        tests = sorted({t for m in MUTANTS for t in m.tests})
        if pytest_in(copy, tests):
            print(f"the listed tests fail on the unbroken package: {tests}")
            return 1
        for m in MUTANTS:
            path = copy / "src" / "ucrsynth" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.name}: old text occurs {text.count(m.old)} times in {m.file}")
                failed.append(m.name)
                continue
            start = time.perf_counter()
            path.write_text(text.replace(m.old, m.new))
            try:
                code = pytest_in(copy, m.tests)
            finally:
                path.write_text(text)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
            print(f"{m.name}: {verdict} ({time.perf_counter() - start:.1f} s)")
            if code != 1:
                failed.append(m.name)
    print(f"{len(MUTANTS) - len(failed)}/{len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
