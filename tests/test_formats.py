import json
import math
from typing import Any
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucrsynth import (
    AXIS_Y,
    AXIS_Z,
    Axis,
    Circuit,
    Cnot,
    DimensionError,
    ExportError,
    ParseError,
    Rot,
    StateVector,
    circuit_unitary,
    disentangle,
    dump_circuit,
    dump_state,
    export_qasm,
    load_circuit,
    load_state,
    make_state,
    random_state,
    rot_matrix,
)
from ucrsynth import formats
from ucrsynth.formats import _axis_from_json, _get, _parse_json

from test_sim import circuits

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def test_state_round_trip_bit_exact():
    x = random_state(4, 123)
    back = load_state(dump_state(x))
    assert back.n == 4
    assert np.array_equal(back.amplitudes, x.amplitudes)


def test_state_file_normalize_flag():
    doc = {"n": 1, "amplitudes": [[3.0, 0.0], [4.0, 0.0]], "normalize": True}
    x = load_state(json.dumps(doc))
    assert x.amplitudes == pytest.approx([0.6, 0.8])
    doc["normalize"] = False
    with pytest.raises(ParseError):
        load_state(json.dumps(doc))
    # the keyword argument forces normalization regardless of the file
    x2 = load_state(json.dumps(doc), normalize=True)
    assert x2.amplitudes == pytest.approx([0.6, 0.8])


def test_state_parse_errors_are_anchored():
    with pytest.raises(ParseError, match=r"a\.json:2:\d+"):
        load_state('{\n  "n": oops\n}', label="a.json")
    with pytest.raises(ParseError, match="missing required field 'amplitudes'"):
        load_state('{"n": 1}')
    with pytest.raises(ParseError, match=r"amplitudes\[1\]"):
        load_state('{"n": 1, "amplitudes": [[1, 0], [1]]}')
    with pytest.raises(ParseError, match="expected int"):
        load_state('{"n": "two", "amplitudes": []}')
    # declared n inconsistent with the array length is a parse failure
    with pytest.raises(ParseError, match="expected 2"):
        load_state('{"n": 1, "amplitudes": [[1, 0]]}')


def test_state_file_rejects_non_finite():
    with pytest.raises(ParseError, match="finite"):
        load_state('{"n": 1, "amplitudes": [[NaN, 0], [1, 0]]}')
    with pytest.raises(ValueError):
        dump_state(StateVector(1, np.array([np.nan, 1.0], dtype=np.complex128)))


def test_circuit_angle_must_be_finite():
    for value in ("Infinity", "-Infinity", "NaN"):
        doc = f'{{"n": 1, "gates": [{{"type": "rot", "axis": "y", "target": 1, "angle": {value}}}]}}'
        with pytest.raises(ParseError, match=r"gates\[0\]\.angle"):
            load_circuit(doc)
    with pytest.raises(ValueError):
        dump_circuit(Circuit(1, (Rot(AXIS_Y, 1, math.inf),)))


def test_integers_beyond_range_are_parse_errors():
    big = 10**400  # an integer literal no float can hold
    with pytest.raises(ParseError, match=r"amplitudes\[1\]: integer beyond the float range"):
        load_state(f'{{"n": 1, "amplitudes": [[1, 0], [{big}, 0]]}}')
    with pytest.raises(ParseError, match="expected 2"):
        load_state(f'{{"n": {big}, "amplitudes": [[1, 0], [0, 0]]}}')
    with pytest.raises(ParseError, match="4300 digits"):
        load_state('{"n": 1' + "0" * 5000 + ', "amplitudes": []}')
    rot = '{{"n": 2, "gates": [{{"type": "rot", "axis": {}, "target": {}, "angle": {}}}]}}'
    with pytest.raises(ParseError, match=r"gates\[0\]\.angle: integer beyond the float range"):
        load_circuit(rot.format('"y"', 1, big))
    with pytest.raises(ParseError, match=r"gates\[0\]\.axis: integer beyond the float range"):
        load_circuit(rot.format(f"[0, {big}, 0]", 1, 0.5))
    with pytest.raises(ParseError, match="qubit index outside 1..2"):
        load_circuit(rot.format('"z"', 2**32 + 1, 0.5))
    with pytest.raises(ParseError, match="qubit index outside 1..2"):
        load_circuit('{"n": 2, "gates": [{"type": "cnot", "control": 2147483648, "target": 1}]}')


def test_circuit_round_trip_exact():
    x = random_state(3, 9)
    result = disentangle(x)
    meta = {"residual_phase": result.residual_phase, "counts": dict(result.counts)}
    text = dump_circuit(result.circuit, meta)
    c, meta_back = load_circuit(text)
    assert c == result.circuit
    assert meta_back == meta
    # serialization is deterministic
    assert dump_circuit(c, meta_back) == text


def test_circuit_general_axis_round_trip():
    axis = Axis(math.sin(0.77), math.cos(0.77))
    c = Circuit(2, (Rot(axis, 2, -1.2345678901234567), Cnot(2, 1)))
    back, meta = load_circuit(dump_circuit(c))
    assert back == c
    assert meta == {}


def test_circuit_parse_errors():
    with pytest.raises(ParseError, match="unknown gate type"):
        load_circuit('{"n": 1, "gates": [{"type": "h", "target": 1}]}')
    with pytest.raises(ParseError, match=r"gates\[0\]\.axis"):
        load_circuit('{"n": 1, "gates": [{"type": "rot", "axis": "x", "target": 1, "angle": 1}]}')
    # the first axis component must vanish
    bad_axis = '{"n": 1, "gates": [{"type": "rot", "axis": [0.1, 1.0, 0.0], "target": 1, "angle": 1}]}'
    with pytest.raises(ParseError, match=r"gates\[0\]\.axis"):
        load_circuit(bad_axis)
    with pytest.raises(ParseError, match="not unit length"):
        load_circuit('{"n": 1, "gates": [{"type": "rot", "axis": [0, 1.0, 1.0], "target": 1, "angle": 1}]}')
    with pytest.raises(ParseError, match="outside"):
        load_circuit('{"n": 1, "gates": [{"type": "cnot", "control": 1, "target": 2}]}')
    with pytest.raises(ParseError, match="metadata"):
        load_circuit('{"n": 1, "gates": [], "metadata": 7}')


def test_circuit_file_needs_a_qubit():
    for n in (0, -3):
        with pytest.raises(ParseError, match=f"qubit count must be >= 1, got {n}"):
            load_circuit(f'{{"n": {n}, "gates": []}}')


def test_circuit_file_non_integer_qubits_keep_their_messages():
    # the reader rejects these types itself, before Circuit's own check
    cnot = '{"type": "cnot", "control": %s, "target": %s}'
    rot = '{"type": "rot", "axis": "y", "target": %s, "angle": 0.1}'
    cases = [
        ('{"n": 2.5, "gates": []}', "<circuit>: n: expected int, got float"),
        ('{"n": 2.0, "gates": []}', "<circuit>: n: expected int, got float"),
        ('{"n": true, "gates": []}', "<circuit>: n: expected int, got bool"),
        ('{"n": 2, "gates": [%s]}' % (cnot % ("1.5", "2")),
         "<circuit>: gates[0].control: expected int, got float"),
        ('{"n": 2, "gates": [%s, %s]}' % (cnot % ("1", "2"), rot % "1.7"),
         "<circuit>: gates[1].target: expected int, got float"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as info:
            load_circuit(text)
        assert str(info.value) == message


def test_qasm_empty_circuit():
    text = export_qasm(Circuit(2))
    assert text.splitlines() == [
        "// wire q[2-j] carries register qubit j; q[0] is the least significant",
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        "qreg q[2];",
    ]


def test_qasm_rotation_and_wire_mapping():
    text = export_qasm(Circuit(2, (Rot(AXIS_Y, 1, 0.4),)))
    assert "ry(-0.4) q[1];" in text.splitlines()
    text = export_qasm(Circuit(2, (Cnot(1, 2),)))
    assert "cx q[1],q[0];" in text.splitlines()
    text = export_qasm(Circuit(3, (Rot(AXIS_Z, 3, -1.5),)))
    assert "rz(1.5) q[0];" in text.splitlines()


def test_qasm_zero_angle_prints_cleanly():
    text = export_qasm(Circuit(1, (Rot(AXIS_Y, 1, 0.0),)))
    assert "ry(0.0) q[0];" in text.splitlines()


def test_qasm_sign_convention_bridge():
    # emitted ry(t)/rz(t) mean exp(-i t sigma / 2); our R(angle) uses the
    # opposite exponent sign, so R(angle) must equal the emitted gate at -angle
    for sigma, axis in [(SIGMA_Y, AXIS_Y), (SIGMA_Z, AXIS_Z)]:
        for angle in (0.4, -2.2, math.pi):
            t = -angle
            qasm_gate = math.cos(t / 2) * np.eye(2) - 1j * math.sin(t / 2) * sigma
            assert np.abs(rot_matrix(axis, angle) - qasm_gate).max() <= 1e-15


def gate_bits(c):
    """Gates with every float spelled out bit for bit (so -0.0 != 0.0)."""
    return [
        (g.control, g.target) if isinstance(g, Cnot)
        else (g.axis.ay.hex(), g.axis.az.hex(), g.target, g.angle.hex())
        for g in c.gates
    ]


@settings(deadline=None)
@given(circuits())
@example(Circuit(2, (Rot(AXIS_Z, 1, -0.0), Rot(Axis(0.6, -0.8), 2, 0.0), Cnot(1, 2))))
def test_circuit_round_trip_bit_identical(c):
    back, meta = load_circuit(dump_circuit(c))
    assert back == c
    assert gate_bits(back) == gate_bits(c)
    assert meta == {}


def test_qasm_rejects_general_axis():
    c = Circuit(1, (Rot(Axis(0.6, 0.8), 1, 0.3),))
    with pytest.raises(ExportError):
        export_qasm(c)


def test_qasm_exports_negated_y_and_z_axes():
    # R_-a(angle) = R_a(-angle): -y and -z export as ry/rz with the angle negated
    minus_y, minus_z = Axis(-1.0, 0.0), Axis(0.0, -1.0)
    angles = (0.4, -1.5, 0.0, -0.0, math.pi)
    negated = Circuit(2, tuple(
        gate for t in angles
        for gate in (Rot(minus_y, 1, t), Cnot(1, 2), Rot(minus_z, 2, t))
    ))
    plain = Circuit(2, tuple(
        gate for t in angles
        for gate in (Rot(AXIS_Y, 1, -t), Cnot(1, 2), Rot(AXIS_Z, 2, -t))
    ))
    assert export_qasm(negated) == export_qasm(plain)
    assert "ry(0.4) q[1];" in export_qasm(negated).splitlines()
    assert "ry(-0.0) q[1];" not in export_qasm(negated).splitlines()
    assert np.array_equal(circuit_unitary(negated), circuit_unitary(plain))


def test_qasm_deterministic_bytes():
    x = random_state(3, 31)
    c = disentangle(x).circuit
    assert export_qasm(c) == export_qasm(c)
    back, _ = load_circuit(dump_circuit(c))
    assert export_qasm(back) == export_qasm(c)


def test_dump_state_handles_plain_floats():
    x = make_state(1, [0.5, 0.5 * math.sqrt(3)])
    doc = json.loads(dump_state(x))
    assert doc["amplitudes"][0] == [0.5, 0.0]
    assert isinstance(doc["amplitudes"][1][0], float)


# --- oracles: the record-by-record readers and the json.dumps writer ---------
#
# These are the file boundary as it was before it read and wrote whole
# columns, kept unchanged as independent references. The column readers must
# return the same values for every valid document and raise ParseError with
# the same message for every invalid one; dump_circuit must write the same
# bytes as json.dumps.


def load_state_records(text: str, *, label: str = "<state>", normalize: bool = False) -> StateVector:
    """Parse a state document: n, amplitudes as [re, im] pairs, optional
    normalize flag (the keyword argument forces normalization either way)."""
    data = _parse_json(text, label)
    n = _get(data, "n", int, label)
    raw = _get(data, "amplitudes", list, label)
    amps = np.empty(len(raw), dtype=np.complex128)
    for i, entry in enumerate(raw):
        ok = (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)
        )
        if not ok:
            raise ParseError(
                f"{label}: amplitudes[{i}]: expected a [re, im] number pair, got {entry!r}"
            )
        try:
            amps[i] = complex(entry[0], entry[1])
        except OverflowError:
            raise ParseError(f"{label}: amplitudes[{i}]: integer beyond the float range") from None
    if "normalize" in data:
        flag = data["normalize"]
        if not isinstance(flag, bool):
            raise ParseError(f"{label}: normalize: expected a boolean, got {flag!r}")
        normalize = normalize or flag
    try:
        return make_state(n, amps, normalize=normalize)
    except (DimensionError, ValueError) as e:
        # A self-inconsistent or unnormalized document is a parse failure.
        raise ParseError(f"{label}: {e}") from e


def _axis_json(axis: Axis):
    if axis == AXIS_Y:
        return "y"
    if axis == AXIS_Z:
        return "z"
    return [0, axis.ay, axis.az]


def dump_circuit_json(c: Circuit, metadata: dict | None = None) -> str:
    axes = [_axis_json(a) for a in c.axes]
    records = [
        {"type": "cnot", "control": control, "target": target}
        if control
        else {"type": "rot", "axis": axes[axis], "target": target, "angle": angle}
        for control, target, axis, angle in zip(
            c.control.tolist(), c.target.tolist(), c.axis.tolist(), c.angle.tolist()
        )
    ]
    doc: dict[str, Any] = {"n": c.n, "gates": records}
    if metadata is not None:
        doc["metadata"] = metadata
    return json.dumps(doc, allow_nan=False) + "\n"


def load_circuit_records(text: str, *, label: str = "<circuit>") -> tuple[Circuit, dict]:
    """Parse a circuit document back into (Circuit, metadata dict)."""
    data = _parse_json(text, label)
    n = _get(data, "n", int, label)
    records = _get(data, "gates", list, label)
    cnot, control, target, axis, angle = [], [], [], [], []
    axes: dict[Axis, int] = {}
    for i, rec in enumerate(records):
        path = f"gates[{i}]"
        kind = _get(rec, "type", str, label, f"{path}.type")
        if kind == "cnot":
            c = _get(rec, "control", int, label, f"{path}.control")
            t = _get(rec, "target", int, label, f"{path}.target")
            if c == t:
                raise ParseError(f"{label}: {path}: cnot control and target coincide on qubit {c}")
            cnot.append(True)
            control.append(c)
            axis.append(0)
            angle.append(0.0)
        elif kind == "rot":
            a = _axis_from_json(rec.get("axis"), label, f"{path}.axis")
            t = _get(rec, "target", int, label, f"{path}.target")
            value = _get(rec, "angle", float, label, f"{path}.angle")
            if not math.isfinite(value):
                raise ParseError(f"{label}: {path}.angle: expected a finite number, got {value!r}")
            cnot.append(False)
            control.append(0)
            axis.append(axes.setdefault(a, len(axes)))
            angle.append(value)
        else:
            raise ParseError(f"{label}: {path}.type: unknown gate type {kind!r}")
        target.append(t)
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError(f"{label}: metadata: expected an object")
    try:
        circuit = Circuit._from_columns(n, control, target, axis, tuple(axes), angle)
        circuit.__post_init__(np.array(cnot, dtype=bool))
    except ValueError as e:
        raise ParseError(f"{label}: {e}") from e
    return circuit, metadata


# --- documents the writers may produce, and their mutants --------------------

METADATA = st.none() | st.dictionaries(
    st.text(max_size=4),
    st.floats(allow_nan=False, allow_infinity=False) | st.integers() | st.none()
    | st.lists(st.floats(-1.0, 1.0), max_size=2),
    max_size=3,
)
# integer angles as a hand-written file may spell them, up to well past 2**53
INT_ANGLES = st.integers(-4, 4) | st.sampled_from([2**53 + 1, -(2**60) - 3, 10**30, 10**300])
SPELLINGS = {"y": [[0, 1, 0], [0, 1.0, -0.0], "y"], "z": [[0, 0, 1], [0, -0.0, 1.0], "z"]}


@st.composite
def circuit_documents(draw):
    """Valid circuit documents as dicts: general axes, +-0.0 and integer
    angles, y and z spelled as lists, metadata present or absent."""
    c = draw(circuits(max_gates=30))
    doc = json.loads(dump_circuit_json(c))
    for rec in doc["gates"]:
        if rec["type"] != "rot":
            continue
        angle = draw(st.sampled_from(["keep", "int", "zero"]))
        if angle == "int":
            rec["angle"] = draw(INT_ANGLES)
        elif angle == "zero":
            rec["angle"] = draw(st.sampled_from([0.0, -0.0]))
        if isinstance(rec["axis"], str):
            rec["axis"] = draw(st.sampled_from(SPELLINGS[rec["axis"]]))
    metadata = draw(METADATA)
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


BAD_VALUES = st.sampled_from(
    [True, False, "1", None, [], [1], {}, 10**400, math.nan, math.inf, -math.inf, 1.5]
)
BAD_QUBITS = st.sampled_from([0, -1, 9, 2**31, 2**40, 2**63, 10**30])
BAD_AXES = BAD_VALUES | st.sampled_from(
    ["x", "Y", [0.1, 1.0, 0.0], [0, 1, 1], [0, 1], [0, "1", 0], [0, True, 0],
     [0, 10**400, 0], [0, math.nan, 1.0], [0, math.inf, 0], [0, 1, 0, 0], {"ay": 1}]
)
FIELDS = ("type", "control", "target", "axis", "angle")


@st.composite
def mutated_circuit_documents(draw):
    """A valid document with one to three records spoiled."""
    doc = draw(circuit_documents())
    gates = doc["gates"]
    if not gates:
        gates.append({"type": "rot", "axis": "y", "target": 1, "angle": 0.5})
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(gates) - 1))
        rec = gates[i]
        how = draw(st.sampled_from(
            ["value", "drop", "type", "record", "coincide", "qubit", "axis", "metadata"]
        ))
        if not isinstance(rec, dict) or how == "record":
            gates[i] = draw(st.sampled_from([3, "cnot", [], None, True, ["type", "rot"]]))
        elif how == "value":
            rec[draw(st.sampled_from(FIELDS))] = draw(BAD_VALUES)
        elif how == "drop":
            rec.pop(draw(st.sampled_from(FIELDS)), None)
        elif how == "type":
            rec["type"] = draw(st.sampled_from(["h", "CNOT", "", "rot ", "cnot", "rot"]))
        elif how == "coincide":
            rec["control"] = rec.get("target")
        elif how == "qubit":
            rec[draw(st.sampled_from(["control", "target"]))] = draw(BAD_QUBITS)
        elif how == "axis":
            rec["axis"] = draw(BAD_AXES)
        else:
            doc["metadata"] = draw(st.sampled_from([7, [], "m", None]))
    return doc


def columns_bits(c: Circuit):
    """Every column and axis of c, bit for bit."""
    return (
        c.n,
        c.control.tolist(),
        c.target.tolist(),
        c.axis.tolist(),
        c.angle.tobytes(),
        [(a.ay.hex(), a.az.hex()) for a in c.axes],
    )


def read_outcome(read, text: str):
    try:
        c, metadata = read(text, label="c.json")
    except ParseError as e:
        return "error", str(e)
    return "ok", columns_bits(c), metadata


@settings(deadline=None)
@given(circuit_documents())
@example({"n": 2, "gates": [
    {"type": "rot", "axis": [0, 0, 1], "target": 1, "angle": -0.0},
    {"type": "rot", "axis": "z", "target": 2, "angle": 10**30},
    {"type": "rot", "axis": [0, -0.6, 0.8], "target": 1, "angle": 3},
    {"type": "cnot", "control": 2, "target": 1, "angle": "ignored", "axis": None},
]})
def test_column_reader_equals_record_reader_on_valid_documents(doc):
    text = json.dumps(doc)
    want, want_metadata = load_circuit_records(text)
    # a valid document never reaches the per-record loop
    with mock.patch.object(formats, "_gate_records", side_effect=AssertionError("loop ran")):
        got, metadata = load_circuit(text)
    assert got == want
    assert gate_bits(got) == gate_bits(want)
    assert columns_bits(got) == columns_bits(want)
    assert metadata == want_metadata


@settings(deadline=None, max_examples=300)
@given(mutated_circuit_documents())
@example({"n": 2, "gates": [{"type": "cnot", "control": 2**40, "target": 2**40}]})
@example({"n": 2, "gates": [{"type": "cnot", "control": 2**40, "target": 1}]})
@example({"n": 1, "gates": [{"type": "rot", "axis": [0, True, 0], "target": 1, "angle": 1},
                            {"type": "rot", "axis": [0, 1, 0], "target": 1, "angle": 1}]})
@example({"n": 1, "gates": [{"type": "rot", "axis": [0, 1, 0], "target": 1, "angle": 1},
                            {"type": "rot", "axis": [0, True, 0], "target": 1, "angle": 1}]})
@example({"n": 1, "gates": [{"type": "rot", "axis": [0, 1, 0], "target": 1, "angle": 1},
                            {"type": "rot", "axis": "[0, 1, 0]", "target": 1, "angle": 1}]})
def test_column_reader_words_errors_like_record_reader(doc):
    text = json.dumps(doc)
    assert read_outcome(load_circuit, text) == read_outcome(load_circuit_records, text)


@settings(deadline=None)
@given(circuits(), METADATA)
@example(Circuit(2, (Rot(AXIS_Z, 1, -0.0), Rot(Axis(-0.6, -0.8), 2, 0.0), Cnot(1, 2))), None)
@example(Circuit(1), {"residual_phase": -0.0, "counts": {"cnot": 0, "rot": 0}})
def test_dump_circuit_equals_json_dumps(c, metadata):
    assert dump_circuit(c, metadata) == dump_circuit_json(c, metadata)


def test_dump_circuit_rejects_non_finite_like_json_dumps():
    for value in (math.nan, math.inf, -math.inf):
        c = Circuit._from_columns(1, [0], [1], [0], (AXIS_Y,), [value])
        for dump in (dump_circuit, dump_circuit_json):
            with pytest.raises(ValueError, match="not JSON compliant"):
                dump(c)
    with pytest.raises(ValueError):
        dump_circuit(Circuit(1), {"phase": math.nan})


@st.composite
def state_documents(draw):
    """State documents as dicts, valid or with spoiled entries and fields."""
    n = draw(st.integers(1, 3))
    doc = json.loads(dump_state(random_state(n, draw(st.integers(0, 2**32 - 1)))))
    pairs = doc["amplitudes"]
    if draw(st.booleans()):  # integer and signed-zero parts; the file asks to normalize
        pairs[:] = [[draw(st.integers(-3, 3) | st.sampled_from([0.0, -0.0])) for _ in pair]
                    for pair in pairs]
        doc["normalize"] = True
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(pairs) - 1))
        pairs[i] = draw(
            BAD_VALUES | st.sampled_from([[1, 2, 3], [[1], [2]], "ab", {"re": 1, "im": 0}])
            | st.lists(BAD_VALUES, min_size=2, max_size=2)
        )
    if draw(st.booleans()):
        doc[draw(st.sampled_from(["n", "normalize"]))] = draw(
            BAD_VALUES | st.integers(-1, 5)
        )
    return doc


def state_outcome(read, text: str, normalize: bool):
    try:
        x = read(text, label="s.json", normalize=normalize)
    except ParseError as e:
        return "error", str(e)
    return "ok", x.n, x.amplitudes.tobytes()


@settings(deadline=None, max_examples=300)
@given(state_documents(), st.booleans())
@example({"n": 1, "amplitudes": [[1, 0], [10**400, 0]]}, False)
@example({"n": 1, "amplitudes": [[10**30, 0], [1, 2**53 + 1]]}, True)
@example({"n": 1, "amplitudes": [[1, 0], [True, 0]]}, False)
@example({"n": 2, "amplitudes": []}, False)
def test_state_reader_equals_record_reader(doc, normalize):
    text = json.dumps(doc)
    got = state_outcome(load_state, text, normalize)
    assert got == state_outcome(load_state_records, text, normalize)
