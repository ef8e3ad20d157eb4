import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from ucrsynth import (
    AXIS_Y,
    AXIS_Z,
    Axis,
    Circuit,
    Cnot,
    ExportError,
    ParseError,
    Rot,
    StateVector,
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
