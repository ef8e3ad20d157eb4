"""File formats: JSON state and circuit documents, OpenQASM 2.0 export.

Floats are serialized with Python's shortest round-trip repr, so a parsed
document reproduces the original doubles bit for bit. Syntax errors carry
line:column anchors; structural errors carry the offending field path.
Both readers read each item once, in order: inline if it is as the writer wrote it,
else by one rule that returns its values or raises its error with the field path.
The circuit reader then checks metadata, then by Circuit._check n >= 1, qubits
within int32 and in 1..n.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .circuit import AXIS_Y, AXIS_Z, Axis, Circuit
from .errors import DimensionError, ExportError, ParseError
from .state import StateVector, make_state

__all__ = [
    "dump_state",
    "load_state",
    "dump_circuit",
    "load_circuit",
    "export_qasm",
]


def _parse_json(text: str, label: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{label}:{e.lineno}:{e.colno}: {e.msg}") from e
    except ValueError as e:  # an integer literal longer than int() accepts
        raise ParseError(f"{label}: {e}") from e


def _get(data: dict, field: str, kind: type, label: str, path: str = ""):
    where = f"{label}: {path or field}"
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object")
    if field not in data:
        raise ParseError(f"{where}: missing required field {field!r}")
    value = data[field]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ParseError(f"{where}: integer beyond the float range") from None
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise ParseError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def dump_state(x: StateVector) -> str:
    pairs = np.stack((x.amplitudes.real, x.amplitudes.imag), axis=1).tolist()
    return json.dumps({"n": x.n, "amplitudes": pairs}, allow_nan=False) + "\n"


def _pair(entry, i: int, label: str) -> tuple[float, float]:
    """Amplitude i as its two floats, or its ParseError: the one rule for a pair."""
    where = f"{label}: amplitudes[{i}]"
    ok = isinstance(entry, list) and len(entry) == 2
    if not (ok and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in entry)):
        raise ParseError(f"{where}: expected a [re, im] number pair, got {entry!r}")
    try:
        return float(entry[0]), float(entry[1])
    except OverflowError:
        raise ParseError(f"{where}: integer beyond the float range") from None


def load_state(text: str, *, label: str = "<state>", normalize: bool = False) -> StateVector:
    """Parse a state document: n, amplitudes as [re, im] pairs, optional
    normalize flag (the keyword argument forces normalization either way)."""
    data = _parse_json(text, label)
    n = _get(data, "n", int, label)
    raw = _get(data, "amplitudes", list, label)
    values = []
    for i, entry in enumerate(raw):
        if type(entry) is list and len(entry) == 2 and type(entry[0]) is type(entry[1]) is float:
            values += entry  # inline, a pair exactly as dump_state writes it
        else:
            values += _pair(entry, i, label)
    amps = np.array(values, dtype=np.float64).view(np.complex128)
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


def _axis_from_json(value, label: str, path: str) -> Axis:
    if value == "y":
        return AXIS_Y
    if value == "z":
        return AXIS_Z
    ok = (
        isinstance(value, list)
        and len(value) == 3
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
        and value[0] == 0
    )
    if not ok:
        raise ParseError(f'{label}: {path}: expected "y", "z", or [0, ay, az], got {value!r}')
    try:
        return Axis(float(value[1]), float(value[2]))
    except OverflowError:
        raise ParseError(f"{label}: {path}: integer beyond the float range") from None
    except ValueError as e:
        raise ParseError(f"{label}: {path}: {e}") from e


def dump_circuit(c: Circuit, metadata: dict | None = None) -> str:
    """One line, as ``json.dumps`` writes it, from one template per gate kind and axis."""
    if not np.isfinite(c.angle).all():
        raise ValueError("Out of range float values are not JSON compliant")
    cnot = '{"type": "cnot", "control": %d, "target": %d}'
    rot = [
        '{"type": "rot", "axis": %s, "target": %%d, "angle": %%r}'
        % ('"y"' if a == AXIS_Y else '"z"' if a == AXIS_Z else json.dumps([0, a.ay, a.az]))
        for a in c.axes
    ]
    rows = zip(c.control.tolist(), c.target.tolist(), c.axis.tolist(), c.angle.tolist())
    records = [cnot % (q, t) if q else rot[a] % (t, angle) for q, t, a, angle in rows]
    tail = "" if metadata is None else ', "metadata": ' + json.dumps(metadata, allow_nan=False)
    return '{"n": %s, "gates": [%s]%s}\n' % (json.dumps(c.n), ", ".join(records), tail)


def _record(rec, i: int, label: str, axes: dict[Axis, int]) -> tuple:
    """Record i as its row (cnot, control, target, axis id in axes, angle), or
    its ParseError with the field path: the one rule for a gate record."""
    path = f"gates[{i}]"
    kind = _get(rec, "type", str, label, f"{path}.type")
    if kind == "cnot":
        c = _get(rec, "control", int, label, f"{path}.control")
        t = _get(rec, "target", int, label, f"{path}.target")
        if c == t:
            raise ParseError(f"{label}: {path}: cnot control and target coincide on qubit {c}")
        return True, c, t, 0, 0.0
    if kind != "rot":
        raise ParseError(f"{label}: {path}.type: unknown gate type {kind!r}")
    axis = _axis_from_json(rec.get("axis"), label, f"{path}.axis")
    t = _get(rec, "target", int, label, f"{path}.target")
    value = _get(rec, "angle", float, label, f"{path}.angle")
    if not math.isfinite(value):
        raise ParseError(f"{label}: {path}.angle: expected a finite number, got {value!r}")
    return False, 0, t, axes.setdefault(axis, len(axes)), value


def load_circuit(text: str, *, label: str = "<circuit>") -> tuple[Circuit, dict]:
    """Parse a circuit document back into (Circuit, metadata dict)."""
    data = _parse_json(text, label)
    n = _get(data, "n", int, label)
    records = _get(data, "gates", list, label)
    cnot, control, target, axis, angle = [], [], [], [], []
    axes, ids = {}, {}  # ids: the axis id of each "y" or "z" spelling read inline
    for i, rec in enumerate(records):
        row = None
        try:  # inline, a record exactly as dump_circuit writes it for a y or z axis
            kind, t = rec["type"], rec["target"]
            if kind == "cnot" and type(c := rec["control"]) is type(t) is int and c != t:
                row = True, c, t, 0, 0.0
            elif kind == "rot" and (a := rec["axis"]) in ("y", "z") and type(t) is int:
                value = rec["angle"]
                if type(value) is float and math.isfinite(value):
                    if a not in ids:
                        ids[a] = axes.setdefault(AXIS_Y if a == "y" else AXIS_Z, len(axes))
                    row = False, 0, t, ids[a], value
        except (KeyError, TypeError):  # not an object, or a field missing
            pass
        q, c, t, a, value = row or _record(rec, i, label, axes)
        cnot.append(q)
        control.append(c)
        target.append(t)
        axis.append(a)
        angle.append(value)
    metadata = data.get("metadata", {})
    try:
        if not isinstance(metadata, dict):
            raise ValueError("metadata: expected an object")
        return Circuit._check(n, cnot, control, target, axis, tuple(axes), angle), metadata
    except ValueError as e:  # every record at fault has been reported by now
        raise ParseError(f"{label}: {e}") from e


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text using the {qreg, ry, rz, cx} subset.

    Register qubit j (1-based, most significant first) maps to wire
    q[n - j]. Rotations are emitted with negated angles because qasm's
    ry/rz use the exp(-i angle sigma / 2) sign convention while the
    in-memory gates use exp(+i angle sigma / 2). Only exact y and z axes
    and their negatives are exportable, since R_-a(angle) = R_a(-angle);
    intermediate y-z axes have no gate in the subset.
    """
    lines = [
        f"// wire q[{c.n}-j] carries register qubit j; q[0] is the least significant",
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{c.n}];",
    ]
    # qasm gate per axis, and the factor taking an angle about it to the gate's angle
    gates = {AXIS_Y: ("ry", -1.0), AXIS_Z: ("rz", -1.0)}
    gates |= {Axis(-1.0, 0.0): ("ry", 1.0), Axis(0.0, -1.0): ("rz", 1.0)}
    names = [gates.get(a, (None, 0.0)) for a in c.axes]
    for control, target, axis, angle in zip(
        c.control.tolist(), c.target.tolist(), c.axis.tolist(), c.angle.tolist()
    ):
        if control:
            lines.append(f"cx q[{c.n - control}],q[{c.n - target}];")
            continue
        name, sign = names[axis]
        if name is None:
            raise ExportError(
                f"axis ({c.axes[axis].ay}, {c.axes[axis].az}) is not exactly y or z; "
                f"general y-z rotations have no OpenQASM 2.0 gate in this subset"
            )
        angle = sign * angle or 0.0
        lines.append(f"{name}({angle!r}) q[{c.n - target}];")
    return "\n".join(lines) + "\n"
