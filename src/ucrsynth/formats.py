"""File formats: JSON state and circuit documents, OpenQASM 2.0 export.

Floats are serialized with Python's shortest round-trip repr, so a parsed
document reproduces the original doubles bit for bit. Syntax errors carry
line:column anchors; structural errors carry the offending field path.
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
    pairs = [[float(a.real), float(a.imag)] for a in x.amplitudes]
    return json.dumps({"n": x.n, "amplitudes": pairs}, allow_nan=False) + "\n"


def load_state(text: str, *, label: str = "<state>", normalize: bool = False) -> StateVector:
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
        raise ParseError(
            f'{label}: {path}: expected "y", "z", or [0, ay, az], got {value!r}'
        )
    try:
        return Axis(float(value[1]), float(value[2]))
    except OverflowError:
        raise ParseError(f"{label}: {path}: integer beyond the float range") from None
    except ValueError as e:
        raise ParseError(f"{label}: {path}: {e}") from e


def dump_circuit(c: Circuit, metadata: dict | None = None) -> str:
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


def load_circuit(text: str, *, label: str = "<circuit>") -> tuple[Circuit, dict]:
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


def export_qasm(c: Circuit) -> str:
    """OpenQASM 2.0 text using the {qreg, ry, rz, cx} subset.

    Register qubit j (1-based, most significant first) maps to wire
    q[n - j]. Rotations are emitted with negated angles because qasm's
    ry/rz use the exp(-i angle sigma / 2) sign convention while the
    in-memory gates use exp(+i angle sigma / 2). Only exact y and z axes
    are exportable; intermediate y-z axes have no gate in the subset.
    """
    lines = [
        f"// wire q[{c.n}-j] carries register qubit j; q[0] is the least significant",
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{c.n}];",
    ]
    names = ["ry" if a == AXIS_Y else "rz" if a == AXIS_Z else None for a in c.axes]
    for control, target, axis, angle in zip(
        c.control.tolist(), c.target.tolist(), c.axis.tolist(), c.angle.tolist()
    ):
        if control:
            lines.append(f"cx q[{c.n - control}],q[{c.n - target}];")
            continue
        name = names[axis]
        if name is None:
            raise ExportError(
                f"axis ({c.axes[axis].ay}, {c.axes[axis].az}) is not exactly y or z; "
                f"general y-z rotations have no OpenQASM 2.0 gate in this subset"
            )
        angle = -angle or 0.0
        lines.append(f"{name}({angle!r}) q[{c.n - target}];")
    return "\n".join(lines) + "\n"
