"""Gate-level IR: elementary gates, UCR nodes, lowering and peephole passes.

Gate semantics follow the convention R_a(angle) = exp(+i a.sigma angle/2),
with the rotation axis restricted to the y-z plane (a_x = 0); see
``rot_matrix``. Qubits are 1-based, qubit 1 = most significant bit of the
amplitude index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gray import alpha_to_theta, gray

AXIS_ATOL = 1e-12


@dataclass(frozen=True, slots=True)
class Axis:
    """Rotation axis (0, ay, az) in the y-z plane, unit length."""

    ay: float
    az: float

    def __post_init__(self):
        if not (math.isfinite(self.ay) and math.isfinite(self.az)):
            raise ValueError(f"axis ({self.ay}, {self.az}) is not finite")
        if abs(self.ay * self.ay + self.az * self.az - 1.0) > AXIS_ATOL:
            raise ValueError(f"axis ({self.ay}, {self.az}) is not unit length")


AXIS_Y = Axis(1.0, 0.0)
AXIS_Z = Axis(0.0, 1.0)


@dataclass(frozen=True, slots=True)
class Cnot:
    """Controlled NOT: flips target when control reads 1."""

    control: int
    target: int

    def __post_init__(self):
        if self.control == self.target:
            raise ValueError(f"cnot control and target coincide on qubit {self.control}")


@dataclass(frozen=True, slots=True)
class Rot:
    """One-qubit rotation about a y-z axis; angle in radians."""

    axis: Axis
    target: int
    angle: float


Gate = Cnot | Rot


def rot_matrix(axis: Axis, angle: float) -> np.ndarray:
    """2x2 matrix of R_a(angle) = cos(angle/2) I + i sin(angle/2) (ay sy + az sz)."""
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    return np.array(
        [
            [c + 1j * axis.az * s, axis.ay * s],
            [-axis.ay * s, c - 1j * axis.az * s],
        ],
        dtype=np.complex128,
    )


@dataclass(frozen=True)
class UcrGate:
    """Uniformly controlled rotation: one R_axis(angles[i]) per control pattern.

    Control pattern i is the big-endian integer read off the control qubits
    in their listed order, so controls[0] carries the highest bit.
    """

    controls: tuple[int, ...]
    target: int
    axis: Axis
    angles: np.ndarray = field(compare=False)

    def __post_init__(self):
        object.__setattr__(self, "angles", np.asarray(self.angles, dtype=np.float64))
        if self.target in self.controls:
            raise ValueError(f"target qubit {self.target} also listed as control")
        if len(set(self.controls)) != len(self.controls):
            raise ValueError(f"duplicate control qubits in {self.controls}")
        if self.angles.size != 1 << self.k:
            raise ValueError(
                f"expected {1 << self.k} angles for {self.k} controls, got {self.angles.size}"
            )

    @property
    def k(self) -> int:
        return len(self.controls)


@dataclass(frozen=True)
class Circuit:
    """Time-ordered elementary gate list; gates[0] is applied first."""

    n: int
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        for g in self.gates:
            qubits = (g.control, g.target) if isinstance(g, Cnot) else (g.target,)
            for q in qubits:
                if not 1 <= q <= self.n:
                    raise ValueError(f"gate {g} references qubit {q} outside 1..{self.n}")

    def __len__(self) -> int:
        return len(self.gates)

    def __iter__(self):
        return iter(self.gates)


def gate_counts(c: Circuit) -> dict[str, int]:
    """Exact counts by gate kind."""
    cnot = sum(1 for g in c.gates if isinstance(g, Cnot))
    return {"cnot": cnot, "rot": len(c.gates) - cnot}


def lower_ucr(g: UcrGate, n: int | None = None, *, mirrored: bool = False) -> Circuit:
    """Decompose a UCR into its CNOT ladder of 2**k rotations and 2**k CNOTs.

    The ladder alternates Rot(theta_t) on the target with a CNOT whose
    control sits on the qubit whose pattern bit flips between consecutive
    Gray codes (cyclically, so the closing CNOT is controlled by the first
    listed control). ``mirrored`` emits the horizontally reversed, equally
    valid sequence; k = 0 degenerates to a single rotation either way.
    """
    if n is None:
        n = max((g.target, *g.controls))
    k = g.k
    if k == 0:
        return Circuit(n, (Rot(g.axis, g.target, float(g.angles[0])),))
    theta = alpha_to_theta(g.angles)
    gates: list[Gate] = []
    for t in range(1, (1 << k) + 1):
        gates.append(Rot(g.axis, g.target, float(theta[t - 1])))
        flank = gray(t - 1) ^ gray(t % (1 << k))
        control = g.controls[k - flank.bit_length()]
        gates.append(Cnot(control, g.target))
    if mirrored:
        gates.reverse()
    return Circuit(n, tuple(gates))


def ucr_matrix(g: UcrGate, *, max_controls: int = 10) -> np.ndarray:
    """Block-diagonal definition diag(R(angles[0]), ..., R(angles[-1])).

    Matrix indices run over (control pattern, target bit), target least
    significant. This is the oracle the ladder lowering is tested against.
    """
    if g.k > max_controls:
        raise ValueError(f"{g.k} controls exceeds the {max_controls}-control cap")
    dim = 1 << (g.k + 1)
    out = np.zeros((dim, dim), dtype=np.complex128)
    for pattern, angle in enumerate(g.angles):
        block = rot_matrix(g.axis, float(angle))
        out[2 * pattern : 2 * pattern + 2, 2 * pattern : 2 * pattern + 2] = block
    return out


def dagger(c: Circuit) -> Circuit:
    """Inverse circuit: gates reversed, rotation angles negated."""
    inverted = tuple(
        g if isinstance(g, Cnot) else Rot(g.axis, g.target, -g.angle)
        for g in reversed(c.gates)
    )
    return Circuit(c.n, inverted)


def simplify(c: Circuit, *, prune_atol: float = 0.0, prune: bool = False) -> Circuit:
    """Peephole simplification to fixpoint, preserving the circuit unitary.

    Rules, applied to consecutive gates in the list: adjacent identical
    CNOTs cancel; adjacent rotations with the same axis and target merge by
    angle addition. Rotations with |angle| <= prune_atol are dropped only
    when ``prune`` is set; pruning is off by default so gate counts stay at
    the generic closed-form values (a merge to angle 0 keeps its gate).

    One stack pass reaches the fixpoint: every reduction re-exposes the
    previous gate, which is re-checked before anything new is pushed, so
    the stack never holds a reducible adjacent pair.
    """
    atol = prune_atol if prune else None
    out: list[Gate] = []
    for g in c.gates:
        reduced: Gate | None = g
        while reduced is not None:
            top = out[-1] if out else None
            if isinstance(reduced, Cnot):
                if top == reduced:
                    out.pop()
                    reduced = None
                break
            if isinstance(top, Rot) and top.axis == reduced.axis and top.target == reduced.target:
                out.pop()
                reduced = Rot(reduced.axis, reduced.target, top.angle + reduced.angle)
                continue
            if atol is not None and abs(reduced.angle) <= atol:
                reduced = None
            break
        if reduced is not None:
            out.append(reduced)
    return Circuit(c.n, tuple(out))
