"""Gate-level IR: elementary gates, UCR nodes, lowering and peephole passes.

Gate semantics follow the convention R_a(angle) = exp(+i a.sigma angle/2),
with the rotation axis restricted to the y-z plane (a_x = 0); see
``rot_matrix``. Qubits are 1-based, qubit 1 = most significant bit of the
amplitude index.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .gray import alpha_to_theta, gray_permutation
from .state import check_qubit_count

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
        if not all(isinstance(q, Integral) for q in (self.target, *self.controls)):
            raise ValueError(f"UCR qubits must be integers, got {self.controls} -> {self.target}")
        if self.target in self.controls:
            raise ValueError(f"target qubit {self.target} also listed as control")
        if len(set(self.controls)) != len(self.controls):
            raise ValueError(f"duplicate control qubits in {self.controls}")
        if self.angles.size != 1 << self.k:
            raise ValueError(
                f"expected {1 << self.k} angles for {self.k} controls, got {self.angles.size}"
            )
        if self.angles.ndim != 1:
            raise ValueError(f"angles must be one-dimensional, got shape {self.angles.shape}")
        if not np.isfinite(self.angles).all():
            raise ValueError("angles must be finite")

    @property
    def k(self) -> int:
        return len(self.controls)


class Circuit:
    """Time-ordered elementary gate list held as parallel numpy columns.

    Row r is gate r (row 0 is applied first): Cnot(control[r], target[r])
    when control[r] > 0, else Rot(axes[axis[r]], target[r], angle[r]).
    Qubits are 1-based, so control 0 is free to mark a rotation; CNOT rows
    carry axis 0 and angle 0. ``axes`` holds distinct axis values. The
    columns are read-only and may be shared between circuits.

    ``Circuit(n, gates)`` converts and checks gate objects at the boundary.
    ``gates`` builds fresh gate objects from the columns on every access;
    ``len`` and the columns cost nothing extra.
    """

    __slots__ = ("n", "control", "target", "axis", "axes", "angle")

    def __init__(self, n: int, gates: Iterable[Gate] = ()):
        gates = tuple(gates)
        cnot = [isinstance(g, Cnot) for g in gates]
        control = [g.control if c else 0 for g, c in zip(gates, cnot)]
        target = [g.target for g in gates]
        if not all(issubclass(kind, Integral) for kind in set(map(type, control + target))):
            for g, q, t in zip(gates, control, target):
                if not (isinstance(q, Integral) and isinstance(t, Integral)):
                    raise ValueError(f"gate {g} has a non-integer qubit index")
        index: dict[Axis, int] = {}
        axis = [0 if c else index.setdefault(g.axis, len(index)) for g, c in zip(gates, cnot)]
        angle = [0.0 if c else g.angle for g, c in zip(gates, cnot)]
        self._fill(n, control, target, axis, tuple(index), angle)
        self.__post_init__(np.array(cnot, dtype=bool))

    @classmethod
    def _from_columns(cls, n, control, target, axis, axes, angle) -> Circuit:
        """Trusted constructor for columns built inside the package: no check."""
        c = object.__new__(cls)
        c._fill(n, control, target, axis, axes, angle)
        return c

    def _fill(self, n, control, target, axis, axes, angle) -> None:
        self.n = n
        self.axes = tuple(axes)
        qubit = f"qubit index outside 1..{n}"
        self.control = _column(control, np.int32, qubit)
        self.target = _column(target, np.int32, qubit)
        self.axis = _column(axis, np.int32)
        self.angle = _column(angle, np.float64, "angle beyond the float range")

    def __post_init__(self, cnot: np.ndarray) -> None:
        """Boundary check: n an integer >= 1, CNOT control != target, qubits
        in 1..n, finite angles.

        ``cnot`` marks the CNOT rows, since a CNOT read with control 0 is
        indistinguishable from a rotation in the columns alone.
        """
        n, control, target = self.n, self.control, self.target
        check_qubit_count(n)
        coincide = cnot & (control == target)
        if coincide.any():
            q = int(control[np.argmax(coincide)])
            raise ValueError(f"cnot control and target coincide on qubit {q}")
        bad_control = cnot & ((control < 1) | (control > n))
        bad = bad_control | (target < 1) | (target > n) | ~np.isfinite(self.angle)
        if bad.any():
            r = int(np.argmax(bad))
            c, t, angle = int(control[r]), int(target[r]), float(self.angle[r])
            g = Cnot(c, t) if cnot[r] else Rot(self.axes[self.axis[r]], t, angle)
            if not (1 <= t <= n) or bad_control[r]:
                q = c if bad_control[r] else t
                raise ValueError(f"gate {g} references qubit {q} outside 1..{n}")
            raise ValueError(f"gate {g} has a non-finite angle")

    @property
    def gates(self) -> tuple[Gate, ...]:
        """The gates in time order, built afresh on every access."""
        return tuple(self)

    def __iter__(self) -> Iterator[Gate]:
        # one Cnot object per distinct (control, target) pair in this pass:
        # gates are immutable, and CNOTs repeat a few pairs many times
        axes, cnots = self.axes, {}
        for start in range(0, len(self), _CHUNK):
            rows = slice(start, start + _CHUNK)
            for c, t, a, angle in zip(
                self.control[rows].tolist(),
                self.target[rows].tolist(),
                self.axis[rows].tolist(),
                self.angle[rows].tolist(),
            ):
                if c:
                    yield cnots.get((c, t)) or cnots.setdefault((c, t), Cnot(c, t))
                else:
                    yield Rot(axes[a], t, angle)

    def __len__(self) -> int:
        return self.target.size

    def __eq__(self, other) -> bool:
        """Gate-tuple equality: same n and, row by row, equal gates."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.n != other.n or len(self) != len(other):
            return False
        rot = self.control == 0
        same_axis = np.array(
            [[a == b for b in other.axes] for a in self.axes], dtype=bool
        ).reshape(len(self.axes), len(other.axes))
        return bool(
            np.array_equal(self.control, other.control)
            and np.array_equal(self.target, other.target)
            and np.array_equal(self.angle[rot], other.angle[rot])
            and same_axis[self.axis[rot], other.axis[rot]].all()
        )

    def __hash__(self) -> int:
        return hash((self.n, self.gates))

    def __repr__(self) -> str:
        return f"Circuit(n={self.n!r}, gates={self.gates!r})"


# Rows turned into gate objects per step of Circuit.__iter__: bounds the
# Python lists alive at once while keeping the per-row cost low.
_CHUNK = 4096


def _column(values, dtype, overflow: str = "") -> np.ndarray:
    """Read-only column; an integer from outside the package that the dtype
    cannot hold raises ValueError(overflow)."""
    try:
        out = np.asarray(values, dtype=dtype)
    except OverflowError:
        raise ValueError(overflow) from None
    out.flags.writeable = False
    return out


def gate_counts(c: Circuit) -> dict[str, int]:
    """Exact counts by gate kind."""
    cnot = int(np.count_nonzero(c.control))
    return {"cnot": cnot, "rot": len(c) - cnot}


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
    for q in (g.target, *g.controls):
        if not 1 <= q <= n:
            raise ValueError(f"UCR qubit {q} outside 1..{n}")
    control = ladder_controls(g.controls, mirrored=mirrored)
    angle = np.zeros(control.size)
    angle[control == 0] = ladder_angles(g.angles, mirrored=mirrored)
    zeros = np.zeros(control.size, dtype=np.int32)
    return Circuit._from_columns(n, control, zeros + g.target, zeros, (g.axis,), angle)


def ladder_controls(controls: tuple[int, ...], *, mirrored: bool = False) -> np.ndarray:
    """Control column of the ladder of a UCR with these controls.

    Row r holds 0 for a rotation and the CNOT's control otherwise; every
    row acts on the UCR's target. This part of the lowering does not
    depend on the angles.
    """
    k = len(controls)
    if not k:
        return np.zeros(1, dtype=np.int32)
    control = np.zeros(2 << k, dtype=np.int32)
    codes = gray_permutation(k)
    # the flipped bit 2**b between Gray codes t and t + 1 belongs to
    # controls[k - 1 - b]; b = popcount(2**b - 1)
    bit = np.bitwise_count((codes ^ np.roll(codes, -1)) - 1)
    control[1::2] = np.array(controls)[k - 1 - bit]
    return control[::-1] if mirrored else control


def ladder_angles(alpha: np.ndarray, *, mirrored: bool = False) -> np.ndarray:
    """Rotation angles, in time order, of the ladder of a UCR with block angles alpha.

    These are the Gray-ordered thetas of ``alpha_to_theta``, reversed for
    the mirrored ladder; they fill the rows where the control column is 0.
    """
    theta = alpha_to_theta(alpha)
    return theta[::-1] if mirrored else theta


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
    return Circuit._from_columns(
        c.n, c.control[::-1], c.target[::-1], c.axis[::-1], c.axes, -c.angle[::-1]
    )


def simplify(c: Circuit, *, prune_atol: float | None = None) -> Circuit:
    """Peephole simplification to fixpoint, preserving the circuit unitary.

    A row reduces with the stack top iff their (control, target, axis) agree,
    as CNOT rows carry axis 0: identical CNOTs cancel, and rotations about one
    axis on one target merge by angle addition. Rotations with
    |angle| <= prune_atol after merging are dropped; None (the default) prunes
    nothing, so generic counts keep their closed-form values. No two adjacent
    stack rows share a key, so one pass reaches the fixpoint.
    """
    keys: list[tuple[int, int, int]] = []
    angles: list[float] = []
    rows = zip(c.control.tolist(), c.target.tolist(), c.axis.tolist())
    for key, angle in zip(rows, c.angle.tolist()):
        if keys and keys[-1] == key:
            keys.pop()
            angle += angles.pop()
            if key[0]:
                continue  # identical CNOTs cancel
        if prune_atol is not None and not key[0] and abs(angle) <= prune_atol:
            continue
        keys.append(key)
        angles.append(angle)
    control, target, axis = np.array(keys, dtype=np.int32).reshape(-1, 3).T
    return Circuit._from_columns(c.n, control, target, axis, c.axes, angles)
