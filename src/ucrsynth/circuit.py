"""Gate-level IR: elementary gates, UCR nodes, lowering and peephole passes.

Gate semantics follow the convention R_a(angle) = exp(+i a.sigma angle/2),
with the rotation axis restricted to the y-z plane (a_x = 0); see
``rot_matrix``. Qubits are 1-based, qubit 1 = most significant bit of the
amplitude index.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from .gray import alpha_to_theta
from .state import _instances, check_qubit_count

AXIS_ATOL = 1e-12

# Most controls ucr_matrix builds a dense matrix for (2**11 rows).
MAX_UCR_CONTROLS = 10


@dataclass(frozen=True, slots=True)
class Axis:
    """Rotation axis (0, ay, az) in the y-z plane, unit length."""

    ay: float
    az: float

    def __post_init__(self):
        if not _instances((self.ay, self.az), Real):
            raise ValueError(f"axis ({self.ay!r}, {self.az!r}) has a non-real component")
        try:
            object.__setattr__(self, "ay", float(self.ay))
            object.__setattr__(self, "az", float(self.az))
        except OverflowError:
            raise ValueError("axis has a component beyond the float range") from None
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
        try:
            object.__setattr__(self, "controls", tuple(self.controls))
        except TypeError:
            raise ValueError(f"UCR controls must be an iterable, got {self.controls!r}") from None
        angles = np.array(self.angles, dtype=object)
        if not _instances(angles.flat, Real):
            raise ValueError("UCR angles must be real numbers: ints or floats, not bools")
        object.__setattr__(
            self, "angles", _column(angles, np.float64, "UCR angles must lie within the float range")
        )
        if not isinstance(self.axis, Axis):
            raise ValueError(f"UCR axis must be an Axis, got {self.axis!r}")
        if not _instances((self.target, *self.controls), Integral):
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

    def __reduce__(self):  # copies and pickles rebuild through the checks: read-only angles
        return type(self), (self.controls, self.target, self.axis, self.angles)


class Circuit:
    """Time-ordered elementary gate list held as parallel numpy columns.

    Row r is gate r (row 0 is applied first): Cnot(control[r], target[r])
    when control[r] > 0, else Rot(axes[axis[r]], target[r], angle[r]).
    Qubits are 1-based, so control 0 is free to mark a rotation; CNOT rows
    carry axis 0 and angle 0. ``axes`` holds distinct axis values. The
    columns and their owning arrays are read-only; circuits may share columns.

    ``Circuit(n, gates)`` converts and checks gate objects at the boundary
    and returns the circuit ``_check`` builds. Copies and pickles rebuild
    through ``_from_columns``, so their columns are read-only too. ``gates``
    builds fresh gate objects on every access; ``len`` and the columns do not.
    """

    __slots__ = ("n", "control", "target", "axis", "axes", "angle")  # _from_columns's order

    def __new__(cls, n: int, gates: Iterable[Gate] = ()) -> Circuit:
        gates = tuple(gates)
        cnot = [isinstance(g, Cnot) for g in gates]
        index: dict[Axis, int] = {}
        try:
            control = [g.control if c else 0 for g, c in zip(gates, cnot)]
            target = [g.target for g in gates]
            axis = [0 if c else index.setdefault(g.axis, len(index)) for g, c in zip(gates, cnot)]
            angle = [0.0 if c else g.angle for g, c in zip(gates, cnot)]
        except (AttributeError, TypeError):  # not a gate, or an unhashable axis
            ok = False
        else:
            ok = _instances(gates, (Cnot, Rot)) and _instances(index, Axis)
            ok = ok and _instances(control + target, Integral) and _instances(angle, Real)
        for g in () if ok else gates:  # word the first gate at fault
            rot = isinstance(g, Rot)
            if not isinstance(g, (Cnot, Rot)) or rot and not isinstance(g.axis, Axis):
                raise ValueError(f"gate {g!r} is not a Cnot or a Rot about an Axis")
            if not _instances((g.target, 1 if rot else g.control), Integral):
                raise ValueError(f"gate {g} has a non-integer qubit index")
            if rot and not _instances([g.angle], Real):
                raise ValueError(f"gate {g} has a non-real angle")
        return cls._check(n, cnot, control, target, axis, tuple(index), angle)

    @classmethod
    def _from_columns(cls, n, control, target, axis, axes, angle) -> Circuit:
        """Trusted constructor for columns built inside the package: no check."""
        c, qubit = object.__new__(cls), f"qubit index outside 1..{n}"
        for name, value in (
            ("n", n),
            ("axes", tuple(axes)),
            ("control", _column(control, np.int32, qubit)),
            ("target", _column(target, np.int32, qubit)),
            ("axis", _column(axis, np.int32)),
            ("angle", _column(angle, np.float64, "angle beyond the float range")),
        ):
            object.__setattr__(c, name, value)
        return c

    def __reduce__(self):  # copy, deepcopy and pickle rebuild read-only columns
        return type(self)._from_columns, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        # a rebound column could be a writable array, which a kept run plan
        # would no longer describe once written to
        raise AttributeError(f"cannot set {name!r}: a Circuit is immutable")

    @classmethod
    def _check(cls, n, cnot, control, target, axis, axes, angle) -> Circuit:
        """Constructor for columns from outside the package, checked in this
        order: n an integer >= 1; qubits within int32 and angles within
        float64; CNOT control != target, qubits in 1..n, finite angles.

        ``cnot`` marks the CNOT rows, since a CNOT read with control 0 is
        indistinguishable from a rotation in the columns alone.
        """
        out = cls._from_columns(check_qubit_count(n), control, target, axis, axes, angle)
        n, cnot, control, target = out.n, np.asarray(cnot, dtype=bool), out.control, out.target
        coincide = cnot & (control == target)
        if coincide.any():
            q = int(control[np.argmax(coincide)])
            raise ValueError(f"cnot control and target coincide on qubit {q}")
        bad_control = cnot & ((control < 1) | (control > n))
        bad = bad_control | (target < 1) | (target > n) | ~np.isfinite(out.angle)
        if bad.any():
            r = int(np.argmax(bad))
            c, t, angle = int(control[r]), int(target[r]), float(out.angle[r])
            g = Cnot(c, t) if cnot[r] else Rot(out.axes[out.axis[r]], t, angle)
            if not (1 <= t <= n) or bad_control[r]:
                q = c if bad_control[r] else t
                raise ValueError(f"gate {g} references qubit {q} outside 1..{n}")
            raise ValueError(f"gate {g} has a non-finite angle")
        return out

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
        # what __eq__ compares, less the axes, whose numbering may differ
        # between equal circuits; + 0.0 folds -0.0, which equals 0.0
        rot = self.angle[self.control == 0] + 0.0
        return hash((self.n, self.control.tobytes(), self.target.tobytes(), rot.tobytes()))

    def __repr__(self) -> str:
        return f"Circuit(n={self.n!r}, gates={self.gates!r})"


# Rows turned into gate objects per step of Circuit.__iter__: bounds the
# Python lists alive at once while keeping the per-row cost low.
_CHUNK = 4096


def _column(values, dtype, overflow: str = "") -> np.ndarray:
    """Read-only column whose owning array is read-only too; an integer from
    outside the package that the dtype cannot hold raises ValueError(overflow)."""
    wrap = dtype is np.int32 and getattr(values, "dtype", dtype) != dtype  # a cast would wrap
    if wrap and ((values < -(2**31)) | (values >= 2**31)).any():
        raise ValueError(overflow)
    try:
        out = np.asarray(values, dtype=dtype)
    except OverflowError:
        raise ValueError(overflow) from None
    out.flags.writeable = False
    if isinstance(out.base, np.ndarray):  # no view of it can be made writable
        out.base.flags.writeable = False
    return out


def gate_counts(c: Circuit) -> dict[str, int]:
    """Exact counts by gate kind."""
    cnot = int(np.count_nonzero(c.control))
    return {"cnot": cnot, "rot": len(c) - cnot}


def lower_ucr(g: UcrGate, n: int | None = None, *, mirrored: bool = False) -> Circuit:
    """Decompose a UCR into its CNOT ladder of 2**k rotations and 2**k CNOTs.

    The ladder alternates Rot(theta_t) on the target with a CNOT on
    controls[k - 1 - min(ctz(s), k - 1)] for CNOT s = 1..2**k: the control
    whose bit flips between Gray codes s - 1 and s, cyclically (see
    ``ladder_controls``). ``mirrored`` emits the reversed, equally valid
    sequence, which opens with the closing CNOT; k = 0 is a single rotation.
    The ladder passes the check of ``Circuit(n, gates)``.
    """
    n = max((g.target, *g.controls)) if n is None else n
    position = ladder_controls(g.k, mirrored=mirrored)
    with np.errstate(over="ignore", invalid="ignore"):  # _check words a non-finite angle
        theta = alpha_to_theta(g.angles)
    angle = np.zeros(position.size)
    angle[position == 0] = theta[::-1] if mirrored else theta
    # qubits at their own width, which _check narrows to int32 or refuses
    control, target = np.array((0, *g.controls))[position], np.full(position.size, g.target)
    axis = np.zeros_like(position)
    return Circuit._check(n, position > 0, control, target, axis, (g.axis,), angle)


def ladder_controls(k: int, *, mirrored: bool = False) -> np.ndarray:
    """Control column of the ladder of a UCR with k controls, for any angles.

    Rows alternate rotation (0) and CNOT; CNOT s = 1..2**k sits on control
    position k - min(ctz(s), k - 1), ctz(s) = popcount((s & -s) - 1), since
    bit ctz(s) flips between Gray codes s - 1 and s and the closing CNOT
    flips bit k - 1. CNOTs 1..2**k - 1, the ruler sequence, read the same
    reversed, so the mirrored column opens with the closing CNOT.
    """
    if not k:
        return np.zeros(1, dtype=np.int32)
    control = np.zeros(2 << k, dtype=np.int32)
    s = np.arange(1, (1 << k) + 1)
    control[1::2] = k - np.minimum(np.bitwise_count((s & -s) - 1), k - 1)
    return control[::-1] if mirrored else control


def ucr_matrix(g: UcrGate) -> np.ndarray:
    """Block-diagonal definition diag(R(angles[0]), ..., R(angles[-1])).

    Matrix indices run over (control pattern, target bit), target least
    significant. This is the oracle the ladder lowering is tested against.
    """
    if g.k > MAX_UCR_CONTROLS:
        raise ValueError(f"{g.k} controls exceeds the {MAX_UCR_CONTROLS}-control cap")
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

    The rule has three steps. First every rotation with |angle| <= prune_atol
    is dropped; None (the default) prunes nothing, so generic counts keep
    their closed-form values. Then each block, a maximal run of adjacent
    CNOTs into one target, keeps the last CNOT of each control that occurs
    in it an odd number of times: CNOTs into one target commute and two
    with one control cancel, so pruning a ladder's rotations also cancels
    the CNOTs it leaves into one target. Then a stack pass runs over the
    rows left, in time order: an arriving CNOT looks down the top block for
    its twin, and both go if it is there; rotations about one axis on one
    target merge by angle addition, left to right, and a merge that lands
    within prune_atol pops both rows, exposing the rows below. No stack
    block repeats a control and no two adjacent stack rows share a
    (control, target, axis) key, so one pass reaches the fixpoint.

    Each rotation dropped or popped moves the unitary by at most
    prune_atol/2 in operator norm, since |R(a) - I| = 2|sin(a/4)| <= |a|/2.
    A merge beyond the float range raises ValueError as it is made.
    """
    if prune_atol is not None and not (_instances([prune_atol], Real) and 0 <= prune_atol < math.inf):
        raise ValueError(f"prune_atol must be a finite number >= 0, got {prune_atol!r}")
    if prune_atol is None:
        atol = -1.0
    else:  # the largest float <= prune_atol, which every float compares with alike
        try:
            atol = float(prune_atol)
        except OverflowError:  # an int or Fraction beyond the float range
            atol = sys.float_info.max
        atol = math.nextafter(atol, 0.0) if atol > prune_atol else atol
    control, target, axis, angle = c.control, c.target, c.axis, c.angle
    reduced = _stack_pass(c, atol)
    if reduced is not None:
        rows, merged = reduced
        control, target, axis, angle = control[rows], target[rows], axis[rows], angle[rows]
        angle[np.searchsorted(rows, list(merged))] = list(merged.values())
    return Circuit._from_columns(c.n, control, target, axis, c.axes, angle)


def _stack_pass(c: Circuit, atol: float) -> tuple[np.ndarray, dict[int, float]] | None:
    """simplify's rule on the rows of c, pruning rotations within atol
    (none if atol < 0): None if no row reduces or is dropped, else the rows
    that stay, in order, and the angle of each merged one by row. A merge
    beyond the float range raises ValueError as it is made.

    The tiny rotations go out with one mask, the blocks with one table of
    (block, control) counts and last rows; the stack is then the rows
    before the current one, less those that left. Only a rotation whose
    key repeats the previous row's, the row after a block that went whole,
    or a row after one that left or after a CNOT that met a block can
    reduce: a row that stays leaves its key on the top, and a CNOT right
    after a CNOT into its target shares its block, of distinct controls.
    """
    # one integer per key, negative for rotations: a CNOT row's key tells
    # its target, a rotation row's its axis and target, since only CNOT rows
    # have control > 0 and they carry axis 0; int32 holds it for all but
    # huge n or axes
    span = min(c.n, 2**31 - 1) + 1
    key = np.minimum(c.control, 1) - c.axis
    if (max(c.n, len(c.axes)) + 1) * span >= 2**31:
        key = key.astype(np.int64)
    key *= span
    key -= c.target
    keep, angle, at = None, c.angle, int
    if atol >= 0:  # two bool masks, not a float temporary of every row
        tiny = (key < 0) & (-atol <= angle) & (angle <= atol)
        if tiny.any():
            keep = np.flatnonzero(~tiny)
            key = key[keep]
    hot = (key[1:] == key[:-1]).nonzero()[0] + 1
    link = hot[key[hot] > 0] - 1  # rows p, p + 1 in one block
    if link.size:  # each control of a block keeps its last row if it occurs an odd number of times
        end = np.concatenate(((link[1:] != link[:-1] + 1).nonzero()[0], [link.size - 1]))  # in link
        rows, block = np.concatenate((link, link[end] + 1)), np.arange(end.size)
        block = np.concatenate((np.repeat(block, np.diff(end, prepend=-1)), block))
        pair = block * span + c.control[rows if keep is None else keep[rows]]
        if end.size * span > 8 * key.size:  # wide qubits: number the pairs seen
            pair = np.unique(pair, return_inverse=True)[1]
        count = np.bincount(pair)
        last = np.zeros(count.size, np.intp)
        np.maximum.at(last, pair, np.arange(rows.size))
        odd = last[(count & 1).astype(bool)]
        stay = np.ones(key.size, bool)
        stay[rows] = False
        stay[rows[odd]] = True
        stay = stay.nonzero()[0]
        # hot by position among the rows that stay, with the row after each block that went
        whole = np.bincount(block[odd], minlength=end.size) == 0
        hot = np.searchsorted(stay, np.concatenate((hot[key[hot] < 0], link[end[whole]] + 2)))
        keep, at = stay if keep is None else keep[stay], stay.item
    hot = sorted({*hot.tolist(), key.size if keep is None else keep.size})
    if keep is None:
        if len(hot) == 1:
            return None
        keep = np.arange(key.size)

    # down[r] for a row r that left: a row below it to look at instead
    down: dict[int, int] = {}
    merged: dict[int, float] = {}
    i = h = 0
    while i < keep.size:
        if i < hot[h]:  # push rows up to the next hot one as they are
            i = hot[h]
            continue
        k, p = key.item(at(i)), i - 1
        while p in down:  # the top
            p = down[p]
        kp = key.item(at(p)) if p >= 0 else 0
        step = kp == k and k > 0
        if step:  # a CNOT meets its block: look down it for the twin
            q, control = p, c.control.item(keep.item(i))
            while q >= 0 and key.item(at(q)) == k:
                if c.control.item(keep.item(q)) == control:
                    down[q], down[i] = q - 1, p
                    break
                q -= 1
                while q in down:
                    q = down[q]
        elif kp == k:  # rotations merge, unless the sum is within atol
            a = merged.pop(p, angle.item(keep.item(p))) + angle.item(keep.item(i))
            down[i] = p
            if abs(a) <= atol:
                down[p], step = p - 1, True
            elif not math.isfinite(a):  # how finite rows can gain an inf
                r = keep.item(p)
                g = Rot(c.axes[c.axis.item(r)], c.target.item(r), a)
                raise ValueError(f"gate {g} has a non-finite angle")
            else:
                merged[p] = a
        i += 1
        if not step:  # the next row faces row i - 1 or its key
            while hot[h] < i:
                h += 1
    rows = np.delete(keep, list(down)) if down else keep
    return rows, {keep.item(p): a for p, a in merged.items()}
