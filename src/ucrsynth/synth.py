"""Top-level compiler: disentangling cascades and state-to-state mapping.

A state is driven to the first basis vector by one z/y pair of uniformly
controlled rotations per qubit, last qubit first. Chaining one cascade with
the inverse of another maps any state onto any other, up to a reported
global phase. Gate counts land exactly on the closed-form bounds when no
rotation angle degenerates to zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .angles import AngleSchedule, angle_schedule
from .circuit import (
    AXIS_Y,
    AXIS_Z,
    Axis,
    Circuit,
    gate_counts,
    ladder_angles,
    ladder_controls,
)
from .errors import DimensionError
from .state import StateVector, check_qubit_count, phases, wrap_angle

__all__ = [
    "BoundReport",
    "SynthesisResult",
    "bounds",
    "disentangle",
    "prepare",
    "prepare_from_basis",
]


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Closed-form gate-count bounds for n qubits.

    qr_comparison_cnot is the 12.6 * 2**n CNOT cost of generic-unitary
    synthesis via QR decomposition, reported for reference only.
    """

    n: int
    upper_cnot: int
    upper_rot: int
    lower_rot: int
    lower_cnot: int
    qr_comparison_cnot: float


def bounds(n: int) -> BoundReport:
    check_qubit_count(n)
    return BoundReport(
        n=n,
        upper_cnot=(1 << (n + 2)) - 4 * n - 4,
        upper_rot=(1 << (n + 2)) - 5,
        lower_rot=(1 << (n + 1)) - 2,
        lower_cnot=math.ceil(((1 << (n + 1)) - 3 * n - 2) / 4),
        qr_comparison_cnot=12.6 * (1 << n),
    )


@dataclass(frozen=True)
class SynthesisResult:
    """A compiled circuit plus the phase and count bookkeeping around it.

    residual_phase is the global phase of the simulated output relative to
    the target state; it is reported, never corrected with extra gates.
    """

    circuit: Circuit
    residual_phase: float
    counts: dict[str, int]
    bounds: BoundReport


def _mean_phase(x: StateVector) -> float:
    """Mean per-amplitude phase, zeros counted as phase 0."""
    return float(np.sum(phases(x))) / x.dim


Level = tuple[int, Axis, np.ndarray]  # one UCR: target, axis, block angles


def _cascade(schedule: AngleSchedule) -> list[Level]:
    """UCR pair per qubit, time order j = n down to 1, z before y; the pair
    on target j is controlled by qubits 1..j-1."""
    n = schedule.n
    out = []
    for j in range(n, 0, -1):
        out.append((j, AXIS_Z, schedule.z_levels[n - j]))
        out.append((j, AXIS_Y, schedule.y_levels[n - j]))
    return out


def _inverse(cascade: list[Level]) -> list[Level]:
    """Inverse of a UCR list: UCRs in reverse order, angles negated."""
    return [(t, axis, -alpha) for t, axis, alpha in reversed(cascade)]


# Most cascade skeletons kept at once. One qubit count uses three layouts
# (disentangle, prepare, prepare_from_basis); a prepare skeleton at n = 16
# holds 6.3 MB.
SKELETON_CACHE_SIZE = 8


@functools.lru_cache(maxsize=SKELETON_CACHE_SIZE)
def _skeleton(layout: tuple[tuple[int, Axis], ...]) -> tuple[Circuit, tuple[tuple[int, bool], ...]]:
    """Lay every UCR's ladder out in turn and apply the seam rule (see _compile).

    ``layout`` holds (target, axis) per UCR. Returns the circuit at zero
    angles (read-only columns, a zero-stride angle column) and per UCR the
    row of its ladder's first rotation and whether that merged backwards.
    """
    columns = [
        ladder_controls(tuple(range(1, t)), mirrored=index % 2 == 1)
        for index, (t, _) in enumerate(layout)
    ]
    base = np.zeros((3, sum(ladder.size for ladder in columns)), dtype=np.int32)
    control, target, axis = base
    axes: dict[Axis, int] = {}
    rows = []
    end = 0  # rows written so far
    for index, ((t, ax), ladder) in enumerate(zip(layout, columns)):
        a = axes.setdefault(ax, len(axes))
        head = ladder[0], t, 0 if ladder[0] else a
        skip = end > 0 and (control[end - 1], target[end - 1], axis[end - 1]) == head
        merged = skip and not head[0]
        if skip and head[0]:
            end -= 1  # identical CNOTs cancel
        size = ladder.size - skip
        control[end : end + size] = ladder[skip:]
        target[end : end + size] = t
        axis[end : end + size] = (ladder[skip:] == 0) * a
        # ladder row r sits at output row end - skip + r; a mirrored ladder
        # of more than one row opens with a CNOT
        rows.append((end - skip + (index % 2 == 1 and ladder.size > 1), merged))
        end += size
    base.flags.writeable = False
    n, zero = max(t for t, _ in layout), np.broadcast_to(0.0, end)
    return Circuit._from_columns(n, *base[:, :end], tuple(axes), zero), tuple(rows)


def _compile(n: int, levels: list[Level], residual: float) -> SynthesisResult:
    """Lower a list of UCR pairs to one circuit, cancel at the seams and count it.

    Consecutive UCRs 2m, 2m + 1 form a pair on one target and controls:
    (z, y) in a cascade, (y, z) in an inverse cascade. The second member
    of each pair uses the horizontally mirrored ladder, so its opening
    CNOT faces the first member's closing twin and cancels; this is the
    only pairing that cancels, and it realizes the headline CNOT count.

    Ladders alternate rotations and CNOTs, so only the two gates facing
    each other across a seam can reduce: identical CNOTs cancel, rotations
    with one target and axis merge by angle addition. What either exposes
    is a pair of rotations about different axes (the z and y members of a
    pair), so nothing reduces further and the result equals simplify's
    fixpoint of the joined ladders.

    None of this depends on the angles, so the gate columns are built once
    per UCR layout and cached; a call only computes each ladder's rotation
    angles and writes them into a fresh angle column.
    """
    skeleton, ladders = _skeleton(tuple((t, axis) for t, axis, _ in levels))
    angle = np.zeros(len(skeleton))
    for index, ((_, _, alpha), (row, merged)) in enumerate(zip(levels, ladders)):
        theta = ladder_angles(alpha, mirrored=index % 2 == 1)
        if merged:
            angle[row] += theta[0]
            row, theta = row + 2, theta[1:]
        angle[row : row + 2 * theta.size : 2] = theta
    circuit = Circuit._from_columns(
        n, skeleton.control, skeleton.target, skeleton.axis, skeleton.axes, angle
    )
    return SynthesisResult(
        circuit=circuit,
        residual_phase=wrap_angle(residual),
        counts=gate_counts(circuit),
        bounds=bounds(n),
    )


def disentangle(x: StateVector) -> SynthesisResult:
    """Circuit C with C|x> = e^(i phi) |e_1>, phi = mean amplitude phase.

    2**(n+1) - 2n - 2 CNOTs and 2**(n+1) - 2 rotations on generic states.
    """
    return _compile(x.n, _cascade(angle_schedule(x)), _mean_phase(x))


def prepare(a: StateVector, b: StateVector) -> SynthesisResult:
    """Circuit C with C|a> = e^(i phi) |b>, phi = residual_phase.

    Composes the cascade of a with the inverse cascade of b; the junction
    merges the two uncontrolled y-rotations on qubit 1, landing the counts
    on 2**(n+2) - 4n - 4 CNOTs and 2**(n+2) - 5 rotations.
    """
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    ucrs = _cascade(angle_schedule(a)) + _inverse(_cascade(angle_schedule(b)))
    return _compile(a.n, ucrs, _mean_phase(a) - _mean_phase(b))


def prepare_from_basis(i: int, b: StateVector) -> SynthesisResult:
    """Circuit C with C|e_(i+1)> = e^(i phi) |b> at half the prepare cost.

    The inverse of the cascade of b relabeled by XOR with i (sending index
    i to 0; for i = 0 that is the inverse of disentangle(b)). The bit-flip
    conjugation is absorbed into the angle schedule: flipping a control
    qubit permutes each level by XOR on the control pattern, flipping the
    target qubit negates the level (X R X = R(-angle) for any y-z axis).
    """
    n = b.n
    if not 0 <= i < b.dim:
        raise ValueError(f"basis index {i} out of range for n={n}")
    levels = _cascade(angle_schedule(StateVector(n, b.amplitudes[np.arange(b.dim) ^ i])))
    for index, (j, axis, alpha) in enumerate(levels):
        sign = -1.0 if (i >> (n - j)) & 1 else 1.0
        levels[index] = j, axis, sign * alpha[np.arange(alpha.size) ^ (i >> (n - j + 1))]
    return _compile(n, _inverse(levels), -_mean_phase(b))
