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

from .angles import AngleSchedule, angle_schedule, sweep
from .circuit import AXIS_Y, AXIS_Z, Axis, Circuit, _stack_pass, gate_counts, ladder_controls
from .errors import DimensionError
from .gray import alpha_to_theta
from .state import StateVector, check_basis_index, check_qubit_count, phases, wrap_angle

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
    n = check_qubit_count(n)
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
    """A compiled circuit plus the global phase it leaves.

    residual_phase is the global phase of the simulated output relative to
    the target state; it is reported, never corrected with extra gates.
    counts and bounds are read off the circuit, so they always describe it.
    """

    circuit: Circuit
    residual_phase: float

    @property
    def counts(self) -> dict[str, int]:
        return gate_counts(self.circuit)

    @property
    def bounds(self) -> BoundReport:
        return bounds(self.circuit.n)


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
# holds 6.3 MB of columns, 12 bytes per row, which every result of it
# shares and keeps alive once the skeleton is evicted.
SKELETON_CACHE_SIZE = 8


@functools.lru_cache(maxsize=SKELETON_CACHE_SIZE)
def _skeleton(layout: tuple[tuple[int, Axis], ...]) -> tuple[Circuit, tuple[tuple[int, bool], ...]]:
    """simplify's fixpoint of every UCR's ladder laid out in turn, at zero angles.

    ``layout`` holds (target, axis) per UCR. Returns the circuit (read-only
    columns, a zero-stride angle column) and per UCR the row of its
    ladder's first rotation and whether that merged backwards, into the
    row given.
    """
    columns = [
        ladder_controls(t - 1, mirrored=index % 2 == 1)
        for index, (t, _) in enumerate(layout)
    ]
    base = np.zeros((3, sum(ladder.size for ladder in columns)), dtype=np.int32)
    control, target, axis = base
    axes: dict[Axis, int] = {}
    first = []  # row of each ladder's first rotation
    end = 0
    for (t, ax), ladder in zip(layout, columns):
        size = ladder.size
        control[end : end + size] = ladder
        target[end : end + size] = t
        axis[end : end + size] = (ladder == 0) * axes.setdefault(ax, len(axes))
        first.append(end + int(ladder[0] != 0))
        end += size
    n, zero = max(t for t, _ in layout), np.broadcast_to(0.0, end)
    joined = Circuit._from_columns(n, control, target, axis, tuple(axes), zero)
    rows, _ = _stack_pass(joined, -1.0) or (np.arange(end), {})
    # a rotation that merged left no row: the last row kept before it is
    # the one it merged into
    row = np.searchsorted(rows, first, side="right") - 1
    merged = rows[row] != first
    skeleton = Circuit._from_columns(n, *base.take(rows, axis=1), tuple(axes), zero[: rows.size])
    return skeleton, tuple(zip(row.tolist(), merged.tolist()))


def _compile(levels: list[Level], residual: float) -> SynthesisResult:
    """Lower a list of UCR pairs to one circuit, simplified.

    Consecutive UCRs 2m, 2m + 1 form a pair on one target and controls:
    (z, y) in a cascade, (y, z) in an inverse cascade. The second member
    of each pair uses the horizontally mirrored ladder, so its opening
    CNOT faces the first member's closing twin and cancels; this is the
    only pairing that cancels, and it realizes the headline CNOT count.

    Which rows simplify cancels or merges does not depend on the angles,
    so the skeleton is built once per UCR layout and cached; a call only
    computes each ladder's rotation angles, alpha_to_theta of its block
    angles (reversed when mirrored), and writes them into a fresh angle
    column. A ladder's CNOTs keep its rotations apart, so they stay on
    every other row from its first; only the first can meet another
    ladder's row, and if it merged its angle is added to that row's, as
    simplify adds them.
    """
    skeleton, ladders = _skeleton(tuple((t, axis) for t, axis, _ in levels))
    angle = np.zeros(len(skeleton))
    for index, ((_, _, alpha), (row, merged)) in enumerate(zip(levels, ladders)):
        theta = alpha_to_theta(alpha)
        if index % 2:
            theta = theta[::-1]
        rotations = angle[row : row + 2 * alpha.size : 2]
        if merged:
            theta[0] += rotations[0]
        rotations[:] = theta
    circuit = Circuit._from_columns(
        skeleton.n, skeleton.control, skeleton.target, skeleton.axis, skeleton.axes, angle
    )
    return SynthesisResult(circuit=circuit, residual_phase=wrap_angle(residual))


def disentangle(x: StateVector) -> SynthesisResult:
    """Circuit C with C|x> = e^(i phi) |e_1>, phi = mean amplitude phase.

    2**(n+1) - 2n - 2 CNOTs and 2**(n+1) - 2 rotations on generic states.
    """
    schedule = angle_schedule(x)
    return _compile(_cascade(schedule), schedule.mean_phase)


def prepare(a: StateVector, b: StateVector) -> SynthesisResult:
    """Circuit C with C|a> = e^(i phi) |b>, phi = residual_phase.

    Composes the cascade of a with the inverse cascade of b; the junction
    merges the two uncontrolled y-rotations on qubit 1, landing the counts
    on 2**(n+2) - 4n - 4 CNOTs and 2**(n+2) - 5 rotations.
    """
    if a.n != b.n:
        raise DimensionError(f"qubit counts differ: {a.n} vs {b.n}")
    source, target = angle_schedule(a), angle_schedule(b)
    ucrs = _cascade(source) + _inverse(_cascade(target))
    return _compile(ucrs, source.mean_phase - target.mean_phase)


def prepare_from_basis(i: int, b: StateVector) -> SynthesisResult:
    """Circuit C with C|e_(i+1)> = e^(i phi) |b> at half the prepare cost.

    The inverse of the cascade of b relabeled by XOR with i (sending index
    i to 0; for i = 0 that is the inverse of disentangle(b)). The bit-flip
    conjugation is absorbed into the angle schedule: flipping a control
    qubit permutes each level by XOR on the control pattern, flipping the
    target qubit negates the level (X R X = R(-angle) for any y-z axis).
    """
    n = b.n
    i = check_basis_index(i, n)
    omega, relabel = phases(b), np.arange(b.dim) ^ i
    levels = _cascade(sweep(omega[relabel], np.abs(b.amplitudes)[relabel]))
    for index, (j, axis, alpha) in enumerate(levels):
        sign = -1.0 if (i >> (n - j)) & 1 else 1.0
        levels[index] = j, axis, sign * alpha[np.arange(alpha.size) ^ (i >> (n - j + 1))]
    # b's own phases: summing the relabeled ones would reorder the sum
    return _compile(_inverse(levels), -float(np.sum(omega)) / b.dim)
