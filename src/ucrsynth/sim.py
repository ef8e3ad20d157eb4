"""Dense statevector simulation: the verification oracle for everything else.

Public operations have value semantics (state in, new state out) and work
on private copies. Qubit q of an n-qubit register lives at bit position
n - q of the amplitude index, which is axis q - 1 of the amplitudes
reshaped to (2,) * n.

``apply_circuit`` and ``circuit_unitary`` are run-fused. A run of
consecutive gates into one target qubit t (CNOTs into t, rotations on t
about one axis) acts on each control pattern p as X**s(p) R_axis(phi(p)),
because X R_a(theta) X = R_a(-theta) for every y-z axis. phi is the
Walsh-Hadamard transform of the run's rotation angles bucketed by the
CNOT-control mask in force at each rotation, and s(p) is the parity of p
against the mask at the end of the run: the UCR ladder identity read
backwards. The masks hold each control at its bit of the amplitude
index, and a rotation's bucket gathers the run's control bits of its mask
one by one.

X**s(p) is folded into the next run when that run has the same target and
its controls cover the closing mask: the next run buckets its rotations
against the mask the amplitudes have actually been swapped by. XOR-shifting
a Walsh-Hadamard transform's input flips the signs of its output, which
is X R_a(theta) X = R_a(-theta) again, so the fold costs nothing per call.
Each z/y UCR pair of a synthesized cascade shares its target and controls
and its mask cancels over the pair, so no run of a synthesized circuit
closes with swaps. A mask that is left is one CNOT swap per control.

A UCR is block-diagonal, one 2x2 rotation per control pattern, and every
run reads its 2x2 from one phase table e = exp(i phi / 2) = c + i s. A run
whose controls all sit above its target (every run of a synthesized
circuit) and whose axis is exactly +-y or +-z views the amplitudes as
(pattern axes..., 2, rest) and is one numpy call, with f = e about +y or
+z and f = conj(e) about -y or -z: a y run one ``np.matmul`` of its
per-pattern real matrices [[c, ay s], [-ay s, c]], whose rows are the
float pairs of f and i f, with the float64 view of the amplitudes,
written into a spare buffer that then trades places with them, and a z
run one in-place multiply by its per-pattern diagonal (f, conj(f)). Any
other run, with a control below its target or about any other y-z axis,
near-unit ones such as (1 - 4e-13, 0) that AXIS_ATOL admits included,
takes the general form with c = e.real and s = e.imag: one in-place pass
over the amplitude pairs.

Only the angles change between results of one gate layout, so a pass has
two steps. ``_run_plan`` reads the control, target and axis columns and
returns the runs, each with its form, closing swaps and phase-table
shape, and every rotation's slot in one phase table, where the runs are
stacked by control count k. A call then builds the table (``_phase_table``):
one bincount bins all angles at quarter scale, one transform per k's stack
gives phi / 4, and one tan t = tan(phi / 4) gives c = 2 / (1 + t**2) - 1
and s = 2 t / (1 + t**2); per run it makes only its one product or pass
and the swaps.
Every circuit reaches its plan through one cache of the 16 most recently
used, keyed by n_bits and the three columns, so the results of a skeleton
and pruned or loaded circuits with equal columns share one plan. A plan
holds 16 B per rotation, its slot and row as intp (4.2 MB for a prepare
circuit at n = 16, 262 kB at n = 12); an entry whose columns no skeleton
shares keeps them too, 12 B a row (6.3 MB).
``apply_gate`` applies one gate by its 2x2 matrix and is the per-gate
oracle the fused pass is tested against.
"""

from __future__ import annotations

import itertools
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Cnot, Gate, UcrGate, rot_matrix
from .errors import DimensionError
from .gray import _fwht
from .state import StateVector, _instances

__all__ = ["apply_gate", "apply_circuit", "apply_ucr", "circuit_unitary"]

# Largest qubit count circuit_unitary builds a dense matrix for (16 MiB).
MAX_UNITARY_QUBITS = 10


def _check_qubits(n: int, *qubits: int) -> None:
    for q in qubits:
        if not _instances([q], Integral):
            raise ValueError(f"qubit index must be an integer, got {q!r}")
        if not 1 <= q <= n:
            raise DimensionError(f"qubit {q} out of range for an {n}-qubit register")


def _rot(amps: np.ndarray, t_pos: int, r00, r01, r10, r11) -> None:
    """Apply a 2x2 matrix to the qubit at bit position t_pos, in place."""
    view = amps.reshape(-1, 2, 1 << t_pos)
    a0 = view[:, 0].copy()
    a1 = view[:, 1]
    view[:, 0] = r00 * a0 + r01 * a1
    view[:, 1] = r10 * a0 + r11 * a1


def _cnot(amps: np.ndarray, c_pos: int, t_pos: int) -> None:
    """Swap amplitude pairs whose control bit is set, in place."""
    lo, hi = sorted((c_pos, t_pos))
    view = amps.reshape(-1, 2, 1 << (hi - 1 - lo), 2, 1 << lo)
    clear = view[:, 1, :, 0] if c_pos == hi else view[:, 0, :, 1]  # target bit clear
    saved = clear.copy()
    clear[...] = view[:, 1, :, 1]
    view[:, 1, :, 1] = saved


class _Run(NamedTuple):
    """One run of a plan on the (2,) * n_bits view of the amplitudes, where
    qubit q is axis q - 1 and axis i is flat index bit n_bits - 1 - i."""

    t_axis: int  # the target's axis
    axis: int | None  # index into the circuit's axes, None without rotations
    slots: slice | None  # its phase table, None without rotations
    shape: tuple[int, ...]  # its phase table's shape on the axes other than the target's
    batched: bool  # every control is above the target: exact +-y and +-z runs take the batched form
    swaps: tuple[int, ...]  # flat index bit of each control of its closing CNOTs


class _Plan(NamedTuple):
    """What simulating a circuit needs besides its angles; see _run_plan."""

    rots: np.ndarray  # rotation rows
    bucket: np.ndarray  # per rotation row, its slot in the phase table
    size: int  # phase table length
    groups: tuple[tuple[int, int, int], ...]  # (k, first slot, end slot) per control count
    runs: tuple[_Run, ...]


def _run_plan(c: Circuit, n_bits: int) -> _Plan:
    """Plan a run-by-run pass of c over 2**n_bits amplitudes (qubit q on bit
    n_bits - q) from its control, target and axis columns alone.

    A run starts where the target changes, and at a rotation about another
    axis than the rotation before it, even one on another target: that
    exactly splits the CNOTs ahead of it into a run of their own. A run
    with k controls owns 2**k consecutive slots of one phase table, in
    which the runs are grouped by k so that each group transforms as one
    stack.

    ``applied`` is the control mask whose swaps the amplitudes have had;
    the fold and the two forms are in the module docstring. A run without
    rotations is dropped if its closing swaps were folded away.
    """
    new_run = np.ones(len(c), dtype=bool)
    new_run[1:] = c.target[1:] != c.target[:-1]
    rots = np.flatnonzero(c.control == 0)
    prev, cur = rots[:-1], rots[1:]
    new_run[cur[c.axis[cur] != c.axis[prev]]] = True
    starts = np.flatnonzero(new_run)
    # a CNOT toggles its control's index bit; a rotation (control 0) toggles
    # bit n_bits, which no qubit reads
    bits = np.left_shift(1, n_bits - c.control, dtype=np.int64)
    mask = np.bitwise_xor.accumulate(bits)  # running control mask from row 0
    reach = (1 << n_bits) - 1
    used = (np.bitwise_or.reduceat(bits, starts) & reach).tolist()
    after = (mask[np.append(starts[1:], len(c)) - 1] & reach).tolist()
    bounds = np.searchsorted(rots, np.append(starts, len(c))).tolist()
    k = [u.bit_count() for u in used]
    first, groups, size = {}, [], 0  # first slot per run with rotations
    rotating = (j for j in range(starts.size) if bounds[j] < bounds[j + 1])
    for kj, members in itertools.groupby(sorted(rotating, key=k.__getitem__), k.__getitem__):
        begin = size
        for j in members:
            first[j] = size
            size += 1 << kj
        groups.append((kj, begin, size))
    masks = mask[rots]
    bucket = np.empty(rots.size, dtype=np.intp)
    targets = c.target[starts].tolist()
    runs, applied = [], 0
    for j, (t, start, end) in enumerate(zip(targets, bounds, bounds[1:])):
        base, close = applied, after[j] ^ applied
        if j + 1 < len(targets) and targets[j + 1] == t and not close & ~used[j + 1]:
            close = 0
        applied ^= close
        if start == end and not close:
            continue
        t_axis, bits_j = t - 1, [b for b in range(n_bits) if used[j] >> b & 1]
        swaps = tuple(b for b in bits_j if close >> b & 1)
        if start == end:
            runs.append(_Run(t_axis, None, None, (), False, swaps))
            continue
        # a rotation's slot is the run's first slot plus its control bits,
        # gathered from the lowest index bit up, so the (2,) * k table
        # reshapes straight onto the control axes
        m = masks[start:end] ^ base
        slot = np.full(m.size, first[j], dtype=np.int64)
        for i, b in enumerate(bits_j):
            slot += ((m >> b) & 1) << i
        bucket[start:end] = slot
        # the target axis drops out of the pair views
        axes = [n_bits - 1 - b for b in bits_j]
        shape = [1] * (n_bits - 1)
        for ax in axes:
            shape[ax - (ax > t_axis)] = 2
        slots = slice(first[j], first[j] + (1 << k[j]))
        batched = all(ax < t_axis for ax in axes)
        runs.append(_Run(t_axis, int(c.axis[rots[start]]), slots, tuple(shape), batched, swaps))
    return _Plan(rots, bucket, size, tuple(groups), tuple(runs))


_PLAN_CACHE_SIZE = 16  # run plans kept; see the module docstring
_plans: list[tuple] = []  # (n_bits, control, target, axis, plan), most recent first


def _plan(c: Circuit, n_bits: int) -> _Plan:
    """The kept plan for n_bits and c's columns (by identity, then value), or a new one."""
    key = n_bits, c.control, c.target, c.axis
    hits = (e for e in _plans if all(a is b or np.array_equal(a, b) for a, b in zip(e, key)))
    entry = next(hits, None) or (*key, _run_plan(c, n_bits))
    _plans[:] = [entry, *(e for e in _plans if e is not entry)][:_PLAN_CACHE_SIZE]
    return entry[-1]


def _phase_table(c: Circuit, plan: _Plan) -> np.ndarray:
    """exp(i phi / 2) for every slot of plan's phase table, phi the slot's
    rotation angle, from c's angles.

    One bincount bins the angles at quarter scale and one transform per
    control count turns the table into phi / 4; then t = tan(phi / 4) gives
    cos(phi / 2) = 2 / (1 + t**2) - 1 and sin(phi / 2) = 2 t / (1 + t**2),
    written as the real and imaginary parts of one complex array. Scaling
    by a power of two commutes exactly with the +-1 sums of the transform.
    """
    quarter = 0.25 * np.bincount(plan.bucket, weights=c.angle[plan.rots], minlength=plan.size)
    for k, lo, hi in plan.groups:
        quarter[lo:hi] = _fwht(quarter[lo:hi].reshape(-1, 1 << k)).reshape(-1)
    t = np.tan(quarter, out=quarter)
    d = 2.0 / (1.0 + t * t)
    e = np.empty(plan.size, dtype=np.complex128)
    parts = e.view(np.float64).reshape(-1, 2)
    parts[:, 0] = d - 1.0
    np.multiply(t, d, out=parts[:, 1])
    return e


def _apply_fused(amps: np.ndarray, c: Circuit, n_bits: int) -> np.ndarray:
    """Run c over amps (2**n_bits entries, qubit q on axis q - 1) run by run
    and return the buffer that holds the result: amps or a new one.

    Every run reads its 2x2 from one phase table of exp(i phi / 2); then
    each run is one numpy product in the batched form, or one in-place pass
    over the amplitude pairs in the general form, and its closing swaps. A
    batched y run writes into a spare buffer, which then trades places with
    the amplitudes.
    """
    if not len(c):
        return amps
    plan = _plan(c, n_bits)
    e = _phase_table(c, plan)
    flat, spare = amps, np.empty_like(amps)
    for t_axis, a, slots, shape, batched, swaps in plan.runs:
        if a is not None:
            axis = c.axes[a]
            unit = axis.ay + axis.az
            if batched and 0.0 in (axis.ay, axis.az) and abs(unit) == 1.0:  # exactly +-y or +-z
                # f = c + i s about +y or +z, c - i s about -y or -z
                f = e[slots] if unit > 0.0 else e[slots].conj()
                # (pattern axes..., 2, rest) with one 2x2 matrix per pattern
                pattern, cut = shape[:t_axis], (2,) * t_axis + (2, -1)
                if axis.ay:
                    # rows (c, ay s) and (-ay s, c) are the float pairs of f and i f;
                    # real matrices act on the real and imaginary parts alike
                    m = np.stack((f, 1j * f), axis=1).view(np.float64).reshape(pattern + (2, 2))
                    np.matmul(m, flat.view(np.float64).reshape(cut),
                              out=spare.view(np.float64).reshape(cut))
                    flat, spare = spare, flat
                else:
                    view = flat.reshape(cut)
                    view *= np.stack((f, f.conj()), axis=1).reshape(pattern + (2, 1))
            else:  # the general form: one in-place pass over the amplitude pairs
                cos_h, sin_h = e.real[slots].reshape(shape), e.imag[slots].reshape(shape)
                view = flat.reshape((2,) * n_bits)
                lead = (slice(None),) * t_axis
                a0, a1 = view[lead + (0, ...)], view[lead + (1, ...)]
                r00 = cos_h + 1j * (axis.az * sin_h)
                r01 = axis.ay * sin_h
                off0, off1 = a1 * r01, a0 * r01
                a0 *= r00
                a0 += off0
                a1 *= r00.conj()
                a1 -= off1
        # X**parity(p & mask) on the target is one CNOT per control in mask
        for b in swaps:
            _cnot(flat, b, n_bits - 1 - t_axis)
    return flat


def apply_gate(x: StateVector, g: Gate) -> StateVector:
    """One elementary gate applied to a state."""
    amps = x.amplitudes.copy()
    if isinstance(g, Cnot):
        _check_qubits(x.n, g.control, g.target)
        _cnot(amps, x.n - g.control, x.n - g.target)
    else:
        _check_qubits(x.n, g.target)
        if not np.isfinite(g.angle):
            raise ValueError(f"gate {g} has a non-finite angle")
        m = rot_matrix(g.axis, g.angle)
        _rot(amps, x.n - g.target, m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    return StateVector(x.n, amps)


def apply_circuit(x: StateVector, c: Circuit) -> StateVector:
    """The circuit applied to a state, gates[0] first; equals the apply_gate fold."""
    if c.n != x.n:
        raise DimensionError(f"circuit is on {c.n} qubits, state on {x.n}")
    return StateVector(x.n, _apply_fused(x.amplitudes.copy(), c, x.n))


def apply_ucr(x: StateVector, g: UcrGate) -> StateVector:
    """Block-diagonal UCR action, straight from the definition.

    For every control pattern, apply the pattern's rotation to the target
    qubit of the matching amplitude pairs. No ladder lowering is involved,
    so this is an independent oracle for lower_ucr.
    """
    n = x.n
    _check_qubits(n, g.target, *g.controls)
    t_pos = n - g.target
    idx = np.arange(x.dim)
    i0 = idx[(idx >> t_pos) & 1 == 0]
    i1 = i0 | (1 << t_pos)
    pattern = np.zeros(i0.size, dtype=np.intp)
    for c in g.controls:
        pattern = (pattern << 1) | ((i0 >> (n - c)) & 1)
    half = 0.5 * g.angles[pattern]
    cos_h = np.cos(half)
    sin_h = np.sin(half)
    r00 = cos_h + 1j * (g.axis.az * sin_h)
    r01 = g.axis.ay * sin_h
    amps = x.amplitudes.copy()
    a0 = amps[i0]
    a1 = amps[i1]
    amps[i0] = r00 * a0 + r01 * a1
    amps[i1] = -r01 * a0 + np.conj(r00) * a1
    return StateVector(n, amps)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full 2**n x 2**n matrix of a circuit, columns = images of basis states.

    Internally the identity matrix is flattened to a single 2**(2n) array
    whose high n bits index the row, so the circuit's qubits keep their
    axes and one fused pass left-multiplies all columns at once.
    """
    if c.n > MAX_UNITARY_QUBITS:
        raise ValueError(f"n={c.n} exceeds the {MAX_UNITARY_QUBITS}-qubit unitary cap")
    dim = 1 << c.n
    u = np.eye(dim, dtype=np.complex128)
    return _apply_fused(u.reshape(-1), c, 2 * c.n).reshape(dim, dim)
