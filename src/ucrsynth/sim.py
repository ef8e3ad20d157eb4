"""Dense statevector simulation: the verification oracle for everything else.

Public operations have value semantics (state in, new state out) and work
on private copies. Qubit q of an n-qubit register lives at bit position
n - q of the amplitude index, which is axis q - 1 of the amplitudes
reshaped to (2,) * n.

``apply_circuit`` and ``circuit_unitary`` are run-fused. A maximal run of
consecutive gates into one target qubit t (CNOTs into t, rotations on t
about one axis) acts on each control pattern p as X**s(p) R_axis(phi(p)),
because X R_a(theta) X = R_a(-theta) for every y-z axis. phi is the
Walsh-Hadamard transform of the run's rotation angles bucketed by the
CNOT-control mask in force at each rotation, and s(p) is the parity of p
against the mask at the end of the run: the UCR ladder identity read
backwards. The masks hold each control at its bit of the amplitude
index. When the controls are consecutive qubits, as in every synthesized
ladder, a rotation's bucket is then one shift of its mask and the phase
table reshapes straight onto the control axes; other control sets gather
the bits one by one. X**s(p) is one CNOT swap per control in the closing
mask. A run costs one transform, one in-place pass over the amplitudes
and those swaps, for any gate list. ``apply_gate`` applies one gate by
its 2x2 matrix and is the per-gate oracle the fused pass is tested
against.
"""

from __future__ import annotations

import numpy as np

from .circuit import Axis, Circuit, Cnot, Gate, UcrGate, rot_matrix
from .errors import DimensionError
from .gray import _fwht
from .state import StateVector

__all__ = ["apply_gate", "apply_circuit", "apply_ucr", "circuit_unitary"]


def _check_qubits(n: int, *qubits: int) -> None:
    for q in qubits:
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
    if c_pos == hi:
        block = view[:, 1]
        block[:, :, [0, 1]] = block[:, :, [1, 0]]
    else:
        block = view[:, :, :, 1]
        block[:, [0, 1]] = block[:, [1, 0]]


def _apply_run(
    view: np.ndarray,
    target: int,
    axis: Axis | None,
    used: int,
    final: int,
    masks: np.ndarray,
    angles: np.ndarray,
) -> None:
    """Apply one run in place; masks hold each control at its index bit.

    Control qubit q is bit n_bits - q, as in the amplitude index. ``used``
    holds every control of the run, ``final`` the mask after its last
    CNOT, and ``masks[j]`` the mask in force at rotation ``j``.
    """
    n_bits = view.ndim
    bits = [b for b in range(n_bits) if used >> b & 1]
    k = len(bits)
    if axis is not None:
        # bucket bit i is control bits[i], so the (2,) * k phase table lists
        # the controls in qubit order, as the pair views below do
        lo = bits[0] if k else 0
        if used >> lo == (1 << k) - 1:  # consecutive qubits: every ladder
            pattern = (masks >> lo) & ((1 << k) - 1)
        else:
            pattern = np.zeros(masks.size, dtype=np.int64)
            for i, b in enumerate(bits):
                pattern |= ((masks >> b) & 1) << i
        half = 0.5 * _fwht(np.bincount(pattern, weights=angles, minlength=1 << k))
        # the target axis drops out of the pair views
        shape = [1] * (n_bits - 1)
        for b in bits:
            q = n_bits - b
            shape[q - 1 if q < target else q - 2] = 2
        cos_h = np.cos(half).reshape(shape)
        sin_h = np.sin(half).reshape(shape)
        lead = (slice(None),) * (target - 1)
        a0 = view[lead + (0, ...)]
        a1 = view[lead + (1, ...)]
        if axis.az:
            r00 = cos_h + 1j * (axis.az * sin_h)
            r11 = r00.conj()
        else:
            r00 = r11 = cos_h
        if axis.ay:
            r01 = axis.ay * sin_h
            off0 = a1 * r01
            off1 = a0 * r01
            a0 *= r00
            a0 += off0
            a1 *= r11
            a1 -= off1
        else:
            a0 *= r00
            a1 *= r11
    # X**parity(p & final) on the target is one CNOT per control in final
    flat = view.reshape(-1)
    for b in bits:
        if final >> b & 1:
            _cnot(flat, b, n_bits - target)


def _apply_fused(amps: np.ndarray, c: Circuit, n_bits: int) -> None:
    """Run c over amps (2**n_bits entries, qubit q on axis q - 1) run by run.

    A run starts where the target changes, and at a rotation about another
    axis than the previous rotation on the same target.
    """
    if not len(c):
        return
    view = amps.reshape((2,) * n_bits)
    new_run = np.ones(len(c), dtype=bool)
    new_run[1:] = c.target[1:] != c.target[:-1]
    rots = np.flatnonzero(c.control == 0)
    segment = np.searchsorted(np.flatnonzero(new_run), rots, side="right")  # of each rotation
    prev, cur = rots[:-1], rots[1:]
    new_run[cur[(c.axis[cur] != c.axis[prev]) & (segment[1:] == segment[:-1])]] = True
    starts = np.flatnonzero(new_run)
    # a CNOT toggles its control's index bit; a rotation (control 0) toggles
    # bit n_bits, which no qubit reads
    bits = np.left_shift(1, n_bits - c.control, dtype=np.int64)
    mask = np.bitwise_xor.accumulate(bits)  # running control mask from row 0
    before = mask[starts] ^ bits[starts]
    used = np.bitwise_or.reduceat(bits, starts) & ((1 << n_bits) - 1)
    final = np.bitwise_xor.reduceat(bits, starts)
    bounds = np.searchsorted(rots, np.append(starts, len(c)))
    for j, start in enumerate(starts.tolist()):
        r = rots[bounds[j] : bounds[j + 1]]
        axis = c.axes[c.axis[r[0]]] if r.size else None
        _apply_run(
            view, int(c.target[start]), axis, int(used[j]), int(final[j]),
            mask[r] ^ before[j], c.angle[r],
        )


def apply_gate(x: StateVector, g: Gate) -> StateVector:
    """One elementary gate applied to a state."""
    amps = x.amplitudes.copy()
    if isinstance(g, Cnot):
        _check_qubits(x.n, g.control, g.target)
        _cnot(amps, x.n - g.control, x.n - g.target)
    else:
        _check_qubits(x.n, g.target)
        m = rot_matrix(g.axis, g.angle)
        _rot(amps, x.n - g.target, m[0, 0], m[0, 1], m[1, 0], m[1, 1])
    return StateVector(x.n, amps)


def apply_circuit(x: StateVector, c: Circuit) -> StateVector:
    """The circuit applied to a state, gates[0] first; equals the apply_gate fold."""
    if c.n != x.n:
        raise DimensionError(f"circuit is on {c.n} qubits, state on {x.n}")
    amps = x.amplitudes.copy()
    _apply_fused(amps, c, x.n)
    return StateVector(x.n, amps)


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


def circuit_unitary(c: Circuit, *, max_qubits: int = 10) -> np.ndarray:
    """Full 2**n x 2**n matrix of a circuit, columns = images of basis states.

    Internally the identity matrix is flattened to a single 2**(2n) array
    whose high n bits index the row, so the circuit's qubits keep their
    axes and one fused pass left-multiplies all columns at once.
    """
    if c.n > max_qubits:
        raise ValueError(f"n={c.n} exceeds the {max_qubits}-qubit unitary cap")
    dim = 1 << c.n
    u = np.eye(dim, dtype=np.complex128)
    _apply_fused(u.reshape(-1), c, 2 * c.n)
    return u
