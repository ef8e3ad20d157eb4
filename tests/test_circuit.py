import copy
import functools
import itertools
import math
import pickle
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ucrsynth import (
    AXIS_Y,
    AXIS_Z,
    Axis,
    Circuit,
    Cnot,
    ExportError,
    Rot,
    UcrGate,
    apply_circuit,
    circuit_unitary,
    dagger,
    dump_circuit,
    export_qasm,
    gate_counts,
    gray_permutation,
    lower_ucr,
    make_state,
    prepare,
    random_state,
    rot_matrix,
    simplify,
    ucr_matrix,
)
from ucrsynth.circuit import MAX_UCR_CONTROLS, Gate, ladder_controls

I2 = np.eye(2)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def random_circuit(n, length, seed):
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(length):
        if n >= 2 and rng.random() < 0.4:
            control, target = rng.choice(n, size=2, replace=False) + 1
            gates.append(Cnot(int(control), int(target)))
        else:
            axis = [AXIS_Y, AXIS_Z, Axis(0.6, 0.8)][rng.integers(3)]
            gates.append(Rot(axis, int(rng.integers(n) + 1), float(rng.uniform(-3, 3))))
    return Circuit(n, tuple(gates))


def test_axis_must_be_unit():
    Axis(0.6, -0.8)
    with pytest.raises(ValueError):
        Axis(0.6, 0.9)
    assert (AXIS_Y.ay, AXIS_Y.az) == (1.0, 0.0)
    assert (AXIS_Z.ay, AXIS_Z.az) == (0.0, 1.0)


def test_axis_components_are_real_floats():
    # Axis(True, 0) used to equal AXIS_Y, and Axis("1", 0) raised TypeError
    for ay, az in [(True, 0), ("1", 0), (np.array(1.0), 0.0), (1.0, None), (1.0, 0j)]:
        with pytest.raises(ValueError, match="non-real component"):
            Axis(ay, az)
    axis = Axis(np.float64(0.6), np.float64(-0.8))
    assert type(axis.ay) is type(axis.az) is float
    assert Axis(np.int64(1), 0) == AXIS_Y and type(Axis(np.int64(1), 0).ay) is float
    # this raised OverflowError from float()
    with pytest.raises(ValueError, match="axis has a component beyond the float range"):
        Axis(10**400, 0)


def test_axis_rejects_non_finite():
    for ay, az in [(math.nan, math.nan), (math.inf, 0.0), (0.0, -math.inf)]:
        with pytest.raises(ValueError, match="finite"):
            Axis(ay, az)


def test_rot_matrix_definition():
    # R_a(angle) = cos(angle/2) I + i sin(angle/2) (ay sy + az sz)
    rng = np.random.default_rng(0)
    for _ in range(10):
        phi = rng.uniform(0, 2 * math.pi)
        axis = Axis(math.sin(phi), math.cos(phi))
        angle = rng.uniform(-6, 6)
        direct = math.cos(angle / 2) * I2 + 1j * math.sin(angle / 2) * (
            axis.ay * SIGMA_Y + axis.az * SIGMA_Z
        )
        assert np.abs(rot_matrix(axis, angle) - direct).max() <= 1e-15


def test_rot_matrix_frozen_values():
    assert np.allclose(rot_matrix(AXIS_Y, math.pi), [[0, 1], [-1, 0]])
    z = rot_matrix(AXIS_Z, 1.0)
    assert z[0, 0] == pytest.approx(np.exp(0.5j))
    assert z[1, 1] == pytest.approx(np.exp(-0.5j))
    assert z[0, 1] == z[1, 0] == 0


def test_gate_validation():
    with pytest.raises(ValueError):
        Cnot(2, 2)
    with pytest.raises(ValueError):
        Circuit(2, (Cnot(1, 3),))
    with pytest.raises(ValueError):
        Circuit(2, (Rot(AXIS_Y, 0, 0.1),))


def test_ucr_gate_validation():
    UcrGate((1, 2), 3, AXIS_Y, [0.1, 0.2, 0.3, 0.4])
    with pytest.raises(ValueError):
        UcrGate((1, 2), 2, AXIS_Y, [0.1] * 4)
    with pytest.raises(ValueError):
        UcrGate((1, 1), 3, AXIS_Y, [0.1] * 4)
    with pytest.raises(ValueError):
        UcrGate((1, 2), 3, AXIS_Y, [0.1] * 3)
    # lower_ucr used to build a circuit about axis "y", which the simulator
    # and ucr_matrix failed on with AttributeError
    with pytest.raises(ValueError, match="UCR axis must be an Axis, got 'y'"):
        UcrGate((1,), 2, "y", [0.1, 0.2])
    # each raised TypeError or OverflowError, or was accepted
    with pytest.raises(ValueError, match="UCR controls must be an iterable, got 1"):
        UcrGate(1, 2, AXIS_Y, [0.1, 0.2])
    for angles in ([1j, 0], ["0.1", "0.2"], [True, False], [b"1", b"2"], [1, True], np.ones(2, bool)):
        with pytest.raises(ValueError, match="UCR angles must be real numbers"):
            UcrGate((1,), 2, AXIS_Y, angles)
    with pytest.raises(ValueError, match="UCR angles must lie within the float range"):
        UcrGate((1,), 2, AXIS_Y, [10**400, 0])
    # list controls used to give a gate whose hash raised TypeError
    g = UcrGate([1], 2, AXIS_Y, [0.1, 0.2])
    assert g.controls == (1,) and hash(g) == hash(UcrGate((1,), 2, AXIS_Y, [0.3, 0.4]))
    g = UcrGate(iter([np.int64(1), 3]), 2, AXIS_Y, [np.float32(0.5), 1, np.int8(2), 0.25])
    assert g.controls == (1, 3) and g.angles.tolist() == [0.5, 1.0, 2.0, 0.25]
    assert not g.angles.flags.writeable


def test_circuit_needs_a_qubit():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"qubit count must be >= 1, got {n}"):
            Circuit(n, [])
    # n is checked before the qubits are narrowed to int32: this used to
    # read "qubit index outside 1..-1"
    with pytest.raises(ValueError) as info:
        Circuit(-1, [Rot(AXIS_Y, 2**63, 0.1)])
    assert str(info.value) == "qubit count must be >= 1, got -1"


def test_public_constructors_reject_non_integer_qubits():
    # each used to be truncated or accepted as given
    with pytest.raises(ValueError, match=r"gate Cnot\(control=1.5, target=2\) has a non-integer"):
        Circuit(2, [Cnot(1.5, 2)])
    with pytest.raises(ValueError, match="target=1.7, angle=0.1\\) has a non-integer"):
        Circuit(2, [Rot(AXIS_Y, 1, 0.2), Rot(AXIS_Y, 1.7, 0.1)])
    # bool is no qubit index: Cnot(True, 2) used to build Cnot(1, 2)
    with pytest.raises(ValueError, match=r"gate Cnot\(control=True, target=2\) has a non-integer"):
        Circuit(2, [Cnot(True, 2)])
    with pytest.raises(ValueError, match="target=False, angle=0.1\\) has a non-integer"):
        Circuit(2, [Rot(AXIS_Y, False, 0.1)])
    for n in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match="qubit count must be an integer, got"):
            Circuit(n, [])
        with pytest.raises(ValueError, match="qubit count must be an integer, got"):
            lower_ucr(UcrGate((1,), 2, AXIS_Y, [0.1, 0.2]), n)
    for controls, target in (((1.0,), 2), ((1,), 2.0), ((1, np.float64(2)), 3), ((True,), 2),
                             ((1,), True)):
        with pytest.raises(ValueError, match="UCR qubits must be integers"):
            UcrGate(controls, target, AXIS_Y, [0.1] * (1 << len(controls)))
    # Python and numpy integers keep working
    c = Circuit(np.int64(2), [Cnot(np.int32(1), 2), Rot(AXIS_Z, np.uint8(2), 0.1)])
    assert c == Circuit(2, [Cnot(1, 2), Rot(AXIS_Z, 2, 0.1)])
    assert lower_ucr(UcrGate((np.int64(1),), np.int8(2), AXIS_Y, [0.1, 0.2])) == lower_ucr(
        UcrGate((1,), 2, AXIS_Y, [0.1, 0.2])
    )


def test_ucr_gate_angles_are_finite_and_one_dimensional():
    # neither reaches lower_ucr: NaN used to flow into the ladder angles, a
    # 2-D array used to raise IndexError there
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="angles must be finite"):
            UcrGate((1,), 2, AXIS_Y, [bad, 1.0])
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
        UcrGate((1, 2), 3, AXIS_Y, np.zeros((2, 2)))
    with pytest.raises(ValueError, match=r"one-dimensional, got shape \(\)"):
        UcrGate((), 1, AXIS_Y, 0.5)
    # a wrong count keeps its message, whatever the shape
    with pytest.raises(ValueError, match="expected 4 angles for 2 controls, got 6"):
        UcrGate((1, 2), 3, AXIS_Y, np.zeros((2, 3)))


def test_lower_ucr_k0():
    c = lower_ucr(UcrGate((), 1, AXIS_Y, [0.7]))
    assert c.gates == (Rot(AXIS_Y, 1, 0.7),)
    mirrored = lower_ucr(UcrGate((), 1, AXIS_Y, [0.7]), mirrored=True)
    assert mirrored.gates == c.gates


def test_lower_ucr_k1_frozen():
    # alpha (pi/2, -pi/2) lowers to thetas (0, pi/2) with both CNOTs off qubit 1
    g = UcrGate((1,), 2, AXIS_Z, [math.pi / 2, -math.pi / 2])
    c = lower_ucr(g)
    kinds = [type(x).__name__ for x in c.gates]
    assert kinds == ["Rot", "Cnot", "Rot", "Cnot"]
    assert c.gates[0].angle == pytest.approx(0.0, abs=1e-15)
    assert c.gates[2].angle == pytest.approx(math.pi / 2)
    assert c.gates[1] == c.gates[3] == Cnot(1, 2)
    product = circuit_unitary(c)
    expect = np.zeros((4, 4), dtype=complex)
    expect[:2, :2] = rot_matrix(AXIS_Z, math.pi / 2)
    expect[2:, 2:] = rot_matrix(AXIS_Z, -math.pi / 2)
    assert np.abs(product - expect).max() <= 1e-12


def test_lower_ucr_k2_control_sequence():
    g = UcrGate((1, 2), 3, AXIS_Y, [0.1, 0.2, 0.3, 0.4])
    c = lower_ucr(g)
    controls = [x.control for x in c.gates if isinstance(x, Cnot)]
    assert controls == [2, 1, 2, 1]
    assert all(x.target == 3 for x in c.gates)
    # the closed form against its definition: the CNOT after Gray code t is
    # controlled by the qubit of the bit b flipping to code t + 1, cyclically
    rng = np.random.default_rng(28)
    for k in range(1, 13):
        *controls, target = (int(q) for q in rng.permutation(k + 1) + 1)
        codes = gray_permutation(k)
        bit = np.bitwise_count((codes ^ np.roll(codes, -1)) - 1)
        want = [controls[k - 1 - b] for b in bit]
        g = UcrGate(tuple(controls), target, AXIS_Z, rng.uniform(-3, 3, 1 << k))
        for mirrored in (False, True):
            c = lower_ucr(g, mirrored=mirrored)
            assert c.control[c.control > 0].tolist() == (want[::-1] if mirrored else want)
            assert (c.target == target).all()
    # a mirrored ladder opens with the plain one's closing CNOT, so in a
    # pair it faces and cancels the closing CNOT of the plain ladder before it
    for k in range(1, 17):
        assert np.array_equal(ladder_controls(k, mirrored=True), np.roll(ladder_controls(k), 1))


def test_lower_ucr_counts_and_targets():
    rng = np.random.default_rng(9)
    for k in range(1, 5):
        g = UcrGate(tuple(range(1, k + 1)), k + 1, AXIS_Z, rng.uniform(-3, 3, 1 << k))
        for mirrored in (False, True):
            c = lower_ucr(g, mirrored=mirrored)
            assert gate_counts(c) == {"cnot": 1 << k, "rot": 1 << k}
            assert all(x.target == k + 1 for x in c.gates)


def test_mirrored_is_reversed_sequence():
    g = UcrGate((1, 2), 3, AXIS_Y, [0.1, -0.2, 0.3, 0.4])
    assert lower_ucr(g, mirrored=True).gates == tuple(reversed(lower_ucr(g).gates))


def test_ucr_matrix_trivial_cases():
    g0 = UcrGate((), 1, AXIS_Y, [0.3])
    assert np.array_equal(ucr_matrix(g0), rot_matrix(AXIS_Y, 0.3))
    gz = UcrGate((1, 2), 3, AXIS_Z, [0.0] * 4)
    assert np.abs(ucr_matrix(gz) - np.eye(8)).max() == 0.0


def test_ucr_matrix_cap():
    k = MAX_UCR_CONTROLS + 1
    g = UcrGate(tuple(range(1, k + 1)), k + 1, AXIS_Y, [0.0] * (1 << k))
    with pytest.raises(ValueError):
        ucr_matrix(g)


def test_lower_matches_matrix_oracle():
    rng = np.random.default_rng(21)
    for k in range(0, 5):
        for axis in (AXIS_Y, AXIS_Z, Axis(math.sin(0.3), math.cos(0.3))):
            g = UcrGate(tuple(range(1, k + 1)), k + 1, axis, rng.uniform(-math.pi, math.pi, 1 << k))
            for mirrored in (False, True):
                got = circuit_unitary(lower_ucr(g, mirrored=mirrored))
                assert np.abs(got - ucr_matrix(g)).max() <= 1e-12


def simplify_gates(
    c: Circuit, *, prune_atol: float = 0.0, prune: bool = False, blocks: bool = True
) -> Circuit:
    """Oracle for ``simplify``: its rule over gate objects, one gate at a time.

    An independent reference for the column pass, with the old ``prune``
    flag: ``simplify(c)`` must equal ``simplify_gates(c)``, and
    ``simplify(c, prune_atol=x)`` must equal
    ``simplify_gates(c, prune_atol=x, prune=True)``.

    Only when ``prune`` is set, the rotations with |angle| <= prune_atol go
    first, and a merge that lands there goes too; pruning is off by default
    so gate counts stay at the generic closed-form values (a merge to angle
    0 keeps its gate). Of the gates left, each block, a maximal run of
    adjacent CNOTs into one target, keeps the last CNOT of each control
    that occurs in it an odd number of times: CNOTs into one target
    commute, and two with one control cancel. Then a stack pass: an
    arriving CNOT looks down the top block for its twin, and both go if it
    is there; an arriving rotation merges with a top rotation of the same
    axis and target by angle addition.

    One pass reaches the fixpoint: every reduction re-exposes the gates
    below, which are checked again before anything new is pushed, so no
    stack block repeats a control and no two adjacent stack rotations
    share axis and target. ``blocks=False`` is the rule before CNOTs into
    one target commuted, kept to compare against: no block step, and an
    arriving CNOT meets the top gate alone.
    """
    atol = prune_atol if prune else None
    gates = [g for g in c.gates if not (atol is not None and isinstance(g, Rot) and abs(g.angle) <= atol)]
    if blocks:
        kept: list[Gate] = []
        for _, run in itertools.groupby(gates, lambda g: g.target if isinstance(g, Cnot) else object()):
            run = list(run)
            kept += [g for i, g in enumerate(run) if run.count(g) % 2 and g not in run[i + 1 :]]
        gates = kept
    out: list[Gate] = []
    for g in gates:
        reduced: Gate | None = g
        while reduced is not None:
            top = out[-1] if out else None
            if isinstance(reduced, Cnot):
                i = len(out) - 1
                while blocks and i >= 0 and isinstance(out[i], Cnot) and out[i].target == g.target:
                    if out[i] == reduced:
                        break
                    i -= 1
                if i >= 0 and out[i] == reduced:
                    del out[i]
                    reduced = None
                break
            if atol is not None and abs(reduced.angle) <= atol:
                reduced = None
                break
            if isinstance(top, Rot) and top.axis == reduced.axis and top.target == reduced.target:
                out.pop()
                reduced = Rot(reduced.axis, reduced.target, top.angle + reduced.angle)
                continue
            break
        if reduced is not None:
            out.append(reduced)
    return Circuit(c.n, tuple(out))


def test_dagger_examples():
    c = Circuit(1, (Rot(AXIS_Y, 1, 0.4),))
    assert dagger(c).gates == (Rot(AXIS_Y, 1, -0.4),)
    mixed = random_circuit(3, 15, seed=2)
    assert dagger(dagger(mixed)) == mixed
    u = circuit_unitary(mixed)
    v = circuit_unitary(dagger(mixed))
    assert np.abs(v @ u - np.eye(8)).max() <= 1e-10


def test_simplify_cancels_cnot_pair():
    c = Circuit(2, (Cnot(1, 2), Cnot(1, 2)))
    assert simplify(c).gates == ()
    # distinct CNOTs survive
    c2 = Circuit(2, (Cnot(1, 2), Cnot(2, 1)))
    assert simplify(c2).gates == c2.gates


def test_simplify_merges_rotations():
    c = Circuit(1, (Rot(AXIS_Y, 1, 0.3), Rot(AXIS_Y, 1, 0.1)))
    (merged,) = simplify(c).gates
    assert merged == Rot(AXIS_Y, 1, pytest.approx(0.4))
    # different axes do not merge
    c2 = Circuit(1, (Rot(AXIS_Y, 1, 0.3), Rot(AXIS_Z, 1, 0.1)))
    assert len(simplify(c2).gates) == 2


def test_simplify_keeps_zero_merge_without_pruning():
    c = Circuit(1, (Rot(AXIS_Y, 1, 0.3), Rot(AXIS_Y, 1, -0.3)))
    (kept,) = simplify(c).gates
    assert kept.angle == pytest.approx(0.0)
    assert simplify(c, prune_atol=0.0).gates == ()


def test_simplify_has_one_prune_keyword():
    c = Circuit(1, (Rot(AXIS_Y, 1, 0.3), Rot(AXIS_Y, 1, -0.3)))
    # the flag that used to switch pruning on is gone, not reinterpreted
    with pytest.raises(TypeError):
        simplify(c, prune=True)
    # a NaN or negative threshold used to prune nothing, a str to fail mid-loop
    for atol in (math.nan, -1.0, "1", math.inf):
        with pytest.raises(ValueError, match="prune_atol must be a finite number >= 0, got"):
            simplify(c, prune_atol=atol)
    # the threshold is the largest float <= prune_atol, however it is typed;
    # a narrow numpy float used to be compared with the float max in its own
    # dtype, which overflowed
    for atol, edge in (
        (Fraction(1, 10), math.nextafter(0.1, 0.0)),
        (np.float16(0.1), float(np.float16(0.1))),
        (np.float32(0.1), float(np.float32(0.1))),
        (np.float64(0.1), 0.1),
        (10**400, sys.float_info.max),
        (Fraction(10**400, 3), sys.float_info.max),
    ):
        above = math.nextafter(edge, math.inf)
        kept = (Rot(AXIS_Y, 1, above),) if math.isfinite(above) else ()
        c = Circuit(1, (Rot(AXIS_Y, 1, edge), Rot(AXIS_Z, 1, -edge), *kept))
        assert simplify(c, prune_atol=atol).gates == kept


def test_simplify_rejects_a_merge_beyond_the_float_range():
    # used to return angle inf, which export_qasm wrote and apply_circuit turned into NaN
    c = Circuit(2, [Cnot(1, 2), Rot(AXIS_Y, 1, 1e308), Rot(AXIS_Y, 1, 1e308)])
    message = re.escape("gate Rot(axis=Axis(ay=1.0, az=0.0), target=1, angle=inf) has a non-finite")
    with pytest.raises(ValueError, match=message):
        simplify(c)
    assert simplify(Circuit(1, [Rot(AXIS_Y, 1, 1e308), Rot(AXIS_Y, 1, -1e308)])).angle[0] == 0.0


def test_simplify_prune_cascades():
    # dropping the tiny rotation exposes the CNOT pair
    c = Circuit(2, (Cnot(1, 2), Rot(AXIS_Y, 2, 1e-14), Cnot(1, 2)))
    assert simplify(c).gates == c.gates
    assert simplify(c, prune_atol=1e-12).gates == ()


def test_simplify_is_list_local():
    # rotations separated by a gate on another qubit stay separate,
    # keeping the closed-form gate counts intact
    c = Circuit(2, (Rot(AXIS_Y, 2, 0.3), Cnot(2, 1), Rot(AXIS_Y, 2, 0.1)))
    assert len(simplify(c).gates) == 3


def test_simplify_preserves_unitary():
    for seed in range(6):
        c = random_circuit(4, 40, seed=seed)
        u = circuit_unitary(c)
        v = circuit_unitary(simplify(c, prune_atol=1e-13 if seed % 2 else None))
        assert np.abs(u - v).max() <= 1e-10


def test_pruning_every_general_axis_rotation_keeps_the_axis():
    general = Axis(math.sin(0.4), math.cos(0.4))
    c = Circuit(2, (
        Rot(general, 1, 1e-14), Cnot(1, 2), Rot(AXIS_Y, 2, 0.5),
        Rot(general, 2, 0.2), Rot(general, 2, -0.2), Rot(AXIS_Z, 1, 0.25),
    ))
    pruned = simplify(c, prune_atol=1e-12)
    assert pruned == simplify_gates(c, prune_atol=1e-12, prune=True)
    assert len(pruned) == 3
    # the axis stays listed with no row using it, and only rows are exported
    assert general in pruned.axes
    assert general not in {g.axis for g in pruned.gates if isinstance(g, Rot)}
    assert export_qasm(pruned).count("\n") == 4 + 3
    with pytest.raises(ExportError):
        export_qasm(c)


def test_gate_counts():
    assert gate_counts(Circuit(1)) == {"cnot": 0, "rot": 0}
    g = UcrGate(tuple(range(1, 4)), 4, AXIS_Y, np.linspace(0.1, 0.8, 8))
    assert gate_counts(lower_ucr(g)) == {"cnot": 8, "rot": 8}


def test_circuit_columns_round_trip_through_gates():
    circuits = [random_circuit(4, 60, seed) for seed in range(4)] + [Circuit(3)]
    circuits.append(dagger(random_circuit(3, 30, seed=8)))
    for c in circuits:
        assert Circuit(c.n, c.gates) == c
        assert len(c) == len(c.gates) == gate_counts(c)["cnot"] + gate_counts(c)["rot"]
    general = Axis(math.sin(0.77), math.cos(0.77))
    c = Circuit(2, (Rot(general, 2, -1.25), Cnot(2, 1), Rot(AXIS_Z, 1, 0.5), Rot(general, 1, 2.0)))
    assert c.gates[0].axis == c.gates[3].axis == general
    assert Circuit(2, c.gates).gates == c.gates


def test_gates_are_fresh_on_every_access():
    c = random_circuit(3, 20, seed=1)
    first, second = c.gates, c.gates
    assert first == second
    assert first is not second
    rot = next(i for i, g in enumerate(first) if isinstance(g, Rot))
    assert first[rot] is not second[rot]


def test_columns_are_read_only():
    from ucrsynth import disentangle, load_circuit, prepare, prepare_from_basis, random_state

    a, b = random_state(3, 1), random_state(3, 2)
    result = prepare(a, b).circuit
    pruned = simplify(result, prune_atol=0.5)
    assert len(pruned) < len(result)
    g = UcrGate((1, 2), 3, AXIS_Y, [0.1, 0.2, 0.3, 0.4])
    built = [
        random_circuit(2, 10, seed=4),
        load_circuit(dump_circuit(result))[0],
        simplify(result),
        pruned,
        dagger(result),
        dagger(pruned),
        lower_ucr(g),
        lower_ucr(g, mirrored=True),
        result,
        disentangle(a).circuit,
        prepare_from_basis(5, b).circuit,
    ]
    for c in built:
        for column in (c.control, c.target, c.axis, c.angle):
            with pytest.raises(ValueError):
                column[0] = 0
            # nor through the array that owns it: views of a simplified or
            # mirrored circuit's columns share one array
            for array in (column, column.base):
                assert array is None or not array.flags.writeable


def test_circuit_attributes_cannot_be_rebound():
    c = prepare(random_state(3, 1), random_state(3, 2)).circuit
    x = random_state(3, 5)
    image = apply_circuit(x, c).amplitudes
    for name in (*Circuit.__slots__, "gates"):
        with pytest.raises(AttributeError):
            setattr(c, name, getattr(c, name))
    # a writable control column rebound here, written to after a simulation,
    # used to leave the kept run plan stale
    with pytest.raises(AttributeError, match="cannot set 'control': a Circuit is immutable"):
        c.control = c.control.copy()
    assert c.control.flags.writeable is False
    assert apply_circuit(x, c).amplitudes.tobytes() == image.tobytes()


def copies(x):
    """x through copy.copy, copy.deepcopy and pickle protocols 2 to 5."""
    yield copy.copy(x)
    yield copy.deepcopy(x)
    for protocol in range(2, 6):
        yield pickle.loads(pickle.dumps(x, protocol))


def assert_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):  # nor through the array that owns it
        array.view().flags.writeable = True


def test_copies_rebuild_through_the_constructors(monkeypatch):
    # Python's own copy of a Circuit used to run into its __setattr__ guard,
    # and left a StateVector's or a UcrGate's array writable
    from test_sim import count_plans
    from ucrsynth import disentangle, load_circuit, prepare_from_basis

    results = []
    for n in range(1, 7):
        a, b = random_state(n, 2 * n), random_state(n, 2 * n + 1)
        results += [prepare(a, b), disentangle(a)]
        results += [prepare_from_basis(i, b) for i in (0, (1 << n) - 1)]
    # the hand-built circuit the simulator's general form is certified on
    rng = np.random.default_rng(8)
    ucrs = [UcrGate((3, 7), 2, Axis(0.6, 0.8), rng.uniform(-3, 3, 4)),
            UcrGate((8, 5, 1), 4, AXIS_Y, rng.uniform(-3, 3, 8)),
            UcrGate((6, 1), 3, AXIS_Z, rng.uniform(-3, 3, 4))]
    hand = [g for u in ucrs for g in lower_ucr(u, 8).gates] + [Cnot(7, 2), Cnot(8, 2)]
    circuits = [r.circuit for r in results]
    circuits += [simplify(c, prune_atol=1e-12) for c in circuits] + [dagger(c) for c in circuits]
    circuits += [load_circuit(dump_circuit(circuits[0]))[0], Circuit(3), Circuit(8, hand)]
    built = count_plans(monkeypatch)
    for c in circuits:
        x = random_state(c.n, len(c))
        image = apply_circuit(x, c).amplitudes.tobytes()
        plans = len(built)
        for twin in copies(c):
            assert twin == c and twin.axes == c.axes
            for column in (twin.control, twin.target, twin.axis, twin.angle):
                assert_read_only(column)
            assert apply_circuit(x, twin).amplitudes.tobytes() == image
        assert len(built) == plans  # each copy reached the original's plan
    for r in results:
        for twin in copies(r):
            assert twin == r
            for column in (twin.circuit.control, twin.circuit.target, twin.circuit.axis,
                           twin.circuit.angle):
                assert_read_only(column)
    x = random_state(3, 1)
    for state in (x, apply_circuit(x, prepare(x, random_state(3, 2)).circuit)):
        for twin in copies(state):
            assert twin.n == state.n and twin.amplitudes.tobytes() == state.amplitudes.tobytes()
            assert_read_only(twin.amplitudes)
    for g in ucrs:
        for twin in copies(g):
            assert twin == g and np.array_equal(twin.angles, g.angles)
            assert_read_only(twin.angles)
    with pytest.raises(AttributeError, match="cannot set 'n': a StateVector is immutable"):
        x.n = 7


def structured_states(n):
    """GHZ, W, non-negative real, block-sparse and product states on n qubits."""
    amps = np.zeros((2, 1 << n))
    amps[0, [0, -1]] = 1.0
    amps[1, [1 << q for q in range(n)]] = 1.0
    real = np.abs(np.random.default_rng(n).standard_normal(1 << n))
    block = random_state(n, n).amplitudes * (np.arange(1 << n) >> 2 & 1 == 0)
    product = functools.reduce(np.kron, [random_state(1, 10 * n + q).amplitudes for q in range(n)])
    return [make_state(n, a, normalize=True) for a in (*amps, real, block, product)]


def test_pruned_prepare_circuits_match_the_oracle():
    # structured pairs zero whole ladders of angles, so pruning leaves runs
    # of CNOTs that cancel across dropped rotations
    for n in range(1, 10):
        for a, b in itertools.product(structured_states(n), repeat=2):
            c = prepare(a, b).circuit
            got = simplify(c, prune_atol=1e-12)
            expect = simplify_gates(c, prune_atol=1e-12, prune=True)
            assert got == expect
            assert [v.hex() for v in got.angle.tolist()] == [v.hex() for v in expect.angle.tolist()]


def test_equality_is_gate_tuple_equality():
    y0, y1 = Circuit(1, (Rot(AXIS_Y, 1, 0.0),)), Circuit(1, (Rot(AXIS_Y, 1, -0.0),))
    assert y0 == y1 and hash(y0) == hash(y1)
    assert y0 != Circuit(1, (Rot(AXIS_Z, 1, 0.0),))
    assert y0 != Circuit(2, (Rot(AXIS_Y, 1, 0.0),))
    # another type is left to Python's fallback, which compares identity
    assert y0.__eq__(y0.gates) is NotImplemented and y0 != y0.gates
    # the axis ids of a reversed circuit differ from a rebuilt one's
    mixed = Circuit(2, (Rot(AXIS_Y, 1, 0.3), Cnot(1, 2), Rot(AXIS_Z, 2, 0.1)))
    reversed_ = dagger(mixed)
    assert reversed_.axes != Circuit(2, reversed_.gates).axes
    assert reversed_ == Circuit(2, reversed_.gates)


def test_column_paths_build_no_gate_objects(monkeypatch, tmp_path, capsys):
    from ucrsynth import apply_circuit, basis_state, dump_circuit, dump_state, prepare, random_state
    from ucrsynth.cli import main

    a, b = random_state(3, 1), random_state(3, 2)
    c = prepare(a, b).circuit
    expect = (len(c.gates), gate_counts(c), dump_circuit(c), export_qasm(c))
    image = apply_circuit(a, c).amplitudes
    # a basis state leaves zero angles for the threshold to prune
    basis = basis_state(3, 5)
    sparse = prepare(basis, b).circuit
    simplified = (simplify_gates(c), simplify_gates(sparse, prune_atol=1e-12, prune=True))
    assert len(simplified[1]) < len(sparse)
    state_a, state_b, out_json, out_qasm = (tmp_path / f for f in ("a.json", "b.json", "c.json", "c.qasm"))
    state_a.write_text(dump_state(basis))
    state_b.write_text(dump_state(b))
    argv = ["synth", str(state_a), str(state_b), "--prune-epsilon", "1e-12",
            "--json", str(out_json), "--qasm", str(out_qasm)]
    assert main(argv) == 0
    written = (out_json.read_text(), out_qasm.read_text())
    report = capsys.readouterr().out

    def refuse(self):
        raise AssertionError("gate objects built")

    monkeypatch.setattr(Circuit, "__iter__", refuse)
    assert prepare(a, b).circuit == c
    assert (len(c), gate_counts(c), dump_circuit(c), export_qasm(c)) == expect
    assert np.array_equal(apply_circuit(a, c).amplitudes, image)
    assert dagger(dagger(c)) == c
    assert (simplify(c), simplify(sparse, prune_atol=1e-12)) == simplified
    out_json.unlink()
    out_qasm.unlink()
    assert main(argv) == 0
    assert (out_json.read_text(), out_qasm.read_text()) == written
    assert capsys.readouterr().out == report


def test_public_constructor_checks_columns():
    with pytest.raises(ValueError, match="qubit 3 outside 1..2"):
        Circuit(2, (Rot(AXIS_Y, 1, 0.1), Cnot(3, 1)))
    with pytest.raises(ValueError, match="qubit 0 outside 1..2"):
        Circuit(2, (Cnot(0, 1),))
    with pytest.raises(ValueError, match="finite"):
        Circuit(1, (Rot(AXIS_Z, 1, math.nan),))
    # a CNOT whose fields were forced past its own check
    g = Cnot(1, 2)
    object.__setattr__(g, "control", 2)
    with pytest.raises(ValueError, match="coincide on qubit 2"):
        Circuit(2, (g,))
    with pytest.raises(ValueError, match="outside"):
        lower_ucr(UcrGate((1,), 3, AXIS_Y, [0.1, 0.2]), 2)


def test_public_constructor_checks_gate_fields():
    # each used to build, then fail in apply_circuit or dump_circuit, or to
    # take the angle as a float
    cases = [
        ([Rot("y", 1, 0.1)], "gate Rot(axis='y', target=1, angle=0.1) is not a Cnot or a Rot"),
        ([Rot([0, 1, 0], 1, 0.1)], "angle=0.1) is not a Cnot or a Rot about an Axis"),
        ([Rot(AXIS_Y, 1, "0.1")], "target=1, angle='0.1') has a non-real angle"),
        ([Rot(AXIS_Y, 1, True)], "target=1, angle=True) has a non-real angle"),
        ([Rot(AXIS_Y, 1, 0.1 + 0j)], "target=1, angle=(0.1+0j)) has a non-real angle"),
        ([Cnot(1, 2), 42], "gate 42 is not a Cnot or a Rot about an Axis"),
    ]
    for gates, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            Circuit(2, gates)
    # numpy reals keep working
    c = Circuit(1, [Rot(AXIS_Y, 1, np.float32(0.5)), Rot(AXIS_Z, 1, np.int64(2))])
    assert c.angle.tolist() == [0.5, 2.0]


# Gates and gate-like junk, built inside the checked call: each junk entry
# is refused with ValueError, by Circuit or by the gate's own constructor
VALID_GATES = [
    lambda: Cnot(1, 2),
    lambda: Cnot(3, 1),
    lambda: Rot(AXIS_Y, 2, 0.5),
    lambda: Rot(Axis(0.6, 0.8), 3, -0.0),
    lambda: Rot(AXIS_Z, 1, np.float32(0.25)),
]
JUNK_GATES = [
    lambda: 42,
    lambda: None,
    lambda: "cnot",
    lambda: (1, 2),
    lambda: Cnot(True, 2),
    lambda: Cnot(1.0, 2),
    lambda: Cnot(np.array(1), 2),
    lambda: Cnot(np.array(2), np.array(2)),
    lambda: Rot(AXIS_Y, False, 0.1),
    lambda: Rot(AXIS_Y, 2.0, 0.1),
    lambda: Rot(AXIS_Y, np.array(1), 0.1),
    lambda: Rot(AXIS_Y, 2**40, 0.1),
    lambda: Rot("y", 1, 0.1),
    lambda: Rot([0, 1, 0], 1, 0.1),
    lambda: Rot({"ay": 1.0}, 1, 0.1),
    lambda: Rot(np.array([1.0, 0.0]), 1, 0.1),
    lambda: Rot(Axis(np.array(1.0), 0.0), 1, 0.5),
    lambda: Rot(AXIS_Y, 1, "0.1"),
    lambda: Rot(AXIS_Y, 1, 1j),
    lambda: Rot(AXIS_Y, 1, None),
    lambda: Rot(AXIS_Y, 1, True),
    lambda: Rot(AXIS_Y, 1, np.array(0.5)),
    lambda: Rot(AXIS_Y, 1, 10**400),
]


@given(st.lists(st.sampled_from(VALID_GATES) | st.sampled_from(JUNK_GATES), max_size=6))
def test_public_constructor_refuses_junk_with_value_error(makers):
    # Circuit(1, [Rot(Axis(np.array(1.0), 0.0), 1, 0.5)]) used to raise UnboundLocalError
    junk = any(make in JUNK_GATES for make in makers)
    try:
        c = Circuit(3, [make() for make in makers])
    except ValueError:
        assert junk
    else:
        assert not junk and len(c) == len(makers)


def test_public_constructor_rejects_integers_beyond_the_columns():
    # qubits are stored as int32 and angles as float64
    for gates in ((Cnot(1, 2**31),), (Cnot(-(2**31) - 1, 1),), (Rot(AXIS_Y, 2**64, 0.1),)):
        with pytest.raises(ValueError, match="qubit index outside 1..2"):
            Circuit(2, gates)
    with pytest.raises(ValueError, match="angle beyond the float range"):
        Circuit(1, (Rot(AXIS_Y, 1, 10**400),))


def test_check_narrows_integer_arrays_without_wrapping():
    # an int64 column was cast to int32 unchecked: target 2**40 + 1 was stored as 1
    for column in (np.array([2**40 + 1]), np.array([2**31]), np.array([-(2**31) - 1]),
                   np.array([2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match=r"qubit index outside 1..2199023255552$"):
            Circuit._check(2**41, [False], [0], column, [0], (AXIS_Y,), [0.1])
        with pytest.raises(ValueError, match=r"qubit index outside 1..2199023255552$"):
            Circuit._check(2**41, [True], column, [1], [0], (AXIS_Y,), [0.0])
    # a narrower or equal width is taken at its value; int32 as it is
    target = np.array([2], dtype=np.int32)
    c = Circuit._check(2, [False], np.array([0], np.int8), target, [0], (AXIS_Y,), [0.1])
    assert c.target is target and c.control.tolist() == [0]


def test_lower_ucr_refuses_an_angle_beyond_the_float_range():
    # the ladder's first angle used to overflow to inf, which apply_circuit
    # turned into NaN amplitudes and export_qasm wrote as ry(-inf)
    g = UcrGate((1,), 2, AXIS_Y, [1.7e308, 1.7e308])
    message = re.escape("gate Rot(axis=Axis(ay=1.0, az=0.0), target=2, angle=inf) has a non-finite")
    with pytest.raises(ValueError, match=message):
        lower_ucr(g)


def lower_ucr_error(controls, target, n) -> str:
    g = UcrGate(controls, target, AXIS_Y, [0.1] * (1 << len(controls)))
    with pytest.raises(ValueError) as info:
        lower_ucr(g, n)
    return str(info.value)


def test_lower_ucr_refuses_controls_beyond_int32():
    # control 2**32 + 1 used to wrap to 1 and build Cnot(1, 1); control 2**32
    # wrapped to 0 and hit a numpy assignment error
    with pytest.raises(ValueError) as want:
        Circuit(2**33, [Cnot(2**32 + 1, 1)])
    assert str(want.value) == "qubit index outside 1..8589934592"
    for control in (2**32 + 1, 2**32):
        assert lower_ucr_error((control,), 1, 2**33) == str(want.value)


def test_lower_ucr_refuses_a_target_beyond_int32():
    # used to raise numpy's OverflowError
    with pytest.raises(ValueError) as want:
        Circuit(2**40, [Rot(AXIS_Y, 2**40, 0.1)])
    assert str(want.value) == "qubit index outside 1..1099511627776"
    assert lower_ucr_error((), 2**40, 2**40) == str(want.value)


def test_lower_ucr_checks_n_before_qubit_width():
    for controls, target in (((2**40,), 1), ((), 2**40), ((1,), 2**70)):
        assert lower_ucr_error(controls, target, -1) == "qubit count must be >= 1, got -1"
