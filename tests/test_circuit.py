import math

import numpy as np
import pytest

from ucrsynth import (
    AXIS_Y,
    AXIS_Z,
    Axis,
    Circuit,
    Cnot,
    ExportError,
    Rot,
    UcrGate,
    circuit_unitary,
    dagger,
    export_qasm,
    gate_counts,
    lower_ucr,
    rot_matrix,
    simplify,
    ucr_matrix,
)
from ucrsynth.circuit import Gate

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


def test_circuit_needs_a_qubit():
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"qubit count must be >= 1, got {n}"):
            Circuit(n, [])


def test_public_constructors_reject_non_integer_qubits():
    # each used to be truncated or accepted as given
    with pytest.raises(ValueError, match=r"gate Cnot\(control=1.5, target=2\) has a non-integer"):
        Circuit(2, [Cnot(1.5, 2)])
    with pytest.raises(ValueError, match="target=1.7, angle=0.1\\) has a non-integer"):
        Circuit(2, [Rot(AXIS_Y, 1, 0.2), Rot(AXIS_Y, 1.7, 0.1)])
    for n in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(ValueError, match="qubit count must be an integer, got"):
            Circuit(n, [])
    for controls, target in (((1.0,), 2), ((1,), 2.0), ((1, np.float64(2)), 3)):
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
    g = UcrGate(tuple(range(1, 4)), 4, AXIS_Y, [0.0] * 8)
    with pytest.raises(ValueError):
        ucr_matrix(g, max_controls=2)


def test_lower_matches_matrix_oracle():
    rng = np.random.default_rng(21)
    for k in range(0, 5):
        for axis in (AXIS_Y, AXIS_Z, Axis(math.sin(0.3), math.cos(0.3))):
            g = UcrGate(tuple(range(1, k + 1)), k + 1, axis, rng.uniform(-math.pi, math.pi, 1 << k))
            for mirrored in (False, True):
                got = circuit_unitary(lower_ucr(g, mirrored=mirrored))
                assert np.abs(got - ucr_matrix(g)).max() <= 1e-12


def simplify_gates(c: Circuit, *, prune_atol: float = 0.0, prune: bool = False) -> Circuit:
    """Oracle for ``simplify``: the same peephole rules over gate objects.

    This is the gate-object pass ``simplify`` was before it moved onto the
    columns, kept unchanged (with its old ``prune`` flag) as an independent
    reference: ``simplify(c)`` must equal ``simplify_gates(c)``, and
    ``simplify(c, prune_atol=x)`` must equal
    ``simplify_gates(c, prune_atol=x, prune=True)``.

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
    # a NaN threshold compares false, so it prunes nothing
    assert simplify(c, prune_atol=math.nan) == simplify(c)


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
    c = random_circuit(2, 10, seed=4)
    for column in (c.control, c.target, c.axis, c.angle):
        with pytest.raises(ValueError):
            column[0] = 0


def test_equality_is_gate_tuple_equality():
    y0, y1 = Circuit(1, (Rot(AXIS_Y, 1, 0.0),)), Circuit(1, (Rot(AXIS_Y, 1, -0.0),))
    assert y0 == y1 and hash(y0) == hash(y1)
    assert y0 != Circuit(1, (Rot(AXIS_Z, 1, 0.0),))
    assert y0 != Circuit(2, (Rot(AXIS_Y, 1, 0.0),))
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


def test_public_constructor_rejects_integers_beyond_the_columns():
    # qubits are stored as int32 and angles as float64
    for gates in ((Cnot(1, 2**31),), (Cnot(-(2**31) - 1, 1),), (Rot(AXIS_Y, 2**64, 0.1),)):
        with pytest.raises(ValueError, match="qubit index outside 1..2"):
            Circuit(2, gates)
    with pytest.raises(ValueError, match="angle beyond the float range"):
        Circuit(1, (Rot(AXIS_Y, 1, 10**400),))
