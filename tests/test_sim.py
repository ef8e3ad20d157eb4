import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, find, given, settings
from hypothesis import strategies as st

from ucrsynth import sim
from ucrsynth import (
    AXIS_Y,
    AXIS_Z,
    Axis,
    Circuit,
    Cnot,
    DimensionError,
    Rot,
    UcrGate,
    apply_circuit,
    apply_gate,
    apply_ucr,
    basis_state,
    circuit_unitary,
    dagger,
    disentangle,
    dump_circuit,
    gate_counts,
    load_circuit,
    lower_ucr,
    make_state,
    prepare,
    prepare_from_basis,
    random_state,
    simplify,
)
from test_circuit import random_circuit, simplify_gates


def fold(x, c):
    """Per-gate reference: apply_gate over the gate list in time order."""
    return functools.reduce(apply_gate, c.gates, x)


def test_rot_y_pi_on_zero_state():
    # R_y(pi) = i sigma_y = ((0, 1), (-1, 0)) under the +i sign convention
    out = apply_gate(basis_state(1), Rot(AXIS_Y, 1, math.pi))
    assert out.amplitudes == pytest.approx([0.0, -1.0])


def test_cnot_truth_table():
    out = apply_gate(make_state(2, [0, 0, 1, 0]), Cnot(1, 2))
    assert list(out.amplitudes) == [0, 0, 0, 1]
    # control 0 leaves the state alone
    idle = apply_gate(make_state(2, [0, 1, 0, 0]), Cnot(1, 2))
    assert list(idle.amplitudes) == [0, 1, 0, 0]


def test_cnot_swaps_pairs_at_every_bit_pair():
    # closing swaps and apply_gate call _cnot with the control's bit above
    # or below the target's
    n = 5
    amps = random_state(n, 4).amplitudes
    index = np.arange(1 << n)
    for c_pos, t_pos in itertools.permutations(range(n), 2):
        out = amps.copy()
        sim._cnot(out, c_pos, t_pos)
        assert np.array_equal(out, amps[np.where(index >> c_pos & 1, index ^ 1 << t_pos, index)])


def test_rot_z_is_diagonal_phase():
    for index in (0, 1):
        out = apply_gate(basis_state(1, index), Rot(AXIS_Z, 1, 0.8))
        expect = np.exp(0.4j if index == 0 else -0.4j)
        assert out.amplitudes[index] == pytest.approx(expect)
        assert abs(out.amplitudes[1 - index]) == 0.0


def test_qubit_addressing_big_endian():
    # qubit 1 is the most significant amplitude-index bit
    x = apply_gate(basis_state(3), Rot(AXIS_Y, 1, math.pi))
    assert abs(x.amplitudes[4]) == pytest.approx(1.0)
    y = apply_gate(basis_state(3), Rot(AXIS_Y, 3, math.pi))
    assert abs(y.amplitudes[1]) == pytest.approx(1.0)


def test_gate_index_out_of_range():
    with pytest.raises(DimensionError):
        apply_gate(basis_state(2), Rot(AXIS_Y, 3, 0.1))
    with pytest.raises(DimensionError):
        apply_gate(basis_state(2), Cnot(1, 3))


def test_gate_qubits_and_angles_are_checked():
    # a float qubit used to fail inside numpy, a bool one to act on qubit 1,
    # a NaN angle to give NaN amplitudes
    x = basis_state(2)
    for g in (Rot(AXIS_Y, 1.5, 0.1), Rot(AXIS_Y, True, 0.1), Cnot(np.float64(1), 2)):
        with pytest.raises(ValueError, match="qubit index must be an integer, got"):
            apply_gate(x, g)
    with pytest.raises(ValueError, match=r"target=1, angle=nan\) has a non-finite angle"):
        apply_gate(x, Rot(AXIS_Y, 1, math.nan))
    for field, value in (("target", True), ("controls", (1.0,))):
        g = UcrGate((1,), 2, AXIS_Y, [0.1, 0.2])
        object.__setattr__(g, field, value)  # forced past UcrGate's own check
        with pytest.raises(ValueError, match="qubit index must be an integer, got"):
            apply_ucr(x, g)


def test_apply_circuit_value_semantics():
    x = random_state(3, 1)
    before = x.amplitudes.copy()
    c = random_circuit(3, 20, seed=3)
    out = apply_circuit(x, c)
    assert np.array_equal(x.amplitudes, before)
    assert out is not x
    # empty circuit acts as identity
    same = apply_circuit(x, Circuit(3))
    assert np.array_equal(same.amplitudes, before)


def test_apply_circuit_dimension_mismatch():
    with pytest.raises(DimensionError):
        apply_circuit(basis_state(2), Circuit(3))


def test_circuit_then_inverse_restores_state():
    for seed in range(4):
        c = random_circuit(4, 30, seed=seed)
        x = random_state(4, 100 + seed)
        back = apply_circuit(apply_circuit(x, c), dagger(c))
        assert np.abs(back.amplitudes - x.amplitudes).max() <= 1e-10


def test_norm_preserved_per_gate():
    x = random_state(5, 9)
    for gate in random_circuit(5, 50, seed=5).gates:
        x = apply_gate(x, gate)
        assert abs(np.linalg.norm(x.amplitudes) - 1.0) <= 1e-12


def test_apply_ucr_trivial_and_block_action():
    x = random_state(3, 2)
    g = UcrGate((1, 2), 3, AXIS_Y, [0.0] * 4)
    assert np.array_equal(apply_ucr(x, g).amplitudes, x.amplitudes)
    # k=1, alpha=(0, pi), axis y: the control-1 block sees R_y(pi)
    g2 = UcrGate((1,), 2, AXIS_Y, [0.0, math.pi])
    out = apply_ucr(make_state(2, [0, 0, 1, 0]), g2)
    assert out.amplitudes == pytest.approx([0, 0, 0, -1])


def test_apply_ucr_matches_lowered_circuit():
    rng = np.random.default_rng(8)
    for k in range(0, 7):
        n = k + 1
        x = random_state(n, 50 + k)
        axis = Axis(math.sin(1.0 + k), math.cos(1.0 + k))
        g = UcrGate(tuple(range(1, k + 1)), n, axis, rng.uniform(-math.pi, math.pi, 1 << k))
        direct = apply_ucr(x, g)
        for mirrored in (False, True):
            lowered = lower_ucr(g, n, mirrored=mirrored)
            for ladder in (apply_circuit(x, lowered), fold(x, lowered)):
                assert np.abs(direct.amplitudes - ladder.amplitudes).max() <= 1e-11


def test_apply_ucr_noncontiguous_controls():
    # controls need not be the leading qubits and their order carries weight
    rng = np.random.default_rng(13)
    x = random_state(4, 60)
    g = UcrGate((3, 1), 4, AXIS_Z, rng.uniform(-2, 2, 4))
    direct = apply_ucr(x, g)
    lowered = lower_ucr(g, 4)
    for ladder in (apply_circuit(x, lowered), fold(x, lowered)):
        assert np.abs(direct.amplitudes - ladder.amplitudes).max() <= 1e-11


def test_apply_ucr_range_check():
    with pytest.raises(DimensionError):
        apply_ucr(basis_state(2), UcrGate((1,), 3, AXIS_Y, [0.0, 0.0]))


def test_circuit_unitary_examples():
    assert np.array_equal(circuit_unitary(Circuit(2)), np.eye(4))
    swap_rows = circuit_unitary(Circuit(2, (Cnot(1, 2),)))
    perm = np.eye(4)[[0, 1, 3, 2]]
    assert np.array_equal(swap_rows, perm)


def test_circuit_unitary_matches_columnwise_simulation():
    # independent check of the flattened-identity construction
    c = random_circuit(3, 25, seed=7)
    u = circuit_unitary(c)
    for index in range(8):
        for col in (apply_circuit(basis_state(3, index), c), fold(basis_state(3, index), c)):
            assert np.abs(u[:, index] - col.amplitudes).max() <= 1e-12


def test_circuit_unitary_is_unitary():
    for seed in range(4):
        n = 2 + seed % 3
        u = circuit_unitary(random_circuit(n, 30, seed=seed))
        assert np.abs(u @ u.conj().T - np.eye(1 << n)).max() <= 1e-10


def test_circuit_unitary_cap():
    with pytest.raises(ValueError):
        circuit_unitary(Circuit(sim.MAX_UNITARY_QUBITS + 1))


AXES = st.sampled_from([AXIS_Y, AXIS_Z]) | st.floats(0.0, 2.0 * math.pi).map(
    lambda phi: Axis(math.sin(phi), math.cos(phi))
)


@st.composite
def circuits(draw, max_n=7, max_gates=80):
    """Arbitrary gate lists; half the gates keep the previous target, so
    long runs, CNOT-only runs and repeated CNOTs show up next to
    interleaved targets."""
    n = draw(st.integers(1, max_n))
    target = 1
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        if draw(st.booleans()):
            target = draw(st.integers(1, n))
        if n > 1 and draw(st.booleans()):
            control = draw(st.integers(1, n - 1))
            gates.append(Cnot(control + (control >= target), target))
        else:
            gates.append(Rot(draw(AXES), target, draw(st.floats(-4.0, 4.0))))
    return Circuit(n, tuple(gates))


# target 3's stretch opens with CNOTs after a z rotation on qubit 1, so its
# y rotation starts a run of its own behind them
OPENING_CNOTS = Circuit(3, (Rot(AXIS_Z, 1, 0.4), Cnot(1, 3), Cnot(2, 3), Rot(AXIS_Y, 3, 0.7),
                            Cnot(1, 3), Rot(AXIS_Y, 3, -0.2), Cnot(2, 3)))


def test_cnot_only_run_leaves_its_swaps_to_the_next_run():
    # the y run reads its buckets against the unswapped mask, so the CNOTs
    # ahead of it leave nothing to do and no run is planned for them
    runs = sim._run_plan(OPENING_CNOTS, 3).runs
    assert [(run.axis, run.swaps) for run in runs] == [(0, ()), (1, ())]


# a y run whose control sits below its target takes the general form; the
# z run after it has no controls and takes the batched form
CONTROL_BELOW = Circuit(2, (Cnot(2, 1), Rot(AXIS_Y, 1, 0.7), Cnot(2, 1), Rot(AXIS_Z, 1, 0.3)))


def test_control_below_the_target_takes_the_general_form():
    runs = sim._run_plan(CONTROL_BELOW, 2).runs
    assert [(run.axis, run.batched) for run in runs] == [(0, False), (1, True)]


@settings(deadline=None)
@given(circuits(), st.integers(0, 2**32 - 1))
@example(Circuit(3), 0)
@example(Circuit(3, (Cnot(1, 3), Cnot(1, 3), Cnot(2, 3), Cnot(3, 1))), 1)
@example(OPENING_CNOTS, 2)
@example(CONTROL_BELOW, 3)
def test_apply_circuit_matches_per_gate_fold(c, seed):
    x = random_state(c.n, seed)
    fused = apply_circuit(x, c)
    assert np.abs(fused.amplitudes - fold(x, c).amplitudes).max() <= 1e-12


@settings(deadline=None)
@given(circuits(max_n=4))
@example(Circuit(2))
def test_circuit_unitary_matches_per_gate_columns(c):
    u = circuit_unitary(c)
    for index in range(1 << c.n):
        col = fold(basis_state(c.n, index), c)
        assert np.abs(u[:, index] - col.amplitudes).max() <= 1e-12


@settings(deadline=None)
@given(circuits())
def test_dagger_is_an_involution(c):
    twice = dagger(dagger(c))
    assert twice == c
    # bit for bit: negating twice restores the sign of a zero angle
    assert angle_bits(twice) == angle_bits(c)


def angle_bits(c):
    return [g.angle.hex() for g in c.gates if isinstance(g, Rot)]


@st.composite
def ladders(draw, max_n=7, max_ucrs=4):
    """Concatenated lower_ucr ladders of random UCRs, some cut short.

    Controls are consecutive qubits on one side of the target (as in the
    synthesized cascades) or any subset in any order. Ladders use both
    mirror settings and y, z and general axes. A ladder cut after two
    CNOTs leaves a run that closes with a two-control mask.
    """
    n = draw(st.integers(1, max_n))
    gates = []
    for _ in range(draw(st.integers(1, max_ucrs))):
        target = draw(st.integers(1, n))
        if draw(st.booleans()):
            side = draw(st.sampled_from([range(1, target), range(target + 1, n + 1)]))
            start = draw(st.integers(0, len(side)))
            controls = tuple(side[start : draw(st.integers(start, len(side)))])
        else:
            others = [q for q in range(1, n + 1) if q != target]
            controls = tuple(draw(st.permutations(others))[: draw(st.integers(0, n - 1))])
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        angles = rng.uniform(-math.pi, math.pi, 1 << len(controls))
        ladder = lower_ucr(UcrGate(controls, target, draw(AXES), angles), n,
                           mirrored=draw(st.booleans())).gates
        gates += ladder[: draw(st.integers(1, len(ladder)))] if draw(st.booleans()) else ladder
    return Circuit(n, tuple(gates))


# rows a ladder of a structured state prunes: exact zeros of either sign
# and angles within the 1e-12 threshold
PRUNED = st.sampled_from([0.0, -0.0, 1e-13, -1e-13])


@st.composite
def pruned_ladders(draw, max_n=7):
    """ladders() with some rotation angles replaced from PRUNED."""
    c = draw(ladders(max_n))
    angle = c.angle.copy()
    rotations = np.flatnonzero(c.control == 0).tolist()
    for r in draw(st.sets(st.sampled_from(rotations))) if rotations else ():
        angle[r] = draw(PRUNED)
    return Circuit._from_columns(c.n, c.control, c.target, c.axis, c.axes, angle)


PRUNE_ATOLS = (None, 0.0, 1e-12, 0.5)
# each pins an order of the stack pass, whose rotations within the
# threshold are dropped before the stack rule runs: the tiny rotation stays
# out of the first one even once the CNOTs between them cancel; of three
# identical CNOTs one stays; the y pair merges to 0, which exposes the z
# rotation for the last one to merge into; the CNOTs after the pruned or
# merged y rotations cancel with the ones before them, the second with what
# the first exposed; the rotations around a tiny one merge without it; at
# 0.5 the -0.2 is dropped, not merged into a 0.4 that would pop both; zeros
# of both signs merge; CNOTs into one target cancel across one with another
# control, and two pairs across each other; once the tiny rotation goes, its
# two CNOT pairs form one block that cancels, and the rotations around it
# merge; a CNOT into another target breaks a block, which stays whole
STACK_ORDERS = [
    Circuit(2, (Rot(AXIS_Y, 2, 0.7), Cnot(1, 2), Cnot(1, 2), Rot(AXIS_Y, 2, 1e-13))),
    Circuit(2, (Cnot(1, 2), Cnot(1, 2), Cnot(1, 2))),
    Circuit(1, (Rot(AXIS_Z, 1, 0.4), Rot(AXIS_Y, 1, 0.7), Rot(AXIS_Y, 1, -0.7), Rot(AXIS_Z, 1, 0.1))),
    Circuit(3, (Cnot(1, 3), Cnot(2, 3), Rot(AXIS_Y, 3, 1e-13), Cnot(2, 3), Cnot(1, 3))),
    Circuit(3, (Cnot(1, 3), Cnot(2, 3), Rot(AXIS_Y, 3, 0.5), Rot(AXIS_Y, 3, -0.5),
                Cnot(2, 3), Cnot(1, 3), Rot(AXIS_Y, 3, 0.25))),
    Circuit(1, (Rot(AXIS_Y, 1, 0.3), Rot(AXIS_Y, 1, 1e-13), Rot(AXIS_Y, 1, 0.2))),
    Circuit(1, (Rot(AXIS_Y, 1, 0.6), Rot(AXIS_Y, 1, -0.2))),
    Circuit(1, (Rot(AXIS_Y, 1, -0.0), Rot(AXIS_Y, 1, -0.0), Rot(AXIS_Z, 1, -0.0), Rot(AXIS_Z, 1, 0.0))),
    Circuit(3, (Cnot(1, 3), Cnot(2, 3), Cnot(1, 3))),
    Circuit(3, (Cnot(1, 3), Cnot(2, 3), Cnot(1, 3), Cnot(2, 3))),
    Circuit(3, (Rot(AXIS_Y, 3, 0.3), Cnot(1, 3), Cnot(2, 3), Rot(AXIS_Y, 3, 1e-13),
                Cnot(1, 3), Cnot(2, 3), Rot(AXIS_Y, 3, 0.2))),
    Circuit(3, (Cnot(1, 3), Cnot(2, 3), Cnot(1, 2), Cnot(1, 3), Cnot(2, 3))),
]


# qubits this wide make the block step number the (block, control) pairs
# it sees; on a register of 2**31 - 1 qubits the stack key needs int64
WIDE = 2**20
WIDEST = 2**31 - 1
EXAMPLES = [
    *STACK_ORDERS,
    Circuit(2, (Cnot(1, 2), Rot(AXIS_Y, 2, 0.25), Rot(AXIS_Y, 2, -0.25), Cnot(1, 2),
                Rot(AXIS_Z, 1, -0.0), Rot(AXIS_Z, 1, 0.0), Rot(AXIS_Y, 1, 0.5))),
    Circuit(2, (Cnot(1, 2), Rot(AXIS_Y, 2, 1.0), Rot(AXIS_Y, 2, -0.8), Cnot(1, 2))),
    Circuit(WIDE, (Cnot(WIDE - 1, WIDE), Cnot(WIDE - 1, WIDE), Cnot(WIDE - 1, WIDE),
                   Rot(AXIS_Y, WIDE, 0.5), Rot(AXIS_Y, WIDE, 1e-13))),
    Circuit(WIDEST, (Cnot(1, WIDEST), Cnot(1, WIDEST), Rot(AXIS_Y, WIDEST, 0.5),
                     Rot(AXIS_Y, WIDEST, 0.25))),
]


SIMPLIFY_CASES = st.one_of(circuits(), ladders(), pruned_ladders())


def simplify_cases(test):
    """Run test on circuits, ladders and pruned ladders, and on EXAMPLES."""
    test = given(SIMPLIFY_CASES)(test)
    for c in EXAMPLES:
        test = example(c)(test)
    return settings(deadline=None)(test)


@simplify_cases
def test_simplify_matches_gate_object_oracle(c):
    for atol in PRUNE_ATOLS:
        got = simplify(c, prune_atol=atol)
        expect = simplify_gates(c, prune_atol=atol or 0.0, prune=atol is not None)
        assert got == expect
        assert angle_bits(got) == angle_bits(expect)


@simplify_cases
def test_simplify_is_idempotent(c):
    for atol in PRUNE_ATOLS:
        once = simplify(c, prune_atol=atol)
        twice = simplify(once, prune_atol=atol)
        assert twice == once
        assert angle_bits(twice) == angle_bits(once)


@simplify_cases
def test_simplify_counts_never_exceed_the_old_rule(c):
    # the rule before CNOTs into one target commuted: identical neighbours only
    for atol in PRUNE_ATOLS:
        got = gate_counts(simplify(c, prune_atol=atol))
        old = gate_counts(simplify_gates(c, prune_atol=atol or 0.0, prune=atol is not None, blocks=False))
        assert got["cnot"] <= old["cnot"] and got["rot"] <= old["rot"]


def cnot_blocks(c, atol=None):
    """Controls of each block of c, a maximal run of adjacent CNOTs into one
    target, once the rotations within atol are gone."""
    gates = [g for g in c.gates if not (atol is not None and isinstance(g, Rot) and abs(g.angle) <= atol)]
    runs = itertools.groupby(gates, lambda g: g.target if isinstance(g, Cnot) else None)
    return [[g.control for g in run] for target, run in runs if target is not None]


def test_simplify_cases_reach_a_twin_across_a_block():
    # a CNOT whose twin sits in its block but not next to it, as the CNOTs a
    # pruned ladder leaves do
    find(SIMPLIFY_CASES, lambda c: any(
        control in block[: i - 1] for block in cnot_blocks(c, 1e-12) for i, control in enumerate(block)
    ))


@settings(deadline=None)
@given(st.one_of(circuits(max_n=4), pruned_ladders(max_n=4)))
@example(Circuit(2, (Cnot(1, 2), Rot(AXIS_Z, 2, 1.0), Rot(AXIS_Z, 2, -1.0), Cnot(1, 2))))
def test_simplify_preserves_unitary(c):
    u = circuit_unitary(c)
    rotations = np.count_nonzero(c.control == 0)
    for atol in PRUNE_ATOLS:
        out = simplify(c, prune_atol=atol)
        x = atol or 0.0
        rot = out.control == 0
        if atol is not None:
            assert not (np.abs(out.angle[rot]) <= x).any()
        key = np.stack([out.control, out.target, out.axis], axis=1)
        assert not (key[1:] == key[:-1]).all(axis=1).any()
        assert all(len(set(block)) == len(block) for block in cnot_blocks(out))
        # each rotation dropped, or popped with the one it merged into,
        # moves the unitary by at most x/2 in operator norm
        removed = rotations - np.count_nonzero(rot)
        assert np.abs(circuit_unitary(out) - u).max() <= removed * x / 2 + 1e-12


@settings(deadline=None)
@given(st.one_of(circuits(), pruned_ladders()), st.integers(0, 2**32 - 1))
@example(Circuit(1, (Rot(AXIS_Y, 1, -0.0), Rot(AXIS_Z, 1, 0.0))), 3)  # axes swapped
def test_equal_circuits_hash_alike(c, seed):
    # axes listed in another order, zero angles of the other sign, a loaded
    # copy, a double inverse and a rebuilt circuit are all equal to c
    order = np.random.default_rng(seed).permutation(len(c.axes))
    axis = np.argsort(order)[c.axis] * (c.control == 0) if c.axes else c.axis
    reordered = tuple(c.axes[i] for i in order)
    flipped = np.where(c.angle == 0.0, -c.angle, c.angle)
    variants = [
        Circuit._from_columns(c.n, c.control, c.target, axis, reordered, flipped),
        load_circuit(dump_circuit(c))[0],
        dagger(dagger(c)),
        Circuit(c.n, c.gates),
    ]
    for v in variants:
        assert v == c
        assert hash(v) == hash(c)


def test_stack_orders_pinned():
    # what the stack pass gives on STACK_ORDERS at prune_atol 1e-12
    expect = [
        (Rot(AXIS_Y, 2, 0.7),),
        (Cnot(1, 2),),
        (Rot(AXIS_Z, 1, 0.4 + 0.1),),
        (),
        (Rot(AXIS_Y, 3, 0.25),),
        (Rot(AXIS_Y, 1, 0.3 + 0.2),),
        (Rot(AXIS_Y, 1, 0.6 + -0.2),),
        (),
        (Cnot(2, 3),),
        (),
        (Rot(AXIS_Y, 3, 0.3 + 0.2),),
        STACK_ORDERS[11].gates,
    ]
    assert [simplify(c, prune_atol=1e-12).gates for c in STACK_ORDERS] == expect
    assert simplify(STACK_ORDERS[6], prune_atol=0.5).gates == (Rot(AXIS_Y, 1, 0.6),)
    assert angle_bits(simplify(STACK_ORDERS[7])) == [(-0.0).hex(), 0.0.hex()]


def widest_flip(c):
    """Most controls in the closing CNOT mask of any run of c.

    A run ends where the target changes or a rotation changes axis on one
    target. That is apply_circuit's rule, except that apply_circuit may
    also split off the CNOTs that open a target's stretch.
    """
    widest, mask, target, axis = 0, 0, None, None
    for g in c.gates:
        if g.target != target or isinstance(g, Rot) and axis not in (None, g.axis):
            widest = max(widest, mask.bit_count())
            mask, target, axis = 0, g.target, None
        if isinstance(g, Cnot):
            mask ^= 1 << g.control
        else:
            axis = g.axis
    return max(widest, mask.bit_count())


# R Cnot(3, 4) R Cnot(2, 4), cut from a ladder, then a gate on another target
CUT_LADDER = Circuit(
    4,
    lower_ucr(UcrGate((1, 2, 3), 4, AXIS_Y, np.linspace(-1.0, 1.0, 8))).gates[:4]
    + (Rot(AXIS_Z, 1, 0.3),),
)


@settings(deadline=None)
@given(ladders(), st.integers(0, 2**32 - 1))
@example(CUT_LADDER, 2)
def test_fused_ladders_match_per_gate_fold(c, seed):
    x = random_state(c.n, seed)
    fused = apply_circuit(x, c)
    assert np.abs(fused.amplitudes - fold(x, c).amplitudes).max() <= 1e-12


def test_ladder_strategy_reaches_wide_flips():
    assert widest_flip(CUT_LADDER) == 2
    find(ladders(), lambda c: widest_flip(c) >= 3)


def batched_forms(c):
    """Per run of c's plan with rotations, whether it takes the batched form:
    every control above the target, and a y or z axis."""
    runs = [run for run in sim._run_plan(c, c.n).runs if run.axis is not None]
    return [run.batched and 0.0 in (c.axes[run.axis].ay, c.axes[run.axis].az) for run in runs]


def test_cut_ladder_closes_with_swaps_in_natural_bit_order():
    # the cut ladder on qubit 4 closes with swaps on qubits 3 and 2, index
    # bits 1 and 2; both its runs have every control above the target
    assert [(run.batched, run.swaps) for run in sim._run_plan(CUT_LADDER, 4).runs] == [
        (True, (1, 2)),
        (True, ()),
    ]
    assert batched_forms(CUT_LADDER) == [True, True]


def test_ladder_strategy_reaches_the_general_form():
    find(ladders(), lambda c: not all(batched_forms(c)))


@pytest.mark.parametrize("n", range(1, 11))
def test_synthesized_plans_close_without_swaps(n):
    # the z run of each UCR pair leaves its closing mask to the y run, whose
    # own CNOTs cancel it: the pair holds a Gray cycle less one seam pair
    a, b = random_state(n, 2 * n), random_state(n, 2 * n + 1)
    last = (1 << n) - 1
    results = [disentangle(a), prepare(a, b), *(prepare_from_basis(i, b) for i in (0, last))]
    for r in results:
        assert [run.swaps for run in sim._run_plan(r.circuit, n).runs if run.swaps] == []
    assert len(sim._run_plan(results[1].circuit, n).runs) == 4 * n - 1
    # every run with rotations has its controls above its target, also once
    # pruning has dropped rotations and CNOTs, as it does between product
    # states, and in the inverse
    p, q = (make_state(n, functools.reduce(np.kron, [random_state(1, 10 * s + j).amplitudes
                                                      for j in range(n)])) for s in (n, n + 1))
    results += [disentangle(p), prepare(p, q), *(prepare_from_basis(i, q) for i in (0, last))]
    made = [r.circuit for r in results]
    for c in made + [simplify(c, prune_atol=1e-12) for c in made] + [dagger(c) for c in made]:
        assert all(batched_forms(c))


def count_plans(monkeypatch) -> list:
    """Empty the plan cache for one test; the returned list collects the
    circuit of every plan built."""
    monkeypatch.setattr(sim, "_plans", [])
    built, plan = [], sim._run_plan
    monkeypatch.setattr(sim, "_run_plan", lambda c, n_bits: built.append(c) or plan(c, n_bits))
    return built


def test_circuits_with_equal_columns_share_one_plan(monkeypatch):
    # product states: pruning drops the rotations whose angles vanish
    a, b = (make_state(6, functools.reduce(np.kron, [random_state(1, 10 * s + q).amplitudes
                                                     for q in range(6)])) for s in (1, 2))
    result = prepare(a, b).circuit
    pruned = simplify(result, prune_atol=1e-12)
    assert len(pruned) < len(result)
    built = count_plans(monkeypatch)
    copy = Circuit._from_columns(6, *(col.copy() for col in (
        result.control, result.target, result.axis)), result.axes, result.angle.copy())
    same = [result, simplify(result), load_circuit(dump_circuit(result))[0], copy]
    images = [apply_circuit(a, c).amplitudes for c in same]
    second = prepare(b, a).circuit
    assert np.abs(apply_circuit(b, second).amplitudes - fold(b, second).amplitudes).max() <= 1e-12
    assert built == [result]
    assert np.abs(images[0] - fold(a, result).amplitudes).max() <= 1e-12
    assert all(image.tobytes() == images[0].tobytes() for image in images)
    # a reversed circuit's columns are new views on every call, equal ones;
    # a prepare layout reads the same reversed, a disentangle one does not
    for _ in range(2):
        for inverse in (dagger(result), dagger(disentangle(a).circuit)):
            image = apply_circuit(a, inverse).amplitudes
            assert np.abs(image - fold(a, inverse).amplitudes).max() <= 1e-12
    assert len(built) == 2
    # their own plans: other columns of the same length, or another register
    changed = result.control.copy()
    r = int(np.flatnonzero(result.control == 5)[0])
    changed[r] = 4 if result.target[r] != 4 else 3
    other = Circuit._from_columns(6, changed, result.target, result.axis, result.axes, result.angle)
    assert len(other) == len(result) and other != result
    for c in (pruned, other):
        assert np.abs(apply_circuit(a, c).amplitudes - fold(a, c).amplitudes).max() <= 1e-12
    assert np.abs(circuit_unitary(result) @ a.amplitudes - images[0]).max() <= 1e-12
    assert len(built) == 5 and built[2] is pruned and built[3] is other and built[4] is result
    for c in same:
        apply_circuit(a, c)
    assert len(built) == 5


@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
@example([*range(1, 10)] * 2, 0)
def test_evicted_plans_rebuild_bit_identical(visits, seed):
    # each qubit count uses up to three column layouts, so a visit list with
    # more than five distinct counts evicts plans, and revisits rebuild them
    rng = np.random.default_rng(seed)
    kept, runs, misses = [], [], 0  # kept models the cache's keys, most recent first
    with (mock.patch.object(sim, "_plans", []),
          mock.patch.object(sim, "_run_plan", wraps=sim._run_plan) as run_plan):
        for n in visits:
            a, b = (random_state(n, int(s)) for s in rng.integers(1 << 30, size=2))
            i = int(rng.integers(1 << n))
            for result in (disentangle(a), prepare(a, b), prepare_from_basis(i, b)):
                c = result.circuit
                key = n, c.control.tobytes(), c.target.tobytes(), c.axis.tobytes()
                misses += key not in kept
                kept = [key, *(k for k in kept if k != key)][: sim._PLAN_CACHE_SIZE]
                x = random_state(n, int(rng.integers(1 << 30)))
                runs.append((x, c, apply_circuit(x, c).amplitudes.tobytes()))
                assert run_plan.call_count == misses
    for x, c, image in runs:
        with mock.patch.object(sim, "_plans", []):
            assert apply_circuit(x, c).amplitudes.tobytes() == image
