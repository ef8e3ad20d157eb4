"""End-to-end synthesis checks against the statevector simulator."""

import math

import numpy as np
import pytest

from ucrsynth import (
    AXIS_Y,
    AXIS_Z,
    Circuit,
    Cnot,
    DimensionError,
    Rot,
    UcrGate,
    angle_schedule,
    apply_circuit,
    basis_state,
    bounds,
    dagger,
    disentangle,
    gate_counts,
    lower_ucr,
    make_state,
    phases,
    prepare,
    prepare_from_basis,
    random_state,
    simplify,
    wrap_angle,
)
from ucrsynth.synth import SKELETON_CACHE_SIZE, _skeleton


def full_counts(n):
    return {"cnot": 2 ** (n + 2) - 4 * n - 4, "rot": 2 ** (n + 2) - 5}


def half_counts(n):
    return {"cnot": 2 ** (n + 1) - 2 * n - 2, "rot": 2 ** (n + 1) - 2}


def overlap(circuit, x, target):
    out = apply_circuit(x, circuit)
    return complex(np.vdot(target.amplitudes, out.amplitudes))


def zero_padded_state(n, zeros, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps[rng.choice(1 << n, size=zeros, replace=False)] = 0.0
    if not np.any(amps):
        amps[0] = 1.0
    return make_state(n, amps, normalize=True)


def test_bounds_frozen_values():
    b5 = bounds(5)
    assert (b5.upper_cnot, b5.upper_rot) == (104, 123)
    assert b5.lower_rot == 62
    assert b5.lower_cnot == 12
    b1 = bounds(1)
    assert (b1.upper_cnot, b1.upper_rot) == (0, 3)
    assert b1.lower_cnot == 0
    b3 = bounds(3)
    assert (b3.upper_cnot, b3.upper_rot) == (16, 27)
    with pytest.raises(ValueError):
        bounds(0)


def test_bounds_rederived():
    # upper bounds from the per-level ladder sizes, lower bounds from the
    # ceil expression evaluated in exact integer arithmetic
    for n in range(1, 12):
        b = bounds(n)
        ladder = sum(2 * 2 ** (j - 1) for j in range(1, n + 1))
        cancelled = sum(2 for j in range(2, n + 1))
        assert b.upper_rot == 2 * ladder - 1
        assert b.upper_cnot == 2 * (ladder - 2 - cancelled)
        assert b.lower_rot == 2 * (2**n - 1)
        assert b.lower_cnot == -((-(2 ** (n + 1) - 3 * n - 2)) // 4)
        assert b.qr_comparison_cnot == pytest.approx(12.6 * 2**n)


def test_disentangle_fixed_point():
    result = disentangle(basis_state(3))
    out = apply_circuit(basis_state(3), result.circuit)
    assert abs(out.amplitudes[0] - 1.0) <= 1e-12
    assert result.residual_phase == 0.0
    for gate in result.circuit.gates:
        if isinstance(gate, Rot):
            assert gate.angle == 0.0


def test_disentangle_bell_frozen_structure():
    bell = make_state(2, [1, 0, 0, 1], normalize=True)
    result = disentangle(bell)
    out = apply_circuit(bell, result.circuit)
    assert abs(out.amplitudes[0] - 1.0) <= 1e-12
    # the nontrivial gates are the (0, pi) controlled-y pair and R_y(pi/2)
    rots = [g for g in result.circuit.gates if isinstance(g, Rot) and g.axis == AXIS_Y]
    assert [g.angle for g in rots if g.target == 1] == [pytest.approx(math.pi / 2)]


def test_disentangle_counts_and_action():
    for n in range(1, 9):
        x = random_state(n, 300 + n)
        result = disentangle(x)
        assert result.counts == half_counts(n)
        assert result.counts == gate_counts(result.circuit)
        out = apply_circuit(x, result.circuit)
        pivot = out.amplitudes[0]
        assert abs(abs(pivot) - 1.0) <= 1e-10
        assert np.abs(out.amplitudes[1:]).max() <= 1e-10


def test_disentangle_residual_phase_formula():
    for n in range(1, 8):
        x = random_state(n, 400 + n)
        result = disentangle(x)
        expect = wrap_angle(float(np.sum(phases(x))) / x.dim)
        assert abs(wrap_angle(result.residual_phase - expect)) <= 1e-12
        out = apply_circuit(x, result.circuit)
        measured = math.atan2(out.amplitudes[0].imag, out.amplitudes[0].real)
        assert abs(wrap_angle(measured - expect)) <= 1e-9


def test_prepare_counts_and_fidelity():
    for n in range(1, 8):
        a = random_state(n, 500 + n)
        b = random_state(n, 600 + n)
        result = prepare(a, b)
        assert result.counts == full_counts(n)
        ov = overlap(result.circuit, a, b)
        assert abs(ov) >= 1.0 - 1e-9
        assert abs(wrap_angle(math.atan2(ov.imag, ov.real) - result.residual_phase)) <= 1e-9


def test_certify_prepare_at_n14():
    # the widest UCRs have k = 13 controls: six 2-bit groups of the
    # transform plus its odd top bit, and simulator runs with 13 controls
    n = 14
    a = random_state(n, 1400)
    b = random_state(n, 1401)
    result = prepare(a, b)
    assert result.counts == full_counts(n)
    expect = wrap_angle(float(np.sum(phases(a))) / a.dim - float(np.sum(phases(b))) / b.dim)
    assert abs(wrap_angle(result.residual_phase - expect)) <= 1e-12
    ov = overlap(result.circuit, a, b)
    assert abs(ov) >= 1.0 - 1e-9
    assert abs(wrap_angle(math.atan2(ov.imag, ov.real) - result.residual_phase)) <= 1e-9


def test_prepare_mirrored_realization():
    # mirrored ladders keep rotations and exactness, lose the 4(n - 1)
    # boundary-CNOT cancellations between the z and y stage members
    for n in range(1, 6):
        a = random_state(n, 520 + n)
        b = random_state(n, 620 + n)
        circuit = mirrored_realization(a, b)
        counts = gate_counts(circuit)
        assert counts["rot"] == full_counts(n)["rot"]
        assert counts["cnot"] == full_counts(n)["cnot"] + 4 * (n - 1)
        ov = overlap(circuit, a, b)
        assert abs(ov) >= 1.0 - 1e-9
        expect = wrap_angle(mean_phase(a) - mean_phase(b))
        assert abs(wrap_angle(math.atan2(ov.imag, ov.real) - expect)) <= 1e-9
        if n > 1:
            assert circuit != prepare(a, b).circuit


def test_prepare_takes_no_mirrored_option():
    # one realization: the mirrored one is built from lower_ucr(..., mirrored=True)
    a, b = random_state(2, 1), random_state(2, 2)
    with pytest.raises(TypeError):
        prepare(a, b, mirrored=True)


def test_entry_points_build_no_ucr_gates(monkeypatch):
    # synthesis carries (target, axis, block angles) levels straight to the
    # cached skeleton; UcrGate is only the input of the oracles
    def refuse(self):
        raise AssertionError("UcrGate built")

    monkeypatch.setattr(UcrGate, "__post_init__", refuse)
    rng = np.random.default_rng(13)
    for n in range(1, 7):
        a, b = random_state(n, 1300 + n), random_state(n, 1400 + n)
        i = int(rng.integers(1 << n))
        assert disentangle(a).counts == half_counts(n)
        assert prepare(a, b).counts == full_counts(n)
        assert prepare_from_basis(i, b).counts == half_counts(n)


def test_prepare_identity_pair():
    a = random_state(4, 7)
    result = prepare(a, a)
    assert abs(overlap(result.circuit, a, a)) >= 1.0 - 1e-10
    assert result.counts == full_counts(4)
    assert abs(result.residual_phase) <= 1e-12


def test_prepare_dimension_mismatch():
    with pytest.raises(DimensionError):
        prepare(random_state(2, 1), random_state(3, 1))


def test_prepare_from_basis_zero_index():
    for n in range(1, 8):
        b = random_state(n, 700 + n)
        result = prepare_from_basis(0, b)
        assert result.counts == half_counts(n)
        ov = overlap(result.circuit, basis_state(n), b)
        assert abs(ov) >= 1.0 - 1e-10
        assert abs(wrap_angle(math.atan2(ov.imag, ov.real) - result.residual_phase)) <= 1e-9


def test_prepare_from_basis_identity_target():
    result = prepare_from_basis(0, basis_state(3))
    out = apply_circuit(basis_state(3), result.circuit)
    assert abs(out.amplitudes[0] - 1.0) <= 1e-12


def test_prepare_from_basis_all_indices_exhaustive():
    for n in (1, 2, 3):
        b = random_state(n, 40 + n)
        for i in range(1 << n):
            result = prepare_from_basis(i, b)
            assert result.counts == half_counts(n)
            ov = overlap(result.circuit, basis_state(n, i), b)
            assert abs(ov) >= 1.0 - 1e-10
            assert abs(wrap_angle(math.atan2(ov.imag, ov.real) - result.residual_phase)) <= 1e-9


def test_prepare_from_basis_bell():
    bell = make_state(2, [1, 0, 0, 1], normalize=True)
    result = prepare_from_basis(0, bell)
    assert abs(overlap(result.circuit, basis_state(2), bell)) >= 1.0 - 1e-10


def test_prepare_from_basis_index_range():
    b = random_state(2, 1)
    with pytest.raises(ValueError):
        prepare_from_basis(4, b)
    with pytest.raises(ValueError):
        prepare_from_basis(-1, b)


def test_degenerate_states_reach_target():
    ghz = lambda n: make_state(n, [1.0] + [0.0] * (2**n - 2) + [1.0], normalize=True)

    def w(n):
        amps = np.zeros(1 << n)
        amps[[1 << q for q in range(n)]] = 1.0
        return make_state(n, amps, normalize=True)

    cases = [make_state(2, [1, 0, 0, 1], normalize=True)]
    cases += [ghz(n) for n in range(3, 7)]
    cases += [w(n) for n in range(3, 7)]
    cases += [zero_padded_state(5, zeros, seed) for zeros, seed in [(7, 1), (20, 2), (29, 3)]]
    for state in cases:
        target = random_state(state.n, 900 + state.n)
        result = prepare(state, target)
        assert abs(overlap(result.circuit, state, target)) >= 1.0 - 1e-9
        # and as the target of the half construction
        back = prepare_from_basis(0, state)
        assert abs(overlap(back.circuit, basis_state(state.n), state)) >= 1.0 - 1e-9


def test_counts_stay_within_bounds():
    for n in range(1, 8):
        result = prepare(random_state(n, n), random_state(n, 50 + n))
        b = result.bounds
        assert b.lower_cnot <= result.counts["cnot"] <= b.upper_cnot
        assert b.lower_rot <= result.counts["rot"] <= b.upper_rot


def test_junction_merge_is_single_y_rotation():
    # the two halves join on qubit 1: a lone merged y-rotation sits between
    # the forward half's closing z and the inverse half's opening z
    a, b = random_state(3, 1), random_state(3, 2)
    gates = prepare(a, b).circuit.gates
    q1 = [g for g in gates if not isinstance(g, Cnot) and g.target == 1]
    axes = [g.axis for g in q1]
    assert len(q1) == 3
    assert axes[0].az == axes[2].az == 1.0
    assert axes[1].ay == 1.0


def lowered_half(schedule, mirrored=False):
    """Cascade lowered UCR by UCR, the y member of each pair mirrored."""
    n = schedule.n
    gates = []
    for j in range(n, 0, -1):
        controls = tuple(range(1, j))
        for axis, level in ((AXIS_Z, schedule.z_levels[n - j]), (AXIS_Y, schedule.y_levels[n - j])):
            flip = (axis == AXIS_Y) != mirrored
            gates += lower_ucr(UcrGate(controls, j, axis, level), n, mirrored=flip).gates
    return Circuit(n, tuple(gates))


def relabeled_schedule(i, b):
    """Schedule of b with index i sent to 0, bit flips folded into the angles."""
    n = b.n
    schedule = angle_schedule(make_state(n, b.amplitudes[np.arange(b.dim) ^ i]))
    for j in range(1, n + 1):
        sign = -1.0 if (i >> (n - j)) & 1 else 1.0
        perm = np.arange(1 << (j - 1)) ^ (i >> (n - j + 1))
        schedule.z_levels[n - j] = sign * schedule.z_levels[n - j][perm]
        schedule.y_levels[n - j] = sign * schedule.y_levels[n - j][perm]
    return schedule


def cascade(schedule):
    n = schedule.n
    ucrs = []
    for j in range(n, 0, -1):
        controls = tuple(range(1, j))
        ucrs.append(UcrGate(controls, j, AXIS_Z, schedule.z_levels[n - j]))
        ucrs.append(UcrGate(controls, j, AXIS_Y, schedule.y_levels[n - j]))
    return ucrs


def inverse(ucrs):
    return [UcrGate(g.controls, g.target, g.axis, -g.angles) for g in reversed(ucrs)]


def simplified_ladders(n, ucrs, mirrored=False):
    """simplify over every UCR's ladder, the second of each pair mirrored."""
    gates = []
    for index, g in enumerate(ucrs):
        gates += lower_ucr(g, n, mirrored=(index % 2 == 1) != mirrored).gates
    return simplify(Circuit(n, tuple(gates)))


def mirrored_realization(a, b):
    """prepare(a, b)'s UCRs with every ladder flipped, so the first of each pair mirrored."""
    ucrs = cascade(angle_schedule(a)) + inverse(cascade(angle_schedule(b)))
    return simplified_ladders(a.n, ucrs, mirrored=True)


def angle_bits(c):
    return [g.angle.hex() for g in c.gates if isinstance(g, Rot)]


def mean_phase(x):
    return float(np.sum(phases(x))) / x.dim


def test_single_path_matches_lowered_halves_joined_by_dagger():
    # oracle: lower each half to a circuit, invert b's half gate by gate
    # with dagger, join and simplify; == (not bitwise) because negating
    # before the Walsh-Hadamard transform may flip the sign of a zero angle
    rng = np.random.default_rng(2024)
    for n in range(1, 9):
        for zeros in (0, (1 << n) // 2):
            a = zero_padded_state(n, zeros, int(rng.integers(1 << 30)))
            b = zero_padded_state(n, zeros, int(rng.integers(1 << 30)))
            i = int(rng.integers(1 << n))
            cases = [
                (disentangle(a), simplify(lowered_half(angle_schedule(a))), mean_phase(a)),
                (
                    prepare_from_basis(0, b),
                    simplify(dagger(lowered_half(angle_schedule(b)))),
                    -mean_phase(b),
                ),
                (
                    prepare_from_basis(i, b),
                    simplify(dagger(lowered_half(relabeled_schedule(i, b)))),
                    -mean_phase(b),
                ),
            ]
            forward = lowered_half(angle_schedule(a))
            backward = dagger(lowered_half(angle_schedule(b)))
            expect = simplify(Circuit(n, forward.gates + backward.gates))
            cases.append((prepare(a, b), expect, mean_phase(a) - mean_phase(b)))
            for result, expect, residual in cases:
                assert result.circuit.gates == expect.gates
                assert result.counts == gate_counts(expect)
                assert result.residual_phase == wrap_angle(residual)
            # and the mirrored realization the other tests build from lower_ucr
            forward = lowered_half(angle_schedule(a), mirrored=True)
            backward = dagger(lowered_half(angle_schedule(b), mirrored=True))
            expect = simplify(Circuit(n, forward.gates + backward.gates))
            assert mirrored_realization(a, b).gates == expect.gates


def test_skeleton_cache_reuse_and_eviction():
    # three layouts per qubit count, two state pairs each, n = 1..9 visited
    # twice: more layouts than the cache holds, so results come from built,
    # reused and rebuilt skeletons
    assert 3 * 9 > SKELETON_CACHE_SIZE >= 3
    before = _skeleton.cache_info()
    rng = np.random.default_rng(31)
    for n in [*range(1, 10)] * 2:
        for _ in range(2):
            a, b = (random_state(n, int(seed)) for seed in rng.integers(1 << 30, size=2))
            i = int(rng.integers(1 << n))
            schedule_a, schedule_b = angle_schedule(a), angle_schedule(b)
            ucrs = cascade(schedule_a) + inverse(cascade(schedule_b))
            cases = [
                (prepare(a, b), simplified_ladders(n, ucrs)),
                (prepare_from_basis(i, b),
                 simplified_ladders(n, inverse(cascade(relabeled_schedule(i, b))))),
                (disentangle(a), simplified_ladders(n, cascade(schedule_a))),
            ]
            for result, expect in cases:
                assert result.circuit == expect
                assert angle_bits(result.circuit) == angle_bits(expect)
    after = _skeleton.cache_info()
    # the second pair of each visit reuses three skeletons; every layout was
    # evicted before its second visit and is rebuilt then
    assert after.hits - before.hits >= 3 * 18
    assert after.misses - before.misses >= 3 * 9
    assert after.currsize == SKELETON_CACHE_SIZE


def test_results_cannot_write_the_shared_skeleton():
    a, b = random_state(3, 1), random_state(3, 2)
    first, second = prepare(a, b).circuit, prepare(b, a).circuit
    for name in ("control", "target", "axis"):
        column = getattr(first, name)
        assert np.shares_memory(column, getattr(second, name))
        with pytest.raises(ValueError):
            column.flags.writeable = True
        with pytest.raises(ValueError):
            column[0] = 0
    assert not np.shares_memory(first.angle, second.angle)
    assert prepare(a, b).circuit == first
