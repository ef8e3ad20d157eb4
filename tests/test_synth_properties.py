"""Property tests of the synthesis invariants over n = 1..7.

States are Haar-random, real non-negative, computational basis states,
Haar-random with a random pattern of zero amplitudes, or graded: Haar-random
with a few aligned blocks scaled down by up to 1e-12 and about 10% of the
amplitudes zero. The seam oracle lowers every UCR of the paper's cascades
on its own with ``lower_ucr``, joins the ladders and runs the general
``simplify`` pass over them.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucrsynth import (
    angle_schedule,
    apply_circuit,
    basis_state,
    bounds,
    disentangle,
    gate_counts,
    make_state,
    phases,
    prepare,
    prepare_from_basis,
    wrap_angle,
)

from test_synth import (
    angle_bits,
    cascade,
    full_counts,
    half_counts,
    inverse,
    mirrored_realization,
    relabeled_schedule,
    simplified_ladders,
)

KINDS = ("haar", "nonnegative", "basis", "zeros", "graded")


@st.composite
def states(draw, n):
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    if kind == "nonnegative":
        amps = np.abs(amps.real)
    elif kind == "basis":
        amps = np.zeros(1 << n)
        amps[rng.integers(1 << n)] = 1.0
    elif kind == "zeros":
        amps[rng.random(1 << n) < draw(st.floats(0.0, 1.0))] = 0.0
    elif kind == "graded":
        for _ in range(rng.integers(1, 4)):
            size = 1 << rng.integers(n)
            start = size * rng.integers((1 << n) // size)
            amps[start : start + size] *= 10.0 ** -rng.integers(13)
        amps[rng.random(1 << n) < 0.1] = 0.0
    if not amps.any():
        amps[rng.integers(1 << n)] = 1.0
    return kind, make_state(n, amps, normalize=True)


@st.composite
def cases(draw):
    """(n, kind of a, a, kind of b, b, basis index i)."""
    n = draw(st.integers(1, 7))
    (kind_a, a), (kind_b, b) = draw(states(n)), draw(states(n))
    return n, kind_a, a, kind_b, b, draw(st.integers(0, (1 << n) - 1))


def mean_phase(x):
    return float(np.sum(phases(x))) / x.dim


def results(a, b, i):
    """(result, its oracle circuit, source state, target state, formula phase)."""
    n = a.n
    schedule_a, schedule_b = angle_schedule(a), angle_schedule(b)
    out = [(disentangle(a), simplified_ladders(n, cascade(schedule_a)), a, basis_state(n),
            mean_phase(a))]
    ucrs = cascade(schedule_a) + inverse(cascade(schedule_b))
    out.append((prepare(a, b), simplified_ladders(n, ucrs), a, b, mean_phase(a) - mean_phase(b)))
    out.append((prepare_from_basis(i, b),
                simplified_ladders(n, inverse(cascade(relabeled_schedule(i, b)))),
                basis_state(n, i), b, -mean_phase(b)))
    return out


@settings(deadline=None, max_examples=150)
@given(cases())
def test_seam_rule_equals_simplify_of_joined_ladders(case):
    n, _, a, _, b, i = case
    for result, expect, *_ in results(a, b, i):
        assert result.circuit == expect
        assert angle_bits(result.circuit) == angle_bits(expect)


@settings(deadline=None)
@given(cases())
def test_counts_within_bounds_and_exact_for_generic_states(case):
    n, kind_a, a, kind_b, b, i = case
    limit = bounds(n)
    full = prepare(a, b).counts
    assert full["cnot"] <= limit.upper_cnot and full["rot"] <= limit.upper_rot
    half = [disentangle(a).counts, prepare_from_basis(i, b).counts]
    for counts in half:
        assert counts["cnot"] <= half_counts(n)["cnot"] and counts["rot"] <= half_counts(n)["rot"]
    mirrored = gate_counts(mirrored_realization(a, b))
    assert mirrored["rot"] == full["rot"]
    if kind_a == kind_b == "haar":
        assert full == full_counts(n)
        assert half == [half_counts(n)] * 2
        assert mirrored["cnot"] == full["cnot"] + 4 * (n - 1)


def assert_maps(circuit, source, target, phase):
    """circuit takes source to e^(i phase) target: fidelity, simulated phase, every amplitude.

    The amplitude check sees what fidelity cannot: an amplitude far below
    its block's norm must come out to about 1e-16 absolute, not be lost.
    """
    out = apply_circuit(source, circuit)
    overlap = complex(np.vdot(target.amplitudes, out.amplitudes))
    assert abs(overlap) >= 1.0 - 1e-9
    simulated = math.atan2(overlap.imag, overlap.real)
    assert abs(wrap_angle(simulated - phase)) <= 1e-9
    error = np.max(np.abs(out.amplitudes - np.exp(1j * simulated) * target.amplitudes))
    assert error <= 1e-14


@settings(deadline=None)
@given(cases())
# prepare_from_basis(0, .) lost the 1e-10 amplitude when y angles were asin of a ratio
@example((2, "basis", basis_state(2), "graded", make_state(2, [1e-10, 0, 1, 0], normalize=True), 0))
def test_fidelity_and_residual_phase(case):
    _, _, a, _, b, i = case
    for result, _, source, target, formula in results(a, b, i):
        assert result.residual_phase == wrap_angle(formula)
        assert_maps(result.circuit, source, target, result.residual_phase)
    # the mirrored realization carries the same phase
    assert_maps(mirrored_realization(a, b), a, b, wrap_angle(mean_phase(a) - mean_phase(b)))
