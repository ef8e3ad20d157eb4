"""Angle schedules checked against slice-by-slice reference formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ucrsynth import angle_schedule, make_state, phases, random_state


def naive_z_level(omega, k):
    """Block-mean phase differences via explicit slicing."""
    half = 1 << (k - 1)
    out = []
    for j in range(len(omega) >> k):
        lo = omega[(2 * j) * half : (2 * j + 1) * half]
        hi = omega[(2 * j + 1) * half : (2 * j + 2) * half]
        out.append((sum(hi) - sum(lo)) / half)
    return out


def naive_y_level(amps, k):
    """2 asin(|second half| / |block|) via explicit slicing."""
    size = 1 << k
    out = []
    for j in range(len(amps) // size):
        block = amps[j * size : (j + 1) * size]
        whole = np.linalg.norm(block)
        upper = np.linalg.norm(block[size // 2 :])
        if whole == 0.0:
            out.append(0.0)
        else:
            out.append(2.0 * math.asin(min(1.0, upper / whole)))
    return out


@st.composite
def states(draw):
    """Haar-random states on n = 1..8 qubits with a random pattern of zero amplitudes."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps[rng.random(1 << n) < draw(st.floats(0.0, 1.0))] = 0.0
    if not amps.any():
        amps[rng.integers(1 << n)] = 1.0
    return make_state(n, amps, normalize=True)


def test_z_levels_frozen_example():
    x = make_state(2, np.array([1.0, 1.0j, 1.0, 1.0j]) / 2.0)
    levels = angle_schedule(x).z_levels
    assert levels[0] == pytest.approx([math.pi / 2, math.pi / 2])
    assert levels[1] == pytest.approx([0.0])


def test_y_levels_frozen_bell():
    bell = make_state(2, [1.0, 0.0, 0.0, 1.0], normalize=True)
    levels = angle_schedule(bell).y_levels
    assert levels[0] == pytest.approx([0.0, math.pi])
    assert levels[1] == pytest.approx([math.pi / 2])


@settings(deadline=None, max_examples=60)
@given(states())
def test_z_levels_match_naive(x):
    omega = list(phases(x))
    levels = angle_schedule(x).z_levels
    assert len(levels) == x.n
    for k, level in enumerate(levels, start=1):
        assert level == pytest.approx(naive_z_level(omega, k), abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(states())
def test_y_levels_match_naive(x):
    levels = angle_schedule(x).y_levels
    assert len(levels) == x.n
    for k, level in enumerate(levels, start=1):
        assert level == pytest.approx(naive_y_level(x.amplitudes, k), abs=1e-12)


def test_zero_blocks_give_zero_angles():
    x = make_state(3, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    levels = angle_schedule(x).y_levels
    for level in levels:
        assert np.all(np.isfinite(level))
    # the empty lower half contributes only zero rotations
    assert levels[0] == pytest.approx([0.0, 0.0, 0.0, 0.0])
    assert levels[2] == pytest.approx([math.pi])


def test_y_angles_range():
    for seed in range(5):
        x = random_state(5, 40 + seed)
        for level in angle_schedule(x).y_levels:
            assert np.all(level >= 0.0)
            assert np.all(level <= math.pi)


def test_schedule_bundles_both():
    x = random_state(3, 5)
    schedule = angle_schedule(x)
    assert schedule.n == 3
    assert [v.size for v in schedule.z_levels] == [4, 2, 1]
    assert [v.size for v in schedule.y_levels] == [4, 2, 1]
    assert schedule.mean_phase == float(np.sum(phases(x))) / x.dim
