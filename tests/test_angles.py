"""Angle schedules checked against slice-by-slice reference formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    """Per block, via explicit slicing: 2 asin(|second half| / |block|) and
    the rotation's matrix entries sin(y/2) = |second half| / |block| and
    cos(y/2) = |first half| / |block| (0, 0 and 1 for a zero block)."""
    size = 1 << k
    angles, sines, cosines = [], [], []
    for j in range(len(amps) // size):
        block = amps[j * size : (j + 1) * size]
        whole = np.linalg.norm(block)
        if whole == 0.0:
            angles.append(0.0)
            sines.append(0.0)
            cosines.append(1.0)
            continue
        upper = np.linalg.norm(block[size // 2 :]) / whole
        angles.append(2.0 * math.asin(min(1.0, upper)))
        sines.append(upper)
        cosines.append(np.linalg.norm(block[: size // 2]) / whole)
    return np.array(angles), np.array(sines), np.array(cosines)


def zero_first_half_state():
    """Seeded n = 2 state with amplitudes (0, 0, a, b): its level-2 angle is
    exactly pi, while the sliced ratio lands one ulp under 1."""
    rng = np.random.default_rng(112)
    n = int(rng.integers(2, 5))
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps[rng.random(1 << n) < rng.random()] = 0.0
    return make_state(n, amps, normalize=True)


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
@example(zero_first_half_state())
def test_y_levels_match_naive(x):
    # The matrix entries are compared everywhere. The angle is compared only
    # where the ratio stays clear of 1: asin's slope is unbounded there, and
    # a ratio one ulp under 1 moves the angle by 3e-8.
    levels = angle_schedule(x).y_levels
    assert len(levels) == x.n
    for k, level in enumerate(levels, start=1):
        angles, sines, cosines = naive_y_level(x.amplitudes, k)
        assert np.sin(level / 2) == pytest.approx(sines, abs=1e-12)
        assert np.cos(level / 2) == pytest.approx(cosines, abs=1e-12)
        tame = sines <= 1.0 - 1e-6
        assert level[tame] == pytest.approx(angles[tame], abs=1e-12)


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
