import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ucrsynth import (
    alpha_to_theta,
    alpha_to_theta_dense,
    gray,
    gray_permutation,
    sign_matrix,
    theta_to_alpha,
)
from ucrsynth.gray import _fwht, _hadamard


def test_gray_first_values():
    assert [gray(m) for m in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]
    with pytest.raises(ValueError):
        gray(-1)


def test_gray_neighbors_differ_by_one_bit():
    for k in range(1, 8):
        for m in range(1 << k):
            step = gray(m) ^ gray((m + 1) % (1 << k))
            assert step.bit_count() == 1


def test_gray_permutation_is_bijection():
    for k in range(0, 7):
        perm = gray_permutation(k)
        assert sorted(perm) == list(range(1 << k))
        assert all(perm[m] == gray(m) for m in range(1 << k))


def test_gray_permutation_is_one_cached_read_only_array():
    for k in range(0, 7):
        perm = gray_permutation(k)
        assert gray_permutation(k) is perm
        with pytest.raises(ValueError, match="read-only"):
            perm[0] = 1


def test_sign_matrix_small():
    assert sign_matrix(0).tolist() == [[1]]
    assert sign_matrix(1).tolist() == [[1, 1], [1, -1]]


def test_sign_matrix_against_popcount_loop():
    for k in range(0, 6):
        s = sign_matrix(k)
        for i in range(1 << k):
            for j in range(1 << k):
                assert s[i, j] == (-1) ** bin(j & gray(i)).count("1")


def test_sign_matrix_scaled_orthogonality():
    # S S^T = 2^k I exactly, in integer arithmetic
    for k in range(0, 7):
        s = sign_matrix(k)
        expect = (1 << k) * np.eye(1 << k, dtype=np.int64)
        assert np.array_equal(s @ s.T, expect)


def test_angle_transform_k1_frozen():
    theta = alpha_to_theta(np.array([math.pi / 2, -math.pi / 2]))
    assert theta == pytest.approx([0.0, math.pi / 2], abs=1e-15)


def test_fast_matches_dense():
    rng = np.random.default_rng(3)
    for k in range(0, 9):
        alpha = rng.uniform(-math.pi, math.pi, 1 << k)
        fast = alpha_to_theta(alpha)
        dense = alpha_to_theta_dense(alpha)
        assert np.abs(fast - dense).max() <= 1e-12


def test_round_trip_both_directions():
    rng = np.random.default_rng(4)
    for k in range(0, 9):
        alpha = rng.uniform(-math.pi, math.pi, 1 << k)
        assert np.abs(theta_to_alpha(alpha_to_theta(alpha)) - alpha).max() <= 1e-12
        theta = rng.uniform(-math.pi, math.pi, 1 << k)
        assert np.abs(alpha_to_theta(theta_to_alpha(theta)) - theta).max() <= 1e-12


def test_inverse_is_scaled_transpose():
    # M^-1 = 2^k M^T, checked as matrices
    for k in range(0, 6):
        m = sign_matrix(k).astype(np.float64) / (1 << k)
        inv = (1 << k) * m.T
        assert np.abs(m @ inv - np.eye(1 << k)).max() <= 1e-12


def test_input_not_mutated():
    alpha = np.array([0.25, 0.5, -1.0, 2.0])
    before = alpha.copy()
    alpha_to_theta(alpha)
    theta_to_alpha(alpha)
    assert np.array_equal(alpha, before)


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        alpha_to_theta(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        theta_to_alpha(np.array([]))
    # a 2-D input used to fail inside matmul with a gufunc message
    for transform in (alpha_to_theta, theta_to_alpha, alpha_to_theta_dense):
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(1, 2\)"):
            transform([[1.0, 2.0]])
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(\)"):
            transform(0.5)


@st.composite
def angle_vectors(draw, max_k=11):
    """(kind, alpha) with 2**k entries, k = 0..max_k: uniform random, sparse
    (each entry nonzero with probability at most 0.2), or one constant."""
    k = draw(st.integers(0, max_k))
    kind = draw(st.sampled_from(("random", "sparse", "constant")))
    if kind == "constant":
        return kind, np.full(1 << k, draw(st.floats(-2 * math.pi, 2 * math.pi)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    alpha = rng.uniform(-math.pi, math.pi, 1 << k)
    if kind == "sparse":
        alpha[rng.random(1 << k) >= draw(st.floats(0.0, 0.2))] = 0.0
    return kind, alpha


@settings(deadline=None, max_examples=60)
@given(angle_vectors())
@example(("constant", np.full(1 << 11, 0.1)))
@example(("constant", np.full(1 << 5, 0.3)))
def test_fast_matches_dense_across_blocks(case):
    kind, alpha = case
    theta = alpha_to_theta(alpha)
    assert np.abs(theta - alpha_to_theta_dense(alpha)).max() <= 1e-12
    if kind == "constant":
        # a constant level is one uncontrolled rotation: every other angle
        # is exactly zero, so pruning at any epsilon removes them
        assert np.all(theta[1:] == 0.0)


def test_round_trip_large_k():
    rng = np.random.default_rng(5)
    for k in range(12, 17):
        alpha = rng.uniform(-math.pi, math.pi, 1 << k)
        back = theta_to_alpha(alpha_to_theta(alpha))
        assert np.abs(back - alpha).max() <= 1e-12 * np.abs(alpha).max()


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 13), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_fwht_transforms_a_stack_row_by_row(k, rows, seed):
    # the simulator transforms every run with k controls as one stack
    stack = np.random.default_rng(seed).uniform(-math.pi, math.pi, (rows, 1 << k))
    before = stack.copy()
    out = _fwht(stack)
    assert out.shape == stack.shape
    assert np.array_equal(stack, before)
    for row, got in zip(stack, out):
        assert np.abs(got - _fwht(row)).max() <= 1e-12


def test_constant_levels_transform_to_exact_zeros():
    # every k from the one-block kernels up through both product stages and
    # the stacked ones: a constant level is one rotation, the rest exact zeros
    levels = (0.1, -2.7, math.pi / 3, 1e-300, -0.0)
    for k in range(17):
        for level in levels:
            row = np.full(1 << k, level)
            assert np.all(_fwht(row)[1:] == 0.0), (k, level)
            assert np.all(alpha_to_theta(row)[1:] == 0.0), (k, level)
        for rows in range(1, 6):
            stack = np.repeat(np.array(levels[:rows])[:, None], 1 << k, axis=1)
            out = _fwht(stack)
            assert np.all(out[:, 1:] == 0.0), (k, rows)
            assert np.array_equal(out[:, 0], [_fwht(row)[0] for row in stack])


def test_fwht_matches_the_dense_hadamard_product():
    rng = np.random.default_rng(6)
    for k in range(13):
        dense = _hadamard(k)
        for scale in (1e-3, 1.0, 1e6):
            row = rng.uniform(-scale, scale, 1 << k)
            assert np.abs(_fwht(row) - row @ dense).max() <= 1e-12 * scale, (k, scale)
            stack = rng.uniform(-scale, scale, (3, 1 << k))
            assert np.abs(_fwht(stack) - stack @ dense).max() <= 1e-12 * scale, (k, scale)
