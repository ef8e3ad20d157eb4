import math
import re
import warnings

import numpy as np
import pytest

from ucrsynth import (
    DimensionError,
    basis_state,
    fidelity,
    make_state,
    phases,
    random_state,
    wrap_angle,
)


def test_wrap_angle_range():
    for value in [0.0, 1.0, -1.0, 3.9, 100.0, -100.0, 12345.678]:
        w = wrap_angle(value)
        assert -math.pi < w <= math.pi
        # same angle mod 2 pi
        assert abs(math.remainder(w - value, 2.0 * math.pi)) < 1e-9


def test_wrap_angle_branch_cut():
    # -pi maps to the closed end +pi, never to the open end
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-3.0 * math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.0) == 0.0


def test_make_state_validates_length():
    with pytest.raises(DimensionError):
        make_state(2, [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        make_state(0, [1.0])


def test_make_state_rejects_zero_vector():
    with pytest.raises(ValueError):
        make_state(1, [0.0, 0.0])
    with pytest.raises(ValueError):
        make_state(1, [0.0, 0.0], normalize=True)


def test_normalize_survives_huge_and_tiny_amplitudes():
    # the squared norm of these over- or underflows unless the vector is scaled first
    x = make_state(1, [1e200, 1e200], normalize=True)
    assert np.allclose(x.amplitudes, [math.sqrt(0.5), math.sqrt(0.5)], rtol=0, atol=1e-15)
    for tiny in (1e-200, 5e-324):
        assert make_state(1, [tiny, 0.0], normalize=True).amplitudes.tolist() == [1, 0]
    top = make_state(1, [complex(1.7e308, -1.7e308), 0.0], normalize=True)
    assert np.allclose(top.amplitudes, [complex(1, -1) / math.sqrt(2), 0], rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="^zero vector is not a valid state$"):
        make_state(1, [0.0, 0.0], normalize=True)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"= inf \(pass normalize"):
        make_state(1, [1e200, 1e200])


def test_unnormalized_huge_amplitudes_raise_no_warning():
    # the squared norm overflows to inf; that is the error, without a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for amplitudes in ([1e200, 1e200], [complex(1.7e308, -1.7e308), 0.0]):
            with pytest.raises(ValueError, match=r"= inf \(pass normalize"):
                make_state(1, amplitudes)


def test_make_state_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        make_state(1, [math.nan, 1.0])
    with pytest.raises(ValueError, match="finite"):
        make_state(1, [math.inf, 0.0], normalize=True)


def test_make_state_norm_check_and_rescale():
    with pytest.raises(ValueError):
        make_state(1, [1.0, 1.0])
    x = make_state(1, [1.0, 1.0], normalize=True)
    assert np.allclose(x.amplitudes, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    # tolerance window accepts tiny norm error without rescaling
    y = make_state(1, [1.0 + 1e-10, 0.0])
    assert y.amplitudes[0] == 1.0 + 1e-10


def test_amplitudes_are_read_only():
    x = basis_state(2)
    with pytest.raises(ValueError):
        x.amplitudes[0] = 0.5


def test_basis_state():
    x = basis_state(2, 2)
    assert x.dim == 4
    assert list(x.amplitudes) == [0, 0, 1, 0]
    with pytest.raises(ValueError):
        basis_state(2, 4)
    with pytest.raises(ValueError):
        basis_state(2, -1)
    # a float index used to raise numpy's IndexError
    for index in (1.0, 1.5, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match=re.escape(f"must be an integer, got {index!r}")):
            basis_state(2, index)
    assert np.array_equal(basis_state(2, np.int64(2)).amplitudes, x.amplitudes)
    # n = 0 used to give a one-amplitude state
    for n in (0, -1):
        with pytest.raises(ValueError, match=f"qubit count must be >= 1, got {n}"):
            basis_state(n)


def test_qubit_count_must_be_an_integer():
    # 2.0 used to pass make_state's checks and break dim afterwards
    for n in (2.0, 2.5, np.float64(2.0), "2"):
        for build in (lambda: make_state(n, [1, 0, 0, 0]), lambda: basis_state(n),
                      lambda: random_state(n, 1)):
            with pytest.raises(ValueError, match="qubit count must be an integer"):
                build()
    for n in (2, np.int64(2), np.uint8(2)):
        assert make_state(n, [0, 1, 0, 0]).dim == basis_state(n).dim == 4


def test_fidelity():
    plus = make_state(1, [1.0, 1.0], normalize=True)
    zero = basis_state(1)
    assert fidelity(zero, zero) == pytest.approx(1.0)
    assert fidelity(plus, zero) == pytest.approx(1 / math.sqrt(2))
    # phase-insensitive
    rotated = make_state(1, [1j, 0.0])
    assert fidelity(rotated, zero) == pytest.approx(1.0)
    with pytest.raises(DimensionError):
        fidelity(zero, basis_state(2))


def test_phases_conventions():
    x = make_state(2, [0.5, 0.5j, -0.5, -0.5j])
    p = phases(x)
    assert p == pytest.approx([0.0, math.pi / 2, math.pi, -math.pi / 2])
    # zero amplitudes carry phase 0 by convention
    y = make_state(2, [0.0, 1j, 0.0, 0.0])
    assert list(phases(y)) == [0.0, math.pi / 2, 0.0, 0.0]
    # output stays in (-pi, pi]
    z = make_state(1, [-1.0, 0.0])
    assert phases(z)[0] == math.pi


def test_random_state_seeded():
    a = random_state(4, 7)
    b = random_state(4, 7)
    c = random_state(4, 8)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert not np.array_equal(a.amplitudes, c.amplitudes)
    assert np.linalg.norm(a.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert np.all(a.amplitudes != 0)
