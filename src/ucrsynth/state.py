"""n-qubit state vectors: construction, validation, fidelity, phases.

Amplitude ``i`` (0-based) belongs to the basis label given by the n-bit
big-endian binary representation of ``i``; qubit 1 is the most significant
bit. Every module in the package inherits this convention.
"""

from __future__ import annotations

import math
from numbers import Integral

import numpy as np

from .errors import DimensionError

NORM_ATOL = 1e-8


def wrap_angle(value: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    w = math.remainder(value, 2.0 * math.pi)
    if w <= -math.pi:
        w += 2.0 * math.pi
    return w


class StateVector:
    """Immutable, normalized vector of 2**n complex amplitudes."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, n: int, amplitudes: np.ndarray):
        # Internal constructor; use make_state() for validated input.
        self.n = n
        amplitudes.setflags(write=False)
        self.amplitudes = amplitudes

    @property
    def dim(self) -> int:
        return 1 << self.n

    def __repr__(self) -> str:
        return f"StateVector(n={self.n}, amplitudes={self.amplitudes!r})"


def check_qubit_count(n) -> None:
    """Raise ValueError unless n is a Python or numpy integer >= 1."""
    if not isinstance(n, Integral):
        raise ValueError(f"qubit count must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")


def make_state(n: int, amplitudes, *, normalize: bool = False) -> StateVector:
    """Validate amplitudes and wrap them as a StateVector.

    The squared norm must be within ``NORM_ATOL`` of 1 unless ``normalize``
    is set, in which case the vector is rescaled. A zero vector is rejected
    either way.
    """
    check_qubit_count(n)
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1).copy()
    # size == 2**n, without computing 2**n for a huge n read from a file
    if amps.size.bit_length() != n + 1 or amps.size & (amps.size - 1):
        raise DimensionError(f"expected 2**{n} amplitudes, got {amps.size}")
    parts = amps.view(np.float64)  # re and im of every amplitude
    if not np.all(np.isfinite(parts)):
        raise ValueError("amplitudes must be finite")
    if not parts.any():
        raise ValueError("zero vector is not a valid state")
    if normalize:
        parts /= np.abs(parts).max()  # first, so that the squares stay within the float range
        parts /= math.sqrt(float(np.sum(parts * parts)))
    with np.errstate(over="ignore"):  # huge amplitudes give inf, rejected below
        sq_norm = float(np.sum(np.abs(amps) ** 2))
    if abs(sq_norm - 1.0) > NORM_ATOL:
        raise ValueError(
            f"state is not normalized: sum |a_i|^2 = {sq_norm!r} "
            f"(pass normalize=True to rescale)"
        )
    return StateVector(n, amps)


def basis_state(n: int, index: int = 0) -> StateVector:
    """The computational basis vector with a 1 at the given amplitude index."""
    check_qubit_count(n)
    if not 0 <= index < 1 << n:
        raise ValueError(f"basis index {index} out of range for n={n}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(n, amps)


def fidelity(x: StateVector, y: StateVector) -> float:
    """|<y|x>|, in [0, 1]."""
    if x.n != y.n:
        raise DimensionError(f"qubit counts differ: {x.n} vs {y.n}")
    return abs(np.vdot(y.amplitudes, x.amplitudes))


def phases(x: StateVector) -> np.ndarray:
    """Per-amplitude phases arg(a_i) in (-pi, pi]; 0 where a_i = 0."""
    p = np.angle(x.amplitudes)
    p[x.amplitudes == 0] = 0.0
    # np.angle can return -pi for arguments just below the branch cut.
    p[p <= -np.pi] += 2.0 * np.pi
    return p


def random_state(n: int, seed: int) -> StateVector:
    """Haar-random direction: isotropic complex Gaussian, normalized.

    Deterministic for a given seed; all amplitudes are nonzero with
    probability 1, which keeps every rotation angle generic.
    """
    check_qubit_count(n)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)
