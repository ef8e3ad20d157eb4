"""Binary reflected Gray code and the ladder angle transform.

A uniformly controlled rotation with block angles ``alpha`` lowers to a
CNOT ladder whose rotation angles ``theta`` satisfy ``theta = M alpha``
with ``M[i, j] = 2**-k * (-1)**(popcount(j & gray(i)))``. The sign matrix
``S = 2**k * M`` is orthogonal up to scale (``S @ S.T = 2**k * I``), so the
inverse transform is simply ``2**k * M.T``.

Both directions, and the simulator's per-run phase tables, go through one
unnormalized Walsh-Hadamard transform, ``_fwht``. It applies the 4x4 +-1
Hadamard matrix along each 2-bit group of the index as a matrix product,
and a 2x2 one to the top bit when k is odd. Each output of a 4x4 block sums
at most two equal terms per sign, so a constant input transforms to exact
zeros past entry 0 in whatever order the product sums.
"""

from __future__ import annotations

import numpy as np


def gray(m: int) -> int:
    """Binary reflected Gray code of a nonnegative integer."""
    if m < 0:
        raise ValueError(f"gray code undefined for negative {m}")
    return m ^ (m >> 1)


def _check_power_of_two(values: np.ndarray) -> int:
    """Return k with values a 1-D array of 2**k entries, or raise."""
    if values.ndim != 1:
        raise ValueError(f"angles must be one-dimensional, got shape {values.shape}")
    if values.size < 1 or values.size & (values.size - 1):
        raise ValueError(f"angle vector length {values.size} is not a power of two")
    return values.size.bit_length() - 1


def sign_matrix(k: int) -> np.ndarray:
    """Integer matrix S with S[i, j] = (-1)**(popcount(j & gray(i)))."""
    codes = gray_permutation(k)
    columns = np.arange(1 << k, dtype=np.intp)
    parity = np.bitwise_count(codes[:, None] & columns[None, :]) & 1
    return (1 - 2 * parity.astype(np.int64))


def alpha_to_theta_dense(alpha: np.ndarray) -> np.ndarray:
    """Reference implementation of theta = M alpha via the dense matrix."""
    alpha = np.asarray(alpha, dtype=np.float64)
    k = _check_power_of_two(alpha)
    return sign_matrix(k).astype(np.float64) @ alpha / (1 << k)


def _hadamard(k: int) -> np.ndarray:
    """Natural-order +-1 Hadamard matrix of size 2**k."""
    h = np.ones((1, 1))
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    return h


# Blocks of 4: a 16x16 block sums eight equal terms per sign and leaves
# rounding residues of about 1e-16 times a constant input.
_H = tuple(_hadamard(k) for k in range(3))


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, natural ordering, as a new array.

    ``values`` is 1-D of length 2**k and is not modified. Index bits 0-1
    go through one (2**k / 4, 4) @ H product; every further 2-bit group
    is a stack of H @ (4, low) products, and an odd top bit a 2x2 one.
    """
    k = values.size.bit_length() - 1
    if k < 2:
        return _H[k] @ values
    out = values.reshape(-1, 4) @ _H[2]
    low = 4
    for _ in range(k // 2 - 1):
        out = _H[2] @ out.reshape(-1, 4, low)
        low <<= 2
    if k % 2:
        out = _H[1] @ out.reshape(2, low)
    return out.reshape(-1)


def gray_permutation(k: int) -> np.ndarray:
    """Index array g with g[i] = gray(i), a bijection on [0, 2**k)."""
    indices = np.arange(1 << k, dtype=np.intp)
    return indices ^ (indices >> 1)


def alpha_to_theta(alpha: np.ndarray) -> np.ndarray:
    """Fast O(k 2**k) transform: Walsh-Hadamard transform + Gray reorder.

    Since M[i, j] = 2**-k * (-1)**(gray(i) . j), the i-th output is the
    Hadamard transform of alpha read out at position gray(i).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    k = _check_power_of_two(alpha)
    spectrum = _fwht(alpha)
    return spectrum[gray_permutation(k)] / (1 << k)


def theta_to_alpha(theta: np.ndarray) -> np.ndarray:
    """Exact inverse of alpha_to_theta: scatter by Gray code, then transform."""
    theta = np.asarray(theta, dtype=np.float64)
    k = _check_power_of_two(theta)
    scattered = np.empty_like(theta)
    scattered[gray_permutation(k)] = theta
    return _fwht(scattered)
