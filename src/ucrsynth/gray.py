"""Binary reflected Gray code and the ladder angle transform.

A uniformly controlled rotation with block angles ``alpha`` lowers to a
CNOT ladder whose rotation angles ``theta`` satisfy ``theta = M alpha``
with ``M[i, j] = 2**-k * (-1)**(popcount(j & gray(i)))``. The sign matrix
``S = 2**k * M`` is orthogonal up to scale (``S @ S.T = 2**k * I``), so the
inverse transform is simply ``2**k * M.T``. ``alpha_to_theta`` is the one
place ladder angles come from: ``lower_ucr`` and the synthesis compiler
both call it.

Both directions, and the simulator's phase tables (one stack of runs per
control count), go through one unnormalized Walsh-Hadamard transform,
``_fwht``. It applies the 4x4 +-1 Hadamard matrix H along each 2-bit group
of the index as a matrix product, bits 2-3 as one 16-column ``kron(H, I4)``,
and a 2x2 one to the top bit when k is odd. Each output sums four nonzero
terms, at most two equal ones per sign, so a constant input transforms to
exact zeros past entry 0 in whatever order the product sums; a 16x16
Hadamard block sums eight and leaves residues near 1e-16. A 64-column
``kron(H, I16)`` for bits 4-5 is slower than their stack of 4x4 products.
"""

from __future__ import annotations

import functools

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


_H = tuple(_hadamard(k) for k in range(3))
_H_BITS_2_3 = np.kron(_H[2], np.eye(4))


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform along the last axis, natural
    ordering, as a new array.

    ``values`` is C-contiguous with a last axis of length 2**k and is not
    modified; leading axes are a stack of independent inputs. Index bits
    0-1 go through one (rows, 4) @ H product and bits 2-3 through one
    (rows, 16) @ kron(H, I4), whose other twelve terms per output are exact
    zeros; every further 2-bit group is a stack of H @ (4, low) products
    (a wider Kronecker product is slower), and an odd top bit a 2x2 one.
    """
    k = values.shape[-1].bit_length() - 1
    if k < 2:
        return values @ _H[k]
    out = values.reshape(-1, 4) @ _H[2]
    low = 4
    if k >= 4:
        out = out.reshape(-1, 16) @ _H_BITS_2_3
        low = 16
    while low << 2 <= 1 << k:
        out = _H[2] @ out.reshape(-1, 4, low)
        low <<= 2
    if k % 2:
        out = _H[1] @ out.reshape(-1, 2, low)
    return out.reshape(values.shape)


@functools.cache
def gray_permutation(k: int) -> np.ndarray:
    """Index array g with g[i] = gray(i), a bijection on [0, 2**k).

    Built once per k: every call for one k returns the same read-only array.
    """
    indices = np.arange(1 << k, dtype=np.intp)
    codes = indices ^ (indices >> 1)
    codes.flags.writeable = False
    return codes


def alpha_to_theta(alpha: np.ndarray) -> np.ndarray:
    """Fast O(k 2**k) transform: Walsh-Hadamard transform + Gray reorder.

    Since M[i, j] = 2**-k * (-1)**(gray(i) . j), the i-th output is the
    Hadamard transform of alpha read out at position gray(i).
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    k = _check_power_of_two(alpha)
    theta = _fwht(alpha)[gray_permutation(k)]
    theta *= 0.5**k
    return theta


def theta_to_alpha(theta: np.ndarray) -> np.ndarray:
    """Exact inverse of alpha_to_theta: scatter by Gray code, then transform."""
    theta = np.asarray(theta, dtype=np.float64)
    k = _check_power_of_two(theta)
    scattered = np.empty_like(theta)
    scattered[gray_permutation(k)] = theta
    return _fwht(scattered)
