"""2x2 matrix fields: stacked arrays of shape (..., 2, 2).

Explicit determinant/adjugate formulas instead of LAPACK so the algebra
works in extended precision and stays branch-free on stacked data; the
explicit product rounds the same under every BLAS kernel.
"""

import numpy as np


def det2(A):
    return A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]


def adj2(A):
    out = np.empty_like(A)
    out[..., 0, 0] = A[..., 1, 1]
    out[..., 0, 1] = -A[..., 0, 1]
    out[..., 1, 0] = -A[..., 1, 0]
    out[..., 1, 1] = A[..., 0, 0]
    return out


def inv2(A, det=None):
    d = det2(A) if det is None else det
    return adj2(A) / d[..., None, None]


def herm2(A):
    return np.conj(np.swapaxes(A, -1, -2))


def mul2(A, B):
    """A @ B for stacked 2x2 fields, in elementwise loops: a complex128
    matmul goes to BLAS zgemm, whose rounding depends on the kernel and
    its thread count."""
    return A[..., :, :1] * B[..., :1, :] + A[..., :, 1:] * B[..., 1:, :]


def apply2(A, v):
    """Matrix-vector product for stacked 2-vectors of shape (..., 2)."""
    return np.einsum("...ij,...j->...i", A, v)
