"""Independent reference formulas that several test modules check the
library against.

Each is written the direct way (piecewise in |x|, batched `np.linalg`-style
algebra), not the way the library computes it, so agreement means
something.  None of them is part of the library.
"""

import numpy as np


def _bspline_1d(x):
    """Quadratic window value and derivative at offset x (in cell units)."""
    ax = np.abs(x)
    sg = np.sign(x)
    w = np.where(ax < 0.5, 0.75 - ax * ax, np.where(ax < 1.5, 0.5 * (1.5 - ax) ** 2, 0.0))
    dw = np.where(ax < 0.5, -2.0 * x, np.where(ax < 1.5, (ax - 1.5) * sg, 0.0))
    return w, dw


def bspline_weight(offset):
    """Tensor-product window weight and gradient for offsets in cell units.

    offset has shape (..., d); returns W with shape (...) and dW with shape
    (..., d), both per cell (divide the gradient by dx for physical units).
    """
    offset = np.asarray(offset, dtype=np.float64)
    w1, dw1 = _bspline_1d(offset)
    w = np.prod(w1, axis=-1)
    dim = offset.shape[-1]
    dw = np.empty_like(offset)
    for k in range(dim):
        prod = np.ones_like(w)
        for j in range(dim):
            if j != k:
                prod = prod * w1[..., j]
        dw[..., k] = dw1[..., k] * prod
    return w, dw


def _ref_signed_svd(F):
    """Batched SVD F = U diag(sig) Vt with rotations U and Vt; the smallest
    singular value carries the sign of det F."""
    a, b, c, d = F[:, 0, 0], F[:, 0, 1], F[:, 1, 0], F[:, 1, 1]
    t1 = np.arctan2(c - b, a + d)
    t2 = np.arctan2(b + c, a - d)
    h1 = np.hypot(a + d, c - b)
    h2 = np.hypot(a - d, b + c)
    sig = np.stack([(h1 + h2) * 0.5, (h1 - h2) * 0.5], axis=-1)
    return _ref_rot((t1 + t2) * 0.5), sig, _ref_rot((t2 - t1) * 0.5).swapaxes(-1, -2)


def _ref_rot(theta):
    ct, st = np.cos(theta), np.sin(theta)
    return np.stack([np.stack([ct, -st], -1), np.stack([st, ct], -1)], -2)


def _ref_cofactor(F):
    return np.stack([np.stack([F[:, 1, 1], -F[:, 1, 0]], -1),
                     np.stack([-F[:, 0, 1], F[:, 0, 0]], -1)], -2)
