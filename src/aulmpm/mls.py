"""Moving least squares gradient operators on a uniform background grid.

Interpolation uses tensor-product B-spline windows (quadratic or cubic) on
a 2-D grid.  All routines are batched: positions are (n, 2) arrays and a
stencil table holds the bound neighborhood of every center at once.
Offsets follow the convention r = neighbor - center throughout.

The least-squares gradient of a field phi sampled at the stencil nodes is

    grad phi = (sum_j (phi_j - phi_c) (x) r_j W_j) K,   K = (sum_j r_j (x) r_j W_j)^-1

which reproduces affine fields exactly.  On an unclipped uniform stencil K
collapses to (4 / dx^2) I for quadratic windows and (3 / dx^2) I for cubic
ones; `moment_matrix` computes it numerically regardless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import pack
from .errors import DegenerateNeighborhoodError, OutOfDomainError

QUADRATIC = "quadratic"
CUBIC = "cubic"

# nodes per axis covered by each window
_SUPPORT = {QUADRATIC: 3, CUBIC: 4}

# condition number above which a neighborhood counts as degenerate
COND_LIMIT = 1.0e8

_offset_cache: dict[int, np.ndarray] = {}


def _offsets(count: int) -> np.ndarray:
    """Lexicographic (S, 2) table of node offsets 0..count-1 per axis."""
    if count not in _offset_cache:
        grids = np.meshgrid(np.arange(count), np.arange(count), indexing="ij")
        _offset_cache[count] = np.stack(grids, axis=-1).reshape(-1, 2)
    return _offset_cache[count]


def _bspline_1d(x: np.ndarray, order: str) -> tuple[np.ndarray, np.ndarray]:
    """Window value and derivative at offset x (in cell units)."""
    ax = np.abs(x)
    sg = np.sign(x)
    if order == QUADRATIC:
        w = np.where(ax < 0.5, 0.75 - ax * ax, np.where(ax < 1.5, 0.5 * (1.5 - ax) ** 2, 0.0))
        dw = np.where(ax < 0.5, -2.0 * x, np.where(ax < 1.5, (ax - 1.5) * sg, 0.0))
    elif order == CUBIC:
        w = np.where(ax < 1.0, 0.5 * ax**3 - ax * ax + 2.0 / 3.0,
                     np.where(ax < 2.0, (2.0 - ax) ** 3 / 6.0, 0.0))
        dw = np.where(ax < 1.0, (1.5 * ax - 2.0) * ax * sg,
                      np.where(ax < 2.0, -0.5 * (2.0 - ax) ** 2 * sg, 0.0))
    else:
        raise ValueError(f"unknown spline order {order!r}")
    return w, dw


def bspline_weight(offset: np.ndarray, order: str = QUADRATIC) -> tuple[np.ndarray, np.ndarray]:
    """Tensor-product window weight and gradient for offsets in cell units.

    offset has shape (..., d); returns W with shape (...) and dW with shape
    (..., d), both per cell (divide the gradient by dx for physical units).
    """
    offset = np.asarray(offset, dtype=np.float64)
    w1, dw1 = _bspline_1d(offset, order)
    w = np.prod(w1, axis=-1)
    dim = offset.shape[-1]
    dw = np.empty_like(offset)
    for k in range(dim):
        others = [w1[..., j] for j in range(dim) if j != k]
        prod = np.ones_like(w)
        for o in others:
            prod = prod * o
        dw[..., k] = dw1[..., k] * prod
    return w, dw


@dataclass
class Stencil:
    """Bound neighborhoods of n centers against one uniform grid.

    coords  (n, S, 2) integer lattice coordinates of the nodes
    r       (n, S, 2) physical offsets node - center
    w       (n, S)    window weights (each row sums to 1)
    dw      (n, S, 2) window gradients wrt the center position, per length,
            or None when they were not asked for

    `build_stencil` stores r and dw component-major: both are views of
    (2, n, S) buffers, so r[..., k] and dw[..., k] are contiguous (n, S)
    arrays.
    """

    coords: np.ndarray
    r: np.ndarray
    w: np.ndarray
    dw: np.ndarray | None
    order: str
    dx: float

    @property
    def size(self) -> int:
        return self.w.shape[1]


def build_stencil(centers: np.ndarray, origin: np.ndarray, dx: float,
                  n_nodes: np.ndarray, order: str = QUADRATIC,
                  gradients: bool = True) -> Stencil:
    """Bind each center to the grid nodes inside its window support.

    n_nodes gives the node count per axis; a center whose support sticks out
    of the node box raises OutOfDomainError (no one-sided stencils).  With
    `gradients=False` the window gradients are skipped (dw is None).
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    origin = np.asarray(origin, dtype=np.float64)
    n_nodes = np.asarray(n_nodes, dtype=np.int64)
    n = centers.shape[0]
    count = _SUPPORT[order]

    u = (centers - origin) / dx
    if order == QUADRATIC:
        base = np.floor(u - 0.5).astype(np.int64)
    else:
        base = np.floor(u).astype(np.int64) - 1

    bad = np.any(base < 0, axis=1) | np.any(base + count > n_nodes[None, :], axis=1)
    if np.any(bad):
        idx = np.flatnonzero(bad)
        raise OutOfDomainError(
            f"{idx.size} stencil center(s) outside the valid domain, "
            f"first indices {idx[:8].tolist()}"
        )

    # per axis: node lattice index, center - node (cells), window and slope
    steps = np.arange(count)
    node = base[:, :, None] + steps                       # (n, 2, count)
    w1, dw1 = _bspline_1d((u - base)[:, :, None] - steps, order)
    r1 = (node - u[:, :, None]) * dx

    # tensor product over the lexicographic (x-major) node order
    S = count * count
    w = (w1[:, 0, :, None] * w1[:, 1, None, :]).reshape(n, S)
    r = np.empty((2, n, count, count))
    r[0] = r1[:, 0, :, None]
    r[1] = r1[:, 1, None, :]
    dw = None
    if gradients:
        dw = np.empty((2, n, count, count))
        np.multiply(dw1[:, 0, :, None], w1[:, 1, None, :], out=dw[0])
        np.multiply(w1[:, 0, :, None], dw1[:, 1, None, :], out=dw[1])
        dw /= dx
        dw = np.moveaxis(dw.reshape(2, n, S), 0, -1)

    coords = base[:, None, :] + _offsets(count)[None, :, :]
    return Stencil(coords=coords, r=np.moveaxis(r.reshape(2, n, S), 0, -1), w=w,
                   dw=dw, order=order, dx=float(dx))


def moment_matrix(stencil: Stencil) -> np.ndarray:
    """Inverse second-moment matrix K_p = (sum_j r_j (x) r_j W_j)^-1, (n, 2, 2)."""
    w = stencil.w
    rx, ry = stencil.r[..., 0], stencil.r[..., 1]
    wrx = w * rx
    a = np.einsum("ns,ns->n", wrx, rx)
    b = np.einsum("ns,ns->n", wrx, ry)
    c = np.einsum("ns,ns->n", w * ry, ry)
    # eigenvalues of the symmetric [[a, b], [b, c]] are mid +- rad
    mid = 0.5 * (a + c)
    rad = np.hypot(0.5 * (a - c), b)
    hi = np.abs(mid) + rad
    lo = np.abs(np.abs(mid) - rad)
    cond = np.where(lo > 0.0, hi / np.maximum(lo, 1e-300), np.inf)
    if np.any(cond > COND_LIMIT):
        worst = int(np.argmax(cond))
        raise DegenerateNeighborhoodError(
            f"moment matrix condition {cond[worst]:.3e} exceeds {COND_LIMIT:.1e} "
            f"at center {worst}"
        )
    det = a * c - b * b
    return pack(c / det, -b / det, -b / det, a / det)


def gradient_weights(stencil: Stencil, K: np.ndarray) -> np.ndarray:
    """Per-node gradient vectors g_j = W_j K r_j, shape (n, S, 2).

    The least-squares gradient of any field is then sum_j (phi_j - phi_c) (x) g_j.
    Stored component-major like the stencil offsets.
    """
    w = stencil.w
    rx, ry = stencil.r[..., 0], stencil.r[..., 1]
    G = np.empty((2,) + w.shape)
    for a in range(2):
        np.multiply(K[:, a, 0, None], rx, out=G[a])
        G[a] += K[:, a, 1, None] * ry
        G[a] *= w
    return np.moveaxis(G, 0, -1)


def mls_gradient(phi_center: np.ndarray, phi_nodes: np.ndarray,
                 stencil: Stencil, K: np.ndarray) -> np.ndarray:
    """Least-squares gradient of a sampled field.

    Scalar fields: phi_center (n,), phi_nodes (n, S) -> (n, d).
    Vector fields: phi_center (n, m), phi_nodes (n, S, m) -> (n, m, d) with
    entry [a, b] = d phi_a / d x_b.
    """
    g = gradient_weights(stencil, K)
    phi_center = np.asarray(phi_center, dtype=np.float64)
    phi_nodes = np.asarray(phi_nodes, dtype=np.float64)
    if phi_center.ndim == 1:
        delta = phi_nodes - phi_center[:, None]
        return np.einsum("ns,nsb->nb", delta, g)
    delta = phi_nodes - phi_center[:, None, :]
    return np.einsum("nsa,nsb->nab", delta, g)


def mls_gradient_derivative(stencil: Stencil, K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Derivative of the gradient operator wrt its samples.

    Returns (g_nodes, g_center) with g_nodes (n, S, d) and g_center (n, d) =
    -sum_j g_nodes[j].  The full derivative has Kronecker structure:
    d(grad phi)_[a, b] / d(phi_j)_c = delta_ac * g_nodes[n, j, b], and the
    center sample contributes delta_ac * g_center[n, b].
    """
    g = gradient_weights(stencil, K)
    return g, -np.sum(g, axis=1)
