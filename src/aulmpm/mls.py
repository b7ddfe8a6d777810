"""Moving least squares gradient operators on a uniform background grid.

Interpolation uses tensor-product quadratic B-spline windows on a 2-D grid,
as MLS-MPM and APIC do (Hu et al. 2018).  All routines are batched:
positions are (n, 2) arrays and a stencil table holds the bound
neighborhood of every center at once.  Offsets follow the convention
r = neighbor - center throughout.

`build_stencil` works per axis over the particle axis: each of the three
nodes of a center's support per axis sits on one fixed polynomial piece of
the spline, so the windows and their slopes come in closed form without
branching.  Only the products are laid out over the S = 9 stencil entries,
as broadcasts over 3 x 3 views, into the (3, S, n) weight stack
[g_x, g_y, w] that the caller passes (`ConfigurationMap.build` allocates
it): the windows fill its last row, and its first two take the window
gradients or, through `gradient_weights`, the least-squares ones.  The
support's base node and the offsets stay per axis, (2, n) and (2, 3, n).
The tests check the stencils against an independent formula that
evaluates the same spline piecewise in |x| (`tests/oracles.py`).

The least-squares gradient of a field phi sampled at the stencil nodes is

    grad phi = (sum_j (phi_j - phi_c) (x) r_j W_j) K,   K = (sum_j r_j (x) r_j W_j)^-1

which reproduces affine fields exactly.  Every stencil is a full 3 x 3
quadratic support (`build_stencil` rejects centers whose support leaves the
node box), and on such a support sum_j W_j r_j (x) r_j = (dx^2 / 4) I at
every position, so K is the constant (4 / dx^2) I of MLS-MPM (Hu et al.
2018) and the gradient weights are G_j = (4 / dx^2) W_j r_j.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfDomainError

# nodes per axis covered by a window, and stencil entries S per center
_SUPPORT = 3
ENTRIES = _SUPPORT * _SUPPORT


def _windows(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis window values and slopes over each center's support.

    f (2, n) is the center's offset from the first node of its support, in
    cells, in [0.5, 1.5).  Returns w1 and dw1, both (2, 3, n), where entry
    [k, s] belongs to node s of the support along axis k and dw1 is the
    slope wrt the center.
    """
    # node offsets f, f - 1, f - 2 land on the pieces 0.5 (1.5 - |x|)^2,
    # 0.75 - x^2 and 0.5 (1.5 - |x|)^2 (Hu et al. 2018); the last is taken
    # at 1.5 + (f - 2), not f - 0.5, to round as the |x| form does
    x1 = f - 1.0
    x2 = f - 2.0
    w1 = np.stack((0.5 * (1.5 - f) ** 2, 0.75 - x1 * x1, 0.5 * (1.5 + x2) ** 2), axis=1)
    dw1 = np.stack((f - 1.5, -2.0 * x1, 1.5 + x2), axis=1)
    return w1, dw1


def _lattice(out: np.ndarray) -> np.ndarray:
    """An entry-major (..., S, n) buffer, C-contiguous, as its (..., 3, 3, n)
    view: entry s = 3 i + j sits at [..., i, j, :]."""
    return out.reshape(out.shape[:-2] + (_SUPPORT, _SUPPORT, out.shape[-1]))


def _outer(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[3 i + j] = a[i] b[j] for per-axis node values a, b (3, n), into
    an (S, n) buffer, as one broadcast product over the particle axis."""
    np.multiply(a[:, None], b[None], out=_lattice(out))
    return out


def build_stencil(centers: np.ndarray, origin: np.ndarray, dx: float,
                  n_nodes: np.ndarray, out: np.ndarray,
                  gradients: bool) -> tuple[np.ndarray, np.ndarray]:
    """Bind each center to the grid nodes inside its window support.

    Writes the windows w into out[2] and, with `gradients`, the window
    gradients wrt the center, per length, into out[:2]; `out` is the
    C-contiguous float64 (3, S, n) stack [G_x, G_y, w], entry-major: entry
    s = 3 i + j is node (base_x + i, base_y + j) of the 3 x 3 support, so
    S = 9, and every pass over one entry runs over the long particle axis.
    Without gradients out[:2] is left for the caller (`gradient_weights`).

    Returns the support's base node, integer lattice coordinates (2, n), and
    the offsets node - center along each axis per node of the support,
    (2, 3, n).  n_nodes gives the node count per axis; a center whose
    support sticks out of the node box raises OutOfDomainError (no
    one-sided stencils), before anything is written.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    origin = np.asarray(origin, dtype=np.float64)
    n_nodes = np.asarray(n_nodes, dtype=np.int64)
    n = centers.shape[0]

    u = (np.ascontiguousarray(centers.T) - origin[:, None]) / dx    # (2, n)
    base = np.floor(u - 0.5).astype(np.int64)

    if n and ((base.min(axis=1) < 0).any() or (base.max(axis=1) + _SUPPORT > n_nodes).any()):
        bad = np.any(base < 0, axis=0) | np.any(base + _SUPPORT > n_nodes[:, None], axis=0)
        idx = np.flatnonzero(bad)
        raise OutOfDomainError(
            f"{idx.size} stencil center(s) outside the valid domain, "
            f"first indices {idx[:8].tolist()}"
        )

    # per axis: node lattice coordinate, window and slope, node - center
    node = base[:, None, :] + np.arange(_SUPPORT)[:, None]  # (2, 3, n)
    w1, dw1 = _windows(u - base)
    r1 = (node - u[:, None, :]) * dx

    # tensor products over the lexicographic (x-major) node order
    _outer(w1[0], w1[1], out[2])
    if gradients:
        _outer(dw1[0], w1[1], out[0])
        _outer(w1[0], dw1[1], out[1])
        out[:2] /= dx
    return base, r1


def moment_matrix(dx: float) -> float:
    """The inverse second moment K = (sum_j W_j r_j (x) r_j)^-1 of every
    stencil on a grid of spacing dx, as the scalar c of K = c I: 4 / dx^2."""
    return 4.0 / dx**2


def gradient_weights(offsets: np.ndarray, stack: np.ndarray, c: float) -> None:
    """Write the per-node gradient vectors g_j = c W_j r_j into stack[:2],
    entry-major, from the windows in stack[2] and the per-axis offsets
    (2, 3, n) that `build_stencil` returns, with c from `moment_matrix`.

    The least-squares gradient of any field is then sum_j (phi_j - phi_c) (x) g_j.
    The offsets are scaled once and never laid out over the stencil.
    """
    rc = offsets * c
    w = _lattice(stack[2])
    lattice = _lattice(stack[:2])
    np.multiply(rc[0][:, None], w, out=lattice[0])
    np.multiply(rc[1][None], w, out=lattice[1])
