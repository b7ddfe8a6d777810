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
per-axis pieces (the centers in cells, the support's base node, the
windows, and the slopes or the offsets) are rows of n in a scratch that
the caller passes too, a binding's workspace, so a build allocates
nothing of per-particle size.  The kernel path scales its slopes by 1 / dx
before the products and never forms the offsets; the least-squares path
returns the offsets, per axis (2, 3, n), for `gradient_weights`.  The
tests check the stencils against an independent formula that evaluates
the same spline piecewise in |x| (`tests/oracles.py`).

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
SUPPORT = 3
ENTRIES = SUPPORT * SUPPORT


def _windows(e: np.ndarray, w1: np.ndarray) -> None:
    """Per-axis window values over each center's support, into w1.

    e (2, 3, n) holds the center's offset from each node of its support, in
    cells: f, f - 1 and f - 2 along axis k, for the center's offset f in
    [0.5, 1.5) from the first node.  Writes w1 (2, 3, n), where entry
    [k, s] belongs to node s of the support along axis k.
    """
    # the offsets land on the pieces 0.5 (1.5 - |x|)^2, 0.75 - x^2 and
    # 0.5 (1.5 - |x|)^2 (Hu et al. 2018); the last is taken at 1.5 + (f - 2),
    # not f - 0.5, to round as the |x| form does
    np.subtract(1.5, e[:, 0], out=w1[:, 0])
    np.add(e[:, 2], 1.5, out=w1[:, 2])
    ends = w1[:, ::2]
    np.multiply(ends, ends, out=ends)
    np.multiply(ends, 0.5, out=ends)
    np.multiply(e[:, 1], e[:, 1], out=w1[:, 1])
    np.subtract(0.75, w1[:, 1], out=w1[:, 1])


def _lattice(out: np.ndarray) -> np.ndarray:
    """An entry-major (..., S, n) buffer, C-contiguous, as its (..., 3, 3, n)
    view: entry s = 3 i + j sits at [..., i, j, :]."""
    return out.reshape(out.shape[:-2] + (SUPPORT, SUPPORT, out.shape[-1]))


def _outer(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[3 i + j] = a[i] b[j] for per-axis node values a, b (3, n), into
    an (S, n) buffer, as one broadcast product over the particle axis."""
    np.multiply(a[:, None], b[None], out=_lattice(out))
    return out


def build_stencil(centers: np.ndarray, origin: np.ndarray, dx: float,
                  n_nodes: np.ndarray, out: np.ndarray, scratch: np.ndarray,
                  gradients: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Bind each center to the grid nodes inside its window support.

    Writes the windows w into out[2] and, with `gradients`, the window
    gradients wrt the center, per length, into out[:2]; `out` is the
    C-contiguous float64 (3, S, n) stack [G_x, G_y, w], entry-major: entry
    s = 3 i + j is node (base_x + i, base_y + j) of the 3 x 3 support, so
    S = 9, and every pass over one entry runs over the long particle axis.
    Without gradients out[:2] is left for the caller (`gradient_weights`).

    The per-axis pieces are computed in `scratch`, float64 rows of n of
    which the first 14 are written, each row C-contiguous; a binding
    passes its workspace.  Returns views of it: the support's base
    node, integer lattice coordinates held as floats (2, n), and, without
    gradients, the offsets node - center along each axis per node of the
    support (2, 3, n); with gradients nothing reads them, and None takes
    their place.  n_nodes gives the node count per axis; a center whose
    support sticks out of the node box raises OutOfDomainError (no
    one-sided stencils), before anything is written to `out`.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
    origin = np.asarray(origin, dtype=np.float64)
    n_nodes = np.asarray(n_nodes, dtype=np.int64)
    n = centers.shape[0]
    base = scratch[:2]
    e = scratch[2:8].reshape(2, SUPPORT, n)     # per node offset, then slope or r
    w1 = scratch[8:14].reshape(2, SUPPORT, n)

    # the centers in cells from the origin, and their supports' base nodes
    u = e[:, 0]
    np.subtract(centers.T, origin[:, None], out=u)
    np.divide(u, dx, out=u)
    np.subtract(u, 0.5, out=base)
    np.floor(base, out=base)

    # compared so that a NaN center counts as outside
    if n and not ((base.min(axis=1) >= 0).all()
                  and (base.max(axis=1) + SUPPORT <= n_nodes).all()):
        inside = (base >= 0) & (base + SUPPORT <= n_nodes[:, None])
        idx = np.flatnonzero(~inside.all(axis=0))
        raise OutOfDomainError(
            f"{idx.size} stencil center(s) outside the valid domain, "
            f"first indices {idx[:8].tolist()}"
        )

    # per axis: the center's offset from each node, in cells, f - s; each
    # difference is exact up to the rounding of f - 2 that the |x| form of
    # the spline shares
    np.subtract(u, base, out=u)
    np.subtract(u, 1.0, out=e[:, 1])
    np.subtract(u, 2.0, out=e[:, 2])
    _windows(e, w1)

    # tensor products over the lexicographic (x-major) node order
    _outer(w1[0], w1[1], out[2])
    if not gradients:
        # node - center = (s - f) dx, with f last, in place
        for s in (2, 1, 0):
            np.subtract(float(s), u, out=e[:, s])
        np.multiply(e, dx, out=e)
        return base, e
    # the slopes wrt the center, per length, in place: f - 1.5, -2 (f - 1)
    # and 1.5 + (f - 2), each times 1 / dx
    np.subtract(e[:, 0], 1.5, out=e[:, 0])
    np.add(e[:, 2], 1.5, out=e[:, 2])
    np.multiply(e, np.array([[1.0], [-2.0], [1.0]]) / dx, out=e)
    _outer(e[0], w1[1], out[0])
    _outer(w1[0], e[1], out[1])
    return base, None


def moment_matrix(dx: float) -> float:
    """The inverse second moment K = (sum_j W_j r_j (x) r_j)^-1 of every
    stencil on a grid of spacing dx, as the scalar c of K = c I: 4 / dx^2."""
    return 4.0 / dx**2


def gradient_weights(offsets: np.ndarray, stack: np.ndarray, c: float) -> None:
    """Write the per-node gradient vectors g_j = c W_j r_j into stack[:2],
    entry-major, from the windows in stack[2] and the per-axis offsets
    (2, 3, n) that `build_stencil` returns, with c from `moment_matrix`.

    The least-squares gradient of any field is then sum_j (phi_j - phi_c) (x) g_j.
    The offsets are scaled to c r in place, once (they are the caller's
    scratch), and never laid out over the stencil.
    """
    np.multiply(offsets, c, out=offsets)
    w = _lattice(stack[2])
    lattice = _lattice(stack[:2])
    np.multiply(offsets[0][:, None], w, out=lattice[0])
    np.multiply(offsets[1][None], w, out=lattice[1])
