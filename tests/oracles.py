"""Independent reference formulas that several test modules check the
library against.

Each is written the direct way (piecewise in |x|, batched `np.linalg`-style
algebra), not the way the library computes it, so agreement means
something.  `stress_differential` is the directional derivative of the
stress that the library applied on every Hessian product before it built a
per-solve tangent; the tangent is now checked against it.  `stencil`
binds centers into a fresh weight stack, and `stencil_offsets`,
`stencil_coords` and `slot_of` lay out a stencil's node offsets and nodes
and read a grid's slots, which only tests need.  `activate_by_unique` is
`SparseGrid.activate` as it was before it found new nodes through the
lattice table: by `np.unique` over the unbound entries.  `textbook_mpm`
is a whole explicit run, written from scratch on a dense node grid.  None
of them is part of the library.

The references keep 2x2 matrices particle-major, (n, 2, 2); the library
keeps them as (2, 2, n) batches.  `batch` and `unbatch` convert between
the two at the boundary.
"""

import numpy as np

from aulmpm.errors import OutOfDomainError
from aulmpm.mls import build_stencil


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


def batch(F):
    """Particle-major 2x2 matrices (n, 2, 2) as a fresh, C-contiguous
    (2, 2, n) batch of the library."""
    return np.asarray(F, dtype=np.float64).transpose(1, 2, 0).copy()


def unbatch(F):
    """A (2, 2, n) batch of the library as particle-major (n, 2, 2)
    matrices: a view, so writing into it writes into the batch."""
    return F.transpose(2, 0, 1)


def _ref_moment_matrix(w, r):
    """Inverse second moment (sum_j w_j r_j (x) r_j)^-1 per center, (n, 2, 2),
    from weights (n, S) and offsets (n, S, 2), by np.linalg."""
    return np.linalg.inv(np.einsum("nsa,nsb,ns->nab", r, r, w))


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


def stress_differential(F, dF, model, J_plastic=None):
    """Directional derivative dP = (d2 psi / dF dF) : dF at F, (n, 2, 2).

    This is the formula the library applied on every Hessian product before
    it built a per-solve tangent: the polar rotation's derivative is
    dR = R [[0, -w], [w, 0]] with w = skew(R^T dF) / tr(R^T F), and
    dP = 2 mu (dF - dR) + lam dJ cof(F) + lam (J - 1) cof(dF); the fluid has
    dP = p'(J) dJ cof(F) + p(J) cof(dF) with J floored at 1e-6.
    """
    F = np.asarray(F, dtype=np.float64)
    dF = np.asarray(dF, dtype=np.float64)
    a, b, c, d = F[:, 0, 0], F[:, 0, 1], F[:, 1, 0], F[:, 1, 1]
    e, f, g, h = dF[:, 0, 0], dF[:, 0, 1], dF[:, 1, 0], dF[:, 1, 1]
    dJ = d * e - c * f - b * g + a * h   # cof(F) : dF
    if model.kind == "weakly_compressible_fluid":
        J = np.maximum(a * d - b * c, 1e-6)
        gam = model.gamma
        k1 = model.bulk * gam * J ** (-gam - 1.0) * dJ
        k2 = model.bulk * (1.0 - J ** (-gam))
        return _pack(k1 * d + k2 * h, -k1 * c - k2 * g, -k1 * b - k2 * f, k1 * a + k2 * e)
    mu, lam = model.mu, model.lam
    if model.kind == "snow" and J_plastic is not None:
        hard = np.exp(np.clip(model.hardening * (1.0 - np.asarray(J_plastic)), -30.0, 30.0))
        mu, lam = mu * hard, lam * hard
    x1, y1 = a + d, c - b
    tr = np.hypot(x1, y1)   # tr(R^T F)
    safe = np.where(tr > 0.0, tr, 1.0)
    cs, sn = np.where(tr > 0.0, x1 / safe, 1.0), y1 / safe
    w = (cs * (g - f) - sn * (e + h)) / np.maximum(tr, 1e-10)
    m2 = 2.0 * mu
    k1 = lam * dJ
    k2 = lam * (a * d - b * c - 1.0)
    return _pack(m2 * (e + sn * w) + k1 * d + k2 * h,
                 m2 * (f + cs * w) - k1 * c - k2 * g,
                 m2 * (g - cs * w) - k1 * b - k2 * f,
                 m2 * (h + sn * w) + k1 * a + k2 * e)


def tangent_by_probing(F, B, model, J_plastic=None, volume=1.0,
                       differential=stress_differential):
    """The map dX -> volume dP(F)[dX B] B^T as a dense (n, 4, 4) matrix per
    particle, probed column by column along the unit directions of dX with
    `differential` (dP(F)[dF]); entries of a 2x2 matrix are read row by row."""
    n = F.shape[0]
    volume = np.broadcast_to(np.asarray(volume, dtype=np.float64), (n,))
    T = np.empty((n, 4, 4))
    for k in range(4):
        E = np.zeros((n, 2, 2))
        E[:, k // 2, k % 2] = 1.0
        dP = differential(F, E @ B, model, J_plastic)
        T[:, :, k] = (volume[:, None, None] * dP @ np.swapaxes(B, -1, -2)).reshape(n, 4)
    return T


def _pack(a, b, c, d):
    return np.stack([np.stack([a, b], -1), np.stack([c, d], -1)], -2)


def _entries(per_axis):
    """Per-axis node values (2, 3, n) laid out over the stencil, (n, S, 2):
    entry 3 i + j is node (i, j) of the 3 x 3 support."""
    ax, ay = per_axis
    n = ax.shape[-1]
    out = np.empty((n, 3, 3, 2), dtype=per_axis.dtype)
    out[..., 0] = ax.T[:, :, None]
    out[..., 1] = ay.T[:, None, :]
    return out.reshape(n, 9, 2)


def stencil(centers, origin, dx, n_nodes, gradients=True):
    """`build_stencil` into a fresh (3, S, n) stack and a fresh (2, S, n)
    workspace, as a binding calls it; returns the stack [G_x, G_y, w], the
    support's base node (2, n) and, without gradients, the per-axis offsets
    (2, 3, n) (None with gradients)."""
    centers = np.atleast_2d(centers)
    stack = np.empty((3, 9, centers.shape[0]))
    scratch = np.empty((18, centers.shape[0]))
    return (stack,) + build_stencil(centers, origin, dx, n_nodes, stack, scratch, gradients)


def stencil_offsets(offsets):
    """Physical offsets node - center of a stencil's entries, (n, S, 2),
    from its per-axis offsets (2, 3, n)."""
    return _entries(offsets)


def stencil_coords(base):
    """Integer lattice coordinates of a stencil's entries, (n, S, 2), from
    its support's base node (2, n), which `build_stencil` holds as floats."""
    return _entries(base.astype(np.int64)[:, None, :] + np.arange(3)[:, None])


def lattice_index(grid, coords):
    """Lattice indices x * ny + y of integer node coordinates (..., 2)."""
    coords = np.asarray(coords, dtype=np.int64)
    return coords[..., 0] * grid.n_nodes[1] + coords[..., 1]


def slot_of(grid, coords):
    """Storage slots of lattice coordinates (m, 2), -1 where the node was
    never bound: the slot whose stored node position is origin + coords dx."""
    want = grid.origin + np.atleast_2d(np.asarray(coords, dtype=np.int64)) * grid.dx
    hit = (grid.position.T == want[:, None, :]).all(axis=-1)   # (m, slots)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


def activate_by_unique(grid, nodes, out=None):
    """`grid.activate(nodes, out)` by the direct route: check the range with
    a min and a max, look every index up, and bind the sorted distinct
    unbound nodes (`np.unique`) to the next slots in that order."""
    nodes = np.asarray(nodes)
    size = grid._slot.size
    if nodes.size and (nodes.min() < 0 or nodes.max() >= size):
        bad = nodes[(nodes < 0) | (nodes >= size)]
        raise OutOfDomainError(
            f"{bad.size} node index(es) outside the grid of {size} nodes, "
            f"first {int(bad[0])}"
        )
    slot = np.take(grid._slot, nodes, out=out, mode="clip")
    if slot.size and slot.min() < 0:
        missing = slot < 0
        unbound = ~slot[missing]
        new_nodes = np.unique(unbound)
        grid._slot[new_nodes] = grid.n_slots + np.arange(new_nodes.size)
        grid._grow(new_nodes)
        slot[missing] = grid._slot[unbound]
    return slot


def _piola(F, material):
    """First Piola stress of fixed-corotated or weakly compressible fluid
    material, the textbook way: the polar rotation from an SVD, J F^-T
    from an inverse."""
    J = np.linalg.det(F)
    JF_invT = J[:, None, None] * np.linalg.inv(F).transpose(0, 2, 1)
    if material.kind == "weakly_compressible_fluid":
        return (material.bulk * (1.0 - J ** -material.gamma))[:, None, None] * JF_invT
    U, _, Vt = np.linalg.svd(F)
    return 2.0 * material.mu * (F - U @ Vt) + (material.lam * (J - 1.0))[:, None, None] * JF_invT


def textbook_mpm(x, v, C, m, V0, material, dx, cells, dt, gravity, steps,
                 eulerian, least_squares, flip=0.95):
    """Explicit MPM from scratch on a dense (cells + 1)^2 node grid with its
    origin at 0, no colliders; returns the final positions, velocities and
    deformation gradients.

    Eulerian: quadratic B-spline weights at the current positions, stress
    P F^T and F <- (I + dt C) F.  Total-Lagrangian: weights at the initial
    positions, stress P and F <- F + dt C, C the velocity gradient in them.
    Least squares is MLS-MPM: affine momentum Q r with
    Q = m C - dt V0 (4 / dx^2) P B^T, and C = (4 / dx^2) sum w v (x) r.
    Otherwise the force is -V0 P B^T grad w, C = sum v (x) grad w, and the
    particle velocity blends PIC with FLIP at `flip`."""
    x, v, C = x.copy(), v.copy(), C.copy()
    X0, F, eye = x.copy(), np.tile(np.eye(2), (len(x), 1, 1)), np.eye(2)
    D = 4.0 / dx ** 2
    i, j = np.divmod(np.arange(9), 3)
    for _ in range(steps):
        xb = x if eulerian else X0
        base = np.floor(xb / dx - 0.5).astype(np.int64)
        f = xb / dx - base                                            # (n, 2)
        w1 = np.stack([0.5 * (1.5 - f) ** 2, 0.75 - (f - 1.0) ** 2, 0.5 * (f - 0.5) ** 2])
        dw1 = np.stack([f - 1.5, -2.0 * (f - 1.0), f - 0.5]) / dx     # (3, n, 2)
        w = (w1[i, :, 0] * w1[j, :, 1]).T                             # (n, 9)
        nx, ny = base[:, None, 0] + i, base[:, None, 1] + j           # (n, 9)
        r = np.stack([nx, ny], -1) * dx - xb[:, None]                 # (n, 9, 2)
        grad = np.stack([dw1[i, :, 0] * w1[j, :, 1], w1[i, :, 0] * dw1[j, :, 1]], -1)
        grad = grad.transpose(1, 0, 2)                                # (n, 9, 2)
        PB = _piola(F, material) @ (F.transpose(0, 2, 1) if eulerian else eye)
        mv = m[:, None] * v
        if least_squares:
            Q = m[:, None, None] * C - (dt * D * V0)[:, None, None] * PB
            entry = w[..., None] * (mv[:, None] + np.einsum("nab,nsb->nsa", Q, r))
        else:
            entry = w[..., None] * mv[:, None] - np.einsum(
                "nab,nsb->nsa", (dt * V0)[:, None, None] * PB, grad)
        shape = (cells[0] + 1, cells[1] + 1)
        mass, mom, mom0 = np.zeros(shape), np.zeros(shape + (2,)), np.zeros(shape + (2,))
        np.add.at(mass, (nx, ny), m[:, None] * w)
        np.add.at(mom, (nx, ny), entry)
        np.add.at(mom0, (nx, ny), w[..., None] * mv[:, None])
        act = mass > 1e-12 * m.max()
        vg, vg0 = np.zeros_like(mom), np.zeros_like(mom)
        vg[act] = mom[act] / mass[act, None] + dt * np.asarray(gravity)
        vg0[act] = mom0[act] / mass[act, None]
        vn = vg[nx, ny]                                               # (n, 9, 2)
        v_pic = np.einsum("ns,nsa->na", w, vn)
        if least_squares:
            C = D * np.einsum("ns,nsa,nsb->nab", w, vn, r)
            v = v_pic
        else:
            C = np.einsum("nsa,nsb->nab", vn, grad)
            v = (1.0 - flip) * v_pic + flip * (v + np.einsum("ns,nsa->na", w, vn - vg0[nx, ny]))
        x = x + dt * v_pic
        F = (eye + dt * C) @ F if eulerian else F + dt * C
    return x, v, F
