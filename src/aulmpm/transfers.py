"""Particle/grid transfer operators and the grid momentum update.

A `Body` bundles the particle arrays of one object with its material and
its current grid binding.  Every step runs:

    p2g -> grid velocities -> internal forces -> explicit or implicit
    momentum update -> collision projection -> g2p

Every phase contracts against the binding's one gradient-weight array G, so
the scatter, the internal force, its Hessian and the measured velocity
gradient share one set of coefficients.  On a least-squares binding
G_j = W_j K r_j and p2g scatters affine momentum (MLS-MPM / APIC); on a
kernel binding G_j = grad W_j, p2g scatters plain momentum and g2p blends
PIC with FLIP velocities (standard MPM).  Scatter-adds are bincount-based
and run in particle order, which keeps runs bit-reproducible.

The arithmetic is written out for 2x2 blocks, entry by entry.  The binding
stores its per-stencil-entry arrays once, component-major: w is (n, S), and
the offsets r and gradient weights G are (n, S, 2) views of (2, n, S)
buffers, so r[..., k] and G[..., k] are contiguous (n, S) arrays.  Each
phase makes a few elementwise passes over them: p2g forms m w (v_k + C_k r)
per component, the forces scatter (P0 F_0s^T)_k0 G_x + (P0 F_0s^T)_k1 G_y,
and g2p gathers node velocities into a (2, n, S) buffer and contracts it
against w and G.  Per-particle 2x2 matrices are (n, 2, 2) views of
component-major (2, 2, n) buffers (see `constitutive.pack`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import (
    SNOW,
    MaterialModel,
    det,
    energy_and_piola,
    hessian_action,
    inverse,
    matmul,
    matmul_t,
)
from .kinematics import (KERNEL, LEAST_SQUARES, ConfigurationMap, DeformationState,
                         UpdatePolicy, compose_total, contract, velocity_gradient_s)

# relative CG residual and iteration cap for the implicit velocity solve
CG_TOL = 1e-7
CG_MAX_ITERS = 200

# fraction of the largest particle mass below which a node counts as empty
MASS_EPS_FACTOR = 1e-12


@dataclass
class Body:
    """Simulation state of one object."""

    material: MaterialModel
    x: np.ndarray             # (n, 2) positions
    v: np.ndarray             # (n, 2) velocities
    m: np.ndarray             # (n,) masses
    V0: np.ndarray            # (n,) initial volumes
    C: np.ndarray             # (n, 2, 2) velocity gradient wrt the binding
    state: DeformationState
    cmap: ConfigurationMap
    policy: UpdatePolicy | None = None   # None: never rebind
    F_plastic: np.ndarray | None = None  # snow only
    updates: int = 0
    marked: int = 0
    inverted: int = 0
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n(self) -> int:
        return self.x.shape[0]


def mass_epsilon(bodies) -> float:
    top = max(float(b.m.max()) for b in bodies)
    return MASS_EPS_FACTOR * top


def _scatter(slots_flat: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """Accumulate per-stencil-entry values (n, S) into a node array (slots,)."""
    out += np.bincount(slots_flat, weights=values.ravel(), minlength=out.shape[0])


def _gather(field: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Node vectors (slots, 2) at the stencil entries, as an (n, S, 2) view
    of a component-major (2, n, S) array."""
    return np.moveaxis(np.take(np.ascontiguousarray(field.T), slots, axis=1), 0, -1)


def _interpolate(w: np.ndarray, vn: np.ndarray) -> np.ndarray:
    """sum_j w_j v_j per particle, (n, 2), from gathered node vectors (n, S, 2)."""
    return np.stack([np.einsum("ns,ns->n", w, vn[..., k]) for k in range(2)], axis=1)


def _scatter_action(body: Body, A: np.ndarray, out: np.ndarray) -> None:
    """out[slot_j] += A_p G_j for every stencil entry j of every particle p."""
    gx, gy = body.cmap.G[..., 0], body.cmap.G[..., 1]
    slots = body.cmap.slots.ravel()
    f = np.empty_like(gx)
    tmp = np.empty_like(gx)
    for k in range(2):
        np.multiply(A[:, k, 0, None], gx, out=f)
        f += np.multiply(A[:, k, 1, None], gy, out=tmp)
        _scatter(slots, f, out[:, k])


# -------------------------------------------------------------------- p2g


def p2g(body: Body, grid) -> None:
    """Scatter mass, momentum and current positions to the grid; the
    momentum carries the affine term C r only on a least-squares binding."""
    cmap = body.cmap
    slots = cmap.slots.ravel()
    w = cmap.stencil.w
    mw = body.m[:, None] * w
    _scatter(slots, mw, grid.mass)
    _scatter(slots, w, grid.w_accum)
    r, C = cmap.stencil.r, body.C
    mom = np.empty_like(w)
    tmp = np.empty_like(w)
    for k in range(2):
        if cmap.transfer == LEAST_SQUARES:
            # m w (v + C r), entry by entry
            np.multiply(C[:, k, 0, None], r[..., 0], out=mom)
            mom += np.multiply(C[:, k, 1, None], r[..., 1], out=tmp)
            mom += body.v[:, k, None]
            mom *= mw
        else:
            np.multiply(mw, body.v[:, k, None], out=mom)
        _scatter(slots, mom, grid.momentum[:, k])
        _scatter(slots, np.multiply(w, body.x[:, k, None], out=tmp), grid.pos_accum[:, k])


def finalize_grid(grid, mass_eps: float) -> None:
    """Momentum to velocity, and weighted current node positions."""
    act = (grid.mass > mass_eps)[:, None]
    grid.velocity[:] = 0.0
    np.divide(grid.momentum, grid.mass[:, None], out=grid.velocity, where=act)
    grid.velocity0[:] = grid.velocity
    grid.current = grid.position.copy()
    np.divide(grid.pos_accum, grid.w_accum[:, None], out=grid.current,
              where=(grid.w_accum > 1e-12)[:, None])


# ------------------------------------------------------------------ stress


def stress_pass(body: Body) -> None:
    """Evaluate the first Piola stress at the current total deformation.

    Results land in the body cache: P0 (wrt the initial configuration,
    plasticity folded in for snow) plus the factors the implicit solve needs.
    """
    cache = body._cache
    F_total = compose_total(body.state)
    cache["F_total"] = F_total
    if body.material.kind == SNOW:
        Fp_inv = inverse(body.F_plastic)
        Jp = det(body.F_plastic)
        Fe = matmul(F_total, Fp_inv)
        ss = energy_and_piola(Fe, body.material, Jp)
        cache["Fe"] = Fe
        cache["Fp_inv"] = Fp_inv
        cache["Jp"] = Jp
        cache["P0"] = matmul_t(ss.P, Fp_inv)
    else:
        ss = energy_and_piola(F_total, body.material)
        cache["P0"] = ss.P
    cache["psi"] = ss.energy


def piola_differential(body: Body, dF_total: np.ndarray) -> np.ndarray:
    """Directional stress derivative at the cached state, dP0 along dF_total."""
    cache = body._cache
    if body.material.kind == SNOW:
        dFe = matmul(dF_total, cache["Fp_inv"])
        dPe = hessian_action(cache["Fe"], dFe, body.material, cache["Jp"])
        return matmul_t(dPe, cache["Fp_inv"])
    return hessian_action(cache["F_total"], dF_total, body.material)


def grid_internal_forces(body: Body, grid) -> None:
    """f_i -= V0 P0 F_0s^T G_i per bound node."""
    PF = matmul_t(body._cache["P0"], body.state.F_0s)
    _scatter_action(body, -body.V0[:, None, None] * PF, grid.force)


# ----------------------------------------------------------- grid dynamics


def explicit_update(grid, dt: float, gravity: np.ndarray, mass_eps: float) -> None:
    """Symplectic Euler velocity update on nodes that carry mass."""
    act = grid.mass > mass_eps
    grid.velocity[act] += dt * (grid.force[act] / grid.mass[act, None] + gravity)


def hessian_apply(bodies, u: np.ndarray, act: np.ndarray | None = None) -> np.ndarray:
    """Energy Hessian in grid velocities: returns -(force differential).

    Requires a prior `stress_pass` on each body.  With `act` given, input and
    output are restricted to the flagged nodes, which keeps the operator
    symmetric on that subspace.
    """
    if act is not None:
        u = np.where(act[:, None], u, 0.0)
    out = np.zeros_like(u)
    for body in bodies:
        un = _gather(u, body.cmap.slots)
        dFsn = contract(un[..., 0], un[..., 1], body.cmap.G)
        F_0s = body.state.F_0s
        dP0 = piola_differential(body, matmul(dFsn, F_0s))
        _scatter_action(body, body.V0[:, None, None] * matmul_t(dP0, F_0s), out)
    if act is not None:
        out[~act] = 0.0
    return out


def implicit_update(bodies, grid, dt: float, gravity: np.ndarray,
                    mass_eps: float, tol: float = CG_TOL,
                    max_iters: int = CG_MAX_ITERS) -> dict:
    """One-Newton-step backward Euler velocity solve.

    Solves (M + dt^2 H) v = M v_hat with H the energy Hessian in the grid
    degrees of freedom, by conjugate gradients on the mass-weighted system.
    Falls back to the explicit update if the operator loses positive
    definiteness.
    """
    explicit_update(grid, dt, gravity, mass_eps)
    act = grid.mass > mass_eps
    v_hat = grid.velocity.copy()

    def a_mul(u: np.ndarray) -> np.ndarray:
        return grid.mass[:, None] * u + dt * dt * hessian_apply(bodies, u, act)

    b = grid.mass[:, None] * v_hat
    x = v_hat.copy()
    r = b - a_mul(x)
    b_norm = np.linalg.norm(b)
    info = {"iterations": 0, "converged": True, "fallback": False}
    if b_norm == 0.0 or np.linalg.norm(r) <= tol * b_norm:
        grid.velocity[:] = x
        return info

    p = r.copy()
    rr = float(np.vdot(r, r))
    for it in range(1, max_iters + 1):
        ap = a_mul(p)
        pap = float(np.vdot(p, ap))
        if pap <= 0.0:
            # lost positive definiteness: keep the explicit velocities
            grid.velocity[:] = v_hat
            info.update(iterations=it, converged=False, fallback=True)
            return info
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        rr_new = float(np.vdot(r, r))
        info["iterations"] = it
        if np.sqrt(rr_new) <= tol * b_norm:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    else:
        info["converged"] = False
    grid.velocity[:] = x
    grid.velocity[~act] = 0.0
    return info


def grid_collisions(grid, colliders, dt: float, mass_eps: float) -> int:
    """Project velocities of penetrating, approaching nodes.

    Contact is tested at the predicted current node positions (the material
    positions rasterized in p2g, advanced by dt), so long-lived bindings see
    collisions where the material actually is.
    """
    if not colliders:
        return 0
    act = grid.mass > mass_eps
    idx = np.flatnonzero(act)
    if idx.size == 0:
        return 0
    x_pred = grid.current[idx] + dt * grid.velocity[idx]
    touched = 0
    for col in colliders:
        inside = col.signed_distance(x_pred) < 0.0
        if not np.any(inside):
            continue
        sub = idx[inside]
        n = col.normal_at(x_pred[inside])
        v_rel = grid.velocity[sub] - col.velocity
        vn = np.einsum("na,na->n", v_rel, n)
        approaching = vn < 0.0
        sub = sub[approaching]
        if sub.size == 0:
            continue
        touched += sub.size
        if col.mode == "sticky":
            grid.velocity[sub] = col.velocity
        else:
            n = n[approaching]
            vn = vn[approaching]
            grid.velocity[sub] -= vn[:, None] * n
    return touched


# -------------------------------------------------------------------- g2p


def g2p(body: Body, grid, dt: float, flip_blend: float = 0.0) -> None:
    """Gather velocities, advect, and measure the new velocity gradient.

    Positions advance with the gathered (PIC) velocity.  On a kernel binding
    the particle velocity blends PIC with weight 1 - flip_blend and FLIP (old
    particle velocity plus the gathered grid change) with weight flip_blend;
    elsewhere it is the PIC velocity.
    """
    cmap = body.cmap
    w = cmap.stencil.w
    vn = _gather(grid.velocity, cmap.slots)
    v_pic = _interpolate(w, vn)
    body.C = velocity_gradient_s(v_pic, vn, cmap)
    if cmap.transfer == KERNEL:
        vn -= _gather(grid.velocity0, cmap.slots)
        delta = _interpolate(w, vn)
        body.v = (1.0 - flip_blend) * v_pic + flip_blend * (body.v + delta)
    else:
        body.v = v_pic
    body.x = body.x + dt * v_pic
