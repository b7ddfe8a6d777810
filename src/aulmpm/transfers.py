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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constitutive import (
    FLUID,
    SNOW,
    MaterialModel,
    energy_and_piola,
    hessian_action,
)
from .kinematics import (KERNEL, LEAST_SQUARES, ConfigurationMap, DeformationState,
                         UpdatePolicy, compose_total, velocity_gradient_s)

# relative CG residual and iteration cap for the implicit velocity solve
CG_TOL = 1e-7
CG_MAX_ITERS = 200

# fraction of the largest particle mass below which a node counts as empty
MASS_EPS_FACTOR = 1e-12


@dataclass
class Body:
    """Simulation state of one object."""

    material: MaterialModel
    x: np.ndarray             # (n, d) positions
    v: np.ndarray             # (n, d) velocities
    m: np.ndarray             # (n,) masses
    V0: np.ndarray            # (n,) initial volumes
    C: np.ndarray             # (n, d, d) velocity gradient wrt the binding
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

    @property
    def dim(self) -> int:
        return self.x.shape[1]


def mass_epsilon(bodies) -> float:
    top = max(float(b.m.max()) for b in bodies)
    return MASS_EPS_FACTOR * top


def _scatter(slots_flat: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """Accumulate per-stencil-entry values (n*S,) or (n*S, d) into node arrays."""
    if values.ndim == 1:
        out += np.bincount(slots_flat, weights=values, minlength=out.shape[0])
        return
    for k in range(values.shape[1]):
        out[:, k] += np.bincount(slots_flat, weights=values[:, k], minlength=out.shape[0])


# -------------------------------------------------------------------- p2g


def p2g(body: Body, grid) -> None:
    """Scatter mass, momentum and current positions to the grid; the
    momentum carries the affine term C r only on a least-squares binding."""
    st = body.cmap.stencil
    slots = body.cmap.slots.ravel()
    w = st.w
    mw = body.m[:, None] * w

    vel = body.v[:, None, :]
    if body.cmap.transfer == LEAST_SQUARES:
        vel = vel + np.einsum("nab,nsb->nsa", body.C, st.r)
    mom = mw[:, :, None] * vel

    _scatter(slots, mw.ravel(), grid.mass)
    _scatter(slots, mom.reshape(-1, body.dim), grid.momentum)
    _scatter(slots, (w[:, :, None] * body.x[:, None, :]).reshape(-1, body.dim),
             grid.pos_accum)
    _scatter(slots, w.ravel(), grid.w_accum)


def finalize_grid(grid, mass_eps: float) -> None:
    """Momentum to velocity, and weighted current node positions."""
    act = grid.mass > mass_eps
    grid.velocity[:] = 0.0
    grid.velocity[act] = grid.momentum[act] / grid.mass[act, None]
    grid.velocity0[:] = grid.velocity
    covered = grid.w_accum > 1e-12
    grid.current = grid.position.copy()
    grid.current[covered] = grid.pos_accum[covered] / grid.w_accum[covered, None]


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
        Fp_inv = np.linalg.inv(body.F_plastic)
        Jp = np.linalg.det(body.F_plastic)
        Fe = np.einsum("nab,nbc->nac", F_total, Fp_inv)
        ss = energy_and_piola(Fe, body.material, Jp)
        cache["Fe"] = Fe
        cache["Fp_inv"] = Fp_inv
        cache["Jp"] = Jp
        cache["P0"] = np.einsum("nac,nbc->nab", ss.P, Fp_inv)
    else:
        ss = energy_and_piola(F_total, body.material)
        cache["P0"] = ss.P
    cache["psi"] = ss.energy


def piola_differential(body: Body, dF_total: np.ndarray) -> np.ndarray:
    """Directional stress derivative at the cached state, dP0 along dF_total."""
    cache = body._cache
    if body.material.kind == SNOW:
        dFe = np.einsum("nab,nbc->nac", dF_total, cache["Fp_inv"])
        dPe = hessian_action(cache["Fe"], dFe, body.material, cache["Jp"])
        return np.einsum("nac,nbc->nab", dPe, cache["Fp_inv"])
    return hessian_action(cache["F_total"], dF_total, body.material)


def grid_internal_forces(body: Body, grid) -> None:
    """f_i -= V0 P0 F_0s^T G_i per bound node."""
    PF = np.einsum("nab,ncb->nac", body._cache["P0"], body.state.F_0s)
    contrib = -body.V0[:, None, None] * np.einsum("nac,nsc->nsa", PF, body.cmap.G)
    _scatter(body.cmap.slots.ravel(), contrib.reshape(-1, body.dim), grid.force)


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
        un = u[body.cmap.slots]
        dFsn = np.einsum("nsa,nsb->nab", un, body.cmap.G)
        dF_total = np.einsum("nab,nbc->nac", dFsn, body.state.F_0s)
        dP0 = piola_differential(body, dF_total)
        dPF = np.einsum("nab,ncb->nac", dP0, body.state.F_0s)
        contrib = body.V0[:, None, None] * np.einsum("nac,nsc->nsa", dPF, body.cmap.G)
        _scatter(body.cmap.slots.ravel(), contrib.reshape(-1, u.shape[1]), out)
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
    st = body.cmap.stencil
    vn = grid.velocity[body.cmap.slots]
    v_pic = np.einsum("ns,nsa->na", st.w, vn)
    body.C = velocity_gradient_s(v_pic, vn, body.cmap)
    if body.cmap.transfer == KERNEL:
        delta = np.einsum("ns,nsa->na", st.w, vn - grid.velocity0[body.cmap.slots])
        body.v = (1.0 - flip_blend) * v_pic + flip_blend * (body.v + delta)
    else:
        body.v = v_pic
    body.x = body.x + dt * v_pic
