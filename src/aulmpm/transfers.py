"""Particle/grid transfer operators and the grid momentum update.

A `Body` bundles the particle arrays of one object with its material and
its current grid binding.  What depends only on the binding is paid once
per epoch, when a body binds or rebinds:

    epoch_grid_terms: the node mass, scattered body by body, and the mask
    of active nodes (mass above mass_eps)

Every step then runs only what the particle state changes:

    stress -> p2g (momentum, plus mass-weighted positions where colliders
    need them) -> grid velocities -> explicit or implicit momentum update
    -> collision projection -> g2p

p2g also deposits the stress impulse dt f, as MLS-MPM does, so one
momentum scatter per step carries both on every binding.  Where FLIP needs
the velocities before the update, p2g scatters the plain momentum a second
time into them.  `grid_internal_forces` scatters f alone, for the checks.

The grid phases read the active mask instead of re-deriving it.  What is
fixed for one implicit solve is paid once per solve.  The first Hessian
product after a stress pass builds each particle's tangent, a symmetric 4x4
map from dF_sn to V0 dP B^T; that product is matrix-free (`hessian_apply`:
a gather, a contraction, one 4x4 product per particle and a scatter) and
gives the start residual, where a free-flight step stops.  A solve that
iterates then assembles the Hessian once into a node-stencil operator
(`assemble_hessian`), 2x2 blocks that couple each node to the 5x5 nodes
around it, and every CG product is a gather of those neighbours and one
contraction, with no particle pass.

Every phase contracts against the binding's one weight stack
[G_x, G_y, w] (see `kinematics`), so the scatter, the internal force, its
Hessian and the measured velocity gradient share one set of coefficients.
On a least-squares binding G_j = c W_j r_j with c = 4 / dx^2 and p2g
scatters affine momentum (MLS-MPM / APIC), whose term m W_j C r_j is
(m / c) C G_j; on a kernel binding G_j = grad W_j, p2g scatters plain
momentum and g2p blends PIC with FLIP velocities (standard MPM).
Scatter-adds are bincount-based and run in entry order (stencil entry,
then particle), then body order, which keeps runs bit-reproducible.

The arithmetic is written out for 2x2 blocks, entry by entry, and every
per-entry pass is one einsum over the stack, with the particle axis
innermost:

    p2g, per component k:  einsum("csn,cn->sn", stack, [A_k0, A_k1, m v_k])
        with A = (m / c) C on a least-squares binding and 0 on a kernel
        one, less dt V0 P B^T when it folds the stress; einsum sums over c
        in order, so each entry is (A_k0 G_x + A_k1 G_y) + w m v_k
    forces and Hessian:    the same over stack[:2] and [A_k0, A_k1]
        (`_scatter_action`), A = -V0 P B^T or the tangent's product
    g2p, per component k:  einsum("sn,csn->cn", gathered_k, stack), whose
        [:2] is row k of C and [2] the PIC velocity's component k; the
        Hessian's dF_sn is `kinematics.contract` over both components and
        stack[:2]

The node mass, the pre-update momentum w (m v), the positions w (m x) and
FLIP's gathered velocity change read the stack's last row alone.
Per-particle 2x2 matrices are (2, 2, n) arrays (see `constitutive`), so
row k of C or P is a (2, n) block of contiguous rows, and node vectors are
the grid's component-major (2, slots) arrays, read and written whole.

The per-entry temporaries go into the binding's workspace, one (2, S, n)
pair of planes that `ConfigurationMap.build` allocates with the stack:
the gathers fill it and the scatters write their values into it with
`out=`.  A step between rebinds therefore allocates nothing of per-entry
size.  Gathers index with mode="clip" because the slots come from
`SparseGrid.activate`, which only returns slots of the grid.

p2g and g2p run each velocity component as one task that reads the
binding and writes only that component's rows, node row and workspace
plane.  On a body of SPLIT_MIN_PARTICLES or more, in a process that may
use two CPUs, component 1 runs on one worker thread, made on first use,
while component 0 runs on the calling thread (`_by_component`); numpy
releases the interpreter lock in these passes, so the two overlap.
Either way each value is computed by the same operations in the same
order, so a split run is bit-identical to an inline one.  The tasks call
only numpy and this module's private helpers, never a name the
benchmark's tracer wraps, and the stress pass before p2g stays serial.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .constitutive import (
    SNOW,
    MaterialModel,
    StressState,
    det,
    energy_and_piola,
    hessian_action,
    inverse,
    matmul,
)
from .kinematics import (KERNEL, LEAST_SQUARES, ConfigurationMap, DeformationState,
                         UpdatePolicy, compose_total, contract)
from .mls import ENTRIES, moment_matrix

# relative CG residual and iteration cap for the implicit velocity solve
CG_TOL = 1e-7
CG_MAX_ITERS = 200

# fraction of the largest particle mass below which a node counts as empty
MASS_EPS_FACTOR = 1e-12

# weight of FLIP in a kernel binding's PIC/FLIP velocity blend
FLIP_BLEND = 0.95

# bodies of at least this many particles run p2g's and g2p's two velocity
# components on two threads when the process may use two CPUs; below it
# the hand-off to the worker (about 70 us) costs more than it saves
SPLIT_MIN_PARTICLES = 16_384

# Two entries of one stencil couple nodes at most two apart on each axis,
# so the assembled Hessian couples each node to the 5 x 5 nodes around it,
# in the columns of `SparseGrid.neighbours()`.  Entry pair (s, t),
# s = 3 i + j, couples node s to the node at offset (i_t - i_s, j_t - j_s):
# column PAIR_COLUMN[s, t] of row s.  Column CENTER is the node itself, and
# the pairs t >= s are those with PAIR_COLUMN[s, t] >= CENTER.
_I, _J = np.divmod(np.arange(ENTRIES), 3)
PAIR_COLUMN = (_I - _I[:, None] + 2) * 5 + _J - _J[:, None] + 2
CENTER = 12


@dataclass
class StepStress:
    """One step's stress state of a body: `law`, the material law at the
    gradient it sees, F_sn B with B = F_0s Fp^-1 (F_0s without plasticity),
    and `tangent`, the Hessian map `hessian_apply` builds from both on first
    use.  The internal force on node j is -V0 P B^T G_j."""

    law: StressState
    B: np.ndarray
    tangent: np.ndarray | None = None


@dataclass
class Body:
    """Simulation state of one object."""

    material: MaterialModel
    x: np.ndarray             # (n, 2) positions
    v: np.ndarray             # (n, 2) velocities
    m: np.ndarray             # (n,) masses
    V0: np.ndarray            # (n,) initial volumes
    C: np.ndarray             # (2, 2, n) velocity gradient wrt the binding
    state: DeformationState
    cmap: ConfigurationMap
    policy: UpdatePolicy | None = None   # None: never rebind
    F_plastic: np.ndarray | None = None  # snow only
    inverted: int = 0
    stress: StepStress | None = field(default=None, repr=False)   # this step's, else None
    _tangent_buf: np.ndarray | None = field(default=None, repr=False)   # (4, 4, n)
    _coef_buf: np.ndarray | None = field(default=None, repr=False)      # (2, 3, n), p2g's

    @property
    def n(self) -> int:
        return self.x.shape[0]


def mass_epsilon(bodies) -> float:
    top = max(float(b.m.max()) for b in bodies)
    return MASS_EPS_FACTOR * top


def _scatter(slots: np.ndarray, values: np.ndarray, out: np.ndarray) -> None:
    """Accumulate per-stencil-entry values (S, n), C-contiguous, into a node
    array (slots,); `slots` is the binding's slots.T raveled, a view."""
    out += np.bincount(slots, weights=values.ravel(), minlength=out.shape[0])


def _gather(field: np.ndarray, cmap, out: np.ndarray) -> np.ndarray:
    """Node values (..., slots) at the stencil entries, into `out`
    (..., S, n): entry s of particle p lands at [..., s, p]."""
    np.take(field, cmap.slots.T, axis=-1, out=out, mode="clip")
    return out


# the one worker thread of `_by_component`, made on first use; a forked
# child has no thread behind its parent's, so it makes its own
_worker: ThreadPoolExecutor | None = None
_worker_lock = threading.Lock()


def _forget_worker() -> None:
    global _worker
    _worker = None


os.register_at_fork(after_in_child=_forget_worker)


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _by_component(body: Body, task) -> None:
    """Run task(0) and task(1), the two velocity components of a transfer.

    For a body of SPLIT_MIN_PARTICLES or more in a process that may use two
    CPUs, component 1 runs on the worker thread while component 0 runs on
    this one; else they run one after the other here.  Each task writes only
    its own component's rows and workspace plane, so both ways give the same
    bits.  The call returns, or raises a task's exception, only once both
    tasks have stopped.  A task calls no name that the benchmark's tracer
    wraps: its span stack is not thread-safe.
    """
    global _worker
    if body.n < SPLIT_MIN_PARTICLES or _cpus() < 2:
        task(0)
        task(1)
        return
    with _worker_lock:
        if _worker is None:
            _worker = ThreadPoolExecutor(max_workers=1, thread_name_prefix="aulmpm-transfer")
        second = _worker.submit(task, 1)
    try:
        task(0)
    finally:
        second.result()


def _scatter_action(body: Body, A: np.ndarray, out: np.ndarray) -> None:
    """out[slot_j] += A_p G_j for every stencil entry j of every particle p,
    with A given by rows, (2, 2, n): A[k] = [A_k0, A_k1]."""
    cmap = body.cmap
    slots = cmap.slots.T.ravel()
    plane = cmap.work[0]
    for k in range(2):
        np.einsum("csn,cn->sn", cmap.stack[:2], A[k], out=plane)
        _scatter(slots, plane, out[k])


# ------------------------------------------------------------ per epoch


def epoch_grid_terms(bodies, grid, mass_eps: float) -> None:
    """Set the node mass grid.mass and the active mask grid.active.

    Scatters every body's w m into the zeroed node mass, in body order.
    Call after any body binds or rebinds.
    """
    grid.mass[:] = 0.0
    for body in bodies:
        cmap = body.cmap
        mw = np.multiply(cmap.stack[2], body.m, out=cmap.work[0])
        _scatter(cmap.slots.T.ravel(), mw, grid.mass)
    np.greater(grid.mass, mass_eps, out=grid.active)


# -------------------------------------------------------------------- p2g


def p2g(body: Body, grid, dt: float | None = None) -> None:
    """Scatter momentum w (m v) to the grid, plus the affine term
    m w C r = (m / c) C G on a least-squares binding, and w (m x) to a grid
    that tracks current positions, with m v and m x formed per particle.
    With `dt` given, the momentum also takes in the step's impulse dt f from
    the body's stress state (a prior `stress_pass`), so the grid holds
    m v + dt f.  A grid that keeps the pre-update velocities also gets the
    plain w (m v), in `momentum0`.  The node mass is per epoch
    (`epoch_grid_terms`).
    """
    cmap = body.cmap
    slots = cmap.slots.T.ravel()
    w = cmap.stack[2]
    m_c = body.m / moment_matrix(grid.dx) if cmap.transfer == LEAST_SQUARES else None
    if body._coef_buf is None:
        body._coef_buf = np.empty((2, 3, body.n))

    def component(k: int) -> None:
        # [A_k0, A_k1, m v_k] into the body's rows; the per-entry values
        # into workspace plane k, one scatter at a time
        coef, plane = body._coef_buf[k], cmap.work[k]
        if m_c is not None:
            np.multiply(body.C[k], m_c, out=coef[:2])
        else:
            coef[:2] = 0.0
        if dt is not None:
            _fold_stress(body, k, coef, dt)
        np.multiply(body.m, body.v[:, k], out=coef[2])
        np.einsum("csn,cn->sn", cmap.stack, coef, out=plane)
        _scatter(slots, plane, grid.momentum[k])
        if grid.momentum0 is not None:
            _scatter(slots, np.multiply(w, coef[2], out=plane), grid.momentum0[k])
        if grid.pos_accum is not None:
            mx = np.multiply(body.m, body.x[:, k], out=coef[0])
            _scatter(slots, np.multiply(w, mx, out=plane), grid.pos_accum[k])

    _by_component(body, component)


def finalize_grid(grid) -> None:
    """Divide by the node mass on the active nodes (zero elsewhere): the
    momentum into velocities and, where the grid keeps or tracks them, the
    plain momentum into pre-update velocities and the scattered m w x into
    mass-averaged current node positions.  Reads only the accumulators, so
    a second call writes the same values."""
    idle = ~grid.active
    for scattered, out in ((grid.momentum, grid.velocity), (grid.momentum0, grid.velocity0),
                           (grid.pos_accum, grid.current)):
        if out is not None:
            np.divide(scattered, grid.mass, out=out, where=grid.active)
            np.copyto(out, 0.0, where=idle)


# ------------------------------------------------------------------ stress


def stress_pass(body: Body) -> None:
    """Evaluate the material law at the current elastic gradient into
    `body.stress`, which replaces any earlier state and its tangent.  Reads
    only the deformation, so it may run before p2g.
    """
    F_total = compose_total(body.state)
    if body.material.kind == SNOW:
        Fp_inv = inverse(body.F_plastic)
        law = energy_and_piola(matmul(F_total, Fp_inv), body.material, det(body.F_plastic))
        B = matmul(body.state.F_0s, Fp_inv)
    else:
        law = energy_and_piola(F_total, body.material)
        B = body.state.F_0s
    body.stress = StepStress(law, B)


def _tangent(body: Body) -> np.ndarray:
    """The symmetric 4x4 map per particle, (4, 4, n), from the entries of
    dF_sn to those of V0 dP B^T at the body's stress state: the Hessian of
    V0 psi(F_sn B) in F_sn.  Built on first use into the body's buffer and
    kept with the stress state, so it never outlives it.
    """
    stress = body.stress
    if stress.tangent is None:
        if body._tangent_buf is None:
            body._tangent_buf = np.empty((4, 4, body.n))
        stress.tangent = hessian_action(stress.law, stress.B, body.V0, out=body._tangent_buf)
    return stress.tangent


def _fold_stress(body: Body, k: int, A: np.ndarray, scale: float = 1.0) -> None:
    """Subtract row k of scale V0 P B^T per particle, from the body's stress
    state, in place from the rows A (2, n) = [A_k0, A_k1]: the action of
    -V0 P B^T on G_i is the internal force on node i."""
    P, B = body.stress.law.P, body.stress.B
    s = scale * body.V0
    for j in range(2):
        # in place, so that p2g's (3, n) block and two (n,) rows suffice
        t = np.multiply(P[k, 0], B[j, 0])
        t += P[k, 1] * B[j, 1]
        t *= s
        A[j] -= t


def grid_internal_forces(body: Body, grid) -> np.ndarray:
    """The internal forces f_i = -sum_p V0 P B^T G_i on the grid's slots,
    (2, slots), from the body's stress state.  A step does not call it:
    p2g deposits dt f with the momentum."""
    A = np.zeros((2, 2, body.n))
    for k in range(2):
        _fold_stress(body, k, A[k])
    f = np.zeros((2, grid.n_slots))
    _scatter_action(body, A, f)
    return f


# ----------------------------------------------------------- grid dynamics


def explicit_update(grid, dt: float, gravity: np.ndarray) -> None:
    """Symplectic Euler velocity update on the active nodes, v += dt g; p2g
    has already deposited dt f.  Inactive nodes keep zero velocity.
    """
    # through the mask as a factor, which costs a third of a masked add
    grid.velocity += (dt * gravity)[:, None] * grid.active


def hessian_apply(bodies, u: np.ndarray, act: np.ndarray | None = None) -> np.ndarray:
    """Energy Hessian in grid velocities: returns -(force differential).

    Requires a prior `stress_pass` on each body; the first call after it
    builds each body's tangent, and every call is a gather, the contraction
    to dF_sn, the tangent product and a scatter.  With `act` given, input and
    output are restricted to the flagged nodes, which keeps the operator
    symmetric on that subspace.
    """
    if act is not None:
        u = np.where(act, u, 0.0)
    out = np.zeros(u.shape)
    for body in bodies:
        # the gather fills the workspace, free again once contracted
        dF_sn = contract(_gather(u, body.cmap, body.cmap.work), body.cmap.stack[:2])
        # the tangent product on the (4, n) entry rows of dF_sn, into rows
        # of the workspace's second plane (`_scatter_action` writes only
        # the first)
        dA = body.cmap.work[1, :4]
        np.einsum("ijn,jn->in", _tangent(body), dF_sn.reshape(4, -1), out=dA)
        _scatter_action(body, dA.reshape(2, 2, -1), out)
    if act is not None:
        out[:, ~act] = 0.0
    return out


@dataclass
class NodeStencil:
    """A grid operator that couples each node to the 5 x 5 lattice nodes
    around it, slot axis innermost: `neighbours` (25, slots) holds the slot
    of each row node's neighbour in column d (`SparseGrid.neighbours`) and
    `blocks` (2, 2, 25, slots) the 2 x 2 blocks, [k, l, d, r] the coupling
    of component k of row node r to component l of its column-d neighbour.
    A column whose node is off the lattice, unbound or outside the
    operator's restriction reads the sentinel slot n_slots, and its block
    is zero.  `near` (2, 25, slots) holds the gathered neighbour values of
    one product."""

    blocks: np.ndarray
    neighbours: np.ndarray
    near: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.near = np.empty((2,) + self.neighbours.shape)

    def apply(self, u: np.ndarray) -> np.ndarray:
        """The product with node vectors (2, slots): a gather of every row's
        neighbours into `near` and one contraction.  The gather clips the
        sentinel to the last slot, which its zero block cancels."""
        np.take(u, self.neighbours, axis=1, out=self.near, mode="clip")   # [l, d, r]
        rows = self.neighbours.shape[1]
        return np.einsum("kmr,mr->kr", self.blocks.reshape(2, -1, rows),
                         self.near.reshape(-1, rows))


def assemble_hessian(bodies, grid, act: np.ndarray | None = None) -> NodeStencil:
    """The operator of `hessian_apply(bodies, u, act)`, sum_p G_p^T T_p G_p,
    assembled over node pairs for the products of one solve.

    Requires a prior `stress_pass` on each body and builds any tangent not
    yet built.  Entry pair (s, t) of particle p adds the block
    K[k, l] = sum_c,c' G_cs T[2k + c, 2l + c'] G_c't to row slot(p, s) at
    column PAIR_COLUMN[s, t].  The tangent is symmetric, so the block of
    pair (t, s) is K^T: only the 45 pairs t >= s are accumulated, one at a
    time through the binding's workspace, and the other columns mirror
    them.  With `act` given, rows and columns of the unflagged nodes read
    the sentinel.
    """
    size = grid.n_slots
    near = grid.neighbours()
    if act is not None:
        near[:, ~act] = size
        near[~np.append(act, False)[near]] = size
    blocks = np.zeros((2, 2, near.shape[0], size))
    for body in bodies:
        cmap = body.cmap
        G = cmap.stack[:2]
        T = _tangent(body).reshape(2, 2, 4, -1)   # [k, c, 2l + c']
        planes = cmap.work.reshape(-1, body.n)
        GT = planes[:8].reshape(2, 4, -1)        # [k, 2l + c'] of G_s^T T
        K = planes[8:12].reshape(2, 2, -1)
        index = np.empty((4, body.n), dtype=np.int64)   # (2k + l) slots + slot
        for s in range(ENTRIES):
            np.einsum("cn,kcmn->kmn", G[:, s], T, out=GT)
            np.add(cmap.slots.T[s], size * np.arange(4)[:, None], out=index)
            for t in range(s, ENTRIES):
                np.einsum("klcn,cn->kln", GT.reshape(2, 2, 2, -1), G[:, t], out=K)
                blocks[:, :, PAIR_COLUMN[s, t]] += np.bincount(
                    index.ravel(), K.ravel(), 4 * size).reshape(2, 2, size)
    # a sentinel column's mirror reads the clipped last slot's block; the
    # zeroing after the mirror clears it
    for d in range(CENTER):
        np.take(blocks[:, :, 2 * CENTER - d].swapaxes(0, 1), near[d], axis=-1,
                out=blocks[:, :, d], mode="clip")
    blocks[:, :, near == size] = 0.0
    return NodeStencil(blocks, near)


def implicit_update(bodies, grid, dt: float, gravity: np.ndarray) -> dict:
    """One-Newton-step backward Euler velocity solve.

    Solves (M + dt^2 H) v = M v_hat with H the energy Hessian in the grid
    degrees of freedom, by conjugate gradients on the mass-weighted system.
    The start residual takes one matrix-free product of H; a solve that
    iterates assembles H once and multiplies by the assembled operator in
    every iteration.  Falls back to the explicit update if the operator
    loses positive definiteness.  Returns the iteration count, whether the
    solve converged or fell back, and `residual`, the relative residual
    |r| / |b| of the velocities it leaves (0 when b = 0).
    """
    explicit_update(grid, dt, gravity)
    act = grid.active
    v_hat = grid.velocity.copy()

    def a_mul(u: np.ndarray, hessian) -> np.ndarray:
        return grid.mass * u + dt * dt * hessian(u)

    b = grid.mass * v_hat
    x = v_hat.copy()
    r = b - a_mul(x, lambda u: hessian_apply(bodies, u, act))
    b_norm = np.linalg.norm(b)
    r_start = float(np.linalg.norm(r) / b_norm) if b_norm > 0.0 else 0.0
    info = {"iterations": 0, "converged": True, "fallback": False, "residual": r_start}
    if r_start <= CG_TOL:
        grid.velocity[:] = x
        return info

    # the tangents are fixed for the rest of the solve
    hessian = assemble_hessian(bodies, grid, act).apply
    p = r.copy()
    rr = float(np.vdot(r, r))
    for it in range(1, CG_MAX_ITERS + 1):
        ap = a_mul(p, hessian)
        pap = float(np.vdot(p, ap))
        if pap <= 0.0:
            # lost positive definiteness: keep the explicit velocities
            grid.velocity[:] = v_hat
            info.update(iterations=it, converged=False, fallback=True, residual=r_start)
            return info
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        rr_new = float(np.vdot(r, r))
        info.update(iterations=it, residual=float(np.sqrt(rr_new) / b_norm))
        if info["residual"] <= CG_TOL:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    else:
        info["converged"] = False
    grid.velocity[:] = np.where(act, x, 0.0)
    return info


def grid_collisions(grid, colliders, dt: float) -> int:
    """Project velocities of penetrating, approaching nodes; returns how
    many nodes were projected.

    Colliders are static: a sticky one stops such a node, a slip one removes
    its normal velocity.  Contact is tested at the predicted current node
    positions (the mass-averaged material positions from p2g, advanced by
    dt), so long-lived bindings see collisions where the material actually
    is.  Needs a grid that tracks positions.
    """
    if not colliders:
        return 0
    idx = np.flatnonzero(grid.active)
    if idx.size == 0:
        return 0
    # the colliders take points as rows, (m, 2): transposed views
    x_pred = (grid.current[:, idx] + dt * grid.velocity[:, idx]).T
    touched = 0
    for col in colliders:
        inside = col.signed_distance(x_pred) < 0.0
        if not np.any(inside):
            continue
        sub = idx[inside]
        n = col.normal_at(x_pred[inside])
        vn = np.einsum("na,na->n", grid.velocity[:, sub].T, n)
        approaching = vn < 0.0
        sub = sub[approaching]
        if sub.size == 0:
            continue
        touched += sub.size
        if col.mode == "sticky":
            grid.velocity[:, sub] = 0.0
        else:
            n = n[approaching]
            vn = vn[approaching]
            grid.velocity[:, sub] -= vn * n.T
    return touched


# -------------------------------------------------------------------- g2p


def g2p(body: Body, grid, dt: float) -> None:
    """Gather velocities, advect, and measure the new velocity gradient.

    Positions advance with the gathered (PIC) velocity.  On a kernel binding
    the particle velocity blends PIC with weight 1 - FLIP_BLEND and FLIP (old
    particle velocity plus the gathered grid change) with weight FLIP_BLEND;
    elsewhere it is the PIC velocity.  The FLIP blend needs a grid that
    keeps the pre-update velocities.
    """
    cmap = body.cmap
    body.C = None   # read by p2g alone: its buffer goes before the new one comes
    gathered = np.empty((2, 3, body.n))   # [k, c]: C as c < 2, the PIC velocity as c = 2
    kernel = cmap.transfer == KERNEL
    if kernel:
        change = grid.velocity - grid.velocity0
        flip = np.empty((2, body.n))

    def component(k: int) -> None:
        plane = cmap.work[k]
        np.einsum("sn,csn->cn", _gather(grid.velocity[k], cmap, plane), cmap.stack,
                  out=gathered[k])
        if kernel:
            # the gathered change
            np.einsum("sn,sn->n", _gather(change[k], cmap, plane), cmap.stack[2], out=flip[k])

    _by_component(body, component)
    body.C = gathered[:, :2]
    v_pic = gathered[:, 2].T   # as the particle rows (n, 2)
    if kernel:
        flip = flip.T   # the FLIP velocity, as rows
        flip += body.v
        flip *= FLIP_BLEND
        flip += (1.0 - FLIP_BLEND) * v_pic
        body.v = flip
    else:
        body.v = v_pic
    body.x = body.x + dt * v_pic
