"""Deformation bookkeeping around an updatable intermediate configuration.

Each particle factors its total deformation gradient as F_total = F_sn F_0s:
F_0s maps the initial configuration to the reference configuration the grid
is currently bound against, and F_sn accumulates motion measured since that
binding.  Keeping the binding fixed gives a total-Lagrangian scheme;
rebinding every step gives the usual Eulerian scheme; rebinding when enough
particles exceed a volume-change threshold interpolates between the two.

A binding stores each per-stencil-entry array once, entry-major, with the
particle axis last.  Its weights form one C-contiguous (3, S, n) stack
[G_x, G_y, w]: the gradient weights G, an (n, S, 2) view of stack[:2], and
the window weights w, an (n, S) view of stack[2].  The storage slots of the
bound nodes are an (n, S) view of an (S, n) buffer.  So a phase that runs
over one stencil entry at a time runs over the long particle axis, not over
S = 9, and one einsum contracts a per-particle row of coefficients against
all of [G_x, G_y, w] at once.  `contract` is that einsum on the gather side:
sum_j v_j (x) [G_j, w_j] over the node samples of a stencil, whose G part is
the velocity gradient, the affine velocity C of APIC and MLS-MPM, and whose
w part is the interpolated (PIC) velocity.  Deformation gradients are
batches of 2x2 matrices, (2, 2, n) arrays like every per-particle matrix
(see `constitutive`), and `contract` returns its (2, c, n) result in the
same layout.

`ConfigurationMap.build` is the one place that allocates a binding's
stack, slots buffer, workspace and reference positions; `mls` only writes
into the stack and the scratch rows it is given, and `build` gives it the
workspace as that scratch.  The particle count never changes, so a rebind
(`apply_update`) refills the old binding: the old map hands the four over
to the new one, which `build` writes in place, and holds None in their
place.  The fold of F_sn into F_0s runs through the same workspace into
F_0s's own buffer, and F_sn is reset in its own.  A steady rebind
therefore allocates nothing of per-particle size.

A binding in cell order also records its runs: where each run of
particles that share a stencil base node starts, and the slots of that
run's S nodes.  The transfers then sum every run per stencil entry before
they touch the grid (see `transfers`).  A body that keeps such a binding
is put in cell order at every rebind (`apply_update` with `carried`): the
particles are stable-sorted by the lattice index of their new base node
(`cell_keys`), and every per-particle array is permuted through the old
binding's workspace and slots rows, which are free until the build.  The
sort allocates only its order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import det, matmul
from .errors import NumericalError
from .mls import ENTRIES, SUPPORT, base_nodes, build_stencil, gradient_weights, moment_matrix

# transfer flavors: which gradient weights a binding carries
LEAST_SQUARES = "least_squares"
KERNEL = "kernel"


@dataclass
class UpdatePolicy:
    """Rebinding criterion: mark particles with |det F_sn - 1| >= epsilon,
    rebind when the marked fraction reaches eta."""

    epsilon: float
    eta: float

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be non-negative")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("eta must lie in [0, 1]")

    @classmethod
    def solid(cls) -> "UpdatePolicy":
        return cls(epsilon=0.5, eta=0.1)

    @classmethod
    def fluid(cls) -> "UpdatePolicy":
        return cls(epsilon=0.01, eta=0.01)


@dataclass
class DeformationState:
    """Per-particle deformation factors, both (2, 2, n)."""

    F_0s: np.ndarray
    F_sn: np.ndarray

    @classmethod
    def identity(cls, n: int) -> "DeformationState":
        return cls(F_0s=identity_batch(n), F_sn=identity_batch(n))


_EYE = np.eye(2)[:, :, None]


def identity_batch(n: int) -> np.ndarray:
    """n identity matrices, (2, 2, n)."""
    return np.repeat(_EYE, n, axis=-1)


@dataclass
class ConfigurationMap:
    """Grid binding of one object at its reference configuration.

    Holds the reference particle positions and, for every particle and
    stencil entry, the window weight w, the gradient weight G that every
    transfer phase contracts against and the storage slot of the bound grid
    node.  The transfer flavor decides G: `least_squares` (MLS-MPM / APIC)
    uses G_j = c W_j r_j with c = 4 / dx^2 (`mls.moment_matrix`); `kernel`
    (PIC/FLIP MPM) uses the window gradients grad W_j.  No phase reads the
    node offsets r, so the binding does not keep them; where they are
    wanted they are grid.position.T[slots] - ref_positions[:, None].

    `stack` is the (3, S, n) weight stack [G_x, G_y, w] that `mls` writes
    in place; w and G are views of it, and slots the transpose of an (S, n)
    buffer (see the module docstring).  `work` is the (2, S, n) workspace
    the transfer phases write their per-entry temporaries into, and a bind
    its per-axis pieces.  `build` allocates these three and the reference
    positions, or takes them over at a rebind.  The slots come
    from `SparseGrid.activate`, which only returns slots of the grid; they
    stay valid because the grid only grows.

    A binding built with `runs` holds `starts` (R,), the first particle of
    each run of equal base nodes, and `run_slots` (S, R), the slots of each
    run's stencil; elsewhere both are None.  Any split into runs of equal
    base nodes gives the same node sums; cell order makes R the number of
    occupied cells.
    """

    epoch: int
    ref_positions: np.ndarray
    stack: np.ndarray
    slots: np.ndarray
    work: np.ndarray
    transfer: str = LEAST_SQUARES
    starts: np.ndarray | None = None
    run_slots: np.ndarray | None = None

    @property
    def w(self) -> np.ndarray:
        return self.stack[2].T

    @property
    def G(self) -> np.ndarray:
        return self.stack[:2].T

    @classmethod
    def build(cls, positions: np.ndarray, grid, epoch: int = 0,
              transfer: str = LEAST_SQUARES,
              reuse: "ConfigurationMap | None" = None,
              runs: bool = False) -> "ConfigurationMap":
        """Bind `positions` to `grid`, into a fresh stack, slots buffer,
        workspace and reference positions or, with `reuse`, a map of as
        many particles, into its own: the new map takes them over and
        `reuse` keeps its epoch and holds None there.  A `reuse` of another
        particle count raises ValueError, and one whose positions leave the
        domain OutOfDomainError; either leaves `reuse` holding its arrays.
        The stencil's per-axis pieces are computed in the workspace.  With
        `runs`, the map records its runs of equal base nodes.
        """
        if transfer not in (LEAST_SQUARES, KERNEL):
            raise ValueError(f"unknown transfer {transfer!r}")
        positions = np.asarray(positions, dtype=np.float64)
        n = positions.shape[0]
        if reuse is None:
            shape = (ENTRIES, n)
            stack, nodes, work, ref = (np.empty((3,) + shape), np.empty(shape, dtype=np.int64),
                                       np.empty((2,) + shape), np.empty((n, 2)))
        else:
            if reuse.ref_positions.shape[0] != n:
                raise ValueError(f"cannot rebind {n} particles into a binding of "
                                 f"{reuse.ref_positions.shape[0]}")
            stack, nodes, work, ref = reuse.stack, reuse.slots.T, reuse.work, reuse.ref_positions
        base, offsets = build_stencil(positions, grid.origin, grid.dx, grid.n_nodes,
                                      stack, work.reshape(-1, n), transfer == KERNEL)
        if transfer == LEAST_SQUARES:
            gradient_weights(offsets, stack, moment_matrix(grid.dx))
        # the lattice index of entry 3 i + j is the base node's (a whole
        # number held as a float, cast exactly) plus i ny + j, which is 0
        # for entry 0: written into the (S, n) slots buffer, resolved there
        ny = grid.n_nodes[1]
        k = np.arange(SUPPORT)
        np.multiply(base[0], ny, out=base[0])
        np.add(base[0], base[1], out=base[0])
        np.copyto(nodes[0], base[0], casting="unsafe")
        np.add(nodes[0], (k[:, None] * ny + k).reshape(-1, 1)[1:], out=nodes[1:])
        grid.activate(nodes, out=nodes)
        np.copyto(ref, positions)
        starts = run_slots = None
        if runs:
            # a run starts at particle 0 and wherever the base node changes
            starts = np.flatnonzero(nodes[0, 1:] != nodes[0, :-1])
            starts = np.concatenate(([0], starts + 1))
            run_slots = nodes[:, starts]
        if reuse is not None:
            reuse.stack = reuse.slots = reuse.work = reuse.ref_positions = None
        return cls(epoch=epoch, ref_positions=ref, stack=stack, slots=nodes.T,
                   work=work, transfer=transfer, starts=starts, run_slots=run_slots)


def cell_keys(positions: np.ndarray, grid, scratch: np.ndarray | None = None) -> np.ndarray:
    """The lattice index of each particle's stencil base node, the node of
    entry 0, as whole numbers held as floats (n,), computed in `scratch`
    (2, n) float rows if given, row 0 of which it returns, from the base
    nodes `build_stencil` takes (`mls.base_nodes`), so equal keys mean
    equal stencils.  Positions outside the grid give keys outside the
    lattice; the bind reports them."""
    u = np.empty((2, positions.shape[0])) if scratch is None else scratch
    base_nodes(positions, grid.origin, grid.dx, u, u)
    np.multiply(u[0], grid.n_nodes[1], out=u[0])
    np.add(u[0], u[1], out=u[0])
    return u[0]


def _cell_order(positions: np.ndarray, grid, cmap: ConfigurationMap) -> np.ndarray | None:
    """The stable order of the particles by the lattice index of their base
    node at `positions`, keyed in `cmap`'s workspace; None when they are in
    that order already."""
    key = cell_keys(positions, grid, cmap.work.reshape(-1, positions.shape[0])[:2])
    if not (key[1:] < key[:-1]).any():
        return None
    return np.argsort(key, kind="stable")


def _permute(order: np.ndarray, positions: np.ndarray, arrays, cmap: ConfigurationMap) -> None:
    """Permute the rows (n, 2) of `positions` and every array of `arrays`
    (particle axis last and contiguous, other axes of any strides) by
    `order`, in place, through the rows of `cmap`'s workspace (floats) and
    slots buffer (integers).  Each take reads one contiguous row, or the
    rows of 2, in mode "clip" (the order is a permutation): a strided
    source would be copied first, and mode "raise" buffers the output."""
    n = positions.shape[0]
    floats = cmap.work.reshape(-1, n)
    # whole rows of 2: a gather of (n, 2) columns would stride
    np.take(positions, order, axis=0, out=floats[:2].reshape(n, 2), mode="clip")
    np.copyto(positions, floats[:2].reshape(n, 2))
    for a in arrays:
        buf = (cmap.slots.T if a.dtype.kind in "iu" else floats)[:a.size // n]
        buf = buf.reshape(a.shape)
        for row in np.ndindex(a.shape[:-1]):
            np.take(a[row], order, out=buf[row], mode="clip")
        np.copyto(a, buf)


def contract(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j p_j (x) q_j per particle, (2, c, n), from node samples of a
    vector field, entry-major (2, S, n), and weight rows (c, S, n).

    Against a binding's stack [G_x, G_y, w] and the gathered grid velocities
    this gives, in one einsum, the velocity gradient wrt the reference
    configuration, the affine velocity C of APIC and MLS-MPM, as [:, :2]
    and the interpolated velocity as [:, 2]; against stack[:2] it is the
    gradient alone.  Each sum runs over the stencil entries in order, with
    the particle axis innermost; g2p runs the same sums one component at a
    time (see `transfers`), with the same bits.
    """
    out = np.empty((2, weights.shape[0], samples.shape[-1]))
    return np.einsum("ksn,csn->kcn", samples, weights, out=out)


def advance_F_sn(state: DeformationState, grad_v: np.ndarray, dt: float) -> int:
    """F_sn <- F_sn + dt grad_v in place; returns the count of non-positive
    determinants afterwards (inverted elements, reported as a diagnostic).

    Raises NumericalError when F_sn has a non-finite entry, which shows in
    its determinant.
    """
    state.F_sn += dt * grad_v
    J = det(state.F_sn)
    if not np.isfinite(J).all():
        raise NumericalError("non-finite F_sn")
    return int(np.count_nonzero(J <= 0.0))


def compose_total(state: DeformationState) -> np.ndarray:
    """Total deformation gradient F_sn F_0s, (2, 2, n)."""
    return matmul(state.F_sn, state.F_0s)


def deformation_delta(state: DeformationState) -> np.ndarray:
    """Volume-change measure |det F_sn - 1| per particle."""
    return np.abs(det(state.F_sn) - 1.0)


def should_update(delta: np.ndarray, policy: UpdatePolicy) -> tuple[int, bool]:
    """Marked-particle count and whether the rebinding criterion fires."""
    marked = int(np.count_nonzero(delta >= policy.epsilon))
    return marked, (marked / delta.shape[0]) >= policy.eta


def apply_update(state: DeformationState, positions: np.ndarray, grid,
                 cmap: ConfigurationMap, carried=None) -> ConfigurationMap:
    """Rebind at the current positions and fold F_sn into F_0s.

    Afterwards F_0s holds the old product F_sn F_0s, F_sn is the identity,
    and the returned map carries fresh window weights, gradient weights and
    slots of the same transfer flavor, with the epoch counter advanced by
    one.  Everything is written in place: the product goes through the old
    map's workspace into F_0s's buffer, F_sn is reset in its own, and the
    old map hands its stack, slots, workspace and reference positions over
    to the new one and holds None in their place, so a steady rebind
    allocates nothing of per-particle size.

    With `carried`, the body's other per-particle arrays (particle axis
    last), the binding stays in cell order: the particles are stable-sorted
    by their new base node, the fold writes its product in that order, and
    `positions` and every carried array are permuted in place (F_sn, the
    identity, need not move); nothing moves when the particles are in order
    already.  The new map records its runs.
    """
    order = None if carried is None else _cell_order(positions, grid, cmap)
    folded = cmap.work[0, :4].reshape(state.F_sn.shape)
    np.einsum("ijn,jkn->ikn", state.F_sn, state.F_0s, out=folded)
    if order is None:
        np.copyto(state.F_0s, folded)
    else:
        np.take(folded, order, axis=-1, out=state.F_0s, mode="clip")
        _permute(order, positions, carried, cmap)
    state.F_sn[...] = _EYE
    return ConfigurationMap.build(positions, grid, cmap.epoch + 1, cmap.transfer, reuse=cmap,
                                  runs=carried is not None)
