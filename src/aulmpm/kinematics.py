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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import det, matmul
from .errors import NumericalError
from .mls import ENTRIES, SUPPORT, build_stencil, gradient_weights, moment_matrix

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
    """

    epoch: int
    ref_positions: np.ndarray
    stack: np.ndarray
    slots: np.ndarray
    work: np.ndarray
    transfer: str = LEAST_SQUARES

    @property
    def w(self) -> np.ndarray:
        return self.stack[2].T

    @property
    def G(self) -> np.ndarray:
        return self.stack[:2].T

    @classmethod
    def build(cls, positions: np.ndarray, grid, epoch: int = 0,
              transfer: str = LEAST_SQUARES,
              reuse: "ConfigurationMap | None" = None) -> "ConfigurationMap":
        """Bind `positions` to `grid`, into a fresh stack, slots buffer,
        workspace and reference positions or, with `reuse`, a map of as
        many particles, into its own: the new map takes them over and
        `reuse` keeps its epoch and holds None there.  A `reuse` of another
        particle count raises ValueError, and one whose positions leave the
        domain OutOfDomainError; either leaves `reuse` holding its arrays.
        The stencil's per-axis pieces are computed in the workspace.
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
        if reuse is not None:
            reuse.stack = reuse.slots = reuse.work = reuse.ref_positions = None
        return cls(epoch=epoch, ref_positions=ref, stack=stack, slots=nodes.T,
                   work=work, transfer=transfer)


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
                 cmap: ConfigurationMap) -> ConfigurationMap:
    """Rebind at the current positions and fold F_sn into F_0s.

    Afterwards F_0s holds the old product F_sn F_0s, F_sn is the identity,
    and the returned map carries fresh window weights, gradient weights and
    slots of the same transfer flavor, with the epoch counter advanced by
    one.  Everything is written in place: the product goes through the old
    map's workspace into F_0s's buffer, F_sn is reset in its own, and the
    old map hands its stack, slots, workspace and reference positions over
    to the new one and holds None in their place, so a steady rebind
    allocates nothing of per-particle size.
    """
    folded = cmap.work[0, :4].reshape(state.F_sn.shape)
    np.einsum("ijn,jkn->ikn", state.F_sn, state.F_0s, out=folded)
    np.copyto(state.F_0s, folded)
    state.F_sn[...] = _EYE
    return ConfigurationMap.build(positions, grid, cmap.epoch + 1, cmap.transfer, reuse=cmap)
