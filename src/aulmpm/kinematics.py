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
batches of 2x2 matrices, multiplied and reduced in closed form by the
helpers in `constitutive`.

The particle count never changes, so a rebind (`apply_update`) refills the
old binding: the old map hands its stack, slots buffer and workspace over
to the new one, which `ConfigurationMap.build` writes in place, and holds
None in their place.  A steady rebind therefore allocates none of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constitutive import det, matmul, pack
from .errors import NumericalError
from .mls import build_stencil, gradient_weights, moment_matrix

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
    """Per-particle deformation factors, both (n, 2, 2)."""

    F_0s: np.ndarray
    F_sn: np.ndarray

    @classmethod
    def identity(cls, n: int) -> "DeformationState":
        return cls(F_0s=_identity(n), F_sn=_identity(n))


def _identity(n: int) -> np.ndarray:
    return pack(np.ones(n), np.zeros(n), np.zeros(n), np.ones(n))


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
    wanted they are grid.position[slots] - ref_positions[:, None].

    `stack` is the (3, S, n) weight stack [G_x, G_y, w] that `mls` writes
    in place; w and G are views of it, and slots the transpose of an (S, n)
    buffer (see the module docstring).  `work` is the workspace the
    transfer phases write their per-entry temporaries into, allocated on
    first use (see `transfers`) and handed on at a rebind.  Slots are
    checked against the grid here, at bind time, so the gathers need not
    check them again; they stay valid because the grid only grows.
    """

    epoch: int
    ref_positions: np.ndarray
    stack: np.ndarray
    slots: np.ndarray
    transfer: str = LEAST_SQUARES
    work: np.ndarray | None = None

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
        """Bind `positions` to `grid`.  With `reuse`, a map of as many
        particles, the new map takes over its stack, slots and workspace
        and writes into them; `reuse` keeps its epoch and holds None there.
        """
        if transfer not in (LEAST_SQUARES, KERNEL):
            raise ValueError(f"unknown transfer {transfer!r}")
        positions = np.asarray(positions, dtype=np.float64)
        stack = slots = work = None
        if reuse is not None:
            stack, slots, work = reuse.stack, reuse.slots, reuse.work
            reuse.stack = reuse.slots = reuse.work = None
        st = build_stencil(positions, grid.origin, grid.dx, grid.n_nodes,
                           gradients=transfer == KERNEL, out=stack)
        if transfer == LEAST_SQUARES:
            gradient_weights(st, moment_matrix(grid.dx), st.stack[:2])
        # the lattice index of entry 3 i + j is the base node's plus
        # i ny + j: written into the (S, n) slots buffer and resolved there
        ny = grid.n_nodes[1]
        base = st.nodes[0, 0] * ny + st.nodes[1, 0]
        k = np.arange(st.nodes.shape[1])
        shift = (k[:, None] * ny + k).reshape(-1, 1)
        nodes = np.empty(st.w.T.shape, dtype=np.int64) if slots is None else slots.T
        np.add(base, shift, out=nodes)
        slots = grid.activate(nodes, out=nodes).T
        if slots.size and (slots.min() < 0 or slots.max() >= grid.n_slots):
            raise IndexError("grid slots out of range")
        return cls(epoch=epoch, ref_positions=positions.copy(), stack=st.stack, slots=slots,
                   transfer=transfer, work=work)


def contract(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j p_j (x) q_j per particle, (n, 2, c), from node samples of a
    vector field, entry-major (2, S, n), and weight rows (c, S, n).

    Against a binding's stack [G_x, G_y, w] and the gathered grid velocities
    this gives, in one einsum, the velocity gradient wrt the reference
    configuration, the affine velocity C of APIC and MLS-MPM, as [..., :2]
    and the interpolated velocity as [..., 2]; against stack[:2] it is the
    gradient alone.  Each sum runs over the stencil entries in order, with
    the particle axis innermost.  The result is an (n, 2, c) view of a
    (2, c, n) buffer.
    """
    out = np.empty((2, weights.shape[0], samples.shape[-1]))
    np.einsum("ksn,csn->kcn", samples, weights, out=out)
    return np.moveaxis(out, -1, 0)


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
    """Total deformation gradient F_sn F_0s, (n, 2, 2)."""
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
    one.  They are written into the old map's stack and slots, and the new
    map keeps its workspace: the old map hands the three over and holds
    None in their place, so a rebind allocates none of them.
    """
    state.F_0s = compose_total(state)
    state.F_sn = _identity(state.F_sn.shape[0])
    return ConfigurationMap.build(positions, grid, cmap.epoch + 1, cmap.transfer, reuse=cmap)
