"""Deformation bookkeeping around an updatable intermediate configuration.

Each particle factors its total deformation gradient as F_total = F_sn F_0s:
F_0s maps the initial configuration to the reference configuration the grid
is currently bound against, and F_sn accumulates motion measured since that
binding.  Keeping the binding fixed gives a total-Lagrangian scheme;
rebinding every step gives the usual Eulerian scheme; rebinding when enough
particles exceed a volume-change threshold interpolates between the two.

A binding stores each per-stencil-entry array once, entry-major: the window
weights w and the storage slots of the bound nodes are (n, S) views of
(S, n) buffers, and the gradient weights G an (n, S, 2) view of a (2, S, n)
buffer.  Their transposes w.T, slots.T and G.T are those C-contiguous
buffers, so a phase that runs over one stencil entry at a time runs over
the long particle axis, not over S = 9.  `contract` is the one velocity
gradient: sum_j v_j (x) G_j over the node velocities of a stencil, the
affine velocity C of APIC and MLS-MPM.  Deformation gradients are batches
of 2x2 matrices, multiplied and reduced in closed form by the helpers in
`constitutive`.
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

    w, G and slots are the transposes of entry-major buffers (see the
    module docstring).  `work` is the workspace the transfer phases write
    their per-entry temporaries into, allocated on first use (see
    `transfers`).  Slots are checked against the grid here, at bind time,
    so the gathers need not check them again; they stay valid because the
    grid only grows.
    """

    epoch: int
    ref_positions: np.ndarray
    w: np.ndarray
    G: np.ndarray
    slots: np.ndarray
    transfer: str = LEAST_SQUARES
    work: np.ndarray | None = None

    @classmethod
    def build(cls, positions: np.ndarray, grid, epoch: int = 0,
              transfer: str = LEAST_SQUARES) -> "ConfigurationMap":
        if transfer not in (LEAST_SQUARES, KERNEL):
            raise ValueError(f"unknown transfer {transfer!r}")
        positions = np.asarray(positions, dtype=np.float64)
        st = build_stencil(positions, grid.origin, grid.dx, grid.n_nodes,
                           gradients=transfer == KERNEL)
        G = st.dw if transfer == KERNEL else gradient_weights(st, moment_matrix(grid.dx))
        # the node coordinates in entry order, as two contiguous columns:
        # views of the (2, S, n) buffer, and the slots come back entry-major
        planes = st.coords.T.reshape(2, -1)
        slots = grid.activate(planes.T).reshape(st.w.T.shape).T
        if slots.size and (slots.min() < 0 or slots.max() >= grid.n_slots):
            raise IndexError("grid slots out of range")
        return cls(epoch=epoch, ref_positions=positions.copy(), w=st.w, G=G, slots=slots,
                   transfer=transfer)


def contract(px: np.ndarray, py: np.ndarray, G: np.ndarray) -> np.ndarray:
    """sum_j p_j (x) G_j per particle, (n, 2, 2), from the node samples of a
    vector field split by component, px and py (n, S).

    With the grid velocities as p this is the velocity gradient wrt the
    reference configuration, the affine velocity C of APIC and MLS-MPM.
    The sums run over the entry-major transposes, so on a binding's arrays
    each reduction runs over the particle axis.  The result is an (n, 2, 2)
    view of a (2, 2, n) buffer.
    """
    gx, gy = G.T
    out = np.empty((2, 2, px.shape[0]))
    for k, p in enumerate((px.T, py.T)):
        np.einsum("sn,sn->n", p, gx, out=out[k, 0])
        np.einsum("sn,sn->n", p, gy, out=out[k, 1])
    return np.moveaxis(out, (0, 1), (-2, -1))


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
    n = delta.shape[0]
    marked = int(np.count_nonzero(delta >= policy.epsilon))
    if n == 0:
        return 0, False
    return marked, (marked / n) >= policy.eta


def apply_update(state: DeformationState, positions: np.ndarray, grid,
                 cmap: ConfigurationMap) -> ConfigurationMap:
    """Rebind at the current positions and fold F_sn into F_0s.

    Afterwards F_0s holds the old product F_sn F_0s, F_sn is the identity,
    and the returned map carries fresh window weights, gradient weights and
    slots of the same transfer flavor, with the epoch counter advanced by
    one.  The old map's workspace is released first, so that it and the new
    stencils are never held at once.
    """
    state.F_0s = compose_total(state)
    state.F_sn = _identity(state.F_sn.shape[0])
    cmap.work = None
    return ConfigurationMap.build(positions, grid, cmap.epoch + 1, cmap.transfer)
