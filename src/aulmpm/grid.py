"""Sparse background grid and static collision geometry.

Nodes live on a uniform 2-D lattice; a node gets a storage slot the first
time a stencil binds it, and activation is idempotent.

The node arrays fall in two groups.  `mass` and the `active` mask (nodes
carrying mass) are per-epoch terms: `transfers.epoch_grid_terms` sets them
when a binding changes, and `zero_fields` leaves them alone.  The per-step
arrays are reset by `zero_fields` (the accumulators) or rewritten whole by
`transfers.finalize_grid`.  Some exist only where something reads them:
`pos_accum` and `current` (the scattered m w x and its mass average, the
material position at each active node) on a grid that tracks positions for
collisions, and `velocity0` on a grid that keeps the velocities before the
momentum update for the FLIP blend.  `velocity0` is its own accumulator: p2g
scatters the plain momentum into it and `finalize_grid` divides it by the
node mass in place.  Elsewhere they are None.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutOfDomainError


class SparseGrid:
    """Uniform 2-D grid over a box, with one storage slot per bound node.

    Node (x, y) has lattice index x * (nodes along y) + y.  A table over the
    lattice maps each index to its slot, -1 while unbound; the nodes that one
    `activate` call binds first get the next slots in lattice-index order.
    """

    def __init__(self, origin, dx: float, n_cells,
                 track_positions: bool = False, keep_velocity0: bool = False):
        self.origin = np.asarray(origin, dtype=np.float64)
        self.dx = float(dx)
        self.n_cells = np.asarray(n_cells, dtype=np.int64)
        self.n_nodes = self.n_cells + 1
        self._slot = np.full(int(np.prod(self.n_nodes)), -1, dtype=np.int64)

        # per-node arrays: (name, trailing shape, dtype)
        self._fields = [("mass", (), np.float64), ("active", (), bool)]
        self._fields += [(name, (2,), np.float64) for name in
                         ("momentum", "velocity", "position")]
        self.pos_accum = self.current = self.velocity0 = None
        if track_positions:
            self._fields += [("pos_accum", (2,), np.float64), ("current", (2,), np.float64)]
        if keep_velocity0:
            self._fields.append(("velocity0", (2,), np.float64))

        self.n_slots = 0
        for name, shape, dtype in self._fields:
            setattr(self, name, np.zeros((0,) + shape, dtype=dtype))

    def _grow(self, new_nodes: np.ndarray) -> None:
        """Append storage for the nodes with the given lattice indices, in order."""
        for name, shape, dtype in self._fields:
            setattr(self, name, np.concatenate(
                [getattr(self, name), np.zeros(new_nodes.shape + shape, dtype=dtype)]))
        coords = np.stack(np.divmod(new_nodes, self.n_nodes[1]), axis=-1)
        self.position[self.n_slots:] = self.origin + coords * self.dx
        self.n_slots += new_nodes.size

    def activate(self, coords: np.ndarray) -> np.ndarray:
        """Bind lattice coordinates (m, 2) and return their storage slots.

        Works on the two coordinate columns; they need not be contiguous.
        """
        coords = np.asarray(coords, dtype=np.int64)
        cx, cy = coords[:, 0], coords[:, 1]
        nx, ny = self.n_nodes
        if cx.size and (min(cx.min(), cy.min()) < 0 or cx.max() >= nx or cy.max() >= ny):
            bad = np.flatnonzero((cx < 0) | (cx >= nx) | (cy < 0) | (cy >= ny))
            raise OutOfDomainError(
                f"{bad.size} node coordinate(s) outside the grid, first {coords[bad[0]].tolist()}"
            )
        node = cx * ny
        node += cy
        slot = self._slot[node]
        missing = slot < 0
        if missing.any():
            new_nodes = np.unique(node[missing])
            self._slot[new_nodes] = self.n_slots + np.arange(new_nodes.size)
            self._grow(new_nodes)
            slot = self._slot[node]
        return slot

    def zero_fields(self) -> None:
        """Reset the per-step accumulators; the per-epoch terms are kept."""
        for acc in (self.momentum, self.velocity0, self.pos_accum):
            if acc is not None:
                acc[:] = 0.0


@dataclass
class HalfSpace:
    """Static wall: material is kept on the side the normal points into."""

    point: np.ndarray
    normal: np.ndarray
    mode: str = "slip"  # 'sticky' | 'slip'

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=np.float64)
        n = np.asarray(self.normal, dtype=np.float64)
        self.normal = n / np.linalg.norm(n)

    def signed_distance(self, x: np.ndarray) -> np.ndarray:
        return (x - self.point) @ self.normal

    def normal_at(self, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.normal, x.shape)


@dataclass
class SphereObstacle:
    """Static spherical (circular in 2d) obstacle; material stays outside."""

    center: np.ndarray
    radius: float
    mode: str = "slip"

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.radius = float(self.radius)

    def signed_distance(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x - self.center, axis=-1) - self.radius

    def normal_at(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        norm = np.linalg.norm(d, axis=-1, keepdims=True)
        return d / np.maximum(norm, 1e-300)
