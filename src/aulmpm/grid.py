"""Sparse background grid and static collision geometry.

Nodes live on a uniform 2-D lattice; a node gets a storage slot the first
time a stencil binds it, and activation is idempotent.  Every node array
keeps its slot axis last: a scalar field is (n_slots,) and a vector field
(2, n_slots), one C-contiguous row per component.

The node arrays fall in two groups.  `mass` and the `active` mask (nodes
carrying mass) are per-epoch terms: `transfers.epoch_grid_terms` sets them
when a binding changes, and `zero_fields` leaves them alone.  The per-step
arrays are reset by `zero_fields` (the accumulators) or rewritten whole by
`transfers.finalize_grid`.  Some exist only where something reads them:
`pos_accum` and `current` (the scattered m w x and its mass average, the
material position at each active node) on a grid that tracks positions for
collisions, and `momentum0` and `velocity0` (the plain momentum w (m v)
and its mass average, the velocities before the momentum update) on a grid
that keeps them for the FLIP blend.  Elsewhere they are None.

`activate` takes lattice indices x * ny + y, of any shape, and returns the
slots in the same shape; a binding writes its stencil's indices into its
slots buffer and resolves them there, by linear passes over the indices
and the lattice, without a sort.  `neighbours` reads the same table the
other way, from slots to the slots of the lattice nodes around them, for
the implicit solve's assembled operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError


class SparseGrid:
    """Uniform 2-D grid over a box, with one storage slot per bound node.

    Node (x, y) has lattice index x * (nodes along y) + y.  A table over the
    lattice maps each index to its slot, or, while the node is unbound, to
    ~index = -1 - index, so a lookup that hits an unbound node still names
    it; the nodes that one `activate` call binds first get the next slots in
    lattice-index order: `activate` marks them in a bool array over the
    lattice and reads the marks in order.
    """

    def __init__(self, origin, dx: float, n_cells,
                 track_positions: bool = False, keep_velocity0: bool = False):
        self.origin = np.asarray(origin, dtype=np.float64)
        self.dx = float(dx)
        self.n_cells = np.asarray(n_cells, dtype=np.int64)
        self.n_nodes = self.n_cells + 1
        self._slot = ~np.arange(int(np.prod(self.n_nodes)), dtype=np.int64)

        # per-node arrays, slot axis last: (name, leading shape, dtype)
        self._fields = [("mass", (), np.float64), ("active", (), bool)]
        self._fields += [(name, (2,), np.float64) for name in
                         ("momentum", "velocity", "position")]
        self.pos_accum = self.current = self.momentum0 = self.velocity0 = None
        if track_positions:
            self._fields += [("pos_accum", (2,), np.float64), ("current", (2,), np.float64)]
        if keep_velocity0:
            self._fields += [("momentum0", (2,), np.float64), ("velocity0", (2,), np.float64)]

        self.n_slots = 0
        for name, shape, dtype in self._fields:
            setattr(self, name, np.zeros(shape + (0,), dtype=dtype))

    def _grow(self, new_nodes: np.ndarray) -> None:
        """Append storage for the nodes with the given lattice indices, in order."""
        bound = self.n_slots
        for name, shape, dtype in self._fields:
            grown = np.empty(shape + (bound + new_nodes.size,), dtype=dtype)
            grown[..., :bound] = getattr(self, name)
            grown[..., bound:] = 0
            setattr(self, name, grown)
        coords = np.stack(np.divmod(new_nodes, self.n_nodes[1]))
        self.position[:, bound:] = self.origin[:, None] + coords * self.dx
        self.n_slots += new_nodes.size

    def activate(self, nodes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Bind lattice indices x * ny + y, of any shape, and return their
        storage slots in the same shape, into `out` if given (which may be
        `nodes` itself, an int64 C-contiguous buffer, resolved in place).
        """
        nodes = np.asarray(nodes)
        if nodes.dtype.kind not in "iu":
            raise TypeError(f"lattice indices must be integers, not {nodes.dtype}")
        size = self._slot.size
        # one pass: read as unsigned, a negative index is at least 2**(bits - 1)
        if nodes.size and nodes.view(f"u{nodes.dtype.itemsize}").max() >= size:
            bad = nodes[(nodes < 0) | (nodes >= size)]
            raise OutOfDomainError(
                f"{bad.size} node index(es) outside the grid of {size} nodes, "
                f"first {int(bad[0])}"
            )
        # in range, so the take need not check (mode="raise" would also copy
        # an `out` that overlaps `nodes`)
        slot = np.take(self._slot, nodes, out=out, mode="clip")
        if slot.size and slot.min() < 0:
            # one cell per bound slot, then the lattice backwards: an entry
            # marks cell `slot`, so an unbound one, slot = ~index < 0, marks
            # cell n_slots + size - 1 - index counting from the end, and a
            # bound one never marks a lattice node
            bound = self.n_slots
            marks = np.zeros(bound + size, dtype=bool)
            marks[slot] = True
            new_nodes = np.flatnonzero(marks[::-1][:size])
            self._slot[new_nodes] = bound + np.arange(new_nodes.size)
            self._grow(new_nodes)
            # the same cells hold each entry's slot: its own where it was
            # bound, the table read backwards where it was not
            cells = np.concatenate([np.arange(bound), self._slot[::-1]])
            np.take(cells, slot, out=slot, mode="wrap")
        return slot

    def neighbours(self) -> np.ndarray:
        """The slots of the 5 x 5 lattice nodes around each bound node,
        (25, n_slots): offset (di, dj), each in -2..2, in row
        5 (di + 2) + dj + 2.  A node off the lattice or unbound reads
        n_slots, never a wrapped lattice index."""
        nx, ny = self.n_nodes
        bound = np.flatnonzero(self._slot >= 0)
        index = np.empty(self.n_slots, dtype=np.int64)
        index[self._slot[bound]] = bound
        x, y = np.divmod(index, ny)
        d = np.arange(-2, 3)
        xs = x + d[:, None, None]
        ys = y + d[:, None]
        inside = (xs >= 0) & (xs < nx) & (ys >= 0) & (ys < ny)
        slot = np.take(self._slot, xs * ny + ys, mode="clip")
        return np.where(inside & (slot >= 0), slot, self.n_slots).reshape(-1, self.n_slots)

    def zero_fields(self) -> None:
        """Reset the per-step accumulators; the per-epoch terms are kept."""
        for acc in (self.momentum, self.momentum0, self.pos_accum):
            if acc is not None:
                acc[:] = 0.0


@dataclass
class Collider:
    """Static collision geometry with its response, 'slip' or 'sticky'."""

    mode: str = field(default="slip", kw_only=True)


@dataclass
class HalfSpace(Collider):
    """Static wall: material is kept on the side the normal points into."""

    point: np.ndarray
    normal: np.ndarray

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=np.float64)
        n = np.asarray(self.normal, dtype=np.float64)
        self.normal = n / np.linalg.norm(n)

    def signed_distance(self, x: np.ndarray) -> np.ndarray:
        return (x - self.point) @ self.normal

    def normal_at(self, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(self.normal, x.shape)


@dataclass
class SphereObstacle(Collider):
    """Static spherical (circular in 2d) obstacle; material stays outside."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.radius = float(self.radius)

    def signed_distance(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x - self.center, axis=-1) - self.radius

    def normal_at(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        norm = np.linalg.norm(d, axis=-1, keepdims=True)
        return d / np.maximum(norm, 1e-300)
