"""Tile-based sparse background grid and static collision geometry.

Nodes live on a uniform 2-D lattice; storage is allocated in tiles of
TILE x TILE nodes the first time any node of a tile is bound.  Activation
is idempotent, and `slot_of` reports -1 for nodes in untouched tiles.

The node arrays fall in two groups.  `mass`, `w_accum` and the `active`
mask (nodes carrying mass) are per-epoch terms: `transfers.epoch_grid_terms`
sets them when a binding changes, and `zero_fields` leaves them alone.  The
per-step arrays are reset by `zero_fields` (the accumulators) or rewritten
whole by `transfers.finalize_grid`.  Two of them exist only where something
reads them: `pos_accum` and `current` (rasterized material positions) on a
grid that tracks positions for collisions, and `velocity0` (the velocities
before the momentum update) on a grid that keeps them for the FLIP blend;
elsewhere they are None.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfDomainError

# nodes per tile edge
TILE = 4
TILE_NODES = TILE * TILE


class SparseGrid:
    """Uniform 2-D grid over a box, with tiled on-demand node storage.

    Node (x, y) lies in tile (x // TILE, y // TILE), whose code is
    (x // TILE) * (tiles along y) + y // TILE.  Its slot is its tile's slot
    times TILE^2 plus its x-major offset inside the tile; tiles get slots
    in the order they were first bound.
    """

    def __init__(self, origin, dx: float, n_cells,
                 track_positions: bool = False, keep_velocity0: bool = False):
        self.origin = np.asarray(origin, dtype=np.float64)
        self.dx = float(dx)
        self.n_cells = np.asarray(n_cells, dtype=np.int64)
        self.n_nodes = self.n_cells + 1

        # tiles per axis (ceil division) and the tile slot of each tile code
        self._n_tiles_axis = -(-self.n_nodes // TILE)
        self._tile_lut = np.full(int(np.prod(self._n_tiles_axis)), -1, dtype=np.int64)

        # per-node arrays: (name, trailing shape, dtype)
        self._fields = [("mass", (), np.float64), ("w_accum", (), np.float64),
                        ("active", (), bool)]
        self._fields += [(name, (2,), np.float64) for name in
                         ("momentum", "velocity", "force", "position")]
        self.pos_accum = self.current = self.velocity0 = None
        if track_positions:
            self._fields += [("pos_accum", (2,), np.float64), ("current", (2,), np.float64)]
        if keep_velocity0:
            self._fields.append(("velocity0", (2,), np.float64))

        self.n_tiles = 0
        for name, shape, dtype in self._fields:
            setattr(self, name, np.zeros((0,) + shape, dtype=dtype))

    @property
    def n_slots(self) -> int:
        return self.n_tiles * TILE_NODES

    def _grow(self, new_codes: np.ndarray) -> None:
        """Append storage for the tiles with the given tile codes, in order."""
        add = new_codes.shape[0]
        if add == 0:
            return
        tx, ty = np.divmod(new_codes, self._n_tiles_axis[1])
        ox, oy = np.divmod(np.arange(TILE_NODES), TILE)
        node_coords = np.stack(((tx[:, None] * TILE + ox).ravel(),
                                (ty[:, None] * TILE + oy).ravel()), axis=-1)
        self.n_tiles += add
        pad = add * TILE_NODES
        for name, shape, dtype in self._fields:
            setattr(self, name, np.concatenate(
                [getattr(self, name), np.zeros((pad,) + shape, dtype=dtype)]))
        self.position[-pad:] = self.origin + node_coords * self.dx

    def _locate(self, cx: np.ndarray, cy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Tile codes and within-tile offsets of in-range lattice columns.

        A rebind passes one row per stencil entry, and each fresh temporary
        of that size costs page faults, so the offsets are formed in place.
        """
        tx = cx // TILE
        ty = cy // TILE
        code = tx * self._n_tiles_axis[1]
        code += ty
        # within = (cx - TILE tx) TILE + (cy - TILE ty), in the storage of tx and ty
        tx *= -TILE
        tx += cx
        tx *= TILE
        ty *= -TILE
        ty += cy
        tx += ty
        return code, tx

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
        code, within = self._locate(cx, cy)
        tslot = self._tile_lut[code]
        missing = tslot < 0
        if missing.any():
            new_codes = np.unique(code[missing])
            self._tile_lut[new_codes] = self.n_tiles + np.arange(new_codes.size)
            self._grow(new_codes)
            tslot = self._tile_lut[code]
        tslot *= TILE_NODES
        tslot += within
        return tslot

    def slot_of(self, coords) -> np.ndarray:
        """Slots for lattice coordinates, -1 where the tile was never bound."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        code, within = self._locate(coords[:, 0], coords[:, 1])
        tslot = self._tile_lut[code]
        return np.where(tslot >= 0, tslot * TILE_NODES + within, -1)

    def zero_fields(self) -> None:
        """Reset the per-step accumulators; the per-epoch terms are kept."""
        self.momentum[:] = 0.0
        self.force[:] = 0.0
        if self.pos_accum is not None:
            self.pos_accum[:] = 0.0


@dataclass
class HalfSpace:
    """Static wall: material is kept on the side the normal points into."""

    point: np.ndarray
    normal: np.ndarray
    mode: str = "slip"  # 'sticky' | 'slip'
    velocity: np.ndarray | None = None

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=np.float64)
        n = np.asarray(self.normal, dtype=np.float64)
        self.normal = n / np.linalg.norm(n)
        if self.velocity is None:
            self.velocity = np.zeros_like(self.point)
        else:
            self.velocity = np.asarray(self.velocity, dtype=np.float64)

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
    velocity: np.ndarray | None = None

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=np.float64)
        self.radius = float(self.radius)
        if self.velocity is None:
            self.velocity = np.zeros_like(self.center)
        else:
            self.velocity = np.asarray(self.velocity, dtype=np.float64)

    def signed_distance(self, x: np.ndarray) -> np.ndarray:
        return np.linalg.norm(x - self.center, axis=-1) - self.radius

    def normal_at(self, x: np.ndarray) -> np.ndarray:
        d = x - self.center
        norm = np.linalg.norm(d, axis=-1, keepdims=True)
        return d / np.maximum(norm, 1e-300)
