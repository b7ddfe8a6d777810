"""Time stepping, output, and per-step bookkeeping.

`Simulation` owns one background grid plus one `Body` per scene object.
Every step runs the same phase order regardless of transfer flavor or
integrator:

    stress -> scatter -> grid velocities -> momentum update -> collision
    projection -> gather -> deformation update -> plastic projection
    -> rebind check

The one scatter deposits momentum plus the stress impulse dt f on every
transfer; the momentum update then adds gravity (or solves the implicit
system), and nothing scatters the forces apart.

Rebinding (when an object's update policy fires) folds the accumulated
deformation into the stored reference map and rebuilds stencils at the
current particle positions; total deformation gradients are unchanged
by it.  The grid's per-epoch terms (node mass and active nodes) are set
at construction and again after any binding changes, not on every step.

A step raises NumericalError naming the field and the step when the
particle state (x, v), F_sn, F_0s after a rebind or F_plastic after the
plastic projection turns non-finite.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .constitutive import FLUID, SNOW, det, inverse, matmul, plastic_project
from .errors import NumericalError, SceneError, SimulationError
from .kinematics import (
    KERNEL,
    ConfigurationMap,
    DeformationState,
    UpdatePolicy,
    advance_F_sn,
    apply_update,
    compose_total,
    deformation_delta,
    identity_batch,
    should_update,
)
from .grid import SparseGrid
from .scene import Scene, sample_shape
from .textout import write_rows
from .transfers import (
    Body,
    epoch_grid_terms,
    explicit_update,
    finalize_grid,
    g2p,
    grid_collisions,
    grid_internal_forces,  # no step calls it; the benchmark's forces span wraps it here
    implicit_update,
    mass_epsilon,
    p2g,
    stress_pass,
)


# table rows formatted per write in frame and stats.csv output
FRAME_CHUNK = 1024


@dataclass
class StepRecord:
    """One step's totals and counters, and one row of stats.csv: the
    fields, in order, are the file's columns, an ndarray field one column
    per axis (`momentum_x`, `momentum_y`)."""
    step: int
    time: float
    mass: float
    momentum: np.ndarray
    angular_momentum: float
    kinetic_energy: float
    updates: int
    marked_fraction: float
    wall_ms: float
    rebind_ms: float   # wall time of this step's rebinds, 0 without one
    cg_iterations: int = 0     # this step's CG iterations, 0 without a solve
    cg_residual: float = 0.0   # the relative residual the implicit update left
    inverted: int = 0          # particles with det F_sn <= 0 after this step's update


# each StepRecord field's type and stats.csv columns, in column order: an
# ndarray field takes one column per axis
_KINDS = get_type_hints(StepRecord)
_COLUMNS = {f.name: [f"{f.name}_{a}" for a in "xy"] if _KINDS[f.name] is np.ndarray
            else [f.name] for f in fields(StepRecord)}
STATS_HEADER = ",".join(sum(_COLUMNS.values(), []))
_WIDTH = STATS_HEADER.count(",") + 1


def write_stats_csv(path, records: list[StepRecord]) -> None:
    """Write stats.csv: the header, then one row per record, every value at
    %.17g, which writes a count as its digits and a float as the digits of
    the same double."""
    table = np.column_stack([[getattr(r, name) for r in records] for name in _COLUMNS])
    with open(path, "wb") as fh:
        fh.write(STATS_HEADER.encode() + b"\n")
        # without records an ndarray field stacks as one empty column, not two
        write_rows(fh, table.reshape(-1, _WIDTH), FRAME_CHUNK)


def read_stats_csv(path) -> list[StepRecord]:
    """Load a stats.csv written by a run back into step records, equal to
    the run's bit for bit; a header-only file (a run of no steps) gives []."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[:1] != [STATS_HEADER]:
        raise SimulationError(f"malformed stats file {path}: header is not {STATS_HEADER}")
    records = []
    for k, line in enumerate(lines[1:], start=2):
        texts = line.split(",")
        values = iter(texts)
        try:
            if len(texts) != _WIDTH:
                raise ValueError(f"{len(texts)} values, not {_WIDTH}")
            records.append(StepRecord(**{
                name: np.array([float(next(values)) for _ in cols])
                if _KINDS[name] is np.ndarray else _KINDS[name](next(values))
                for name, cols in _COLUMNS.items()}))
        except ValueError as exc:
            raise SimulationError(f"malformed stats file {path}: line {k}: {exc}") from None
    return records


def _policy_for(obj, mode: str) -> UpdatePolicy | None:
    """Rebinding policy by solver mode, with per-object overrides."""
    if mode == "total_lagrangian":
        return None
    if obj.update is not None:
        base = obj.update
    elif obj.material.kind == FLUID:
        base = UpdatePolicy.fluid()
    else:
        base = UpdatePolicy.solid()
    if mode == "eulerian":
        return UpdatePolicy(epsilon=base.epsilon, eta=0.0)
    return base


def _spin_matrix(omega: float) -> np.ndarray:
    return np.array([[0.0, -omega], [omega, 0.0]])


class Simulation:
    def __init__(self, scene: Scene):
        self.scene = scene
        self.colliders = list(scene.colliders)
        self.grid = SparseGrid(scene.origin, scene.dx, scene.cells,
                               track_positions=bool(self.colliders),
                               keep_velocity0=scene.solver.transfer == KERNEL)
        self.gravity = scene.gravity
        self.bodies: list[Body] = []
        rng = np.random.default_rng(scene.solver.seed)
        for obj in scene.objects:
            pts = sample_shape(obj.shape, obj.spacing, obj.jitter, rng)
            n = pts.shape[0]
            vol = obj.spacing ** 2
            vel = np.tile(obj.velocity, (n, 1))
            C = np.zeros((2, 2, n))
            if obj.angular_velocity != 0.0:
                shape = obj.shape   # a disk spins about its center, a box about its midpoint
                c = np.asarray(shape["center"] if shape["type"] == "disk"
                               else 0.5 * np.add(shape["min"], shape["max"]), dtype=np.float64)
                spin = _spin_matrix(obj.angular_velocity)
                vel = vel + (pts - c) @ spin.T
                C[:] = spin[:, :, None]
            body = Body(
                material=obj.material,
                x=pts, v=vel,
                m=np.full(n, obj.material.density * vol),
                V0=np.full(n, vol),
                C=C,
                state=DeformationState.identity(n),
                cmap=ConfigurationMap.build(pts, self.grid, transfer=scene.solver.transfer),
                policy=_policy_for(obj, scene.solver.mode),
                F_plastic=identity_batch(n) if obj.material.kind == SNOW else None,
            )
            self.bodies.append(body)
        self.mass_eps = mass_epsilon(self.bodies)
        epoch_grid_terms(self.bodies, self.grid, self.mass_eps)
        self.time = 0.0
        self.steps_done = 0
        self.records: list[StepRecord] = []
        self.rebinds: list[dict] = []   # one event per rebind, for summary.json
        self.cg_info: dict | None = None   # the last step's implicit solve
        self.cg_iterations = 0      # CG iterations over the run's solves
        self.cg_residual_max = 0.0  # largest final relative residual of a solve
        self.cg_unconverged = 0   # solves that stopped at the iteration cap
        self.cg_fallbacks = 0     # solves that kept the explicit velocities

    @property
    def n_particles(self) -> int:
        return sum(b.n for b in self.bodies)

    def step(self, dt: float | None = None) -> bool:
        """Advance one step of `dt` (default solver.dt); returns whether any object rebound."""
        sol = self.scene.solver
        if dt is None:
            dt = sol.dt
        grid = self.grid
        t0 = time.perf_counter()

        released = [b for b in self.bodies if b.cmap.stack is None]  # by the end of a run
        for b in released:
            b.cmap = ConfigurationMap.build(b.cmap.ref_positions, grid, b.cmap.epoch,
                                            b.cmap.transfer)
        if released:
            epoch_grid_terms(self.bodies, grid, self.mass_eps)
        grid.zero_fields()
        for b in self.bodies:
            stress_pass(b)
            p2g(b, grid, dt)
        finalize_grid(grid)
        info = None
        if sol.integrator == "implicit":
            info = implicit_update(self.bodies, grid, dt, self.gravity)
            self.cg_info = info
            self.cg_iterations += info["iterations"]
            self.cg_residual_max = max(self.cg_residual_max, info["residual"])
            self.cg_fallbacks += info["fallback"]
            self.cg_unconverged += not (info["converged"] or info["fallback"])
        else:
            explicit_update(grid, dt, self.gravity)
        for b in self.bodies:
            b.stress = None   # the stress state and its tangent are used up
        grid_collisions(grid, self.colliders, dt)

        rebound = False
        rebind_ms = 0.0
        total_marked = 0
        inverted = 0
        for obj, b in zip(self.scene.objects, self.bodies):
            g2p(b, grid, dt)
            self._require_finite("particle state",
                                 np.isfinite(b.x).all() and np.isfinite(b.v).all())
            try:
                count = advance_F_sn(b.state, b.C, dt)
            except NumericalError as err:
                raise NumericalError(f"{err} at step {self.steps_done}") from None
            b.inverted += count
            inverted += count
            if b.material.kind == SNOW:
                F_total = compose_total(b.state)
                Fe = matmul(F_total, inverse(b.F_plastic))
                b.F_plastic = plastic_project(Fe, b.F_plastic, b.material)
                self._require_finite("F_plastic", np.isfinite(b.F_plastic).all())
            if b.policy is not None:
                marked, fire = should_update(deformation_delta(b.state), b.policy)
                total_marked += marked
                if fire:
                    t_bind = time.perf_counter()
                    b.cmap = apply_update(b.state, b.x, grid, b.cmap)
                    rebind_ms += (time.perf_counter() - t_bind) * 1e3
                    self._require_finite("F_0s", np.isfinite(b.state.F_0s).all())
                    rebound = True
                    self.rebinds.append({"object": obj.name, "step": self.steps_done + 1,
                                         "epoch": b.cmap.epoch,
                                         "marked_fraction": marked / b.n,
                                         "eta": b.policy.eta})
        if rebound:
            epoch_grid_terms(self.bodies, grid, self.mass_eps)

        self.time += dt
        self.steps_done += 1
        self._record(total_marked, (time.perf_counter() - t0) * 1e3, rebind_ms, info,
                     inverted)
        return rebound

    def _require_finite(self, name: str, finite: bool) -> None:
        if not finite:
            raise NumericalError(f"non-finite {name} at step {self.steps_done}")

    def totals(self) -> dict:
        """Particle mass, linear momentum, angular momentum about the domain
        center and kinetic energy, each summed over the particles body by
        body.  Every sum reduces one contiguous per-particle column, so the
        momentum components are pairwise sums, not running ones."""
        mass = 0.0
        mom = np.zeros(2)
        ang = 0.0
        kin = 0.0
        cx, cy = self.scene.origin + 0.5 * self.scene.size
        for b in self.bodies:
            mass += float(b.m.sum())
            vx, vy = b.v.T
            x, y = b.x.T
            mvx = b.m * vx
            mvy = b.m * vy
            mom += (mvx.sum(), mvy.sum())
            ang += float(((x - cx) * mvy - (y - cy) * mvx).sum())
            kin += 0.5 * float((mvx * vx + mvy * vy).sum())
        return {"mass": mass, "momentum": mom, "angular_momentum": ang,
                "kinetic_energy": kin}

    def _record(self, total_marked: int, wall_ms: float, rebind_ms: float,
                cg_info: dict | None, inverted: int) -> None:
        solve = {} if cg_info is None else {"cg_iterations": cg_info["iterations"],
                                            "cg_residual": cg_info["residual"]}
        self.records.append(StepRecord(
            step=self.steps_done, time=self.time, **self.totals(),
            updates=sum(b.cmap.epoch for b in self.bodies),
            marked_fraction=total_marked / self.n_particles,
            wall_ms=wall_ms, rebind_ms=rebind_ms, inverted=inverted, **solve))

    # ------------------------------------------------------------- output

    def particle_table(self) -> np.ndarray:
        """Structured snapshot: id, position, velocity, total J, epoch."""
        names = ["id", "x", "y", "vx", "vy", "J", "epoch"]
        rows = []
        offset = 0
        for b in self.bodies:
            tab = np.zeros(b.n, dtype=[(nm, np.float64) for nm in names])
            tab["id"] = offset + np.arange(b.n)
            for k, a in enumerate("xy"):
                tab[a] = b.x[:, k]
                tab["v" + a] = b.v[:, k]
            tab["J"] = det(compose_total(b.state))
            tab["epoch"] = b.cmap.epoch
            rows.append(tab)
            offset += b.n
        return np.concatenate(rows)

    def _write_frame(self, out: Path, index: int) -> None:
        tab = self.particle_table()
        names = tab.dtype.names
        path = out / "frames" / f"frame_{index:06d}.csv"
        # every column at %.17g, which writes the whole id and epoch as
        # their digits
        with path.open("wb") as fh:
            fh.write(",".join(names).encode() + b"\n")
            write_rows(fh, tab.view(np.float64).reshape(-1, len(names)), FRAME_CHUNK)

    def summary(self) -> dict:
        sol = self.scene.solver
        return {
            "name": self.scene.name,
            "steps": self.steps_done,
            "time": self.time,
            "particles": self.n_particles,
            "integrator": sol.integrator,
            "transfer": sol.transfer,
            "mode": sol.mode,
            "updates_total": sum(b.cmap.epoch for b in self.bodies),
            "cg_iterations": self.cg_iterations,
            "cg_residual_max": self.cg_residual_max,
            "cg_unconverged": self.cg_unconverged,
            "cg_fallbacks": self.cg_fallbacks,
            "objects": [
                {"name": obj.name, "particles": b.n, "epoch": b.cmap.epoch,
                 "inverted": b.inverted}
                for obj, b in zip(self.scene.objects, self.bodies)
            ],
            "rebinds": self.rebinds,
        }

    def run(self, out_dir=None, frames: int | None = None, progress=None) -> dict:
        """Run the scene, optionally writing output under `out_dir`.

        Output layout: frames/frame_NNNNNN.csv snapshots, stats.csv with
        one row per step, and summary.json.  With `frames=None` the
        configured step count runs, snapshotting every frame_dt (plus the
        initial and final states).  With `frames=N` the run emits exactly
        N snapshots after the initial one, each separated by frame_dt
        worth of steps, or else by steps / N steps, which must be whole
        (SceneError otherwise); `frames=0` writes the initial state and stops.
        A negative `frames` raises SceneError before anything is written.
        """
        if frames is not None and frames < 0:
            raise SceneError(f"frames must be 0 or more, got {frames}")
        sol = self.scene.solver
        # a whole count >= 1 (load_scene), or 0 without frame_dt
        stride = 0 if sol.frame_dt is None else round(sol.frame_dt / sol.dt)
        total = sol.steps
        if frames is not None:
            if not stride and frames and sol.steps % frames:
                raise SceneError(f"{frames} frames do not divide the scene's {sol.steps} "
                                 f"steps; pick a divisor of {sol.steps} or set solver.frame_dt")
            stride = stride or sol.steps // max(frames, 1)
            total = frames * stride
        out = None
        if out_dir is not None:
            out = Path(out_dir)
            (out / "frames").mkdir(parents=True, exist_ok=True)
        frame = 0
        if out is not None:
            self._write_frame(out, frame)
            frame += 1
        t0 = time.perf_counter()
        for k in range(total):
            self.step()
            last = k + 1 == total
            if out is not None and (last or (stride and (k + 1) % stride == 0)):
                self._write_frame(out, frame)
                frame += 1
            if progress is not None and (last or (k + 1) % 50 == 0):
                progress(k + 1, total)
        wall = time.perf_counter() - t0
        # A finished run keeps the particle state but not the per-entry
        # binding arrays or their workspace: they derive from the reference
        # positions alone, and `step` rebuilds them bit for bit if stepping
        # continues.
        for b in self.bodies:
            b.cmap = replace(b.cmap, stack=None, slots=None, work=None)
        info = self.summary()
        info["wall_s"] = wall
        info["frames"] = frame
        if out is not None:
            write_stats_csv(out / "stats.csv", self.records)
            (out / "summary.json").write_text(json.dumps(info, indent=2) + "\n")
        return info
