"""Quantitative checks: the eleven acceptance criteria, convergence slopes
and update counts.

`convergence_study` reruns one scene across grid resolutions against a
fine-grid benchmark with the particle set held fixed, and fits error
slopes in log2-log2 space.  `update_stats` condenses a run's per-step
records into a rebind rate and the mean recorded cost of a rebind step.

`CHECKS` is the ordered registry of the acceptance criteria and the one
place each is defined: its number, its name (as `aulmpm verify --only`
and `pytest -k` take it), its scorecard label, its wall-clock budget, its
oracle and its bounds.  An oracle only measures: it returns a dict of
metrics.  `bounds` maps each judged metric to the closed range `(lo, hi)`
it must fall in (True counts as 1), and is the one place a tolerance is
written.  `iter_property_checks` runs the checks one at a time; its runner
judges every bound and the budget, and renders the scorecard line that
both the test suite and `aulmpm verify` print from the same bounds.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .constitutive import MaterialModel, det, energy_and_piola
from .engine import Simulation, StepRecord
from .errors import SceneError, SimulationError
from .grid import SparseGrid
from .kinematics import (ConfigurationMap, DeformationState, UpdatePolicy,
                         advance_F_sn, apply_update, compose_total, contract,
                         deformation_delta, identity_batch, should_update)
from .mls import moment_matrix
from .scene import Scene, bundled_scene, load_scene
from .transfers import (Body, assemble_hessian, epoch_grid_terms, grid_internal_forces,
                        hessian_apply, stress_pass)

UPDATE_WINDOW = 104  # update counts are reported per this many steps


def error_norm(values: np.ndarray, bench: np.ndarray) -> float:
    """Root mean square particle-wise difference magnitude."""
    values = np.asarray(values, dtype=np.float64)
    bench = np.asarray(bench, dtype=np.float64)
    if values.shape != bench.shape:
        raise SimulationError(
            f"field shapes differ: {values.shape} vs {bench.shape}")
    diff = values - bench
    if diff.ndim == 1:
        diff = diff[:, None]
    return float(np.sqrt((diff * diff).sum(axis=1).mean()))


@dataclass
class ConvergenceReport:
    cells: list[int]
    dx: list[float]
    displacement_errors: list[float]
    velocity_errors: list[float]
    displacement_slope: float
    velocity_slope: float
    partial: bool = False
    degenerate: bool = False
    failures: list[str] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["cells", "dx", "displacement_error", "velocity_error"])
            for row in zip(self.cells, self.dx, self.displacement_errors,
                           self.velocity_errors):
                out.writerow([row[0], f"{row[1]:.17g}",
                              f"{row[2]:.17g}", f"{row[3]:.17g}"])
            out.writerow([])
            out.writerow(["displacement_slope", f"{self.displacement_slope:.6g}"])
            out.writerow(["velocity_slope", f"{self.velocity_slope:.6g}"])


def _fit_slope(dx: np.ndarray, err: np.ndarray) -> float:
    """Least squares slope of log2(err) against log2(dx)."""
    A = np.stack([np.log2(dx), np.ones_like(dx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, np.log2(err), rcond=None)
    return float(coef[0])


def _by_id(sim: Simulation) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities (n, 2) in sampling order, which a dense
    body's rows need not keep, so that two runs' particles line up."""
    tab = sim.particle_table()
    return (np.stack([tab["x"], tab["y"]], axis=1),
            np.stack([tab["vx"], tab["vy"]], axis=1))


def _final_state(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    sim = Simulation(scene)
    sim.run()
    return _by_id(sim)


def convergence_study(scene: Scene, levels, bench: int) -> ConvergenceReport:
    """Grid refinement study with a shared particle set.

    `levels` and `bench` are cell counts along x; the count along y keeps
    the domain's aspect ratio (`Scene.with_cells` raises SceneError, before
    anything runs, for a level where it is not whole; so does a `bench` not
    above every level).  Every run keeps the
    scene's sampler seed and spacing, so particles align one-to-one and
    fields compare pointwise against the benchmark resolution.
    """
    levels = sorted(int(lv) for lv in levels)
    if bench <= levels[-1]:
        raise SceneError("benchmark resolution must exceed every level")
    subs = [scene.with_cells(lv) for lv in levels]
    bx, bv = _final_state(scene.with_cells(bench))

    cells, dxs, e_disp, e_vel, failures = [], [], [], [], []
    for lv, sub in zip(levels, subs):
        try:
            x, v = _final_state(sub)
        except SimulationError as exc:
            failures.append(f"{lv}: {exc}")
            continue
        cells.append(lv)
        dxs.append(sub.dx)
        e_disp.append(error_norm(x, bx))
        e_vel.append(error_norm(v, bv))

    degenerate = (not cells) or min(min(e_disp), min(e_vel)) < 1e-12
    if len(cells) >= 2 and not degenerate:
        ds = _fit_slope(np.asarray(dxs), np.asarray(e_disp))
        vs = _fit_slope(np.asarray(dxs), np.asarray(e_vel))
    else:
        ds = vs = float("nan")
        degenerate = True
    return ConvergenceReport(
        cells=cells, dx=dxs, displacement_errors=e_disp,
        velocity_errors=e_vel, displacement_slope=ds, velocity_slope=vs,
        partial=bool(failures), degenerate=degenerate, failures=failures)


def update_stats(records: list[StepRecord]) -> dict:
    """Rebind rate per UPDATE_WINDOW steps and `update_cost_ms`, the mean
    recorded rebind time (`rebind_ms`) over the steps that rebound: those
    whose `updates` count grew.  The records must start at a run's first
    step, since `updates` counts from there; SimulationError otherwise."""
    if not records:
        raise SimulationError("no step records")
    if records[0].step != 1:
        raise SimulationError(f"step records start at step {records[0].step}, not at "
                              "a run's first step")
    steps = len(records)
    updates = records[-1].updates
    tau = updates * UPDATE_WINDOW / steps
    before = [0] + [r.updates for r in records[:-1]]
    rebind_times = [r.rebind_ms for r, n in zip(records, before) if r.updates > n]
    cost = float(np.mean(rebind_times)) if rebind_times else 0.0
    return {"steps": steps, "updates": updates, "tau": tau,
            "update_cost_ms": cost}


# ------------------------------------------------------------ acceptance criteria

_SOLID = MaterialModel.from_youngs("fixed_corotated", density=1000.0,
                                  youngs=1e4, poisson=0.3)

_BALL = {
    "name": "check_ball",
    "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [24, 24]},
    "gravity": [0.0, -9.81],
    "solver": {"dt": 1e-4, "steps": 60},
    "objects": [{
        "shape": {"type": "disk", "center": [0.5, 0.55], "radius": 0.12},
        "spacing": 0.02,
        "material": {"type": "fixed_corotated", "density": 1000.0,
                     "youngs": 5e4, "poisson": 0.3},
        "velocity": [0.2, -0.6],
    }],
}


def _ball_scene(steps: int) -> Scene:
    raw = copy.deepcopy(_BALL)
    raw["solver"]["steps"] = steps
    return load_scene(raw)


def _with_solver(scene: Scene, **changes) -> Scene:
    """Copy of `scene` with some solver settings replaced."""
    return dataclasses.replace(
        scene, solver=dataclasses.replace(scene.solver, **changes))


def _body(positions, grid) -> Body:
    """A resting solid body at `positions`, bound to `grid`."""
    positions = np.asarray(positions, dtype=np.float64)
    n = positions.shape[0]
    V0 = np.full(n, (grid.dx / 2.0) ** 2)
    return Body(material=_SOLID, x=positions.copy(), v=np.zeros((n, 2)),
                m=_SOLID.density * V0, V0=V0, C=np.zeros((2, 2, n)),
                state=DeformationState.identity(n),
                cmap=ConfigurationMap.build(positions, grid))


def _forces(body, grid) -> np.ndarray:
    """The internal forces as node rows, (slots, 2)."""
    stress_pass(body)
    return grid_internal_forces(body, grid).T


def _perturbation(rng, scale: float, n: int) -> np.ndarray:
    """scale times n random 2x2 matrices, drawn matrix by matrix, as a
    (2, 2, n) batch."""
    return (scale * rng.normal(size=(n, 2, 2))).transpose(1, 2, 0)


def _patch_energy(body, dF_sn) -> float:
    F_total = np.einsum("abn,bcn->acn", body.state.F_sn + dF_sn,
                        body.state.F_0s)
    return float(np.sum(body.V0 * energy_and_piola(F_total, body.material).energy))


def check_mode_recovery():
    """Never-firing thresholds reproduce the fixed-binding run; always-firing
    thresholds reproduce the rebind-every-step run."""
    def ball(mode):
        return _with_solver(bundled_scene("falling_ball"), mode=mode)

    never = ball("adaptive")
    never.objects[0].update = UpdatePolicy(epsilon=1e9, eta=0.5)
    tl = ball("total_lagrangian")
    always = ball("adaptive")
    always.objects[0].update = UpdatePolicy(epsilon=0.0, eta=0.0)
    euler = ball("eulerian")

    runs = {k: Simulation(s) for k, s in
            {"never": never, "tl": tl, "always": always, "euler": euler}.items()}
    for sim in runs.values():
        sim.run()
    x = {k: _by_id(sim)[0] for k, sim in runs.items()}
    return {"tl_gap": float(np.abs(x["never"] - x["tl"]).max()),
            "euler_gap": float(np.abs(x["always"] - x["euler"]).max()),
            "euler_updates": runs["euler"].bodies[0].cmap.epoch}


def check_convergence_slopes():
    """Displacement and velocity errors on the rotating plate fall at
    second order under grid refinement."""
    rep = convergence_study(bundled_scene("rotating_plate"),
                            [16, 32, 64, 128], 256)
    return {"displacement_slope": rep.displacement_slope,
            "velocity_slope": rep.velocity_slope,
            "partial": rep.partial, "degenerate": rep.degenerate}


def check_mls_consistency():
    """The MLS velocity gradient is exact on affine fields, and the second
    moment sum_j W_j r_j (x) r_j, summed here from the grid's node
    positions, is the inverse of the library's constant (4 / dx^2) I."""
    rng = np.random.default_rng(7)
    grid = SparseGrid(origin=(0.0, 0.0), dx=0.05, n_cells=(20, 20))
    x = 0.25 + 0.5 * rng.random((1000, 2))
    cmap = ConfigurationMap.build(x, grid)
    A = rng.normal(size=(2, 2))
    b = rng.normal(size=2)
    nodes = grid.position.T[cmap.slots]
    vn = nodes @ A.T + b
    grad = contract(vn.T, cmap.G.T)
    r = nodes - x[:, None, :]
    second_moment = np.einsum("ns,nsa,nsb->nab", cmap.w, r, r)
    return {"affine_grad_gap": float(np.abs(grad - A[:, :, None]).max()),
            "moment_gap": float(np.abs(moment_matrix(grid.dx) * second_moment
                                       - np.eye(2)).max())}


def check_variational_force():
    """Internal forces are the exact negative energy gradient on a
    five-particle patch, at a fresh binding and mid-epoch."""
    rng = np.random.default_rng(17)
    grid = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    pts = [[0.45, 0.5], [0.55, 0.5], [0.5, 0.58], [0.5, 0.42], [0.5, 0.5]]
    gaps = {}
    for label in ("fresh", "mid_epoch"):
        body = _body(pts, grid)
        body.state.F_sn += _perturbation(rng, 0.15, body.n)
        if label == "mid_epoch":
            moved = body.x + 0.02 * rng.normal(size=body.x.shape)
            body.cmap = apply_update(body.state, moved, grid, body.cmap)
            body.x = moved
            body.state.F_sn += _perturbation(rng, 0.1, body.n)
        f = _forces(body, grid)
        u = rng.normal(size=f.shape)
        dF = np.einsum("nsa,nsb->abn", u[body.cmap.slots], body.cmap.G)
        h = 1e-6
        dU = (_patch_energy(body, h * dF) - _patch_energy(body, -h * dF)) / (2 * h)
        work = float(np.sum(f * u))
        gaps[f"relative_gap_{label}"] = abs(work + dU) / max(abs(dU), abs(work))
    return gaps


def check_hessian():
    """The force Hessian is symmetric and matches a central difference of
    the forces, and the operator that CG assembles gives its products."""
    rng = np.random.default_rng(23)
    grid = SparseGrid(origin=(0.0, 0.0), dx=0.1, n_cells=(10, 10))
    body = _body(0.25 + 0.5 * rng.random((15, 2)), grid)
    body.state.F_sn += _perturbation(rng, 0.1, body.n)
    body.state.F_0s += _perturbation(rng, 0.1, body.n)
    stress_pass(body)

    # node fields as rows (slots, 2), passed as the grid's (2, slots)
    u = rng.normal(size=(grid.n_slots, 2))
    w = rng.normal(size=(grid.n_slots, 2))
    hu = hessian_apply([body], u.T).T
    left = float(np.vdot(w, hu))
    right = float(np.vdot(u, hessian_apply([body], w.T).T))
    sym_gap = abs(left - right) / max(abs(left), abs(right))
    assembled = assemble_hessian([body], grid).apply(u.T).T
    h = 1e-6
    dF = np.einsum("nsa,nsb->abn", u[body.cmap.slots], body.cmap.G)
    saved = body.state.F_sn.copy()
    body.state.F_sn = saved + h * dF
    f_plus = _forces(body, grid)
    body.state.F_sn = saved - h * dF
    f_minus = _forces(body, grid)
    fd = -(f_plus - f_minus) / (2 * h)
    return {"symmetry_gap": sym_gap,
            "fd_gap": float(np.abs(hu - fd).max() / np.abs(fd).max()),
            "assembled_gap": float(np.abs(assembled - hu).max() / np.abs(hu).max())}


def check_conservation():
    """The scatter conserves mass, and force-free stepping conserves linear
    momentum: on the falling ball over 1000 steps, and on a spinning ball,
    whose affine velocity fields are nonzero, over 300."""
    sim = Simulation(bundled_scene("falling_ball"))
    body = sim.bodies[0]
    epoch_grid_terms([body], sim.grid, sim.mass_eps)
    mass_gap = float(abs(sim.grid.mass.sum() - body.m.sum()) / body.m.sum())

    scene = _with_solver(bundled_scene("falling_ball"), steps=1000)
    scene.gravity = np.zeros(2)
    sim = Simulation(scene)
    for b in sim.bodies:
        b.material = dataclasses.replace(b.material, mu=0.0, lam=0.0)
    p_init = sim.totals()["momentum"]
    scale = float(np.linalg.norm(p_init))
    sim.run()
    mom = np.array([r.momentum for r in sim.records])
    steps_drift = np.abs(np.diff(np.vstack([p_init, mom]), axis=0)).max(axis=1)
    per_step = float(steps_drift.max()) / scale
    total = float(np.abs(mom[-1] - p_init).max()) / scale

    spin = _ball_scene(steps=300)
    spin.gravity = np.zeros(2)
    spin.objects[0].material = dataclasses.replace(spin.objects[0].material, mu=0.0, lam=0.0)
    spin.objects[0].angular_velocity = 3.0
    sim = Simulation(spin)
    for _ in range(spin.solver.steps):
        sim.step()
    mom = np.array([r.momentum for r in sim.records])
    spin_drift = float(np.linalg.norm(mom - mom[0], axis=1).max()
                       / max(float(np.linalg.norm(mom[0])), 1e-30))
    return {"mass_gap": mass_gap, "per_step_drift": per_step,
            "total_drift": total, "spin_drift": spin_drift}


def check_rigid_silence():
    """Rigid translation and rotation fields produce no force, relative to
    the force a real stretch produces, and mark no particles."""
    sim = Simulation(_ball_scene(steps=1))
    body = sim.bodies[0]
    eye = identity_batch(body.n)
    state = body.state
    state.F_sn = 1.1 * eye
    f_ref = float(np.abs(_forces(body, sim.grid)).max())

    # translation: a uniform grid velocity leaves only roundoff in the
    # gathered gradient, so F stays at identity
    vn = np.broadcast_to([0.37, -0.58], body.cmap.w.shape + (2,))
    grad = contract(vn.T, body.cmap.G.T)
    state.F_sn = eye.copy()
    advance_F_sn(state, grad, 1e-3)
    f_trans = float(np.abs(_forces(body, sim.grid)).max())

    rng = np.random.default_rng(20)
    th = rng.uniform(-np.pi, np.pi, body.n)
    state.F_sn = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    f_rot = float(np.abs(_forces(body, sim.grid)).max())

    delta = deformation_delta(body.state)
    marked, _ = should_update(delta, UpdatePolicy(epsilon=1e-12, eta=0.0))
    return {"translation_rel": f_trans / f_ref, "rotation_rel": f_rot / f_ref,
            "max_delta": float(delta.max()), "marked": int(marked)}


def check_rebind_rate():
    """Criterion-driven rebinds on the splashing droplet stay far below
    the every-step baseline."""
    scene = bundled_scene("droplet")
    taus = {}
    for mode in ("adaptive", "eulerian"):
        sim = Simulation(_with_solver(scene, mode=mode))
        sim.run()
        taus[f"tau_{mode}"] = update_stats(sim.records)["tau"]
    return taus


def _spin_run(scene) -> dict:
    """Run a scene start to finish, tracking volume-ratio extremes and
    angular momentum drift.  A run that loses particles or goes non-finite
    is reported rather than raised."""
    sim = Simulation(scene)
    jlo, jhi = np.inf, -np.inf
    outcome = {"completed": True, "failed_step": None}
    try:
        for _ in range(scene.solver.steps):
            sim.step()
            J = det(compose_total(sim.bodies[0].state))
            jlo = min(jlo, float(J.min()))
            jhi = max(jhi, float(J.max()))
    except SimulationError:
        outcome = {"completed": False, "failed_step": len(sim.records)}
    outcome["j_lo"] = jlo
    outcome["j_hi"] = jhi
    if outcome["completed"]:
        L0 = sim.records[0].angular_momentum
        L1 = sim.records[-1].angular_momentum
        outcome["drift"] = float(abs(L1 - L0) / abs(L0))
        outcome["updates"] = sim.bodies[0].cmap.epoch
    return outcome


def check_fracture_proxy():
    """A fast-spinning soft disk survives with bounded volume ratios and
    small angular momentum drift only when rebinds are criterion-driven;
    rebinding every step tears the disk apart."""
    scene = bundled_scene("spinning_disk")
    adaptive = _spin_run(scene)
    euler = _spin_run(_with_solver(scene, mode="eulerian"))
    # the every-step run is held to the adaptive run's bounds and must miss
    # one; a run that did not complete has no drift, which misses
    spin_bounds = {name.removeprefix("adaptive_"): bound
                   for name, bound in CHECKS["fracture_proxy"].bounds.items()
                   if name.startswith("adaptive_")}
    metrics = {f"adaptive_{key}": adaptive.get(key)
               for key in ("j_lo", "j_hi", "drift", "updates")}
    return {**metrics, "euler_completed": euler["completed"],
            "euler_failed_step": euler["failed_step"], "euler_j_hi": euler["j_hi"],
            "euler_breaks_bounds": bool(_misses(euler, spin_bounds))}


def check_transfer_identity():
    """The centered gradient form sum_j (v_j - v_p) (x) G_j agrees with the
    library's uncentered sum_j v_j (x) G_j and with the second-moment form
    (4 / dx^2) sum_j W_j v_j (x) r_j, r from the grid's node positions, on
    random grid fields."""
    sim = Simulation(_ball_scene(steps=1))
    body = sim.bodies[0]
    rng = np.random.default_rng(3)
    w, G, slots = body.cmap.w, body.cmap.G, body.cmap.slots
    r = sim.grid.position.T[slots] - body.cmap.ref_positions[:, None, :]
    vn = rng.normal(size=(sim.grid.n_slots, 2))[slots]
    v_p = np.einsum("ns,nsa->na", w, vn)
    centered = np.einsum("nsa,nsb->abn", vn - v_p[:, None, :], G)
    library = contract(vn.T, G.T)
    uncentered = moment_matrix(sim.grid.dx) * np.einsum("ns,nsa,nsb->abn", w, vn, r)
    return {"max_gap": max(float(np.abs(centered - library).max()),
                           float(np.abs(centered - uncentered).max()))}


def check_composition_invariance():
    """Forced rebinds leave accumulated total deformation unchanged under
    a shared velocity-gradient history."""
    sim = Simulation(_ball_scene(steps=1))
    body = sim.bodies[0]
    rng = np.random.default_rng(11)
    L = 0.4 * rng.normal(size=(2, 2))
    dt = 1e-3

    folding = DeformationState.identity(body.n)
    plain = DeformationState.identity(body.n)
    cmap = body.cmap
    x = body.x.copy()
    for k in range(100):
        for st in (folding, plain):
            grad = np.einsum("ab,bcn->acn", L, st.F_sn)
            advance_F_sn(st, grad, dt)
        x = x + dt * (x @ L.T)
        if k % 7 == 6:
            cmap = apply_update(folding, x, sim.grid, cmap)
    total_fold = compose_total(folding)
    total_plain = compose_total(plain)
    return {"relative_gap": float(np.abs(total_fold - total_plain).max()
                                  / np.abs(total_plain).max()),
            "epochs": cmap.epoch}


@dataclass(frozen=True)
class Check:
    """One acceptance criterion: what the scorecard shows, what runs and
    the closed range `(lo, hi)` each judged metric must fall in."""

    number: int
    name: str
    label: str
    budget: float  # wall-clock seconds
    run: Callable[[], dict]
    bounds: dict[str, tuple[float, float]]


CHECKS = {c.name: c for c in (
    Check(1, "mode_recovery", "mode recovery", 30.0, check_mode_recovery,
          {"tl_gap": (0, 1e-12), "euler_gap": (0, 1e-12),
           "euler_updates": (1, np.inf)}),
    Check(2, "convergence_slopes", "convergence slopes", 600.0, check_convergence_slopes,
          {"displacement_slope": (1.7, 2.4), "velocity_slope": (1.5, 2.3),
           "partial": (False, False), "degenerate": (False, False)}),
    Check(3, "mls_consistency", "mls consistency", 5.0, check_mls_consistency,
          {"affine_grad_gap": (0, 1e-10), "moment_gap": (0, 1e-10)}),
    Check(4, "gradient_consistency", "variational force", 5.0, check_variational_force,
          {"relative_gap_fresh": (0, 1e-5), "relative_gap_mid_epoch": (0, 1e-5)}),
    Check(5, "hessian_checks", "hessian checks", 5.0, check_hessian,
          {"symmetry_gap": (0, 1e-9), "fd_gap": (0, 1e-5), "assembled_gap": (0, 1e-12)}),
    Check(6, "momentum_drift", "conservation", 30.0, check_conservation,
          {"mass_gap": (0, 1e-13), "per_step_drift": (0, 1e-12),
           "total_drift": (0, 1e-10), "spin_drift": (0, 1e-10)}),
    Check(7, "rigid_silence", "rigid-motion silence", 5.0, check_rigid_silence,
          {"translation_rel": (0, 1e-10), "rotation_rel": (0, 1e-10),
           "marked": (0, 0), "max_delta": (0, 1e-14)}),
    Check(8, "rebind_rate", "update economy", 120.0, check_rebind_rate,
          {"tau_adaptive": (0, 50),
           "tau_eulerian": (UPDATE_WINDOW - 1e-9, UPDATE_WINDOW + 1e-9)}),
    Check(9, "fracture_proxy", "fracture resistance", 120.0, check_fracture_proxy,
          {"adaptive_j_lo": (0.5, 2.0), "adaptive_j_hi": (0.5, 2.0),
           "adaptive_drift": (0, 0.05), "euler_breaks_bounds": (True, True)}),
    Check(10, "transfer_identity", "velocity-gradient identity", 5.0,
          check_transfer_identity, {"max_gap": (0, 1e-12)}),
    Check(11, "composition_invariance", "composition invariance", 30.0,
          check_composition_invariance, {"relative_gap": (0, 1e-10), "epochs": (14, 14)}),
)}


def _misses(metrics: dict, bounds: dict) -> list[str]:
    """The judged metrics that are missing, None, NaN (which compares false)
    or out of range."""
    return [name for name, (lo, hi) in bounds.items()
            if metrics.get(name) is None or not lo <= float(metrics[name]) <= hi]


def _shown(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, (bool, int, np.bool_, np.integer)):
        return str(int(value))
    return f"{value:.3g}".replace("e-0", "e-").replace("e+0", "e+")


def _judged(name: str, value, bound: tuple[float, float]) -> str:
    """How a scorecard line shows one judged metric: `name=value in [lo,hi]`."""
    return f"{name}={_shown(value)} in [{_shown(bound[0])},{_shown(bound[1])}]"


def _run_check(check: Check) -> dict:
    """Run and time one check, judge its bounds and budget, and render its
    scorecard line from the same bounds."""
    t0 = time.perf_counter()
    metrics = check.run()
    seconds = time.perf_counter() - t0
    passed = not _misses(metrics, check.bounds) and seconds < check.budget
    judged = " ".join(_judged(name, metrics.get(name), bound)
                      for name, bound in check.bounds.items())
    took = f"{seconds:.{0 if check.budget >= 100 else 1}f}"
    line = (f"criterion {check.number:>2} {check.label:<26} "
            f"{'PASS' if passed else 'FAIL'}  {judged}, "
            f"{took}s < {check.budget:g}s")
    return {"passed": passed, **metrics, "seconds": seconds, "line": line}


def iter_property_checks(names=None) -> Iterator[tuple[str, dict]]:
    """Registered checks in the order given (default: all, by number), each
    run as the iterator reaches it.

    Yields (name, {"passed", **metrics, "seconds", "line"}).  A check fails
    when a judged metric is missing, None, NaN or outside its bound, or when
    it overruns its budget; `line` is its scorecard verdict.  An unknown
    name raises `SceneError` here, before any check runs.
    """
    names = list(CHECKS) if names is None else list(names)
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise SceneError(f"unknown check {unknown[0]!r}; known checks: "
                         + ", ".join(CHECKS))
    return ((name, _run_check(CHECKS[name])) for name in names)


def run_property_checks(names=None) -> dict:
    """All results of `iter_property_checks` at once, as {name: result}."""
    return dict(iter_property_checks(names))
