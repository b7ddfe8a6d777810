"""Quantitative checks: convergence slopes, conservation drift, update counts.

`convergence_study` reruns one scene across grid resolutions against a
fine-grid benchmark with the particle set held fixed, and fits error
slopes in log2-log2 space.  `update_stats` condenses a run's per-step
records into a rebind rate and a rebind cost.  `PROPERTY_CHECKS` is a
registry of named self-contained checks used by the command line
`verify` entry point; each returns (passed, metrics).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .constitutive import det
from .engine import Simulation, StepRecord
from .errors import SimulationError
from .kinematics import compose_total
from .scene import Scene

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


def _final_state(scene: Scene) -> tuple[np.ndarray, np.ndarray]:
    sim = Simulation(scene)
    sim.run()
    x = np.concatenate([b.x for b in sim.bodies])
    v = np.concatenate([b.v for b in sim.bodies])
    return x, v


def convergence_study(scene: Scene, levels, bench: int) -> ConvergenceReport:
    """Grid refinement study with a shared particle set.

    `levels` and `bench` are cell counts per axis; every run keeps the
    scene's sampler seed and spacing, so particles align one-to-one and
    fields compare pointwise against the benchmark resolution.
    """
    levels = sorted(int(lv) for lv in levels)
    if bench <= levels[-1]:
        raise SimulationError("benchmark resolution must exceed every level")
    bx, bv = _final_state(scene.with_cells([bench, bench]))

    cells, dxs, e_disp, e_vel, failures = [], [], [], [], []
    for lv in levels:
        sub = scene.with_cells([lv, lv])
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
    """Rebind rate per UPDATE_WINDOW steps and mean extra cost of a rebind step."""
    if not records:
        raise SimulationError("no step records")
    steps = len(records)
    updates = records[-1].updates
    tau = updates * UPDATE_WINDOW / steps
    update_walls = [r.wall_ms for r in records if r.rebound]
    plain_walls = [r.wall_ms for r in records if not r.rebound]
    cost = 0.0
    if update_walls and plain_walls:
        cost = float(np.mean(update_walls) - np.mean(plain_walls))
    return {"steps": steps, "updates": updates, "tau": tau,
            "update_cost_ms": cost}


def read_stats_csv(path) -> list[StepRecord]:
    """Load a stats.csv written by a run back into step records."""
    records = []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise SimulationError(f"empty stats file {path}")
    prev_updates = 0
    for row in rows:
        try:
            mom_keys = [k for k in row if k.startswith("momentum_")]
            updates = int(row["updates"])
            rec = StepRecord(
                step=int(row["step"]), time=float(row["time"]),
                mass=float(row["mass"]),
                momentum=np.array([float(row[k]) for k in sorted(mom_keys)]),
                angular_momentum=float(row["angular_momentum"]),
                kinetic_energy=float(row["kinetic_energy"]),
                updates=updates,
                marked_fraction=float(row["marked_fraction"]),
                wall_ms=float(row["wall_ms"]),
                rebound=updates > prev_updates)
        except (KeyError, ValueError) as exc:
            raise SimulationError(f"malformed stats file {path}: {exc}") from None
        prev_updates = updates
        records.append(rec)
    return records


# ------------------------------------------------------------ properties


def _twin_scene(base: dict, **solver_overrides) -> Scene:
    from .scene import load_scene
    import copy
    raw = copy.deepcopy(base)
    raw["solver"].update(solver_overrides)
    return load_scene(raw)


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


def check_mode_recovery() -> tuple[bool, dict]:
    """Never-firing thresholds reproduce the fixed-binding run; always-firing
    thresholds reproduce the rebind-every-step run."""
    from .scene import bundled_scene
    import dataclasses

    def ball(mode):
        s = bundled_scene("falling_ball")
        return dataclasses.replace(
            s, solver=dataclasses.replace(s.solver, mode=mode))

    never = ball("adaptive")
    never.objects[0].update = _policy(1e9, 0.5)
    tl = ball("total_lagrangian")
    always = ball("adaptive")
    always.objects[0].update = _policy(0.0, 0.0)
    euler = ball("eulerian")

    runs = {k: Simulation(s) for k, s in
            {"never": never, "tl": tl, "always": always, "euler": euler}.items()}
    for sim in runs.values():
        sim.run()
    d_tl = float(np.abs(runs["never"].bodies[0].x - runs["tl"].bodies[0].x).max())
    d_eu = float(np.abs(runs["always"].bodies[0].x - runs["euler"].bodies[0].x).max())
    metrics = {"tl_gap": d_tl, "euler_gap": d_eu,
               "euler_updates": runs["euler"].bodies[0].updates}
    ok = d_tl <= 1e-12 and d_eu <= 1e-12 and runs["euler"].bodies[0].updates > 0
    return ok, metrics


def _policy(epsilon, eta):
    from .kinematics import UpdatePolicy
    return UpdatePolicy(epsilon=epsilon, eta=eta)


def check_momentum_drift() -> tuple[bool, dict]:
    """Force-free, collision-free stepping keeps linear momentum."""
    scene = _twin_scene(_BALL, steps=300)
    scene.gravity = np.zeros(2)
    scene.objects[0].material = scene.objects[0].material.with_moduli(0.0, 0.0)
    scene.objects[0].angular_velocity = 3.0
    sim = Simulation(scene)
    p0 = None
    worst = 0.0
    for _ in range(scene.solver.steps):
        sim.step()
        p = sim.records[-1].momentum
        if p0 is None:
            p0 = p
            scale = max(float(np.linalg.norm(p0)), 1e-30)
        worst = max(worst, float(np.linalg.norm(p - p0)) / scale)
    ok = worst <= 1e-10
    return ok, {"relative_drift": worst, "steps": scene.solver.steps}


def check_gradient_consistency() -> tuple[bool, dict]:
    """Internal force equals the negated energy gradient, at the initial
    binding and at an intermediate one."""
    from .constitutive import energy_and_piola
    from .transfers import stress_pass, grid_internal_forces

    scene = _twin_scene(_BALL, steps=1)
    rng = np.random.default_rng(7)
    gaps = {}
    for label in ("fresh", "intermediate"):
        sim = Simulation(scene)
        body = sim.bodies[0]
        body.state.F_sn += 0.1 * rng.normal(size=body.state.F_sn.shape)
        if label == "intermediate":
            body.state.F_0s += 0.2 * rng.normal(size=body.state.F_0s.shape)
        sim.grid.force[:] = 0.0
        stress_pass(body)
        grid_internal_forces(body, sim.grid)
        f = sim.grid.force.copy()

        u = rng.normal(size=f.shape)
        dF = np.einsum("nsa,nsb->nab", u[body.cmap.slots], body.cmap.G)

        def energy(eps):
            F = np.einsum("nab,nbc->nac",
                          body.state.F_sn + eps * dF, body.state.F_0s)
            return float(np.sum(body.V0 * energy_and_piola(F, body.material).energy))

        h = 1e-6
        dU = (energy(h) - energy(-h)) / (2 * h)
        work = float(np.sum(f * u))
        gaps[label] = abs(work + dU) / max(abs(dU), 1e-30)
    ok = all(v <= 1e-5 for v in gaps.values())
    return ok, {f"relative_gap_{k}": v for k, v in gaps.items()}


def check_rigid_silence() -> tuple[bool, dict]:
    """Rigid translation and rotation fields produce no force, relative to
    the force a real stretch produces, and mark no particles."""
    from .kinematics import (advance_F_sn, deformation_delta, should_update,
                             velocity_gradient_s)
    from .transfers import stress_pass, grid_internal_forces

    scene = _twin_scene(_BALL, steps=1)
    sim = Simulation(scene)
    body = sim.bodies[0]
    eye = np.tile(np.eye(2), (body.n, 1, 1))

    def force_for(F_sn):
        sim.grid.zero_fields()
        body.state.F_sn = F_sn
        stress_pass(body)
        grid_internal_forces(body, sim.grid)
        return float(np.abs(sim.grid.force).max())

    f_ref = force_for(1.1 * eye)

    # translation: a uniform grid velocity leaves only roundoff in the
    # gathered gradient, so F stays at identity
    st = body.cmap.stencil
    vn = np.broadcast_to([0.37, -0.58], st.w.shape + (2,))
    grad = velocity_gradient_s(np.einsum("ns,nsa->na", st.w, vn), vn,
                               body.cmap)
    trans = eye.copy()
    state = body.state
    state.F_sn = trans
    advance_F_sn(state, grad, 1e-3)
    f_trans = force_for(state.F_sn)

    rng = np.random.default_rng(20)
    th = rng.uniform(-np.pi, np.pi, body.n)
    rot = np.stack([
        np.stack([np.cos(th), -np.sin(th)], axis=-1),
        np.stack([np.sin(th), np.cos(th)], axis=-1)], axis=-2)
    f_rot = force_for(rot)

    delta = deformation_delta(body.state)
    marked, _ = should_update(delta, _policy(1e-12, 0.0))
    rel_t, rel_r = f_trans / f_ref, f_rot / f_ref
    ok = (rel_t <= 1e-10 and rel_r <= 1e-10 and marked == 0
          and float(delta.max()) <= 1e-14)
    return ok, {"translation_rel": rel_t, "rotation_rel": rel_r,
                "max_delta": float(delta.max()), "marked": int(marked)}


def check_transfer_identity() -> tuple[bool, dict]:
    """Centered and uncentered gradient forms agree on random grid fields."""
    from .kinematics import velocity_gradient_s
    scene = _twin_scene(_BALL, steps=1)
    sim = Simulation(scene)
    body = sim.bodies[0]
    rng = np.random.default_rng(3)
    st = body.cmap.stencil
    vn = rng.normal(size=(sim.grid.n_slots, 2))[body.cmap.slots]
    v_p = np.einsum("ns,nsa->na", st.w, vn)
    centered = velocity_gradient_s(v_p, vn, body.cmap)
    second_moment = np.einsum("ns,nsa,nsb->nab", st.w, vn, st.r)
    uncentered = np.einsum("nab,nbc->nac", second_moment, body.cmap.K)
    gap = float(np.abs(centered - uncentered).max())
    return gap <= 1e-12, {"max_gap": gap}


def check_composition_invariance() -> tuple[bool, dict]:
    """Forced rebinds leave accumulated total deformation unchanged under
    a shared velocity-gradient history."""
    from .kinematics import (DeformationState, advance_F_sn, apply_update,
                             ConfigurationMap)
    scene = _twin_scene(_BALL, steps=1)
    sim = Simulation(scene)
    body = sim.bodies[0]
    n = body.n
    rng = np.random.default_rng(11)
    L = 0.4 * rng.normal(size=(2, 2))
    dt = 1e-3

    folding = DeformationState.identity(n, 2)
    plain = DeformationState.identity(n, 2)
    cmap = body.cmap
    x = body.x.copy()
    for k in range(100):
        for st in (folding, plain):
            grad = np.einsum("ab,nbc->nac", L, st.F_sn)
            advance_F_sn(st, grad, dt)
        x = x + dt * (x @ L.T)
        if k % 7 == 6:
            cmap = apply_update(folding, x, sim.grid, cmap)
    total_fold = compose_total(folding)
    total_plain = compose_total(plain)
    rel = float(np.abs(total_fold - total_plain).max()
                / np.abs(total_plain).max())
    ok = rel <= 1e-10 and cmap.epoch == 14
    return ok, {"relative_gap": rel, "epochs": cmap.epoch}


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
        outcome["updates"] = sim.bodies[0].updates
    return outcome


def check_fracture_proxy() -> tuple[bool, dict]:
    """A fast-spinning soft disk survives with bounded volume ratios and
    small angular momentum drift only when rebinds are criterion-driven;
    rebinding every step tears the disk apart."""
    from .scene import bundled_scene
    import dataclasses

    scene = bundled_scene("spinning_disk")
    adaptive = _spin_run(scene)
    euler = _spin_run(dataclasses.replace(
        scene, solver=dataclasses.replace(scene.solver, mode="eulerian")))

    adaptive_ok = (adaptive["completed"]
                   and 0.5 <= adaptive["j_lo"] and adaptive["j_hi"] <= 2.0
                   and adaptive["drift"] <= 0.05)
    euler_violates = (not euler["completed"]
                      or euler["j_lo"] < 0.5 or euler["j_hi"] > 2.0
                      or euler["drift"] > 0.05)
    ok = adaptive_ok and euler_violates
    return ok, {
        "adaptive_j_lo": adaptive["j_lo"],
        "adaptive_j_hi": adaptive["j_hi"],
        "adaptive_drift": adaptive.get("drift"),
        "adaptive_updates": adaptive.get("updates"),
        "euler_completed": euler["completed"],
        "euler_failed_step": euler["failed_step"],
        "euler_j_hi": euler["j_hi"],
    }


def check_rebind_rate() -> tuple[bool, dict]:
    """Criterion-driven rebinds on the splashing droplet stay far below
    the every-step baseline."""
    from .scene import bundled_scene
    import dataclasses

    scene = bundled_scene("droplet")
    runs = {}
    for mode in ("adaptive", "eulerian"):
        sim = Simulation(dataclasses.replace(
            scene, solver=dataclasses.replace(scene.solver, mode=mode)))
        sim.run()
        runs[mode] = update_stats(sim.records)
    tau_a = runs["adaptive"]["tau"]
    tau_e = runs["eulerian"]["tau"]
    ok = tau_a <= 50.0 and abs(tau_e - float(UPDATE_WINDOW)) < 1e-9
    return ok, {"tau_adaptive": tau_a, "tau_eulerian": tau_e}


PROPERTY_CHECKS = {
    "mode_recovery": check_mode_recovery,
    "momentum_drift": check_momentum_drift,
    "gradient_consistency": check_gradient_consistency,
    "rigid_silence": check_rigid_silence,
    "transfer_identity": check_transfer_identity,
    "composition_invariance": check_composition_invariance,
    "rebind_rate": check_rebind_rate,
    "fracture_proxy": check_fracture_proxy,
}


def run_property_checks(names=None) -> dict:
    """Run registered checks, returning {name: {passed, **metrics}}."""
    names = list(PROPERTY_CHECKS) if names is None else list(names)
    out = {}
    for name in names:
        if name not in PROPERTY_CHECKS:
            raise SimulationError(f"unknown check {name!r}")
        passed, metrics = PROPERTY_CHECKS[name]()
        out[name] = {"passed": bool(passed), **metrics}
    return out
