import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from aulmpm import constitutive, engine, kinematics, textout, transfers
from aulmpm.constitutive import MaterialModel
from aulmpm.engine import Simulation
from aulmpm.errors import NumericalError, SceneError
from aulmpm.grid import SparseGrid
from aulmpm.kinematics import compose_total
from aulmpm.scene import bundled_scene, load_scene
from oracles import _ref_signed_svd, unbatch

EYE = np.eye(2)[:, :, None]   # identities broadcast over a (2, 2, n) batch


def _scene(**solver):
    sol = {"dt": 1e-3, "steps": 10}
    sol.update(solver)
    return load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [20, 20]},
        "gravity": [0.0, -10.0],
        "solver": sol,
        "objects": [{
            "shape": {"type": "disk", "center": [0.5, 0.55], "radius": 0.1},
            "spacing": 0.02,
            "material": {"type": "fixed_corotated", "density": 1200.0,
                         "youngs": 2e4, "poisson": 0.25},
            "velocity": [0.1, -0.3],
        }],
    })


def _spin_scene(**solver):
    scene = _scene(**solver)
    scene.objects[0].angular_velocity = 4.0
    return scene


def _fresh_grid_terms(sim):
    """Node mass and active mask from a scatter of every body at its
    current binding, in the library's order: stencil entry, then particle,
    or, on a binding with runs, the sum of each run first."""
    size = sim.grid.n_slots
    mass = np.zeros(size)
    for b in sim.bodies:
        cmap = b.cmap
        mw, slots = cmap.w.T * b.m, cmap.slots.T
        if cmap.starts is not None:
            mw, slots = np.add.reduceat(mw, cmap.starts, axis=1), slots[:, cmap.starts]
        mass += np.bincount(slots.ravel(), mw.ravel(), size)
    return mass, mass > sim.mass_eps


def _assert_grid_terms_fresh(sim):
    for got, want in zip((sim.grid.mass, sim.grid.active),
                         _fresh_grid_terms(sim)):
        np.testing.assert_array_equal(got, want)


def test_free_fall_velocity_is_exact():
    scene = _scene()
    sim = Simulation(scene)
    sim.run()
    # uniform field: no deformation, velocity integrates gravity exactly
    expect = np.array([0.1, -0.3 - 10.0 * 1e-3 * 10])
    np.testing.assert_allclose(sim.bodies[0].v, np.tile(expect, (sim.n_particles, 1)),
                               rtol=1e-12)
    np.testing.assert_allclose(compose_total(sim.bodies[0].state),
                               np.broadcast_to(EYE, (2, 2, sim.n_particles)), atol=1e-13)


def test_rest_state_is_fixed_point():
    scene = _scene()
    scene.gravity = np.zeros(2)
    scene.objects[0].velocity = np.zeros(2)
    sim = Simulation(scene)
    x0 = sim.bodies[0].x.copy()
    sim.run()
    np.testing.assert_allclose(sim.bodies[0].x, x0, atol=1e-14)
    np.testing.assert_allclose(sim.bodies[0].v, 0.0, atol=1e-14)


def test_deterministic_rerun_bitwise():
    a = Simulation(_scene(steps=25))
    b = Simulation(_scene(steps=25))
    a.run()
    b.run()
    np.testing.assert_array_equal(a.bodies[0].x, b.bodies[0].x)
    np.testing.assert_array_equal(a.bodies[0].v, b.bodies[0].v)
    assert [r.kinetic_energy for r in a.records] == [r.kinetic_energy for r in b.records]


def _dense_spin_scene(**solver):
    """The spinning disk at dx / 8 spacing, about 40 particles per occupied
    cell: a dense body, kept in cell order."""
    scene = _spin_scene(**solver)
    scene.objects[0].spacing = 0.05 / 8
    return scene


@pytest.mark.parametrize("mode, make", [
    pytest.param("adaptive", _spin_scene, id="adaptive"),
    pytest.param("eulerian", _spin_scene, id="eulerian"),
    pytest.param("adaptive", _dense_spin_scene, id="dense-adaptive"),
    pytest.param("eulerian", _dense_spin_scene, id="dense-eulerian"),
])
def test_stepping_on_after_run_is_bitwise_unchanged(mode, make):
    # run() releases the binding arrays; step() rebuilds them from the
    # reference positions, so continuing equals stepping straight through,
    # and a dense body's rebuilt binding finds the same runs
    a = Simulation(make(steps=6, mode=mode))
    a.run()
    assert a.bodies[0].cmap.stack is None
    a.step()
    b = Simulation(make(steps=6, mode=mode))
    for _ in range(7):
        b.step()
    for name in ("x", "v", "C", "ids"):
        np.testing.assert_array_equal(getattr(a.bodies[0], name), getattr(b.bodies[0], name))
    assert a.bodies[0].cmap.epoch == b.bodies[0].cmap.epoch
    np.testing.assert_array_equal(a.bodies[0].cmap.G, b.bodies[0].cmap.G)
    assert (a.bodies[0].cmap.starts is None) == (make is _spin_scene)
    for name in ("starts", "run_slots"):
        np.testing.assert_array_equal(getattr(a.bodies[0].cmap, name),
                                      getattr(b.bodies[0].cmap, name))
    # the rebuilt per-epoch grid terms match too
    _assert_grid_terms_fresh(a)
    for name in ("mass", "active"):
        np.testing.assert_array_equal(getattr(a.grid, name), getattr(b.grid, name))


def _mover_and_still_scene():
    """Two fluid disks on one grid: "mover" rebinds on every step (eta = 0)
    and slides onto nodes no binding has touched; "still" never rebinds."""
    fluid = {"type": "weakly_compressible_fluid", "density": 1000.0, "bulk": 100.0}
    return load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [40, 40]},
        "gravity": [0.0, 0.0],
        "solver": {"dt": 1e-3, "steps": 12},
        "objects": [
            {"name": "mover", "shape": {"type": "disk", "center": [0.3, 0.5], "radius": 0.06},
             "spacing": 0.0125, "material": fluid, "velocity": [4.0, 0.0],
             "update": {"epsilon": 0.5, "eta": 0.0}},
            {"name": "still", "shape": {"type": "disk", "center": [0.7, 0.3], "radius": 0.06},
             "spacing": 0.0125, "material": fluid,
             "update": {"epsilon": 1e9, "eta": 1.0}},
        ],
        "colliders": [{"type": "half_space", "point": [0.0, 0.1], "normal": [0.0, 1.0],
                       "mode": "slip"}],
    })


def test_epoch_grid_terms_follow_rebinds_and_grid_growth():
    # the binding of "still" was made on a grid with fewer slots than the
    # grid has later
    scene = _mover_and_still_scene()
    sim = Simulation(scene)
    _assert_grid_terms_fresh(sim)
    slots0 = sim.grid.n_slots
    still = sim.bodies[1].cmap
    for _ in range(scene.solver.steps):
        sim.step()
        _assert_grid_terms_fresh(sim)
    assert sim.bodies[0].cmap.epoch == scene.solver.steps
    assert sim.bodies[1].cmap is still
    assert sim.grid.n_slots > slots0


def test_summary_reports_each_object_once():
    sim = Simulation(_mover_and_still_scene())
    for _ in range(4):
        sim.step()
    summary = sim.summary()
    objects = summary["objects"]
    assert [set(obj) for obj in objects] == [{"name", "particles", "epoch", "inverted"}] * 2
    assert [obj["epoch"] for obj in objects] == [4, 0]
    assert sum(obj["epoch"] for obj in objects) == summary["updates_total"]


@pytest.mark.parametrize("transfer", ["least_squares", "kernel"])
def test_every_binding_calls_the_mls_names_once(monkeypatch, transfer):
    # perfbench times the bindings through these two names: the two initial
    # bindings and each of the mover's four rebinds call each once under
    # least squares, and a kernel scene calls neither
    calls = {"moment_matrix": 0, "gradient_weights": 0}
    for name in calls:
        inner = getattr(kinematics, name)

        def counted(*args, _inner=inner, _name=name):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(kinematics, name, counted)
    scene = _mover_and_still_scene()
    scene.solver.transfer = transfer
    sim = Simulation(scene)
    for _ in range(4):
        sim.step()
    assert sim.summary()["updates_total"] == 4
    n = 6 if transfer == "least_squares" else 0
    assert calls == {"moment_matrix": n, "gradient_weights": n}


@pytest.mark.parametrize("transfer", ["least_squares", "kernel"])
def test_every_bind_calls_activate_once(monkeypatch, transfer):
    # perfbench's grid.activate span and grid.activate_calls count binds:
    # the two initial bindings and each of the mover's four rebinds call
    # SparseGrid.activate once, and nothing else calls it
    calls = []
    inner = SparseGrid.activate

    def counted(grid, *args, **kwargs):
        calls.append(grid)
        return inner(grid, *args, **kwargs)

    monkeypatch.setattr(SparseGrid, "activate", counted)
    scene = _mover_and_still_scene()
    scene.solver.transfer = transfer
    sim = Simulation(scene)
    assert len(calls) == 2
    for _ in range(4):
        sim.step()
    assert sim.summary()["updates_total"] == 4
    assert len(calls) == 6 and all(grid is sim.grid for grid in calls)


def test_fresh_deformation_factors_are_component_major():
    # every 2x2 factor of a fresh Simulation, snow's F_plastic too, is a
    # C-contiguous (2, 2, n) array holding identities
    scene = _scene()
    snow = MaterialModel.from_youngs("snow", density=400.0, youngs=1e4, poisson=0.2)
    scene.objects.append(replace(scene.objects[0], material=snow, shape={
        "type": "disk", "center": [0.2, 0.3], "radius": 0.06}))
    sim = Simulation(scene)
    snow_body = sim.bodies[1]
    factors = [snow_body.state.F_0s, snow_body.state.F_sn, snow_body.F_plastic]
    for F in factors + [sim.bodies[0].state.F_0s, sim.bodies[0].state.F_sn]:
        assert F.shape == (2, 2, F.shape[-1]) and F.flags.c_contiguous
        np.testing.assert_array_equal(F, np.broadcast_to(EYE, F.shape))
    assert [F.shape[-1] for F in factors] == [snow_body.n] * 3
    assert sim.bodies[0].F_plastic is None


# the phases a step runs, by (transfer, integrator): every binding folds
# the forces into p2g's one momentum scatter, and an implicit step applies
# the assembled Hessian, a `NodeStencil`, in every CG iteration
_PHASES = {"least_squares": ("least_squares", "explicit", {"p2g", "g2p"}),
           "kernel": ("kernel", "explicit", {"p2g", "g2p"}),
           "implicit": ("least_squares", "implicit", {"p2g", "g2p", "apply"})}


def _expanding_disk(**solver):
    """A 12.9k-particle disk on a 128^2 grid, four particles per cell, that
    expands, so its implicit solves iterate."""
    sim = Simulation(load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [128, 128]},
        "gravity": [0.0, -10.0],
        "solver": {"dt": 1e-4, "steps": 3, **solver},
        "objects": [{
            "shape": {"type": "disk", "center": [0.5, 0.5], "radius": 0.25},
            "spacing": 1 / 256, "jitter": 0.3,
            "material": {"type": "fixed_corotated", "density": 1000.0,
                         "youngs": 1e4, "poisson": 0.3},
            "velocity": [0.1, -0.2],
        }],
    }))
    body = sim.bodies[0]
    body.v = body.v + 0.5 * (body.x - 0.5)
    return sim


def _arrays(value):
    """The ndarrays an attribute holds, directly or in a tuple, list or dict."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return []


@pytest.mark.parametrize("case", sorted(_PHASES))
def test_steady_steps_allocate_no_per_entry_arrays(monkeypatch, case):
    # Between rebinds the transfer phases write their per-entry temporaries
    # into the binding's workspace: at its peak, each of p2g, g2p, every
    # matrix-free Hessian product after a solve's first (which builds the
    # (4, 4, n) tangent) and every product with the assembled operator
    # allocates less than one (n, S) float64 array.
    transfer, integrator, phases = _PHASES[case]
    sim = _expanding_disk(mode="total_lagrangian", transfer=transfer, integrator=integrator)
    entry_bytes = sim.bodies[0].cmap.slots.size * 8
    peaks = {}

    def traced(fn):
        def call(*args, **kwargs):
            first = fn.__name__ == "hessian_apply" and any(
                b.stress.tangent is None for b in args[0])
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            if not first:
                peaks.setdefault(fn.__name__, []).append(
                    tracemalloc.get_traced_memory()[1] - start)
            return out
        return call

    for name in ("p2g", "g2p"):
        monkeypatch.setattr(engine, name, traced(getattr(engine, name)))
    monkeypatch.setattr(transfers, "hessian_apply", traced(transfers.hessian_apply))
    monkeypatch.setattr(transfers.NodeStencil, "apply", traced(transfers.NodeStencil.apply))
    tracemalloc.start()
    try:
        # the last step is steady: the arrays it replaces were allocated
        # while tracing
        for _ in range(3):
            peaks.clear()
            sim.step()
    finally:
        tracemalloc.stop()
    assert set(peaks) == phases
    for name, calls in peaks.items():
        assert max(calls) < entry_bytes, (name, calls, entry_bytes)

    # a finished run holds nothing of per-entry size in any binding, so no
    # per-entry cache outlives the run
    sim.run()
    for b in sim.bodies:
        held = {name: a.shape for name, value in vars(b.cmap).items()
                for a in _arrays(value) if a.size >= b.n * 9}
        assert not held, held


@pytest.mark.parametrize("transfer, dense", [
    pytest.param("least_squares", False, id="least_squares"),
    pytest.param("kernel", False, id="kernel"),
    pytest.param("least_squares", True, id="dense-least_squares"),
])
def test_steady_rebinds_allocate_no_binding(monkeypatch, transfer, dense):
    # An Eulerian rebind refills the old binding's stack, slots, workspace
    # and reference positions, and computes its per-axis pieces and the
    # F fold in the workspace: it allocates nothing of per-particle size,
    # so it keeps, and its temporaries peak at, less than one float64 per
    # particle, a ninth of one (n, S) float64 array.  A dense body's rebind
    # also sorts it back into cell order through the same buffers: on top
    # it allocates the sort's order (one int64 per particle), the in-order
    # test (one bool) and the new binding's runs (10 int64 per occupied
    # cell, a third of a column at this disk's 31 per cell), and it keeps
    # only the runs; measured 1.40 and 0.34 columns.
    disk = {"center": [0.5, 0.5], "radius": 0.25}
    spin = {}
    if dense:
        # spinning, so that particles change cells inside the disk while
        # its outline binds no new node
        disk, spin = {"center": [0.5, 0.5], "radius": 0.06}, {"angular_velocity": 20.0}
    scene = load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [128, 128]},
        "gravity": [0.0, -10.0],
        "solver": {"dt": 1e-4, "steps": 3, "mode": "eulerian", "transfer": transfer},
        "objects": [{
            "shape": {"type": "disk", **disk},
            "spacing": 1 / 768 if dense else 1 / 256, "jitter": 0.3,
            "material": {"type": "fixed_corotated", "density": 1000.0,
                         "youngs": 1e4, "poisson": 0.3},
            "velocity": [0.1, -0.2], **spin,
        }],
    })
    sim = Simulation(scene)
    assert (sim.bodies[0].cmap.starts is not None) == dense
    calls = []
    inner = engine.apply_update

    def traced(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        out = inner(*args)
        now, peak = tracemalloc.get_traced_memory()
        calls.append((now - start, peak - start))
        return out

    monkeypatch.setattr(engine, "apply_update", traced)
    tracemalloc.start()
    try:
        # the last rebind is steady: the arrays it replaces were allocated
        # while tracing
        for _ in range(2):
            sim.step()
        ids = sim.bodies[0].ids.copy()
        slots = sim.grid.n_slots
        sim.step()
    finally:
        tracemalloc.stop()
    column_bytes = sim.bodies[0].n * 8
    retained, peak = calls[-1]
    assert len(calls) == 3
    assert retained < column_bytes, (retained / column_bytes)
    if dense:
        # the last rebind did sort, on a grid that did not grow
        assert (sim.bodies[0].ids != ids).any() and sim.grid.n_slots == slots
        assert peak < 1.5 * column_bytes, (peak / column_bytes)
    else:
        assert peak < column_bytes, (peak / column_bytes)


@pytest.mark.parametrize("transfer", ["least_squares", "kernel"])
def test_no_step_scatters_forces_apart(monkeypatch, transfer):
    # every step deposits dt f through p2g and never calls
    # grid_internal_forces
    scene = _scene(steps=3, transfer=transfer)
    scene.objects.append(replace(scene.objects[0], shape={
        "type": "disk", "center": [0.2, 0.3], "radius": 0.06}))
    sim = Simulation(scene)
    forced = []

    def counted(body, grid):
        forced.append(body)
        return transfers.grid_internal_forces(body, grid)

    monkeypatch.setattr(engine, "grid_internal_forces", counted)
    for _ in range(3):
        sim.step()
    assert forced == []


def test_implicit_steps_compute_each_rotation_once(monkeypatch):
    # the tangent reuses the polar rotation and the moduli of the stress
    # pass: per body and implicit step, one tangent build and one call each
    # of _rotation and _moduli
    scene = _scene(steps=3, integrator="implicit")
    snow = MaterialModel.from_youngs("snow", density=400.0, youngs=1e4, poisson=0.2)
    scene.objects.append(replace(scene.objects[0], material=snow, shape={
        "type": "disk", "center": [0.2, 0.3], "radius": 0.06}))
    sim = Simulation(scene)
    calls = dict.fromkeys(["_rotation", "_moduli", "hessian_action"], 0)

    def counted(owner, name):
        fn = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, call)

    counted(constitutive, "_rotation")
    counted(constitutive, "_moduli")
    counted(transfers, "hessian_action")
    for _ in range(3):
        sim.step()
    assert calls == dict.fromkeys(calls, len(sim.bodies) * 3)


@pytest.mark.parametrize("transfer, integrator", [
    ("least_squares", "explicit"), ("kernel", "explicit"), ("least_squares", "implicit")])
def test_stress_states_live_for_one_step(monkeypatch, transfer, integrator):
    # a step drops its stress states, and the tangents built from them,
    # before it returns; within an implicit step the solve's assembly uses
    # the tangent array that its one matrix-free product, the start
    # residual, built
    scene = _scene(steps=3, transfer=transfer, integrator=integrator)
    snow = MaterialModel.from_youngs("snow", density=400.0, youngs=1e4, poisson=0.2)
    scene.objects.append(replace(scene.objects[0], material=snow, shape={
        "type": "disk", "center": [0.2, 0.3], "radius": 0.06}))
    sim = Simulation(scene)
    # expanding disks deform, so every implicit solve iterates
    for b in sim.bodies:
        b.v = b.v + 0.5 * (b.x - b.x.mean(axis=0))
    calls = []   # per Hessian product or assembly, each body's tangents before and after it

    def traced(fn):
        def call(bodies, *args, **kwargs):
            before = [b.stress.tangent for b in bodies]
            out = fn(bodies, *args, **kwargs)
            calls.append((fn.__name__, before, [b.stress.tangent for b in bodies]))
            return out
        return call

    for name in ("hessian_apply", "assemble_hessian"):
        monkeypatch.setattr(transfers, name, traced(getattr(transfers, name)))
    for _ in range(3):
        calls.clear()
        sim.step()
        assert [b.stress for b in sim.bodies] == [None, None]
        if integrator == "explicit":
            assert not calls
            continue
        assert [name for name, _, _ in calls] == ["hessian_apply", "assemble_hessian"]
        assert sim.cg_info["iterations"] > 2
        (_, before, built), (_, tangents, after) = calls
        assert before == [None, None]
        assert all(t is b._tangent_buf for t, b in zip(built, sim.bodies))
        assert all(t is u for t, u in zip(tangents, built))
        assert all(t is u for t, u in zip(after, built))


def test_free_flight_steps_never_assemble(monkeypatch):
    # a translating disk's start residual is at round-off, below CG_TOL, so
    # each of its implicit steps stops after one matrix-free product; an
    # expanding disk solves, and each of its steps takes that product and
    # then one assembly for all of its CG iterations
    calls = []
    for name in ("hessian_apply", "assemble_hessian"):
        inner = getattr(transfers, name)
        monkeypatch.setattr(transfers, name, lambda *args, _inner=inner, **kwargs: (
            calls.append(_inner.__name__) or _inner(*args, **kwargs)))
    sim = Simulation(_scene(steps=3, integrator="implicit"))
    sim.run()
    assert calls == ["hessian_apply"] * 3
    assert [r.cg_iterations for r in sim.records] == [0, 0, 0]
    assert max(r.cg_residual for r in sim.records) <= transfers.CG_TOL

    calls.clear()
    sim = Simulation(_scene(steps=3, integrator="implicit"))
    body = sim.bodies[0]
    body.v = body.v + 0.5 * (body.x - body.x.mean(axis=0))
    sim.run()
    assert min(r.cg_iterations for r in sim.records) > 0
    assert calls == ["hessian_apply", "assemble_hessian"] * 3


def test_assembly_peaks_below_one_entry_array_plus_the_operator(monkeypatch):
    # the assembly accumulates one entry pair at a time through the
    # binding's workspace: beyond the operator it returns (its blocks,
    # neighbour table and gather buffer) it allocates less than one (n, S)
    # float64 array
    sim = _expanding_disk(integrator="implicit")
    entry_bytes = sim.bodies[0].cmap.slots.size * 8
    calls = []
    inner = transfers.assemble_hessian

    def traced(*args):
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        op = inner(*args)
        calls.append((tracemalloc.get_traced_memory()[1] - start,
                      op.blocks.nbytes + op.neighbours.nbytes + op.near.nbytes))
        return op

    monkeypatch.setattr(transfers, "assemble_hessian", traced)
    tracemalloc.start()
    try:
        sim.step()
    finally:
        tracemalloc.stop()
    assert len(calls) == 1
    (peak, operator_bytes), = calls
    assert peak < operator_bytes + entry_bytes, (peak - operator_bytes) / entry_bytes


def test_steps_never_evaluate_the_energy(monkeypatch):
    # a step reads the stress alone; the energy density is computed only
    # when a caller reads it, once per stress state
    scene = _scene(steps=3, integrator="implicit")
    for kind, center in (("snow", [0.2, 0.3]), ("weakly_compressible_fluid", [0.8, 0.3])):
        material = (MaterialModel.fluid(density=1000.0, bulk=100.0) if kind != "snow" else
                    MaterialModel.from_youngs(kind, density=400.0, youngs=1e4, poisson=0.2))
        scene.objects.append(replace(scene.objects[0], material=material, shape={
            "type": "disk", "center": center, "radius": 0.06}))
    sim = Simulation(scene)
    calls = []
    inner = constitutive._energy
    monkeypatch.setattr(constitutive, "_energy", lambda ss: calls.append(ss) or inner(ss))
    for _ in range(3):
        sim.step()
    assert calls == []
    ss = constitutive.energy_and_piola(compose_total(sim.bodies[0].state), scene.objects[0].material)
    np.testing.assert_array_equal(ss.energy, ss.energy)
    assert len(calls) == 1


def test_records_match_an_einsum_oracle():
    # the record's momentum, angular momentum about the domain center and
    # kinetic energy, against einsums over the (n, 2) particle arrays
    scene = _spin_scene(steps=4)
    scene.objects.append(replace(scene.objects[0], shape={
        "type": "disk", "center": [0.2, 0.3], "radius": 0.06}, velocity=[0.4, 0.1]))
    sim = Simulation(scene)
    for _ in range(4):
        sim.step()
    center = scene.origin + 0.5 * scene.size
    spin = np.array([[0.0, 1.0], [-1.0, 0.0]])
    mom = sum(np.einsum("n,nk->k", b.m, b.v) for b in sim.bodies)
    ang = sum(np.einsum("n,na,ab,nb->", b.m, b.x - center, spin, b.v) for b in sim.bodies)
    kin = sum(0.5 * np.einsum("n,nk,nk->", b.m, b.v, b.v) for b in sim.bodies)
    rec = sim.records[-1]
    np.testing.assert_allclose(rec.momentum, mom, rtol=1e-13)
    np.testing.assert_allclose(rec.angular_momentum, ang, rtol=1e-13)
    np.testing.assert_allclose(rec.kinetic_energy, kin, rtol=1e-13)
    np.testing.assert_array_equal(rec.momentum, sim.totals()["momentum"])


def test_records_accumulate_monotone_counters():
    sim = Simulation(_scene(steps=15, mode="eulerian"))
    sim.run()
    ups = [r.updates for r in sim.records]
    assert ups == list(range(1, 16))  # every step rebinds in eulerian mode


def test_spin_seeds_affine_state():
    # a disk spins about its center, a box about the midpoint of min and max
    spin = np.array([[0.0, -2.0], [2.0, 0.0]])
    box = {"type": "box", "min": [0.4, 0.45], "max": [0.62, 0.6]}
    for shape, velocity, c in ((None, np.zeros(2), [0.5, 0.55]),
                               (box, np.array([0.1, -0.3]), [0.51, 0.525])):
        scene = _scene(steps=1)
        if shape is not None:
            scene.objects[0].shape = shape
        scene.objects[0].angular_velocity = 2.0
        scene.objects[0].velocity = velocity
        sim = Simulation(scene)
        body = sim.bodies[0]
        np.testing.assert_allclose(body.C, np.broadcast_to(spin[:, :, None], (2, 2, body.n)),
                                   atol=0.0)
        np.testing.assert_allclose(body.v, velocity + (body.x - c) @ spin.T, atol=1e-15)
        sim.step()
        assert np.isfinite(body.x).all() and np.isfinite(body.v).all()


def test_nan_guard_raises():
    sim = Simulation(_scene(steps=1))
    sim.bodies[0].v[0, 0] = np.nan
    with pytest.raises(NumericalError, match="non-finite"):
        sim.step()


def _poison_F_sn(real):
    def call(state, grad_v, dt):
        state.F_sn[0, 0, 0] = np.nan
        return real(state, grad_v, dt)
    return call


def _poison_F_0s(real):
    def call(state, *args):
        out = real(state, *args)
        state.F_0s[1, 1, 0] = np.nan
        return out
    return call


def _poison_F_plastic(real):
    def call(Fe, Fp, material):
        Fp = real(Fe, Fp, material)
        Fp[1, 0, 0] = np.inf
        return Fp
    return call


@pytest.mark.parametrize("field, phase, poison", [
    ("F_sn", "advance_F_sn", _poison_F_sn),
    ("F_0s", "apply_update", _poison_F_0s),
    ("F_plastic", "plastic_project", _poison_F_plastic),
])
def test_nan_guard_names_the_deformation_field(field, phase, poison, monkeypatch):
    # a non-finite entry appears in one deformation field during step 2; x
    # and v are still finite, so only the new guard can stop the step
    scene = _scene(steps=4, mode="eulerian")
    scene.objects[0].material = MaterialModel.from_youngs(
        "snow", density=400.0, youngs=1.4e4, poisson=0.2)
    sim = Simulation(scene)
    sim.step()
    sim.step()
    monkeypatch.setattr(engine, phase, poison(getattr(engine, phase)))
    with pytest.raises(NumericalError, match=f"^non-finite {field} at step 2$"):
        sim.step()


def test_implicit_run_matches_explicit_closely():
    ex = Simulation(_scene(steps=20))
    im = Simulation(_scene(steps=20, integrator="implicit"))
    ex.run()
    im.run()
    gap = np.abs(ex.bodies[0].x - im.bodies[0].x).max()
    assert gap < 1e-6  # free-ish fall: stiffness barely acts
    assert im.cg_info is not None and im.cg_info["converged"]


@pytest.mark.parametrize("transfer", ["least_squares", "kernel"])
def test_implicit_spin_solves_and_matches_explicit(transfer):
    ex = Simulation(_spin_scene(steps=20, transfer=transfer))
    ex.run()
    im = Simulation(_spin_scene(steps=20, integrator="implicit", transfer=transfer))
    iters = 0
    residuals = []
    for _ in range(20):
        im.step()
        assert im.cg_info["converged"] and not im.cg_info["fallback"]
        iters += im.cg_info["iterations"]
        residuals.append(im.cg_info["residual"])
    assert iters > 0  # measured 203 (least_squares) and 407 (kernel)
    assert 0.0 < max(residuals) <= transfers.CG_TOL
    summary = im.summary()
    assert summary["cg_unconverged"] == summary["cg_fallbacks"] == 0
    assert summary["cg_iterations"] == iters
    assert summary["cg_residual_max"] == max(residuals)
    gap = np.abs(ex.bodies[0].x - im.bodies[0].x).max()
    assert gap < 1.5e-5  # measured 1.05e-5 (least_squares) and 7.9e-6 (kernel)


def test_summary_counts_cg_trouble(tmp_path, monkeypatch):
    # an iteration cap of 1 leaves the spinning disk's solves unconverged
    infos = []

    def recorded(*args):
        infos.append(transfers.implicit_update(*args))
        return infos[-1]

    monkeypatch.setattr(transfers, "CG_MAX_ITERS", 1)
    monkeypatch.setattr(engine, "implicit_update", recorded)
    sim = Simulation(_spin_scene(steps=3, integrator="implicit"))
    sim.run(out_dir=tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["cg_unconverged"] == sum(not i["converged"] for i in infos) > 0
    assert summary["cg_fallbacks"] == 0
    assert summary["cg_iterations"] == sum(i["iterations"] for i in infos)
    assert summary["cg_residual_max"] == max(i["residual"] for i in infos) > transfers.CG_TOL
    monkeypatch.undo()

    # a body crushed to 5% over a 10 s step loses positive definiteness
    sim = Simulation(_scene(steps=1, integrator="implicit", mode="total_lagrangian"))
    sim.bodies[0].state.F_sn[:] = 0.05 * EYE
    sim.step(dt=10.0)
    assert sim.cg_info["fallback"]
    assert sim.cg_info["residual"] > transfers.CG_TOL   # of the kept explicit velocities
    assert sim.summary()["cg_fallbacks"] == 1
    assert sim.summary()["cg_unconverged"] == 0


def test_output_files(tmp_path):
    sim = Simulation(_scene(steps=8, frame_dt=4e-3))
    info = sim.run(out_dir=tmp_path)
    frames = sorted((tmp_path / "frames").glob("frame_*.csv"))
    # initial + steps 4 and 8
    assert len(frames) == 3 == info["frames"]
    header = frames[0].read_text().splitlines()[0]
    assert header == "id,x,y,vx,vy,J,epoch"
    stats_lines = (tmp_path / "stats.csv").read_text().splitlines()
    assert len(stats_lines) == 9  # header + one row per step
    assert stats_lines[0].startswith("step,time,mass,momentum_x,momentum_y,")
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["steps"] == 8
    assert summary["cg_iterations"] == 0 and summary["cg_residual_max"] == 0.0   # explicit
    assert summary["particles"] == sim.n_particles


def test_a_run_replaces_the_frames_of_an_earlier_run(tmp_path):
    # an 8-step disk run twice into one directory, 8 frames then 2: only
    # the second run's frames remain, and a file that is not a frame stays
    Simulation(_scene(steps=8)).run(out_dir=tmp_path, frames=8)
    assert len(list((tmp_path / "frames").glob("frame_*.csv"))) == 9
    (tmp_path / "frames" / "notes.txt").write_text("kept\n")
    second = Simulation(_scene(steps=8))
    tables = []
    table = second.particle_table
    second.particle_table = lambda: tables.append(table()) or tables[-1]
    info = second.run(out_dir=tmp_path, frames=2)
    names = sorted(p.name for p in (tmp_path / "frames").iterdir())
    assert names == [f"frame_{k:06d}.csv" for k in range(3)] + ["notes.txt"]
    assert info["frames"] == 3
    for k, tab in enumerate(tables):
        text = (tmp_path / "frames" / f"frame_{k:06d}.csv").read_text()
        assert text == _per_value_frame(tab)
    assert (tmp_path / "frames" / "notes.txt").read_text() == "kept\n"


def test_frames_argument_controls_run_length(tmp_path):
    sim = Simulation(_scene(steps=10))
    info = sim.run(out_dir=tmp_path, frames=0)
    assert info["steps"] == 0
    assert len(list((tmp_path / "frames").glob("*.csv"))) == 1
    assert (tmp_path / "stats.csv").read_text().count("\n") == 1  # header only

    sim2 = Simulation(_scene(steps=10))
    info2 = sim2.run(out_dir=tmp_path, frames=5)
    assert info2["steps"] == 10
    assert info2["frames"] == 6


@pytest.mark.parametrize("solver", [{}, {"frame_dt": 4e-3}])
def test_negative_frames_are_rejected_before_any_output(tmp_path, solver):
    sim = Simulation(_scene(steps=10, **solver))
    with pytest.raises(SceneError, match="frames must be 0 or more, got -2"):
        sim.run(out_dir=tmp_path / "out", frames=-2)
    assert sim.steps_done == 0
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("frames", [3, 20])
def test_frames_that_do_not_divide_the_steps_are_rejected(tmp_path, frames):
    # an even split of 10 steps into 3 or 20 frames would run 9 or 20 steps
    sim = Simulation(_scene(steps=10))
    with pytest.raises(SceneError, match=f"{frames} frames do not divide the scene's 10 steps"):
        sim.run(out_dir=tmp_path / "out", frames=frames)
    assert sim.steps_done == 0
    assert not (tmp_path / "out").exists()
    # frame_dt sets the stride instead: 3 frames of 4 steps each
    info = Simulation(_scene(steps=10, frame_dt=4e-3)).run(frames=3)
    assert info["steps"] == 12


def test_frame_numbers_parse_back(tmp_path):
    sim = Simulation(_scene(steps=2))
    sim.run(out_dir=tmp_path)
    last = sorted((tmp_path / "frames").glob("*.csv"))[-1]
    rows = np.genfromtxt(last, delimiter=",", names=True)
    assert rows.shape[0] == sim.n_particles
    tab = sim.particle_table()
    for name in ("x", "y"):
        np.testing.assert_array_equal(rows[name], tab[name])


def _per_value_frame(tab) -> str:
    """Frame text as formatted one value at a time (the writer's spec)."""
    names = tab.dtype.names
    lines = [",".join(names)]
    for row in tab:
        vals = [f"{int(row['id'])}"]
        vals += [f"{float(row[nm]):.17g}" for nm in names[1:-1]]
        vals.append(f"{int(row['epoch'])}")
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def test_frame_writer_matches_per_value_formatting(tmp_path):
    sim = Simulation(_scene(steps=3))
    sim.run()
    v = sim.bodies[0].v
    v[:6, 0] = [-0.0, 1e-300, -2.5e300, 123456789.125, 1.0 / 3.0, 5e-324]
    sim.bodies[0].cmap.epoch = 7
    (tmp_path / "frames").mkdir()
    sim._write_frame(tmp_path, 4)
    text = (tmp_path / "frames" / "frame_000004.csv").read_text()
    assert text == _per_value_frame(sim.particle_table())


def test_droplet_frames_take_the_vector_path_and_match_per_value_text(tmp_path,
                                                                    monkeypatch):
    # the bundled drop's nine frames, 13 steps apart: none sends a value to
    # the per-value path, and those at steps 0, 13, 26 and 104 equal the
    # per-value text; at step 26 every |vx| is round-off, 1e-28..1e-18
    per_value = []
    monkeypatch.setattr(textout, "_per_value",
                        lambda x: per_value.append(x) or b"%.17g" % x)
    sim = Simulation(bundled_scene("droplet"))
    tables = []
    table = sim.particle_table
    monkeypatch.setattr(sim, "particle_table", lambda: tables.append(table()) or tables[-1])
    sim.run(out_dir=tmp_path, frames=8)
    assert per_value == [] and len(tables) == 9
    assert 0 < np.abs(tables[2]["vx"]).max() < 1e-12
    for k in (0, 1, 2, 8):
        text = (tmp_path / "frames" / f"frame_{k:06d}.csv").read_text()
        assert text == _per_value_frame(tables[k])


def test_plate_sized_frame_is_written_a_chunk_at_a_time(tmp_path, monkeypatch):
    # 42k rows: the whole frame's template rows and keep mask would take
    # 28 MB; written FRAME_CHUNK rows at a time the writer's peak stays
    # under 4 MB
    sim = Simulation(_scene(steps=1))
    n = 42_000
    tab = np.zeros(n, dtype=sim.particle_table().dtype)
    for name, col in zip(tab.dtype.names, np.random.default_rng(0).standard_normal((7, n))):
        tab[name] = col
    tab["id"] = np.arange(n)
    tab["epoch"] = 3
    monkeypatch.setattr(sim, "particle_table", lambda: tab)
    (tmp_path / "frames").mkdir()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sim._write_frame(tmp_path, 0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    lines = (tmp_path / "frames" / "frame_000000.csv").read_text().splitlines()
    assert len(lines) == n + 1
    assert lines[-1] == _per_value_frame(tab[-1:]).splitlines()[-1]


def test_snow_run_projects_plasticity():
    scene = load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [20, 20]},
        "gravity": [0.0, -10.0],
        "solver": {"dt": 5e-4, "steps": 150},
        "objects": [{
            "shape": {"type": "disk", "center": [0.5, 0.45], "radius": 0.08},
            "spacing": 0.02,
            "material": {"type": "snow", "density": 400.0, "youngs": 1.4e5,
                         "poisson": 0.2},
            "velocity": [0.0, -2.0],
        }],
        "colliders": [{"type": "half_space", "point": [0.0, 0.3],
                       "normal": [0.0, 1.0], "mode": "sticky"}],
    })
    sim = Simulation(scene)
    sim.run()
    body = sim.bodies[0]
    assert np.isfinite(body.x).all()
    # impact must push some deformation into the plastic factor
    dev = np.abs(body.F_plastic - EYE).max()
    assert dev > 1e-4
    # elastic factor stays inside the singular value yield box
    Fe = np.einsum("nab,nbc->nac", unbatch(compose_total(body.state)),
                   np.linalg.inv(unbatch(body.F_plastic)))
    _, sig, _ = _ref_signed_svd(Fe)
    assert sig.max() <= 1.0 + body.material.theta_s + 1e-8
    assert sig.min() >= 1.0 - body.material.theta_c - 1e-8


def test_kernel_transfer_full_run_conserves_momentum():
    scene = _scene(steps=50, transfer="kernel")
    scene.gravity = np.zeros(2)
    sim = Simulation(scene)
    mom0 = sum((b.m[:, None] * b.v).sum(axis=0) for b in sim.bodies)
    sim.run()
    np.testing.assert_allclose(sim.records[-1].momentum, mom0, rtol=1e-10)


def test_multi_object_coupling_shares_grid():
    scene = load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [20, 20]},
        "solver": {"dt": 1e-3, "steps": 40},
        "objects": [
            {"shape": {"type": "disk", "center": [0.42, 0.5], "radius": 0.08},
             "spacing": 0.02,
             "material": {"type": "fixed_corotated", "density": 1000.0,
                          "youngs": 2e4, "poisson": 0.3},
             "velocity": [0.5, 0.0]},
            {"shape": {"type": "disk", "center": [0.62, 0.5], "radius": 0.08},
             "spacing": 0.02,
             "material": {"type": "fixed_corotated", "density": 1000.0,
                          "youngs": 2e4, "poisson": 0.3},
             "velocity": [-0.5, 0.0]},
        ],
    })
    sim = Simulation(scene)
    mom0 = sum((b.m[:, None] * b.v).sum(axis=0) for b in sim.bodies)
    sim.run()
    # grid-mediated contact: approach must have slowed both bodies
    v_rel = sim.bodies[0].v[:, 0].mean() - sim.bodies[1].v[:, 0].mean()
    assert v_rel < 1.0 - 0.2
    # total momentum still conserved through the interaction
    mom = sim.records[-1].momentum
    np.testing.assert_allclose(mom, mom0, atol=1e-10 * sim.records[0].mass)
