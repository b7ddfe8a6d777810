"""Dense bodies in cell order: per-run scatters, particle ids and runs.

A body of at least `transfers.DENSE_MIN_PER_CELL` particles per occupied
cell is sorted by stencil base node at construction and at each rebind,
and every scatter over its binding sums each run of particles that share a
stencil before it touches the grid.  These tests hold that path to the
plain per-entry bincount, and the bookkeeping (ids, runs) to its spec.
"""

import numpy as np
import pytest

from aulmpm import engine, transfers
from aulmpm.engine import Simulation
from aulmpm.grid import SparseGrid
from aulmpm.kinematics import cell_keys
from aulmpm.scene import bundled_scene, load_scene, sample_shape
from aulmpm.transfers import (assemble_hessian, grid_internal_forces, hessian_apply, p2g,
                              stress_pass)

REL = 1e-13
SOLID = {"type": "fixed_corotated", "density": 1000.0, "youngs": 2e4, "poisson": 0.3}
SNOW = {"type": "snow", "density": 400.0, "youngs": 1.4e4, "poisson": 0.2}


def _dense_scene(transfer="least_squares", mode="adaptive", steps=10, material=SOLID):
    """A spinning disk at 64 particles per full cell (dx / 8 spacing),
    about 45 per occupied one, above a slip floor."""
    return load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [20, 20]},
        "gravity": [0.0, -10.0],
        "solver": {"dt": 1e-3, "steps": steps, "transfer": transfer, "mode": mode},
        "objects": [{
            "shape": {"type": "disk", "center": [0.5, 0.35], "radius": 0.12},
            "spacing": 0.05 / 8, "jitter": 0.3,
            "material": material,
            "velocity": [0.3, -1.0], "angular_velocity": 3.0,
        }],
        "colliders": [{"type": "half_space", "point": [0.0, 0.2], "normal": [0.0, 1.0],
                       "mode": "slip"}],
    })


def _distinct_base_nodes(cmap) -> int:
    return np.unique(cmap.slots[:, 0]).size


def _close(got, want):
    scale = np.abs(want).max()
    assert scale > 0.0
    assert np.abs(got - want).max() <= REL * scale, np.abs(got - want).max() / scale


@pytest.mark.parametrize("transfer", ["least_squares", "kernel"])
def test_per_run_scatters_match_the_bincount_path(monkeypatch, transfer):
    # the same scene twice: dense (sorted, per-run scatters) and, with the
    # threshold out of reach, sparse (sampling order, one bincount per
    # scatter); the grids bind the same nodes in the same slots, so every
    # node quantity compares slot by slot
    dense = Simulation(_dense_scene(transfer))
    monkeypatch.setattr(transfers, "DENSE_MIN_PER_CELL", np.inf)
    sparse = Simulation(_dense_scene(transfer))
    monkeypatch.undo()
    d, s = dense.bodies[0], sparse.bodies[0]
    assert d.n / d.cmap.starts.size >= 30
    assert s.cmap.starts is None and (s.ids == np.arange(s.n)).all()
    assert not (d.ids == np.arange(d.n)).all()
    np.testing.assert_array_equal(dense.grid.position, sparse.grid.position)

    # one deformation per particle id, so the stress is not trivial
    rng = np.random.default_rng(5)
    F = np.eye(2)[:, :, None] + 0.05 * rng.normal(size=(2, 2, d.n))
    u = rng.normal(size=(2, dense.grid.n_slots))
    out = {}
    for name, sim in (("dense", dense), ("sparse", sparse)):
        b, grid = sim.bodies[0], sim.grid
        b.state.F_sn[...] = F[..., b.ids]
        grid.zero_fields()
        stress_pass(b)
        p2g(b, grid, sim.scene.solver.dt)
        out[name] = {
            "mass": grid.mass.copy(),
            "momentum": grid.momentum.copy(),
            "pos_accum": grid.pos_accum.copy(),
            "forces": grid_internal_forces(b, grid),
            "hessian_apply": hessian_apply([b], u, grid.active),
            "blocks": assemble_hessian([b], grid, grid.active).blocks,
        }
        if transfer == "kernel":
            out[name]["momentum0"] = grid.momentum0.copy()
    assert set(out["dense"]) == set(out["sparse"])
    for key, want in out["sparse"].items():
        _close(out["dense"][key], want)


@pytest.mark.parametrize("transfer, material, steps", [
    pytest.param("kernel", SOLID, 30, id="kernel-solid"),
    pytest.param("least_squares", SNOW, 60, id="least_squares-snow"),
])
def test_a_run_in_cell_order_differs_from_one_in_sampling_order_at_round_off(
        monkeypatch, transfer, material, steps):
    # Eulerian steps, each a rebind that re-sorts every per-particle array
    # (the snow, which yields on the floor, its plastic factor too): only
    # the sums' order differs, so the final states, listed by id, agree to
    # round-off (measured up to 1.3e-14 of each field's largest value)
    tables = []
    for threshold in (transfers.DENSE_MIN_PER_CELL, np.inf):
        monkeypatch.setattr(transfers, "DENSE_MIN_PER_CELL", threshold)
        sim = Simulation(_dense_scene(transfer, "eulerian", steps=steps, material=material))
        sim.run()
        assert sim.bodies[0].cmap.epoch == steps
        tables.append(sim.particle_table())
    dense, sparse = tables
    for name in ("x", "y", "vx", "vy", "J"):
        assert np.abs(dense[name] - sparse[name]).max() <= 1e-12 * np.abs(sparse[name]).max()
    np.testing.assert_array_equal(dense["epoch"], sparse["epoch"])


def test_a_dense_body_lists_its_sampled_points_in_sampling_order():
    scene = _dense_scene()
    sim = Simulation(scene)
    obj = scene.objects[0]
    pts = sample_shape(obj.shape, obj.spacing, obj.jitter,
                       np.random.default_rng(scene.solver.seed))
    body = sim.bodies[0]
    assert body.cmap.starts is not None and not (body.ids == np.arange(body.n)).all()
    np.testing.assert_array_equal(np.sort(body.ids), np.arange(body.n))
    tab = sim.particle_table()
    np.testing.assert_array_equal(tab["id"], np.arange(body.n))
    for k, a in enumerate("xy"):
        assert tab[a].tobytes() == pts[:, k].tobytes()


@pytest.mark.parametrize("scene", [
    pytest.param(lambda: bundled_scene("droplet"), id="adaptive-droplet"),
    pytest.param(lambda: _dense_scene("kernel", "eulerian", steps=20), id="eulerian-disk"),
])
def test_every_rebind_keeps_one_run_per_occupied_cell(monkeypatch, scene):
    # the re-sort at each rebind keeps R at the count of distinct base
    # nodes; without it the runs fragment as particles cross cells
    runs = []
    inner = engine.apply_update

    def checked(*args):
        cmap = inner(*args)
        runs.append((cmap.starts.size, _distinct_base_nodes(cmap)))
        np.testing.assert_array_equal(cmap.run_slots, cmap.slots.T[:, cmap.starts])
        return cmap

    monkeypatch.setattr(engine, "apply_update", checked)
    sim = Simulation(scene())
    body = sim.bodies[0]
    assert body.cmap.starts.size == _distinct_base_nodes(body.cmap)
    sim.run()
    assert len(runs) >= 20
    assert all(got == want for got, want in runs), runs
    np.testing.assert_array_equal(np.sort(body.ids), np.arange(body.n))


@pytest.mark.parametrize("ratio", [1.0, 1.5, 2.0, 2.5, 3.7])
def test_no_cell_holds_more_sampled_points_than_the_lattice_bound(ratio):
    # `dense_order` calls a body sparse without looking at its points when
    # (ceil(dx / spacing) + 1)^2 is below the threshold: no base-node cell
    # may hold more sampled points than that, at the largest jitter
    grid = SparseGrid((0.0, 0.0), 0.05, (20, 20))
    spacing = 0.05 / ratio
    for seed in range(5):
        pts = sample_shape({"type": "disk", "center": [0.5, 0.5], "radius": 0.3}, spacing, 1.0,
                           np.random.default_rng(seed))
        most = np.bincount(cell_keys(pts, grid).astype(np.int64)).max()
        assert most <= (np.ceil(ratio) + 1) ** 2


def test_a_thin_body_on_a_fine_lattice_is_sparse():
    # dx / 4 spacing passes the lattice bound, but a strip one sample high
    # puts about 4 points in each cell it occupies: counted, it is sparse
    scene = _dense_scene()
    scene.objects[0].shape = {"type": "box", "min": [0.3, 0.5], "max": [0.7, 0.5 + 0.05 / 4]}
    scene.objects[0].spacing = 0.05 / 4
    body = Simulation(scene).bodies[0]
    assert body.cmap.starts is None
    np.testing.assert_array_equal(body.ids, np.arange(body.n))


def test_a_sparse_body_is_never_reordered():
    scene = bundled_scene("spinning_disk")
    scene.solver.mode = "eulerian"
    sim = Simulation(scene)
    body = sim.bodies[0]
    for _ in range(5):
        assert sim.step()
        assert body.cmap.starts is None
        np.testing.assert_array_equal(body.ids, np.arange(body.n))
