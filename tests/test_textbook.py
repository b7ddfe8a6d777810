"""Each explicit mode is its textbook method.

A whole run of the library against `oracles.textbook_mpm`, explicit MPM
written from scratch on a dense node grid: it takes only the initial
particles and the material constants from the library.  The cells are
least squares (MLS-MPM) or kernel (PIC/FLIP), Eulerian or total-Lagrangian,
and a corotated solid or a fluid.  The scene has no colliders: with them
the library tests contact at mass-averaged node positions, not at lattice
positions plus dt v (README, "Contact").
"""

import itertools

import numpy as np
import pytest

from aulmpm.engine import Simulation
from aulmpm.kinematics import compose_total
from aulmpm.scene import load_scene
from oracles import textbook_mpm, unbatch

MATERIALS = {
    "solid": {"type": "fixed_corotated", "density": 1000.0, "youngs": 1e4, "poisson": 0.3},
    "fluid": {"type": "weakly_compressible_fluid", "density": 1000.0, "bulk": 1e4},
}
CELLS = list(itertools.product(("least_squares", "kernel"),
                               ("eulerian", "total_lagrangian"), MATERIALS))
STEPS = 100
RTOL = 1e-13   # max |library - reference| / max |reference|, for x, v and F


@pytest.mark.parametrize("transfer, mode, material", CELLS,
                         ids=["-".join(cell) for cell in CELLS])
def test_explicit_run_matches_the_textbook_method(transfer, mode, material):
    scene = load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [32, 32]},
        "gravity": [0.0, -9.81],
        "solver": {"dt": 2e-4, "steps": STEPS, "mode": mode, "transfer": transfer},
        "objects": [{
            "shape": {"type": "disk", "center": [0.5, 0.5], "radius": 0.15},
            "spacing": 0.01, "jitter": 0.3, "material": MATERIALS[material],
            "velocity": [0.4, -0.3], "angular_velocity": 6.0,
        }],
    })
    sim = Simulation(scene)
    body = sim.bodies[0]
    start = (body.x.copy(), body.v.copy(), unbatch(body.C).copy(), body.m.copy(),
             body.V0.copy())
    for _ in range(STEPS):
        sim.step()
    want = textbook_mpm(*start, body.material, scene.dx, scene.cells, scene.solver.dt,
                        scene.gravity, STEPS, eulerian=mode == "eulerian",
                        least_squares=transfer == "least_squares")
    F = unbatch(compose_total(body.state))
    for name, got, ref in zip("xvF", (body.x, body.v, F), want):
        gap = np.abs(got - ref).max() / np.abs(ref).max()
        assert gap <= RTOL, f"{name}: relative gap {gap:.3e}"
