"""Every accepted combination of solver options runs and conserves.

The solver options form a closed set: mode x transfer x integrator x
material, 36 cells.  Each cell drifts and spins one disk of about 450
particles with no gravity and no colliders, so nothing outside the
particles exchanges momentum with them, and leaves every 2x2 field of the
body a (2, 2, n) batch.
"""

import itertools

import numpy as np
import pytest

from aulmpm.engine import Simulation
from aulmpm.scene import load_scene

MODES = ("total_lagrangian", "eulerian", "adaptive")
TRANSFERS = ("least_squares", "kernel")
INTEGRATORS = ("explicit", "implicit")
MATERIALS = {
    "fixed_corotated": {"type": "fixed_corotated", "density": 1000.0,
                        "youngs": 1e4, "poisson": 0.3},
    "snow": {"type": "snow", "density": 400.0, "youngs": 1.4e4, "poisson": 0.2},
    "fluid": {"type": "weakly_compressible_fluid", "density": 1000.0, "bulk": 1e4},
}
STEPS = 20
MASS_RTOL = 1e-13
MOMENTUM_RTOL = 1e-12   # explicit cells only: an implicit step is a truncated CG solve


def _scene(mode, transfer, integrator, material):
    return load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [24, 24]},
        "solver": {"dt": 2e-4, "steps": STEPS, "mode": mode, "transfer": transfer,
                   "integrator": integrator},
        "objects": [{
            "shape": {"type": "disk", "center": [0.5, 0.5], "radius": 0.12},
            "spacing": 0.01,
            "material": MATERIALS[material],
            "velocity": [0.3, -0.2],
            "angular_velocity": 6.0,
        }],
    })


@pytest.mark.parametrize("mode,transfer,integrator,material", list(
    itertools.product(MODES, TRANSFERS, INTEGRATORS, MATERIALS)))
def test_option_cell_conserves_mass_and_momentum(mode, transfer, integrator, material):
    sim = Simulation(_scene(mode, transfer, integrator, material))
    body = sim.bodies[0]
    mass = float(body.m.sum())
    p0 = (body.m[:, None] * body.v).sum(axis=0)
    for _ in range(STEPS):
        rebound = sim.step()
        assert sim.grid.mass.sum() == pytest.approx(mass, rel=MASS_RTOL, abs=0.0)
        if mode != "adaptive":
            assert rebound == (mode == "eulerian")
        if integrator == "explicit":
            p = (body.m[:, None] * body.v).sum(axis=0)
            assert np.linalg.norm(p - p0) <= MOMENTUM_RTOL * np.linalg.norm(p0)
    if integrator == "implicit":
        assert sim.cg_unconverged == 0 and sim.cg_fallbacks == 0
    # every 2x2 field is still a float64 (2, 2, n) batch
    fields = {"C": body.C, "F_0s": body.state.F_0s, "F_sn": body.state.F_sn}
    if material == "snow":
        fields["F_plastic"] = body.F_plastic
    for name, F in fields.items():
        assert F.shape == (2, 2, body.n) and F.dtype == np.float64, name
