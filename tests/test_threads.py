"""p2g and g2p run a body's two velocity components on two threads once the
body has `transfers.SPLIT_MIN_PARTICLES` particles and the process may use
two CPUs.

The threshold is patched to 0 to force the split on the small scenes here.
Split runs must give the inline runs' bits, smaller bodies must start no
thread, and an exception on the worker must reach the caller of `step`.
"""

import threading
from dataclasses import fields

import numpy as np
import pytest

from aulmpm import transfers
from aulmpm.engine import Simulation, StepRecord
from aulmpm.scene import bundled_scene, load_scene

STEPS = 20
TWO_CPUS = transfers._cpus() >= 2

DISK = {"shape": {"type": "disk", "center": [0.5, 0.5], "radius": 0.12}, "spacing": 0.01,
        "material": {"type": "fixed_corotated", "density": 1000.0, "youngs": 1e4,
                     "poisson": 0.3},
        "velocity": [0.3, -0.2], "angular_velocity": 6.0}
SNOW = {"shape": {"type": "disk", "center": [0.25, 0.3], "radius": 0.06}, "spacing": 0.01,
        "material": {"type": "snow", "density": 400.0, "youngs": 1.4e4, "poisson": 0.2},
        "velocity": [0.5, -0.5]}
FLOOR = {"type": "half_space", "point": [0.0, 0.385], "normal": [0.0, 1.0], "mode": "slip"}

# (mode, transfer, integrator, objects, colliders): both transfers and both
# integrators, one cell with a collider (so p2g scatters positions) and one
# with two bodies
CELLS = {
    "least_squares-explicit": ("total_lagrangian", "least_squares", "explicit", [DISK], []),
    "kernel-explicit": ("eulerian", "kernel", "explicit", [DISK], []),
    "least_squares-implicit": ("adaptive", "least_squares", "implicit", [DISK], []),
    "collider": ("adaptive", "least_squares", "explicit", [DISK], [FLOOR]),
    "two_bodies": ("eulerian", "kernel", "explicit", [DISK, SNOW], []),
}


def _sim(cell):
    mode, transfer, integrator, objects, colliders = CELLS[cell]
    return Simulation(load_scene({
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [24, 24]},
        "gravity": [0.0, -10.0],
        "solver": {"dt": 2e-4, "steps": STEPS, "mode": mode, "transfer": transfer,
                   "integrator": integrator},
        "objects": objects,
        "colliders": colliders,
    }))


def _record_bytes(record):
    """Every field of a step record but the wall times, as bytes."""
    return [np.asarray(getattr(record, f.name)).tobytes() for f in fields(StepRecord)
            if f.name not in ("wall_ms", "rebind_ms")]


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_split_runs_give_the_inline_bits(monkeypatch, cell):
    inline = _sim(cell)
    inline.run()
    monkeypatch.setattr(transfers, "SPLIT_MIN_PARTICLES", 0)
    monkeypatch.setattr(transfers, "_worker", None)
    before = threading.active_count()
    split = _sim(cell)
    split.run()
    # one worker thread, made on first use and shared by every body and step
    assert (transfers._worker is not None) == TWO_CPUS
    assert threading.active_count() <= before + 1
    assert split.particle_table().tobytes() == inline.particle_table().tobytes()
    assert len(split.records) == len(inline.records) == STEPS
    for a, b in zip(split.records, inline.records):
        assert _record_bytes(a) == _record_bytes(b), a.step


def test_bodies_below_the_threshold_start_no_thread(monkeypatch):
    monkeypatch.setattr(transfers, "_worker", None)
    sim = Simulation(bundled_scene("droplet"))
    assert 5000 < sim.n_particles < transfers.SPLIT_MIN_PARTICLES
    before = threading.active_count()
    sim.run()
    assert threading.active_count() == before
    assert transfers._worker is None


@pytest.mark.skipif(not TWO_CPUS, reason="the split needs two CPUs")
@pytest.mark.parametrize("name", ["_scatter", "_gather"])
def test_a_worker_exception_reaches_the_caller(monkeypatch, name):
    # _scatter runs in p2g's component tasks, _gather in g2p's; raising on
    # the worker thread alone fails component 1's task and no other call
    real = getattr(transfers, name)

    def fail_off_main(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError(f"{name} failed on the worker")
        return real(*args, **kwargs)

    monkeypatch.setattr(transfers, "SPLIT_MIN_PARTICLES", 0)
    monkeypatch.setattr(transfers, name, fail_off_main)
    sim = _sim("least_squares-explicit")
    with pytest.raises(RuntimeError, match=f"{name} failed on the worker"):
        sim.step()
