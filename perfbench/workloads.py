"""Benchmark workloads: scene dicts generated from a workload seed.

Each workload is one scene plus a fixed episode length.  An episode is what
a user runs: `load_scene` + `Simulation(...)`, then the steps (or
`Simulation.run` with output), then the final state.  The episode length is
fixed so that final states can be compared against a stored reference and
per-episode counts repeat exactly.

Why these four:

* plate_explicit -- the largest working set (42k particles, stencil arrays
  far beyond L2); transfers and stress dominate the step.  No rebinds, no
  colliders, no CG, no output: it bypasses every mechanism but the hot loop.
* droplet_adaptive -- the paper's mechanism: criterion-driven rebinding on a
  splashing fluid drop (about 28 rebinds per 104 steps), run through
  `Simulation.run` so frames, stats.csv and summary.json get written.
* droplet_euler_kernel -- the same inputs as standard MPM: rebinding every
  step on the kernel (PIC/FLIP) transfer path.  Work that is hoisted per
  binding epoch cannot help here.
* snow_implicit -- a snow disk hitting a slip floor and a sticky sphere
  under the implicit integrator: matrix-free CG, contact and plasticity run
  only here.  Its steps are bimodal (free flight without CG, then contact
  with 25-50 CG iterations), so p50 sits on the former and p90 on the
  latter.

Left out on purpose: implicit with the kernel transfer (its Hessian does not
match its forces) and CFL-driven runs (they count steps, not time); no
reference can gate a known-wrong output.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

# sampling jitter as a fraction of the lattice spacing; the seed picks the
# jitter, the lattice (and so the particle count) stays the same
JITTER = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    base: str | None        # bundled scene the inputs start from
    steps: int              # steps per episode
    frames: int             # >0: drive through Simulation.run with output
    rebind_band: tuple[float, float]   # accepted rebinds per 104 steps
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("plate_explicit", "rotating_plate", 50, 0, (0.0, 0.0),
             "42k-particle explicit MLS plate: largest working set, transfer-bound, "
             "no rebind/CG/contact/output"),
    Workload("droplet_adaptive", "droplet", 104, 8, (16.0, 40.0),
             "5k-particle fluid drop with adaptive rebinding and frame output: "
             "the paper's mechanism"),
    Workload("droplet_euler_kernel", "droplet", 104, 0, (104.0, 104.0),
             "same drop as standard MPM: kernel transfer, rebinding every step"),
    Workload("snow_implicit", None, 60, 0, (0.0, 0.0),
             "2.8k-particle snow disk under implicit MLS: CG solve, contact, "
             "plasticity"),
)}


def _snow_scene() -> dict:
    return {
        "name": "snow_implicit",
        "grid": {"origin": [0.0, 0.0], "size": [1.0, 1.0], "cells": [64, 64]},
        "gravity": [0.0, -9.81],
        "solver": {"dt": 2e-4, "steps": 60, "integrator": "implicit",
                   "transfer": "least_squares", "mode": "adaptive"},
        "objects": [{
            "name": "snow",
            # 2 mm above the floor
            "shape": {"type": "disk", "center": [0.45, 0.262], "radius": 0.06},
            "spacing": 0.002,
            "material": {"type": "snow", "density": 400.0, "youngs": 1.4e4,
                         "poisson": 0.2},
            "velocity": [0.5, -0.5],
        }],
        "colliders": [
            {"type": "half_space", "point": [0.0, 0.2], "normal": [0.0, 1.0],
             "mode": "slip"},
            {"type": "sphere", "center": [0.525, 0.262], "radius": 0.012,
             "mode": "sticky"},
        ],
    }


def scene_dict(workload: Workload, seed: int, scenes_dir: Path) -> dict:
    """The scene the library receives for this workload and seed."""
    if workload.base is None:
        raw = _snow_scene()
    else:
        raw = json.loads((scenes_dir / f"{workload.base}.json").read_text())
    raw = copy.deepcopy(raw)
    raw["name"] = workload.name
    sol = raw["solver"]
    sol.pop("duration", None)
    sol["steps"] = workload.steps
    sol["seed"] = int(seed)
    if workload.name == "droplet_euler_kernel":
        sol["mode"] = "eulerian"
        sol["transfer"] = "kernel"
    for obj in raw["objects"]:
        obj["jitter"] = JITTER
    return raw
