#!/usr/bin/env python3
"""Record the default-seed reference final state of each workload.

    python3 perfbench/make_reference.py [workload ...]

Writes perfbench/reference/<workload>.json: particle count, total mass and
the final positions and velocities of a fixed sample of particles.  The
comparison tolerance is recorded with them.  It comes from a second run
whose initial velocities are scaled by (1 + PERTURB): how far the final
state moves under an input change a few ulps in size shows how much
reordered floating-point arithmetic may move it.  The tolerance is
SAFETY times that distance, and never below FLOOR times the field's scale.
"""

from __future__ import annotations

import json
import sys

import run

PERTURB = 1e-13
SAFETY = 100.0
FLOOR = 1e-12


def _perturbed(raw: dict) -> dict:
    for obj in raw["objects"]:
        if "velocity" in obj:
            obj["velocity"] = [v * (1.0 + PERTURB) for v in obj["velocity"]]
        if "angular_velocity" in obj:
            obj["angular_velocity"] *= 1.0 + PERTURB
    return raw


def main(names) -> int:
    run._cap_threads()
    sys.path.insert(0, str(run.SRC))
    import numpy as np

    import bench
    from gate import DEFAULT_SEED, FIELDS, REFERENCE_DIR, reference_sample, sample_ids
    from workloads import WORKLOADS

    REFERENCE_DIR.mkdir(exist_ok=True)
    run.OUT.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        w = WORKLOADS[name]
        plain = bench.Runner(w, DEFAULT_SEED, run.OUT, None)
        ep = plain.episode()[0]
        other = bench.Runner(w, DEFAULT_SEED, run.OUT, None)
        other.raw = _perturbed(other.raw)
        ep2 = other.episode()[0]
        tab, tab2 = ep.table, ep2.table
        ids = sample_ids(tab.shape[0])
        dist = {f: float(np.max(np.abs(tab[f] - tab2[f]))) for f in FIELDS}
        scale = {f: float(np.max(np.abs(tab[f]))) for f in FIELDS}

        def tol(fields):
            return max(max(SAFETY * dist[f], FLOOR * scale[f]) for f in fields)

        ref = {
            "workload": name,
            "seed": DEFAULT_SEED,
            "steps": ep.steps,
            "particles": int(tab.shape[0]),
            "mass": float(ep.masses[0]),
            "rebinds": ep.rebinds,
            "tol_x": tol(("x", "y")),
            "tol_v": tol(("vx", "vy")),
            "tol_basis": {"perturbation": PERTURB, "safety": SAFETY, "floor": FLOOR,
                          "perturbed_distance": dist},
            "sampled": len(ids),
        } | reference_sample(tab)
        (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
        print(f"{name}: {ref['particles']} particles, {ref['rebinds']} rebinds, "
              f"tol_x={ref['tol_x']:.3e} tol_v={ref['tol_v']:.3e} (perturbed {dist})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
