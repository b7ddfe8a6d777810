"""Correctness gate applied to every episode of every run.

Invariants hold for every seed: finite final state, the particle count and
total mass the workload defines (mass exactly, at every step), rebinds per
104 steps inside the workload's band, and no CG solve that hit its
iteration cap or fell back to the explicit update.  For the default seed
the final positions and velocities must also match the stored reference
within the tolerance recorded with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import DEFAULT_SEED, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIELDS = ("x", "y", "vx", "vy")


@dataclass
class Episode:
    """What one episode left behind, read through the library's public API."""

    table: np.ndarray        # Simulation.particle_table() at the end
    masses: np.ndarray       # total mass after each step (Simulation.records)
    steps: int
    rebinds: int             # summary()["updates_total"]
    cg_iters: int = 0
    cg_unconverged: int = 0
    cg_fallbacks: int = 0

    @property
    def rebinds_per_104(self) -> float:
        return self.rebinds * 104.0 / self.steps


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def sample_ids(n: int, count: int = 256) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, count).astype(np.int64))


def reference_sample(table: np.ndarray) -> dict:
    ids = sample_ids(table.shape[0])
    return {f: table[f][ids].tolist() for f in FIELDS} | {"ids": ids.tolist()}


def check(ep: Episode, workload: Workload, ref: dict, seed: int) -> list[str]:
    """Problems found in one episode; empty when it passes."""
    problems = []
    tab = ep.table
    if not all(np.isfinite(tab[f]).all() for f in tab.dtype.names):
        problems.append("non-finite final state")
    if tab.shape[0] != ref["particles"]:
        problems.append(f"{tab.shape[0]} particles, expected {ref['particles']}")
    if ep.steps != workload.steps or len(ep.masses) != workload.steps:
        problems.append(f"{ep.steps} steps, expected {workload.steps}")
    if not np.all(ep.masses == ref["mass"]):
        worst = float(np.max(np.abs(ep.masses - ref["mass"])))
        problems.append(f"total mass drifted by {worst:.3e} from {ref['mass']!r}")
    lo, hi = workload.rebind_band
    if not lo <= ep.rebinds_per_104 <= hi:
        problems.append(f"rebinds_per_104 {ep.rebinds_per_104:g} outside [{lo:g}, {hi:g}]")
    if ep.cg_unconverged:
        problems.append(f"{ep.cg_unconverged} step(s) hit the CG iteration cap")
    if ep.cg_fallbacks:
        problems.append(f"{ep.cg_fallbacks} step(s) fell back to the explicit update")
    if seed == DEFAULT_SEED and tab.shape[0] == ref["particles"]:
        problems += compare_reference(tab, ref)
    return problems


def compare_reference(tab: np.ndarray, ref: dict) -> list[str]:
    ids = np.asarray(ref["ids"])
    out = []
    for f in FIELDS:
        tol = ref["tol_v"] if f.startswith("v") else ref["tol_x"]
        err = float(np.max(np.abs(tab[f][ids] - np.asarray(ref[f]))))
        if not err <= tol:
            out.append(f"final {f} differs from the reference by {err:.3e} > {tol:.3e}")
    return out
