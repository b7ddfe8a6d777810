"""Which library names the traced run wraps, and the per-layer metrics.

Layers are named after the library's modules.  The wrapped names are the
module-level names that `aulmpm.engine`, `aulmpm.transfers` and
`aulmpm.kinematics` call (so a call is traced where it is made), plus the
`Simulation` entry points, `ConfigurationMap.build` and two `SparseGrid`
methods.  The kernel-path twins share their MLS twin's span, so the numbers
survive a merge of the two transfer paths.

Bytes "computed" are float64/int64 array bytes read plus written per call,
from array shapes; they ignore temporaries and cache misses.
"""

from __future__ import annotations

import importlib

F8 = 8  # bytes per float64 / int64 element


def _shape(body):
    n, S = body.cmap.slots.shape
    return n, S, body.x.shape[1]


def _p2g(counts, args, _):
    n, S, d = _shape(args[0])
    counts["stencil_entries"] += n * S
    # reads m, v, x, C, w, r, slots; scatters mass, momentum, positions, weights
    counts["p2g_bytes"] += F8 * (n * (1 + 2 * d + d * d) + n * S * (2 + d) + n * S * (2 + 2 * d))


def _forces(counts, args, _):
    n, S, d = _shape(args[0])
    # reads P0, F_0s, V0, gradient weights, slots; scatters one d-vector per entry
    counts["forces_bytes"] += F8 * (n * (2 * d * d + 1) + n * S * (d + 1) + n * S * d)


def _g2p(counts, args, _):
    n, S, d = _shape(args[0])
    # reads slots, gathered node velocities, w, gradient weights, x; writes C, v, x
    counts["g2p_bytes"] += F8 * (n * S * (2 + 2 * d) + n * (d * d + 3 * d))


def _add(key, value=lambda args, result: 1):
    def hook(counts, args, result):
        counts[key] += value(args, result)
    return hook


def _marked(counts, args, result):
    counts["rebind_checks"] += 1
    counts["marked_fraction_sum"] += result[0] / max(args[0].shape[0], 1)


# (owner, attribute, span, count hook); "pkg.module:Class" names a class
WRAPS = [
    ("aulmpm", "load_scene", "scene.load", None),
    ("aulmpm.engine:Simulation", "__init__", "engine.init", None),
    ("aulmpm.engine:Simulation", "step", "engine.step", None),
    ("aulmpm.engine:Simulation", "run", "engine.run", None),
    ("aulmpm.engine", "sample_shape", "scene.sample", None),
    ("aulmpm.engine", "p2g", "transfers.p2g", _p2g),
    ("aulmpm.engine", "p2g_kernel", "transfers.p2g", _p2g),
    ("aulmpm.engine", "finalize_grid", "transfers.finalize_grid", None),
    ("aulmpm.engine", "stress_pass", "transfers.stress_pass", None),
    ("aulmpm.engine", "grid_internal_forces", "transfers.forces", _forces),
    ("aulmpm.engine", "grid_internal_forces_kernel", "transfers.forces", _forces),
    ("aulmpm.engine", "explicit_update", "transfers.grid_update", None),
    ("aulmpm.engine", "implicit_update", "transfers.grid_update", None),
    ("aulmpm.engine", "grid_collisions", "transfers.collisions",
     _add("collision_nodes", lambda a, r: r)),
    ("aulmpm.engine", "g2p", "transfers.g2p", _g2p),
    ("aulmpm.engine", "g2p_kernel", "transfers.g2p", _g2p),
    ("aulmpm.engine", "advance_F_sn", "kinematics.advance_F_sn",
     _add("inverted", lambda a, r: r)),
    ("aulmpm.engine", "compose_total", "kinematics.compose_total", None),
    ("aulmpm.engine", "plastic_project", "constitutive.plastic_project", None),
    ("aulmpm.engine", "deformation_delta", "kinematics.rebind_check", None),
    ("aulmpm.engine", "should_update", "kinematics.rebind_check", _marked),
    ("aulmpm.engine", "apply_update", "kinematics.rebind", _add("rebinds")),
    ("aulmpm.transfers", "energy_and_piola", "constitutive.energy_and_piola", None),
    ("aulmpm.transfers", "hessian_action", "constitutive.hessian_action", None),
    ("aulmpm.transfers", "hessian_apply", "transfers.hessian_apply",
     _add("hessian_apply_calls")),
    ("aulmpm.transfers", "compose_total", "kinematics.compose_total", None),
    ("aulmpm.kinematics:ConfigurationMap", "build", "kinematics.cmap_build", None),
    ("aulmpm.kinematics", "build_stencil", "mls.build_stencil",
     _add("centers_bound", lambda a, r: len(a[0]))),
    ("aulmpm.kinematics", "moment_matrix", "mls.moment_matrix", None),
    ("aulmpm.kinematics", "gradient_weights", "mls.gradient_weights", None),
    ("aulmpm.kinematics", "compose_total", "kinematics.compose_total", None),
    ("aulmpm.grid:SparseGrid", "activate", "grid.activate", _add("activate_calls")),
    ("aulmpm.grid:SparseGrid", "zero_fields", "grid.zero_fields", None),
]

# per-layer self-time metric -> span
TIME_METRICS = {
    "transfers.p2g_s": "transfers.p2g",
    "transfers.forces_s": "transfers.forces",
    "transfers.g2p_s": "transfers.g2p",
    "transfers.stress_pass_s": "transfers.stress_pass",
    "transfers.finalize_grid_s": "transfers.finalize_grid",
    "transfers.grid_update_s": "transfers.grid_update",
    "transfers.hessian_apply_s": "transfers.hessian_apply",
    "transfers.collisions_s": "transfers.collisions",
    "constitutive.energy_and_piola_s": "constitutive.energy_and_piola",
    "constitutive.hessian_action_s": "constitutive.hessian_action",
    "constitutive.plastic_project_s": "constitutive.plastic_project",
    "kinematics.advance_F_sn_s": "kinematics.advance_F_sn",
    "kinematics.compose_total_s": "kinematics.compose_total",
    "kinematics.rebind_check_s": "kinematics.rebind_check",
    "kinematics.rebind_s": "kinematics.rebind",
    "kinematics.cmap_build_s": "kinematics.cmap_build",
    "mls.build_stencil_s": "mls.build_stencil",
    "mls.moment_matrix_s": "mls.moment_matrix",
    "mls.gradient_weights_s": "mls.gradient_weights",
    "grid.activate_s": "grid.activate",
    "grid.zero_fields_s": "grid.zero_fields",
    "scene.load_s": "scene.load",
    "scene.sample_s": "scene.sample",
    "engine.init_self_s": "engine.init",
    "engine.step_self_s": "engine.step",
    "engine.output_s": "engine.run",
}

# per-layer count metric -> (tracer count key, span that must be wrapped)
COUNT_METRICS = {
    "transfers.stencil_entries": ("stencil_entries", "transfers.p2g"),
    "transfers.p2g_bytes_computed": ("p2g_bytes", "transfers.p2g"),
    "transfers.forces_bytes_computed": ("forces_bytes", "transfers.forces"),
    "transfers.g2p_bytes_computed": ("g2p_bytes", "transfers.g2p"),
    "transfers.hessian_apply_calls": ("hessian_apply_calls", "transfers.hessian_apply"),
    "transfers.collision_nodes": ("collision_nodes", "transfers.collisions"),
    "kinematics.rebinds": ("rebinds", "kinematics.rebind"),
    "kinematics.inverted": ("inverted", "kinematics.advance_F_sn"),
    "mls.centers_bound": ("centers_bound", "mls.build_stencil"),
    "grid.activate_calls": ("activate_calls", "grid.activate"),
}


def install(tracer) -> set[str]:
    """Wrap every name in WRAPS; returns the spans with at least one wrapped name."""
    live = set()
    for owner_path, attr, span, hook in WRAPS:
        mod_name, _, cls_name = owner_path.partition(":")
        owner = importlib.import_module(mod_name)
        if cls_name:
            owner = getattr(owner, cls_name, None)
            if owner is None:
                tracer.missing.append(f"{owner_path}.{attr}")
                continue
        if tracer.wrap(owner, attr, span, hook):
            live.add(span)
    return live
